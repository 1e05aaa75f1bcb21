package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

// graphOp is one encoded relational operation for testing/quick.
type graphOp struct {
	Kind    uint8 // %5: 0,1 insert; 2 remove; 3 query succ; 4 query point
	Src     uint8
	Dst     uint8
	Weight  uint16
	OutMask uint8
}

// graphOps is the quick.Generator for random operation sequences.
type graphOps []graphOp

// Generate implements quick.Generator: short sequences over a tiny key
// space, maximizing collision coverage.
func (graphOps) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(60) + 10
	ops := make(graphOps, n)
	for i := range ops {
		ops[i] = graphOp{
			Kind:   uint8(r.Intn(5)),
			Src:    uint8(r.Intn(6)),
			Dst:    uint8(r.Intn(6)),
			Weight: uint16(r.Intn(100)),
		}
	}
	return reflect.ValueOf(ops)
}

// TestQuickSynthesizedRefinesReference is the core property test: any
// random single-threaded operation sequence yields identical observable
// behaviour on a synthesized relation and on the §2 reference, and leaves
// the instance graph well formed with the right abstraction.
func TestQuickSynthesizedRefinesReference(t *testing.T) {
	variants := graphVariants()
	// Exercise a representative subset under quick (full differential
	// coverage of all variants runs in TestDifferentialRandomOps).
	for _, name := range []string{"stick/fine/tree+tree", "split/striped/chm+hash", "diamond/speculative",
		"split/striped2/chm+tree", "stick/mid-striped/chm+chm"} {
		var v *variant
		for i := range variants {
			if variants[i].name == name {
				v = &variants[i]
			}
		}
		if v == nil {
			t.Fatalf("variant %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			f := func(ops graphOps) bool {
				r := v.build(t)
				ref := NewReference(graphSpec())
				for _, op := range ops {
					s := rel.T("src", int(op.Src), "dst", int(op.Dst))
					switch op.Kind {
					case 0, 1:
						w := rel.T("weight", int(op.Weight))
						got, err := r.Insert(s, w)
						if err != nil {
							return false
						}
						want, _ := ref.Insert(s, w)
						if got != want {
							return false
						}
					case 2:
						got, err := r.Remove(s)
						if err != nil {
							return false
						}
						want, _ := ref.Remove(s)
						if got != want {
							return false
						}
					case 3:
						got, err := r.Query(rel.T("src", int(op.Src)), "dst", "weight")
						if err != nil {
							return false
						}
						want, _ := ref.Query(rel.T("src", int(op.Src)), "dst", "weight")
						if !tuplesEqual(got, want) {
							return false
						}
					default:
						got, err := r.Query(s, "weight")
						if err != nil {
							return false
						}
						want, _ := ref.Query(s, "weight")
						if !tuplesEqual(got, want) {
							return false
						}
					}
				}
				// Abstraction function agrees with the reference set.
				wf, err := r.VerifyWellFormed()
				if err != nil {
					return false
				}
				want, _ := ref.Snapshot()
				return tuplesEqual(wf, want)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickInsertRemoveRoundTrip: inserting a fresh tuple then removing it
// restores the previous snapshot, for random tuples and interleaved noise.
func TestQuickInsertRemoveRoundTrip(t *testing.T) {
	v := graphVariants()[1] // stick/fine
	r := v.build(t)
	// Background tuples.
	r.Insert(rel.T("src", 100, "dst", 100), rel.T("weight", 1))
	r.Insert(rel.T("src", 100, "dst", 101), rel.T("weight", 2))
	f := func(src, dst uint8, w uint16) bool {
		s := rel.T("src", 200+int(src), "dst", int(dst))
		before, err := r.Snapshot()
		if err != nil {
			return false
		}
		ok, err := r.Insert(s, rel.T("weight", int(w)))
		if err != nil || !ok {
			return false
		}
		ok, err = r.Remove(s)
		if err != nil || !ok {
			return false
		}
		after, err := r.Snapshot()
		if err != nil {
			return false
		}
		return tuplesEqual(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickQueryProjectionConsistent: for random bound tuples, the query
// result projected from a snapshot equals the direct query.
func TestQuickQueryProjectionConsistent(t *testing.T) {
	v := graphVariants()[8] // diamond/fine
	r := v.build(t)
	for i := 0; i < 30; i++ {
		r.Insert(rel.T("src", i%5, "dst", i%7), rel.T("weight", i))
	}
	f := func(src uint8) bool {
		bound := rel.T("src", int(src%5))
		direct, err := r.Query(bound, "dst", "weight")
		if err != nil {
			return false
		}
		snap, err := r.Snapshot()
		if err != nil {
			return false
		}
		var viaSnap []rel.Tuple
		for _, tu := range snap {
			if tu.Extends(bound) {
				viaSnap = append(viaSnap, tu.Project([]string{"dst", "weight"}))
			}
		}
		return tuplesEqual(direct, viaSnap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
