package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

func graphSpec() rel.Spec {
	return rel.MustSpec([]string{"src", "dst", "weight"},
		rel.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
}

func dirSpec() rel.Spec {
	return rel.MustSpec([]string{"parent", "name", "child"},
		rel.FD{From: []string{"parent", "name"}, To: []string{"child"}})
}

// variant describes a (decomposition, placement) pair under test. The core
// suite runs every behavioural test over every variant: the paper's
// correctness claim is exactly that all legal representations implement
// the same relational semantics.
type variant struct {
	name  string
	build func(t *testing.T) *Relation
}

func stickRel(t *testing.T, top, mid container.Kind, place func(*decomp.Decomposition) *locks.Placement) *Relation {
	t.Helper()
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, top).
		Edge("uv", "u", "v", []string{"dst"}, mid).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := place(d)
	r, err := Synthesize(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func splitRel(t *testing.T, top, mid container.Kind, place func(*decomp.Decomposition) *locks.Placement) *Relation {
	t.Helper()
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, top).
		Edge("uw", "u", "w", []string{"dst"}, mid).
		Edge("wx", "w", "x", []string{"weight"}, container.Cell).
		Edge("ρv", "ρ", "v", []string{"dst"}, top).
		Edge("vy", "v", "y", []string{"src"}, mid).
		Edge("yz", "y", "z", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Synthesize(d, place(d))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func diamondRel(t *testing.T, spec bool) *Relation {
	t.Helper()
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρx", "ρ", "x", []string{"src"}, container.ConcurrentHashMap).
		Edge("ρy", "ρ", "y", []string{"dst"}, container.ConcurrentHashMap).
		Edge("xz", "x", "z", []string{"dst"}, container.TreeMap).
		Edge("yz", "y", "z", []string{"src"}, container.TreeMap).
		Edge("zw", "z", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := locks.NewPlacement(d)
	if spec {
		p.SetStripes(d.Root, 16)
		p.PlaceSpeculative(d.EdgeByName("ρx"), d.Root, "src")
		p.PlaceSpeculative(d.EdgeByName("ρy"), d.Root, "dst")
	}
	r, err := Synthesize(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// midStriped places a stick's uv at u striped by dst over k stripes (entry
// level below the root); the other edges stay fine-grained.
func midStriped(k int) func(*decomp.Decomposition) *locks.Placement {
	return func(d *decomp.Decomposition) *locks.Placement {
		u := d.NodeByName("u")
		return locks.NewPlacement(d).SetStripes(u, k).Place(d.EdgeByName("uv"), u, "dst")
	}
}

func graphVariants() []variant {
	striped := func(k int) func(*decomp.Decomposition) *locks.Placement {
		return func(d *decomp.Decomposition) *locks.Placement {
			p := locks.NewPlacement(d)
			p.SetStripes(d.Root, k)
			for _, e := range d.Edges {
				if e.Src == d.Root {
					p.Place(e, d.Root, e.Cols...)
				}
			}
			return p
		}
	}
	return []variant{
		{"stick/coarse/hash+tree", func(t *testing.T) *Relation {
			return stickRel(t, container.HashMap, container.TreeMap, locks.Coarse)
		}},
		{"stick/fine/tree+tree", func(t *testing.T) *Relation {
			return stickRel(t, container.TreeMap, container.TreeMap, locks.FineGrained)
		}},
		{"stick/striped/chm+hash", func(t *testing.T) *Relation {
			return stickRel(t, container.ConcurrentHashMap, container.HashMap, striped(64))
		}},
		{"stick/striped/csl+tree", func(t *testing.T) *Relation {
			return stickRel(t, container.ConcurrentSkipListMap, container.TreeMap, striped(8))
		}},
		{"stick/fine/cow+cow", func(t *testing.T) *Relation {
			return stickRel(t, container.CopyOnWriteMap, container.CopyOnWriteMap, locks.FineGrained)
		}},
		{"split/coarse/hash+tree", func(t *testing.T) *Relation {
			return splitRel(t, container.HashMap, container.TreeMap, locks.Coarse)
		}},
		{"split/fine/chm+tree", func(t *testing.T) *Relation {
			return splitRel(t, container.ConcurrentHashMap, container.TreeMap, locks.FineGrained)
		}},
		{"split/striped/chm+hash", func(t *testing.T) *Relation {
			return splitRel(t, container.ConcurrentHashMap, container.HashMap, striped(1024))
		}},
		{"diamond/fine", func(t *testing.T) *Relation { return diamondRel(t, false) }},
		{"diamond/speculative", func(t *testing.T) *Relation { return diamondRel(t, true) }},
		// Two root stripes, so distinct keys share stripes: removes and
		// inserts of different keys meet on one lock as often as not.
		{"split/striped2/chm+tree", func(t *testing.T) *Relation {
			return splitRel(t, container.ConcurrentHashMap, container.TreeMap, striped(2))
		}},
		// Entry-level striping below the root: a remove that empties u's
		// container observes every entry, so it must take all of u's
		// stripes.
		{"stick/mid-striped/chm+chm", func(t *testing.T) *Relation {
			return stickRel(t, container.ConcurrentHashMap, container.ConcurrentHashMap, midStriped(4))
		}},
	}
}

func forEachVariant(t *testing.T, f func(t *testing.T, r *Relation)) {
	for _, v := range graphVariants() {
		t.Run(v.name, func(t *testing.T) { f(t, v.build(t)) })
	}
}

func sortTuples(ts []rel.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

func tuplesEqual(a, b []rel.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	sortTuples(a)
	sortTuples(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestEmptyRelation(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != 0 {
			t.Fatalf("empty relation has %d tuples", len(snap))
		}
		res, err := r.Query(rel.T("src", 1), "dst", "weight")
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Fatalf("query on empty relation returned %v", res)
		}
		if ok, err := r.Remove(rel.T("src", 1, "dst", 2)); err != nil || ok {
			t.Fatalf("remove on empty relation: %v, %v", ok, err)
		}
	})
}

func TestPaperSection2Example(t *testing.T) {
	// The worked example of §2: insert an edge, re-insert with a new
	// weight (no-op), query successors, remove.
	forEachVariant(t, func(t *testing.T, r *Relation) {
		ok, err := r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 42))
		if err != nil || !ok {
			t.Fatalf("first insert: %v, %v", ok, err)
		}
		// Second insertion with same src/dst leaves the relation unchanged.
		ok, err = r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 101))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("put-if-absent must reject duplicate src,dst")
		}
		snap, _ := r.Snapshot()
		if len(snap) != 1 || !snap[0].Equal(rel.T("src", 1, "dst", 2, "weight", 42)) {
			t.Fatalf("snapshot = %v", snap)
		}
		// query r ⟨src:1⟩ {dst, weight}
		res, err := r.Query(rel.T("src", 1), "dst", "weight")
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || !res[0].Equal(rel.T("dst", 2, "weight", 42)) {
			t.Fatalf("successors = %v", res)
		}
		// remove by key.
		ok, err = r.Remove(rel.T("src", 1, "dst", 2))
		if err != nil || !ok {
			t.Fatalf("remove: %v, %v", ok, err)
		}
		snap, _ = r.Snapshot()
		if len(snap) != 0 {
			t.Fatalf("after remove, snapshot = %v", snap)
		}
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestQueryDirections(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		edges := [][3]int{{1, 2, 10}, {1, 3, 11}, {2, 3, 12}, {3, 1, 13}, {4, 1, 14}}
		for _, e := range edges {
			ok, err := r.Insert(rel.T("src", e[0], "dst", e[1]), rel.T("weight", e[2]))
			if err != nil || !ok {
				t.Fatalf("insert %v: %v, %v", e, ok, err)
			}
		}
		// Successors of 1.
		succ, err := r.Query(rel.T("src", 1), "dst", "weight")
		if err != nil {
			t.Fatal(err)
		}
		want := []rel.Tuple{rel.T("dst", 2, "weight", 10), rel.T("dst", 3, "weight", 11)}
		if !tuplesEqual(succ, want) {
			t.Fatalf("successors of 1 = %v, want %v", succ, want)
		}
		// Predecessors of 1.
		pred, err := r.Query(rel.T("dst", 1), "src", "weight")
		if err != nil {
			t.Fatal(err)
		}
		wantP := []rel.Tuple{rel.T("src", 3, "weight", 13), rel.T("src", 4, "weight", 14)}
		if !tuplesEqual(pred, wantP) {
			t.Fatalf("predecessors of 1 = %v, want %v", pred, wantP)
		}
		// Point query.
		w, err := r.Query(rel.T("src", 2, "dst", 3), "weight")
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != 1 || !w[0].Equal(rel.T("weight", 12)) {
			t.Fatalf("weight(2,3) = %v", w)
		}
		// Query by weight (requires scanning).
		byW, err := r.Query(rel.T("weight", 13), "src", "dst")
		if err != nil {
			t.Fatal(err)
		}
		if len(byW) != 1 || !byW[0].Equal(rel.T("src", 3, "dst", 1)) {
			t.Fatalf("byWeight = %v", byW)
		}
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRemoveCascadesCleanup(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 10))
		r.Insert(rel.T("src", 1, "dst", 3), rel.T("weight", 11))
		// Removing one of two edges keeps the src-level instance alive.
		if ok, _ := r.Remove(rel.T("src", 1, "dst", 2)); !ok {
			t.Fatal("remove failed")
		}
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatalf("after partial remove: %v", err)
		}
		succ, _ := r.Query(rel.T("src", 1), "dst")
		if len(succ) != 1 || !succ[0].Equal(rel.T("dst", 3)) {
			t.Fatalf("successors after remove = %v", succ)
		}
		// Removing the last edge must clean up the instance entirely.
		if ok, _ := r.Remove(rel.T("src", 1, "dst", 3)); !ok {
			t.Fatal("remove failed")
		}
		tuples, err := r.VerifyWellFormed()
		if err != nil {
			t.Fatalf("after full remove: %v", err)
		}
		if len(tuples) != 0 {
			t.Fatalf("residual tuples %v", tuples)
		}
		// And re-insertion works afterwards.
		if ok, _ := r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 99)); !ok {
			t.Fatal("re-insert failed")
		}
	})
}

func TestInsertRejectsMalformed(t *testing.T) {
	r := diamondRel(t, false)
	if _, err := r.Insert(rel.T("src", 1), rel.T("weight", 1)); err == nil {
		t.Error("partial tuple must be rejected")
	}
	if _, err := r.Insert(rel.T("src", 1, "dst", 2, "weight", 3), rel.T("weight", 4)); err == nil {
		t.Error("overlapping s and t must be rejected")
	}
	if _, err := r.Query(rel.T("nope", 1)); err == nil {
		t.Error("unknown column must be rejected")
	}
	if _, err := r.Remove(rel.T("src", 1)); err == nil {
		t.Error("remove by non-key must be rejected")
	}
}

// TestDifferentialRandomOps drives every variant and the reference with
// the same random operation stream and compares observable behaviour after
// every step.
func TestDifferentialRandomOps(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		ref := NewReference(graphSpec())
		rng := rand.New(rand.NewSource(99))
		const keys = 12
		for i := 0; i < 1500; i++ {
			src, dst := rng.Intn(keys), rng.Intn(keys)
			switch rng.Intn(10) {
			case 0, 1, 2: // insert
				w := rng.Intn(1000)
				got, err := r.Insert(rel.T("src", src, "dst", dst), rel.T("weight", w))
				if err != nil {
					t.Fatalf("step %d insert: %v", i, err)
				}
				want, _ := ref.Insert(rel.T("src", src, "dst", dst), rel.T("weight", w))
				if got != want {
					t.Fatalf("step %d insert(%d,%d): got %v want %v", i, src, dst, got, want)
				}
			case 3, 4: // remove
				got, err := r.Remove(rel.T("src", src, "dst", dst))
				if err != nil {
					t.Fatalf("step %d remove: %v", i, err)
				}
				want, _ := ref.Remove(rel.T("src", src, "dst", dst))
				if got != want {
					t.Fatalf("step %d remove(%d,%d): got %v want %v", i, src, dst, got, want)
				}
			case 5, 6: // successors
				got, _ := r.Query(rel.T("src", src), "dst", "weight")
				want, _ := ref.Query(rel.T("src", src), "dst", "weight")
				if !tuplesEqual(got, want) {
					t.Fatalf("step %d succ(%d): got %v want %v", i, src, got, want)
				}
			case 7: // predecessors
				got, _ := r.Query(rel.T("dst", dst), "src", "weight")
				want, _ := ref.Query(rel.T("dst", dst), "src", "weight")
				if !tuplesEqual(got, want) {
					t.Fatalf("step %d pred(%d): got %v want %v", i, dst, got, want)
				}
			case 8: // point
				got, _ := r.Query(rel.T("src", src, "dst", dst), "weight")
				want, _ := ref.Query(rel.T("src", src, "dst", dst), "weight")
				if !tuplesEqual(got, want) {
					t.Fatalf("step %d point(%d,%d): got %v want %v", i, src, dst, got, want)
				}
			default: // full snapshot + structural invariants
				got, err := r.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ref.Snapshot()
				if !tuplesEqual(got, want) {
					t.Fatalf("step %d snapshot: got %v want %v", i, got, want)
				}
				wf, err := r.VerifyWellFormed()
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if !tuplesEqual(wf, want) {
					t.Fatalf("step %d abstraction: got %v want %v", i, wf, want)
				}
			}
		}
	})
}

func TestDcacheFigure2Instance(t *testing.T) {
	// Build the Figure 2(b) instance through the public API and check the
	// worked queries of §5.2.
	d, err := decomp.NewBuilder(dirSpec(), "ρ").
		Edge("ρx", "ρ", "x", []string{"parent"}, container.TreeMap).
		Edge("xy", "x", "y", []string{"name"}, container.TreeMap).
		Edge("ρy", "ρ", "y", []string{"parent", "name"}, container.ConcurrentHashMap).
		Edge("yz", "y", "z", []string{"child"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Synthesize(d, locks.FineGrained(d))
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		parent int
		name   string
		child  int
	}{{1, "a", 2}, {2, "b", 3}, {2, "c", 4}}
	for _, e := range entries {
		ok, err := r.Insert(rel.T("parent", e.parent, "name", e.name), rel.T("child", e.child))
		if err != nil || !ok {
			t.Fatalf("insert %v: %v %v", e, ok, err)
		}
	}
	// Full iteration (plan (2)/(3)/(4) semantics).
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := []rel.Tuple{
		rel.T("parent", 1, "name", "a", "child", 2),
		rel.T("parent", 2, "name", "b", "child", 3),
		rel.T("parent", 2, "name", "c", "child", 4),
	}
	if !tuplesEqual(snap, want) {
		t.Fatalf("snapshot = %v", snap)
	}
	// Directory listing: children of parent 2.
	ls, err := r.Query(rel.T("parent", 2), "name", "child")
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(ls, []rel.Tuple{rel.T("name", "b", "child", 3), rel.T("name", "c", "child", 4)}) {
		t.Fatalf("ls(2) = %v", ls)
	}
	// Path lookup via the hashtable edge.
	ch, err := r.Query(rel.T("parent", 1, "name", "a"), "child")
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 1 || !ch[0].Equal(rel.T("child", 2)) {
		t.Fatalf("lookup = %v", ch)
	}
	// FD guard: same (parent, name) with a different child is rejected.
	if ok, _ := r.Insert(rel.T("parent", 1, "name", "a"), rel.T("child", 9)); ok {
		t.Fatal("duplicate dentry accepted")
	}
	// Remove and verify cleanup.
	if ok, _ := r.Remove(rel.T("parent", 2, "name", "b")); !ok {
		t.Fatal("remove failed")
	}
	if _, err := r.VerifyWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestStringValuesInGraph(t *testing.T) {
	// Columns hold heterogeneous values: string node ids.
	forEachVariant(t, func(t *testing.T, r *Relation) {
		r.Insert(rel.T("src", "alpha", "dst", "beta"), rel.T("weight", 1.5))
		r.Insert(rel.T("src", "alpha", "dst", "gamma"), rel.T("weight", 2.5))
		succ, err := r.Query(rel.T("src", "alpha"), "dst")
		if err != nil {
			t.Fatal(err)
		}
		if !tuplesEqual(succ, []rel.Tuple{rel.T("dst", "beta"), rel.T("dst", "gamma")}) {
			t.Fatalf("succ = %v", succ)
		}
	})
}

func TestSynthesizeRejectsInvalid(t *testing.T) {
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, container.TreeMap).
		Edge("uv", "u", "v", []string{"dst"}, container.TreeMap).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Placement for a different decomposition.
	d2, _ := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, container.TreeMap).
		Edge("uv", "u", "v", []string{"dst"}, container.TreeMap).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	if _, err := Synthesize(d, locks.Coarse(d2)); err == nil {
		t.Fatal("mismatched placement accepted")
	}
	// Invalid placement.
	p := locks.NewPlacement(d)
	p.SetStripes(d.NodeByName("u"), 4)
	p.Place(d.EdgeByName("uv"), d.NodeByName("u"), "dst") // entry striping on TreeMap
	if _, err := Synthesize(d, p); err == nil {
		t.Fatal("illegal placement accepted")
	}
}

func TestExplainOutputs(t *testing.T) {
	r := diamondRel(t, true)
	q, err := r.ExplainQuery([]string{"src"}, []string{"dst", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	if len(q) == 0 {
		t.Fatal("empty explain")
	}
	i, err := r.ExplainInsert([]string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	if len(i) == 0 {
		t.Fatal("empty insert explain")
	}
	rm, err := r.ExplainRemove([]string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rm) == 0 {
		t.Fatal("empty remove explain")
	}
}

func TestReferenceSemantics(t *testing.T) {
	ref := NewReference(graphSpec())
	ok, err := ref.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 3))
	if !ok || err != nil {
		t.Fatal("insert failed")
	}
	if ok, _ := ref.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 9)); ok {
		t.Fatal("duplicate accepted")
	}
	if ref.Len() != 1 {
		t.Fatal("len wrong")
	}
	// Reference remove accepts non-keys: remove by src wipes all matching.
	ref.Insert(rel.T("src", 1, "dst", 3), rel.T("weight", 4))
	if ok, _ := ref.Remove(rel.T("src", 1)); !ok {
		t.Fatal("remove failed")
	}
	if ref.Len() != 0 {
		t.Fatal("remove incomplete")
	}
	if _, err := ref.Insert(rel.T("src", 1), rel.T("weight", 2)); err == nil {
		t.Fatal("partial insert accepted")
	}
}

func TestManyTuplesAcrossVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	forEachVariant(t, func(t *testing.T, r *Relation) {
		const n = 40
		for s := 0; s < n; s++ {
			for d := 0; d < 5; d++ {
				ok, err := r.Insert(rel.T("src", s, "dst", (s+d)%n), rel.T("weight", s*1000+d))
				if err != nil || !ok {
					t.Fatalf("insert(%d,%d): %v %v", s, d, ok, err)
				}
			}
		}
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != n*5 {
			t.Fatalf("snapshot has %d tuples, want %d", len(snap), n*5)
		}
		for s := 0; s < n; s++ {
			succ, _ := r.Query(rel.T("src", s), "dst")
			if len(succ) != 5 {
				t.Fatalf("succ(%d) = %d entries", s, len(succ))
			}
		}
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			for d := 0; d < 5; d++ {
				if ok, _ := r.Remove(rel.T("src", s, "dst", (s+d)%n)); !ok {
					t.Fatalf("remove(%d,%d) failed", s, d)
				}
			}
		}
		left, _ := r.Snapshot()
		if len(left) != 0 {
			t.Fatalf("%d tuples left", len(left))
		}
	})
}

func ExampleSynthesize() {
	spec := rel.MustSpec([]string{"src", "dst", "weight"},
		rel.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
	d, _ := decomp.NewBuilder(spec, "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, container.ConcurrentHashMap).
		Edge("uv", "u", "v", []string{"dst"}, container.TreeMap).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	p := locks.NewPlacement(d)
	p.SetStripes(d.Root, 8)
	p.Place(d.EdgeByName("ρu"), d.Root, "src")
	r, _ := Synthesize(d, p)
	r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 42))
	res, _ := r.Query(rel.T("src", 1), "dst", "weight")
	fmt.Println(res[0])
	// Output: ⟨dst: 2, weight: 42⟩
}
