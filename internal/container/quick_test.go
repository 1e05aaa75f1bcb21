package container

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

// opSeq is a random operation sequence for testing/quick: each element
// encodes (key, action) where action 0..5 = write, 6..7 = delete,
// 8..9 = lookup-check.
type opSeq []uint16

// Generate implements quick.Generator with moderate lengths and a small
// key range so deletes actually hit.
func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(200) + 20
	s := make(opSeq, n)
	for i := range s {
		s[i] = uint16(r.Intn(1 << 16))
	}
	return reflect.ValueOf(s)
}

// TestQuickContainersRefineModel drives every container kind at every key
// width with random operation sequences and checks it refines the model
// map at every step.
func TestQuickContainersRefineModel(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		f := func(ops opSeq) bool {
			m := New(kind, w)
			model := map[int]int{}
			for i, op := range ops {
				key := int(op % 64)
				action := int(op>>8) % 10
				k := intKey(w, key)
				switch {
				case action < 6:
					m.Write(k, i)
					model[key] = i
				case action < 8:
					m.Write(k, nil)
					delete(model, key)
				default:
					got, ok := m.Lookup(k)
					want, wok := model[key]
					if ok != wok || (ok && got != want) {
						return false
					}
				}
				if m.Len() != len(model) {
					return false
				}
			}
			// Final scan equivalence.
			seen := 0
			good := true
			m.Scan(func(k rel.Key, v any) bool {
				want, ok := model[keyInt(k)]
				if !ok || v != want {
					good = false
					return false
				}
				seen++
				return true
			})
			return good && seen == len(model)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickSortedScansAscend checks the sorted-scan property under random
// workloads for the ordered kinds.
func TestQuickSortedScansAscend(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		if !PropertiesOf(kind).SortedScan {
			t.Skip("unsorted kind")
		}
		f := func(ops opSeq) bool {
			m := New(kind, w)
			for i, op := range ops {
				k := intKey(w, int(op%512))
				if op>>9%3 == 0 {
					m.Write(k, nil)
				} else {
					m.Write(k, i)
				}
			}
			prev := -1
			ok := true
			m.Scan(func(k rel.Key, v any) bool {
				cur := keyInt(k)
				if cur <= prev {
					ok = false
					return false
				}
				prev = cur
				return true
			})
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}
