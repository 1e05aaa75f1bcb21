package container

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestSkipListLayout pins each skip-list node layout and the list header
// to its size class: a node of height 1 (three in four) is 96 bytes with
// a one-column key and 112 with a wider one, heights 2 and 3–4 fit 112
// and 128, the node of a taller one, whose tower is allocated apart, 96,
// and the list with its inline head 256. It also pins what an insert
// allocates: the node alone up to height 4 — the one-column key and the
// first value box are inline — plus the tower above that, plus the key
// copy of a wider key.
func TestSkipListLayout(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, class uintptr
	}{
		{"slNode1[oneKey]", unsafe.Sizeof(slNode1[oneKey]{}), 96},
		{"slNode1[wideKey]", unsafe.Sizeof(slNode1[wideKey]{}), 112},
		{"slNode2[oneKey]", unsafe.Sizeof(slNode2[oneKey]{}), 112},
		{"slNode2[wideKey]", unsafe.Sizeof(slNode2[wideKey]{}), 112},
		{"slNode4[oneKey]", unsafe.Sizeof(slNode4[oneKey]{}), 128},
		{"slNode4[wideKey]", unsafe.Sizeof(slNode4[wideKey]{}), 128},
		{"slNode[oneKey]", unsafe.Sizeof(slNode[oneKey]{}), 96},
		{"slNode[wideKey]", unsafe.Sizeof(slNode[wideKey]{}), 96},
		{"concurrentSkipList[oneKey]", unsafe.Sizeof(concurrentSkipList[oneKey, *oneKey]{}), 256},
		{"concurrentSkipList[wideKey]", unsafe.Sizeof(concurrentSkipList[wideKey, *wideKey]{}), 256},
	} {
		if c.size > c.class {
			t.Errorf("%s is %d bytes, want ≤ %d", c.name, c.size, c.class)
		}
	}
	for h := 1; h <= slMaxLevel; h++ {
		if n := newSlNode[oneKey](h); len(n.next) != h {
			t.Errorf("a node of height %d has %d forward pointers", h, len(n.next))
		}
	}

	defer func(level func() int) { slLevel = level }(slLevel)
	var v any = "value"
	for _, w := range keyWidths {
		k := valKey(w, 1000)
		for h := 1; h <= 5; h++ {
			t.Run(fmt.Sprintf("w%d/height%d", w, h), func(t *testing.T) {
				slLevel = func() int { return h - 1 }
				m := New(ConcurrentSkipListMap, w)
				m.Write(valKey(w, 0), v) // the list is not empty
				want := 1.0
				if h > 4 {
					want++
				}
				if w != 1 {
					want++
				}
				if got := testing.AllocsPerRun(100, func() {
					m.Write(k, v)
					m.Write(k, nil)
				}); got != want {
					t.Errorf("insert then remove: %.0f allocations, want %.0f", got, want)
				}
			})
		}
	}
}
