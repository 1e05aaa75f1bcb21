package container

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/rel"
)

// tapeKey is key i of a fuzz tape: intKey, or with strs a string first
// column whose first 7 bytes every key shares, so that every order word
// ties and each search settles by comparing keys.
func tapeKey(w int, strs bool, i int) rel.Key {
	if !strs {
		return intKey(w, i)
	}
	if w == 1 {
		return rel.NewKey(fmt.Sprintf("prefix-%05d", i))
	}
	return rel.NewKey(fmt.Sprintf("prefix-%05d", i/3), i%3)
}

// scannedView is a key view a Scan yielded and the key it read then.
type scannedView struct {
	view, want rel.Key
}

// FuzzTreeMap runs an operation tape against a TreeMap and the model map
// of the conformance suites, at key widths 1 and 2. The first byte picks
// integer keys or string keys with tied order words; each later op is
// three bytes (op, a, b) over keys 0..4095: insert or remove key
// a<<4|b&15, insert or remove the run of b+1 keys from a<<4, or scan.
// After every op the tree must match the model and satisfy the B-tree
// invariants, and every key view an earlier scan yielded must still read
// the same key.
func FuzzTreeMap(f *testing.F) {
	f.Add([]byte{0, 3, 0, 255, 2, 0, 0, 4, 0, 200, 2, 0, 0})
	f.Add([]byte{1, 3, 1, 99, 2, 0, 0, 1, 1, 5, 4, 1, 40})
	f.Fuzz(func(t *testing.T, input []byte) {
		runTapes(t, input, func(w int, _ []byte) Map { return New(TreeMap, w) })
	})
}

// runTapes runs a fuzz input's tape, at each key width, against the map
// newMap builds for that width and the tape's ops.
func runTapes(t *testing.T, input []byte, newMap func(w int, ops []byte) Map) {
	if len(input) == 0 {
		return
	}
	strs := input[0]&1 == 1
	ops := input[1:]
	if len(ops) > 3*256 {
		ops = ops[:3*256]
	}
	for _, w := range keyWidths {
		runTape(t, newMap(w, ops), w, strs, ops)
	}
}

// FuzzSkipList runs FuzzTreeMap's tapes against a ConcurrentSkipListMap,
// whose node levels the same tape drives (tapeLevels), so that tall nodes
// occur. After every op the list must match the model and satisfy the
// invariants checkSkipList lists, and scanned key views must stay intact.
func FuzzSkipList(f *testing.F) {
	f.Add([]byte{0, 3, 0, 255, 2, 0, 0, 4, 0, 200, 2, 0, 0})
	f.Add([]byte{1, 3, 1, 99, 2, 0, 0, 1, 1, 5, 4, 1, 40})
	f.Fuzz(func(t *testing.T, input []byte) {
		defer func(level func() int) { slLevel = level }(slLevel)
		runTapes(t, input, func(w int, ops []byte) Map {
			slLevel = tapeLevels(ops)
			return New(ConcurrentSkipListMap, w)
		})
	})
}

// tapeLevels is a level source that cycles through the tape's bytes: the
// trailing zeros of each (0–7, so half the nodes are on one level only),
// and for a zero byte the tall levels 8 to the top in turn.
func tapeLevels(tape []byte) func() int {
	i, tall := 0, 0
	return func() int {
		if len(tape) == 0 {
			return 0
		}
		b := tape[i%len(tape)]
		i++
		if b != 0 {
			return bits.TrailingZeros8(b)
		}
		tall++
		return 8 + tall%(slMaxLevel-8)
	}
}

// checkSkipList fails t unless the quiescent list m is well formed: no
// level at or above the tracked height holds a node, and every node is
// below it; each level is sorted by (order word, key) and holds exactly
// the nodes of level 0 that are that tall, so a node on level L is on
// every level below; every node is fully linked, unmarked and carries its
// key's order word; Len counts level 0.
func checkSkipList[S any, P keySlot[S]](t *testing.T, m *concurrentSkipList[S, P]) {
	t.Helper()
	h := int(m.height.Load())
	for level := h; level < slMaxLevel; level++ {
		if n := m.levels[level].Load(); n != nil {
			t.Fatalf("key %v on level %d, at or above the height %d", P(&n.key).key(), level, h)
		}
	}
	tall := make([]int, slMaxLevel+1) // tall[L]: level-0 nodes on more than L levels
	for level := 0; level < h; level++ {
		count := 0
		var prev, lower *slNode[S] // lower walks the level below in step
		if level > 0 {
			lower = m.levels[level-1].Load()
		}
		for n := m.levels[level].Load(); n != nil; n = n.next[level].Load() {
			k := P(&n.key).key()
			for level > 0 && lower != nil && lower != n {
				lower = lower.next[level-1].Load()
			}
			switch {
			case len(n.next) <= level || len(n.next) > h:
				t.Fatalf("key %v of height %d on level %d, list height %d", k, len(n.next), level, h)
			case !n.linked.Load() || n.marked.Load():
				t.Fatalf("key %v linked=%v marked=%v in a quiescent list", k, n.linked.Load(), n.marked.Load())
			case level > 0 && lower == nil:
				t.Fatalf("key %v on level %d but not on level %d", k, level, level-1)
			}
			if w, _ := P(nil).word(k); n.word != w {
				t.Fatalf("word %#x of key %v, want %#x", n.word, k, w)
			}
			if prev != nil && (prev.word > n.word || prev.word == n.word && P(&prev.key).compare(k) >= 0) {
				t.Fatalf("level %d: key %v (word %#x) after %v (word %#x)", level, k, n.word, P(&prev.key).key(), prev.word)
			}
			if level == 0 {
				tall[len(n.next)-1]++
			}
			prev = n
			count++
		}
		if level == 0 {
			for l := slMaxLevel - 1; l > 0; l-- {
				tall[l-1] += tall[l]
			}
			if count != m.Len() {
				t.Fatalf("Len = %d, level 0 holds %d", m.Len(), count)
			}
		}
		if count != tall[level] {
			t.Fatalf("level %d holds %d nodes, %d of level 0 reach it", level, count, tall[level])
		}
	}
	if h == 0 && m.Len() != 0 {
		t.Fatalf("Len = %d in a list of height 0", m.Len())
	}
}

// checkSkipListMap is checkSkipList on m if m is a skip list.
func checkSkipListMap(t *testing.T, m Map) {
	t.Helper()
	switch l := m.(type) {
	case *concurrentSkipList[oneKey, *oneKey]:
		checkSkipList(t, l)
	case *concurrentSkipList[wideKey, *wideKey]:
		checkSkipList(t, l)
	}
}

func runTape(t *testing.T, m Map, w int, strs bool, tape []byte) {
	// A value is the step that wrote it and its key: v>>16 and v&0xffff.
	model := newModel()
	var views []scannedView
	write := func(i, step int, remove bool) {
		k := tapeKey(w, strs, i)
		var v any
		if !remove {
			v = step<<16 | i
		}
		m.Write(k, v)
		model.write(k, v)
	}
	for step := 0; len(tape) >= 3; step, tape = step+1, tape[3:] {
		op, a, b := tape[0]%5, int(tape[1]), int(tape[2])
		switch op {
		case 0, 1:
			write(a<<4|b&15, step, op == 1)
		case 2, 3:
			for i := a << 4; i <= a<<4+b; i++ {
				write(i, step, op == 3)
			}
		case 4:
			m.Scan(func(k rel.Key, v any) bool {
				if len(views) < 4096 {
					views = append(views, scannedView{k, tapeKey(w, strs, v.(int)&0xffff)})
				}
				return true
			})
		}
		checkAgainst(t, m, model)
		switch tm := m.(type) {
		case *treeMap[oneKey, *oneKey]:
			checkBTree(t, tm)
		case *treeMap[wideKey, *wideKey]:
			checkBTree(t, tm)
		default:
			checkSkipListMap(t, m)
		}
		for _, sv := range views {
			if !sv.view.Equal(sv.want) {
				t.Fatalf("step %d rewrote a scanned key: %v reads %v", step, sv.want, sv.view)
			}
		}
	}
}
