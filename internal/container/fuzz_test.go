package container

import (
	"fmt"
	"testing"

	"repro/internal/rel"
)

// tapeKey is key i of a FuzzTreeMap tape: intKey, or with strs a string
// first column whose first 7 bytes every key shares, so that every order
// word ties and each search settles by comparing records.
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
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		strs := tape[0]&1 == 1
		tape = tape[1:]
		if len(tape) > 3*256 {
			tape = tape[:3*256]
		}
		for _, w := range keyWidths {
			runTape(t, New(TreeMap, w), w, strs, tape)
		}
	})
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
		}
		for _, sv := range views {
			if !sv.view.Equal(sv.want) {
				t.Fatalf("step %d rewrote a scanned key: %v reads %v", step, sv.want, sv.view)
			}
		}
	}
}
