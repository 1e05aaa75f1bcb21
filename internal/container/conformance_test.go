package container

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rel"
)

// modelMap is the executable specification a container must refine: its
// entries in key order (rel.CompareKeys), kept sorted on every write so
// that checking a container against it after each step costs no sort.
type modelMap struct {
	entries []modelEntry
}

type modelEntry struct {
	key rel.Key
	val any
}

func newModel() *modelMap { return &modelMap{} }

// find returns k's position in entries, or the position it would take.
func (m *modelMap) find(k rel.Key) (int, bool) {
	return slices.BinarySearchFunc(m.entries, k, func(e modelEntry, k rel.Key) int {
		return rel.CompareKeys(e.key, k)
	})
}

func (m *modelMap) write(k rel.Key, v any) {
	i, ok := m.find(k)
	switch {
	case ok && v == nil:
		m.entries = slices.Delete(m.entries, i, i+1)
	case ok:
		m.entries[i].val = v
	case v != nil:
		m.entries = slices.Insert(m.entries, i, modelEntry{key: k, val: v})
	}
}

func (m *modelMap) lookup(k rel.Key) (any, bool) {
	if i, ok := m.find(k); ok {
		return m.entries[i].val, true
	}
	return nil, false
}

func (m *modelMap) sortedKeys() []rel.Key {
	keys := make([]rel.Key, len(m.entries))
	for i, e := range m.entries {
		keys[i] = e.key
	}
	return keys
}

// mapKinds are the kinds with general map semantics (Cell is singleton-only
// and is tested separately).
var mapKinds = []Kind{HashMap, TreeMap, ConcurrentHashMap, ConcurrentSkipListMap, CopyOnWriteMap}

// keyWidths are the key widths every suite runs at: New picks the inline
// one-value entry layout for width 1 and the owned-copy layout otherwise.
var keyWidths = []int{1, 2}

func forEachMapKind(t *testing.T, f func(t *testing.T, kind Kind, w int)) {
	t.Helper()
	forEachKindWidth(t, mapKinds, f)
}

// forEachKindWidth runs f once per kind in kinds and key width, as
// subtests kind/wN.
func forEachKindWidth(t *testing.T, kinds []Kind, f func(t *testing.T, kind Kind, w int)) {
	t.Helper()
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			for _, w := range keyWidths {
				t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) { f(t, k, w) })
			}
		})
	}
}

// intKey encodes a non-negative int as a key of width w, preserving order:
// (i) at width 1, (i/3, i%3) at width 2.
func intKey(w, i int) rel.Key {
	if w == 1 {
		return rel.NewKey(i)
	}
	return rel.NewKey(i/3, i%3)
}

// keyInt decodes intKey.
func keyInt(k rel.Key) int {
	if k.Len() == 1 {
		return k.At(0).(int)
	}
	return 3*k.At(0).(int) + k.At(1).(int)
}

// valKey builds a key of width w whose first column is v.
func valKey(w int, v rel.Value) rel.Key {
	if w == 1 {
		return rel.NewKey(v)
	}
	return rel.NewKey(v, "w2")
}

func TestEmptyContainer(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		if m.Len() != 0 {
			t.Fatalf("empty Len = %d", m.Len())
		}
		if _, ok := m.Lookup(intKey(w, 1)); ok {
			t.Fatal("lookup in empty container succeeded")
		}
		count := 0
		m.Scan(func(rel.Key, any) bool { count++; return true })
		if count != 0 {
			t.Fatalf("scan of empty container yielded %d entries", count)
		}
		// Removing an absent key is a no-op.
		m.Write(intKey(w, 1), nil)
		if m.Len() != 0 {
			t.Fatal("removing absent key changed Len")
		}
	})
}

func TestInsertLookupRemove(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		k1, k2 := valKey(w, "a"), valKey(w, "b")
		m.Write(k1, "v1")
		m.Write(k2, "v2")
		if m.Len() != 2 {
			t.Fatalf("Len = %d, want 2", m.Len())
		}
		if v, ok := m.Lookup(k1); !ok || v != "v1" {
			t.Fatalf("Lookup(k1) = %v, %v", v, ok)
		}
		// Update in place.
		m.Write(k1, "v1b")
		if v, _ := m.Lookup(k1); v != "v1b" {
			t.Fatalf("update failed: %v", v)
		}
		if m.Len() != 2 {
			t.Fatalf("update changed Len to %d", m.Len())
		}
		// Remove.
		m.Write(k1, nil)
		if _, ok := m.Lookup(k1); ok {
			t.Fatal("removed key still present")
		}
		if v, ok := m.Lookup(k2); !ok || v != "v2" {
			t.Fatalf("unrelated key disturbed: %v, %v", v, ok)
		}
		if m.Len() != 1 {
			t.Fatalf("Len = %d, want 1", m.Len())
		}
	})
}

func TestRandomOpsAgainstModel(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		r := rand.New(rand.NewSource(42))
		m := New(kind, w)
		model := newModel()
		for i := 0; i < 5000; i++ {
			k := intKey(w, r.Intn(200))
			switch r.Intn(10) {
			case 0, 1, 2, 3: // insert/update
				v := r.Intn(1 << 30)
				m.Write(k, v)
				model.write(k, v)
			case 4, 5: // remove
				m.Write(k, nil)
				model.write(k, nil)
			default: // lookup
				got, gok := m.Lookup(k)
				want, wok := model.lookup(k)
				if gok != wok || (gok && got != want) {
					t.Fatalf("step %d: Lookup(%v) = %v,%v want %v,%v", i, k, got, gok, want, wok)
				}
			}
			if m.Len() != len(model.entries) {
				t.Fatalf("step %d: Len = %d, model %d", i, m.Len(), len(model.entries))
			}
		}
		// Final full-scan equivalence.
		seen := map[string]any{}
		m.Scan(func(k rel.Key, v any) bool {
			if _, dup := seen[k.String()]; dup {
				t.Fatalf("scan yielded duplicate key %v", k)
			}
			seen[k.String()] = v
			return true
		})
		if len(seen) != len(model.entries) {
			t.Fatalf("scan yielded %d entries, model has %d", len(seen), len(model.entries))
		}
		for _, e := range model.entries {
			if ks := e.key.String(); seen[ks] != e.val {
				t.Fatalf("scan value mismatch for %s: %v vs %v", ks, seen[ks], e.val)
			}
		}
	})
}

func TestSortedScanOrder(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		if !PropertiesOf(kind).SortedScan {
			t.Skip("unsorted kind")
		}
		r := rand.New(rand.NewSource(7))
		m := New(kind, w)
		model := newModel()
		for i := 0; i < 2000; i++ {
			k := intKey(w, r.Intn(1500))
			if r.Intn(3) == 0 {
				m.Write(k, nil)
				model.write(k, nil)
			} else {
				m.Write(k, i)
				model.write(k, i)
			}
		}
		var got []rel.Key
		m.Scan(func(k rel.Key, v any) bool { got = append(got, k); return true })
		want := model.sortedKeys()
		if len(got) != len(want) {
			t.Fatalf("scan length %d, want %d", len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
			}
			if i > 0 && rel.CompareKeys(got[i-1], got[i]) >= 0 {
				t.Fatalf("scan not strictly ascending at %d", i)
			}
		}
	})
}

func TestScanEarlyStop(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		for i := 0; i < 100; i++ {
			m.Write(intKey(w, i), i)
		}
		count := 0
		m.Scan(func(rel.Key, any) bool {
			count++
			return count < 10
		})
		if count != 10 {
			t.Fatalf("early stop visited %d entries, want 10", count)
		}
	})
}

func TestGrowthAndShrink(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		const n = 3000
		for i := 0; i < n; i++ {
			m.Write(intKey(w, i), i*2)
		}
		if m.Len() != n {
			t.Fatalf("Len = %d, want %d", m.Len(), n)
		}
		for i := 0; i < n; i++ {
			v, ok := m.Lookup(intKey(w, i))
			if !ok || v != i*2 {
				t.Fatalf("Lookup(%d) = %v, %v", i, v, ok)
			}
		}
		for i := 0; i < n; i += 2 {
			m.Write(intKey(w, i), nil)
		}
		if m.Len() != n/2 {
			t.Fatalf("after removals Len = %d, want %d", m.Len(), n/2)
		}
		for i := 0; i < n; i++ {
			_, ok := m.Lookup(intKey(w, i))
			if want := i%2 == 1; ok != want {
				t.Fatalf("Lookup(%d) present=%v, want %v", i, ok, want)
			}
		}
	})
}

func TestHeterogeneousKeys(t *testing.T) {
	forEachMapKind(t, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		keys := []rel.Key{
			valKey(w, "alpha"), valKey(w, 1), valKey(w, int64(2)),
			valKey(w, 3.5), valKey(w, true), valKey(w, nil),
		}
		for i, k := range keys {
			m.Write(k, i)
		}
		for i, k := range keys {
			if v, ok := m.Lookup(k); !ok || v != i {
				t.Fatalf("Lookup(%v) = %v, %v", k, v, ok)
			}
		}
		// int and int64 keys with equal value must collide.
		m.Write(valKey(w, int64(1)), "replaced")
		if v, _ := m.Lookup(valKey(w, 1)); v != "replaced" {
			t.Fatalf("int/int64 key identity broken: %v", v)
		}
	})
}

func TestTreeMapDeleteStress(t *testing.T) {
	// Deletes in several adversarial orders, each followed by a full
	// sorted-scan check, so borrows and merges run from either side.
	orders := []string{"ascending", "descending", "shuffled"}
	for _, order := range orders {
		t.Run(order, func(t *testing.T) {
			for _, w := range keyWidths {
				t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) { treeMapDeleteStress(t, order, w) })
			}
		})
	}
}

func treeMapDeleteStress(t *testing.T, order string, w int) {
	m := New(TreeMap, w)
	const n = 512
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	switch order {
	case "descending":
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	case "shuffled":
		r := rand.New(rand.NewSource(3))
		r.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	}
	for _, k := range keys {
		m.Write(intKey(w, k), k)
	}
	for i, k := range keys {
		m.Write(intKey(w, k), nil)
		if m.Len() != n-i-1 {
			t.Fatalf("Len after %d deletes = %d", i+1, m.Len())
		}
		last := -1
		m.Scan(func(key rel.Key, v any) bool {
			cur := keyInt(key)
			if cur <= last {
				t.Fatalf("order violated: %d after %d", cur, last)
			}
			last = cur
			return true
		})
	}
}

// TestTreeMapDeleteKeepsScannedKeys pins the B-tree delete against the
// inline key slot: deleting an inner entry moves its predecessor's record
// into its place, and borrowing and merging move records between nodes,
// all by pointer and never by copying a key, so a key view a Scan yielded
// before the delete still reads the same key afterwards. The large size
// makes deletes borrow and merge at every level.
func TestTreeMapDeleteKeepsScannedKeys(t *testing.T) {
	for _, w := range keyWidths {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			for _, n := range []int{64, 2000} {
				m := New(TreeMap, w)
				for i := 0; i < n; i++ {
					m.Write(intKey(w, i), i)
				}
				r := rand.New(rand.NewSource(5))
				for _, d := range r.Perm(n) {
					var views []rel.Key
					var want []int
					m.Scan(func(k rel.Key, v any) bool {
						views = append(views, k)
						want = append(want, v.(int))
						return true
					})
					m.Write(intKey(w, d), nil)
					for i, k := range views {
						if got := keyInt(k); got != want[i] {
							t.Fatalf("deleting %d rewrote a scanned key: %d reads %d", d, want[i], got)
						}
					}
				}
			}
		})
	}
}

// TestBTreeInvariants drives random inserts and removes over enough keys
// for a three-level tree and checks the structure as it goes: every node
// but the root holds btMin to btMax entries (the root at least one), each
// word is the order word of its record's key, words and keys ascend in
// order through the whole tree, every leaf sits at the same depth, and
// Len is the number of entries.
func TestBTreeInvariants(t *testing.T) {
	t.Run("w1", func(t *testing.T) { bTreeInvariants(t, New(TreeMap, 1).(*treeMap[oneKey, *oneKey]), 1) })
	t.Run("w2", func(t *testing.T) { bTreeInvariants(t, New(TreeMap, 2).(*treeMap[wideKey, *wideKey]), 2) })
}

func bTreeInvariants[S any, P keySlot[S]](t *testing.T, m *treeMap[S, P], w int) {
	r := rand.New(rand.NewSource(11))
	const keys = 3000
	maxDepth := 0
	for i := 0; i < 30000; i++ {
		k := intKey(w, r.Intn(keys))
		// Grow for the first half, then shrink, so both splits and merges
		// cascade through every level.
		if r.Intn(4) == 0 == (i < 15000) {
			m.Write(k, nil)
		} else {
			m.Write(k, i)
		}
		if i%64 == 0 {
			checkBTree(t, m)
			depth := 0
			for nd := m.root; nd != nil && nd.kids != nil; nd = nd.kids[0] {
				depth++
			}
			maxDepth = max(maxDepth, depth)
		}
	}
	checkBTree(t, m)
	if maxDepth < 2 {
		t.Fatalf("tree never grew past depth %d; the test does not reach inner-node splits", maxDepth)
	}
}

// TestBTreeSplitPositions splits a full leaf root and a full inner root
// with the new entry arriving at every position, before, at and after the
// middle entry that moves up, and checks the tree and its contents after
// each split.
func TestBTreeSplitPositions(t *testing.T) {
	for p := 0; p <= btMax; p++ {
		// A leaf root of btMax keys 0, 1000, ...; the new key lands at p.
		m := New(TreeMap, 1).(*treeMap[oneKey, *oneKey])
		want := newModel()
		write := func(i int) {
			m.Write(rel.NewKey(i), i)
			want.write(rel.NewKey(i), i)
		}
		for i := 0; i < btMax; i++ {
			write(i * 1000)
		}
		write(p*1000 - 500)
		if m.root.kids == nil {
			t.Fatalf("position %d: the leaf root did not split", p)
		}
		checkBTree(t, m)
		checkAgainst(t, m, want)

		// Ascending inserts until the inner root is full, then inserts
		// into child p until the root splits.
		m = New(TreeMap, 1).(*treeMap[oneKey, *oneKey])
		want = newModel()
		for i := 0; m.root == nil || m.root.kids == nil || m.root.n < btMax; i++ {
			write(i * 1000)
		}
		base := -1000
		if p > 0 {
			base = keyInt(m.root.recs[p-1].key.key())
		}
		for j := 1; m.root.n > 1; j++ {
			write(base + j)
		}
		checkBTree(t, m)
		checkAgainst(t, m, want)
	}
}

// checkAgainst fails t unless m holds exactly the model's entries: Len,
// Lookup of each, and a scan in key order.
func checkAgainst(t *testing.T, m Map, want *modelMap) {
	t.Helper()
	es := want.entries
	if m.Len() != len(es) {
		t.Fatalf("Len = %d, model holds %d", m.Len(), len(es))
	}
	for _, e := range es {
		if v, ok := m.Lookup(e.key); !ok || v != e.val {
			t.Fatalf("Lookup(%v) = %v, %v; model %v", e.key, v, ok, e.val)
		}
	}
	i := 0
	m.Scan(func(k rel.Key, v any) bool {
		if i >= len(es) || !k.Equal(es[i].key) {
			t.Fatalf("scan entry %d is %v", i, k)
		}
		if v != es[i].val {
			t.Fatalf("scan entry %v = %v, want %v", k, v, es[i].val)
		}
		i++
		return true
	})
	if i != len(es) {
		t.Fatalf("scan yielded %d entries, want %d", i, len(es))
	}
}

// TestTreeMapZeroWidthKey stores the empty key, which orders before every
// other and whose order word ties with nil's.
func TestTreeMapZeroWidthKey(t *testing.T) {
	m := New(TreeMap, 0)
	m.Write(rel.NewKey(), "empty")
	m.Write(rel.NewKey(nil), "nil")
	if v, ok := m.Lookup(rel.NewKey()); !ok || v != "empty" {
		t.Fatalf("Lookup(()) = %v, %v", v, ok)
	}
	var got []any
	m.Scan(func(k rel.Key, v any) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 || got[0] != "empty" || got[1] != "nil" {
		t.Fatalf("scan = %v, want [empty nil]", got)
	}
}

// checkBTree fails t unless m satisfies the B-tree invariants
// TestBTreeInvariants lists.
func checkBTree[S any, P keySlot[S]](t *testing.T, m *treeMap[S, P]) {
	t.Helper()
	if m.root == nil {
		if m.Len() != 0 {
			t.Fatalf("empty tree with Len %d", m.Len())
		}
		return
	}
	count, leafDepth := 0, -1
	var prev *btRecord[S]
	var verify func(nd *btNode[S], depth int)
	verify = func(nd *btNode[S], depth int) {
		if nd.n > btMax || nd.n < btMin && nd != m.root || nd.n < 1 {
			t.Fatalf("node at depth %d holds %d entries", depth, nd.n)
		}
		for i := range nd.n {
			if nd.kids != nil {
				verify(nd.kids[i], depth+1)
			}
			rec := nd.recs[i]
			want, _ := rel.OrderWord(P(&rec.key).key().At(0))
			if nd.words[i] != want {
				t.Fatalf("word %#x of key %v, want %#x", nd.words[i], P(&rec.key).key(), want)
			}
			if i > 0 && nd.words[i] < nd.words[i-1] {
				t.Fatalf("words descend: %#x after %#x", nd.words[i], nd.words[i-1])
			}
			if prev != nil && P(&prev.key).compare(P(&rec.key).key()) >= 0 {
				t.Fatalf("key %v after %v", P(&rec.key).key(), P(&prev.key).key())
			}
			prev = rec
			count++
		}
		if nd.kids == nil {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			return
		}
		verify(nd.kids[nd.n], depth+1)
	}
	verify(m.root, 0)
	if count != m.Len() {
		t.Fatalf("Len = %d, tree holds %d", m.Len(), count)
	}
}

func TestCellSemantics(t *testing.T) {
	for _, w := range keyWidths {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			c := New(Cell, w)
			k := intKey(w, 42)
			if c.Len() != 0 {
				t.Fatal("new cell not empty")
			}
			c.Write(k, "x")
			if v, ok := c.Lookup(k); !ok || v != "x" {
				t.Fatalf("Lookup = %v, %v", v, ok)
			}
			if _, ok := c.Lookup(intKey(w, 43)); ok {
				t.Fatal("cell matched wrong key")
			}
			if c.Len() != 1 {
				t.Fatal("Len != 1")
			}
			got := 0
			c.Scan(func(sk rel.Key, v any) bool {
				if !sk.Equal(k) || v != "x" {
					t.Fatalf("scan saw %v -> %v", sk, v)
				}
				got++
				return true
			})
			if got != 1 {
				t.Fatalf("scan yielded %d entries", got)
			}
			// Removing a different key is a no-op; removing the held key clears.
			c.Write(intKey(w, 43), nil)
			if c.Len() != 1 {
				t.Fatal("mismatched remove cleared cell")
			}
			c.Write(k, nil)
			if c.Len() != 0 {
				t.Fatal("cell not cleared")
			}
		})
	}
}

// TestWriteCopiesKey pins the key-ownership contract for every kind at
// both entry layouts: Write copies the key it stores, so reusing the
// caller's key storage afterwards changes neither Lookup nor Scan.
func TestWriteCopiesKey(t *testing.T) {
	forEachKindWidth(t, Kinds(), func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		want := intKey(w, 7)
		buf := append([]rel.Value(nil), want.Values()...)
		m.Write(rel.KeyOver(buf), "v")
		for i := range buf {
			buf[i] = "reused"
		}
		if v, ok := m.Lookup(want); !ok || v != "v" {
			t.Fatalf("Lookup after the caller reused its key storage = %v, %v", v, ok)
		}
		n := 0
		m.Scan(func(k rel.Key, v any) bool {
			if !k.Equal(want) {
				t.Fatalf("Scan yielded %v, want %v", k, want)
			}
			n++
			return true
		})
		if n != 1 {
			t.Fatalf("Scan yielded %d entries, want 1", n)
		}
	})
}

// TestOneColumnKeyWidth covers keys of the wrong width at a one-column
// container: a lookup misses, a store panics instead of truncating.
func TestOneColumnKeyWidth(t *testing.T) {
	wide := rel.NewKey(1, 2)
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := New(kind, 1)
			for i := 0; i < 3; i++ {
				m.Write(rel.NewKey(i), i)
			}
			if _, ok := m.Lookup(wide); ok {
				t.Fatal("a two-column key matched a one-column entry")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("storing a two-column key did not panic")
				}
			}()
			m.Write(wide, "v")
		})
	}
}

func TestTaxonomyTable(t *testing.T) {
	table := FormatTaxonomy()
	for _, k := range Kinds() {
		if !contains(table, k.String()) {
			t.Errorf("taxonomy table missing %s:\n%s", k, table)
		}
	}
	// Figure 1 spot checks.
	if PropertiesOf(HashMap).ConcurrencySafe() {
		t.Error("HashMap must not be concurrency-safe")
	}
	if !PropertiesOf(ConcurrentHashMap).ConcurrencySafe() {
		t.Error("ConcurrentHashMap must be concurrency-safe")
	}
	if PropertiesOf(ConcurrentHashMap).SnapshotScan {
		t.Error("ConcurrentHashMap iteration must be weakly consistent, not snapshot")
	}
	if !PropertiesOf(CopyOnWriteMap).SnapshotScan {
		t.Error("CopyOnWriteMap iteration must be snapshot")
	}
	if !PropertiesOf(TreeMap).SortedScan || PropertiesOf(HashMap).SortedScan {
		t.Error("sorted-scan flags wrong")
	}
	if !PropertiesOf(ConcurrentSkipListMap).LinearizableReads() {
		t.Error("skip list lookups must be linearizable (needed for speculative locking)")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestKindString(t *testing.T) {
	if HashMap.String() != "HashMap" || Kind(99).String() == "" {
		t.Fatal("Kind.String broken")
	}
	if Unsafe.String() != "no" || Weak.String() != "weak" || Linearizable.String() != "yes" {
		t.Fatal("Safety.String broken")
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(Kind(99), 1) },
		func() { PropertiesOf(Kind(99)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestScanSnapshotVsWeak(t *testing.T) {
	// A CopyOnWriteMap scan must not observe a write that happens after
	// the scan began (single-threaded check of the snapshot property).
	m := New(CopyOnWriteMap, 1)
	for i := 0; i < 10; i++ {
		m.Write(rel.NewKey(i), i)
	}
	seen := 0
	m.Scan(func(k rel.Key, v any) bool {
		if seen == 0 {
			m.Write(rel.NewKey(999), 999) // mutate mid-scan
		}
		if k.Equal(rel.NewKey(999)) {
			t.Fatal("snapshot scan observed concurrent write")
		}
		seen++
		return true
	})
	if seen != 10 {
		t.Fatalf("scan saw %d entries, want 10", seen)
	}
	if m.Len() != 11 {
		t.Fatal("write during scan lost")
	}
}

func ExampleFormatTaxonomy() {
	table := FormatTaxonomy()
	fmt.Println(table[:14])
	// Output: Data Structure
}
