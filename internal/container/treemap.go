package container

import "repro/internal/rel"

// treeMap is a from-scratch B-tree, the analog of java.util.TreeMap:
// sorted iteration, O(log n) lookup and update, safe for parallel reads,
// unsafe under concurrent writes.
//
// A node keeps, inline and in key order, one order word per entry (see
// rel.OrderWord) beside a pointer to the entry's record. A search scans the
// words of a node — two to four cache lines — and reads a record only when
// the words tie and the word is not exact, or to return the value it
// found. Records hold the key slot, set once, and the value; splits,
// merges and deletes move record pointers between nodes and never copy a
// record, so a key view Scan yielded is never rewritten.
type treeMap[S any, P keySlot[S]] struct {
	root *btNode[S] // nil when empty
	size int
}

// btMax and btMin bound the entries of every node but the root, which
// holds at least one: a split of an overfull node leaves btMin+1 and
// btMin, a merge of a node under btMin with a sibling at btMin fits in
// btMax. btMax = 31 makes a leaf 512 bytes, one size class exactly.
const (
	btMax = 31
	btMin = btMax / 2
)

// btNode is a B-tree node: n entries in words[:n] and recs[:n], and in an
// inner node n+1 children, kids[i] holding the keys between recs[i-1] and
// recs[i].
type btNode[S any] struct {
	n     int
	words [btMax]uint64
	recs  [btMax]*btRecord[S]
	// kids is nil in a leaf; in an inner node it points at the children
	// array of the same allocation (btInner).
	kids *[btMax + 1]*btNode[S]
}

// btInner is the allocation of an inner node: a leaf never carries the
// children array.
type btInner[S any] struct {
	btNode[S]
	kids [btMax + 1]*btNode[S]
}

// btRecord is one entry. Its key slot is set before the record is
// published and never changes; Write updates the value in place.
type btRecord[S any] struct {
	key S
	val any
}

func newInner[S any]() *btNode[S] {
	in := &btInner[S]{}
	in.btNode.kids = &in.kids
	return &in.btNode
}

// find returns the position of the first entry of nd whose key is not
// below k, and whether that entry's key is k. w and exact are k's order
// word.
func find[S any, P keySlot[S]](nd *btNode[S], k rel.Key, w uint64, exact bool) (int, bool) {
	words := nd.words[:nd.n]
	i := 0
	for i < len(words) && words[i] < w {
		i++
	}
	if i == len(words) || words[i] != w {
		return i, false
	}
	if exact {
		return i, true
	}
	// Tied words: binary search the run by key.
	j := i + 1
	for j < len(words) && words[j] == w {
		j++
	}
	for i < j {
		h := int(uint(i+j) >> 1)
		switch c := P(&nd.recs[h].key).compare(k); {
		case c == 0:
			return h, true
		case c < 0:
			i = h + 1
		default:
			j = h
		}
	}
	return i, false
}

// Lookup returns the value associated with k, if present.
func (m *treeMap[S, P]) Lookup(k rel.Key) (any, bool) {
	w, exact := P(nil).word(k)
	for nd := m.root; nd != nil; {
		i, ok := find[S, P](nd, k, w, exact)
		if ok {
			return nd.recs[i].val, true
		}
		if nd.kids == nil {
			break
		}
		nd = nd.kids[i]
	}
	return nil, false
}

// Write inserts, updates, or (v == nil) removes the entry for k.
func (m *treeMap[S, P]) Write(k rel.Key, v any) {
	w, exact := P(nil).word(k)
	if v == nil {
		if m.root != nil && m.remove(m.root, k, w, exact) {
			m.size--
			if m.root.n == 0 {
				if m.root.kids == nil {
					m.root = nil
				} else {
					m.root = m.root.kids[0]
				}
			}
		}
		return
	}
	if m.root == nil {
		m.root = &btNode[S]{}
	}
	upW, up, right, added := m.insert(m.root, k, w, exact, v)
	if right != nil {
		root := newInner[S]()
		root.n = 1
		root.words[0], root.recs[0] = upW, up
		root.kids[0], root.kids[1] = m.root, right
		m.root = root
	}
	if added {
		m.size++
	}
}

// insert stores (k, v) in the subtree at nd. When nd overflows it splits,
// returning the entry that moves up to the parent and nd's new right
// sibling.
func (m *treeMap[S, P]) insert(nd *btNode[S], k rel.Key, w uint64, exact bool, v any) (upW uint64, up *btRecord[S], right *btNode[S], added bool) {
	i, ok := find[S, P](nd, k, w, exact)
	if ok {
		nd.recs[i].val = v
		return 0, nil, nil, false
	}
	if nd.kids == nil {
		r := &btRecord[S]{val: v}
		P(&r.key).set(k)
		upW, up, right = nd.insertAt(i, w, r, nil)
		return upW, up, right, true
	}
	upW, up, right, added = m.insert(nd.kids[i], k, w, exact, v)
	if right != nil {
		upW, up, right = nd.insertAt(i, upW, up, right)
	}
	return upW, up, right, added
}

// insertAt puts the entry (w, r) at position i of nd, with child kid to
// its right in an inner node. A full node splits: the middle of the
// btMax+1 entries goes up, returned with the new right node, which takes
// the btMin entries above it.
func (nd *btNode[S]) insertAt(i int, w uint64, r *btRecord[S], kid *btNode[S]) (uint64, *btRecord[S], *btNode[S]) {
	if nd.n < btMax {
		nd.place(i, w, r, kid)
		return 0, nil, nil
	}
	var right *btNode[S]
	if nd.kids == nil {
		right = &btNode[S]{}
	} else {
		right = newInner[S]()
	}
	// mid is the position of the entry that goes up, counted with the new
	// one in place; from is the first old entry that moves right.
	const mid = btMin + 1
	from := mid
	if i > mid {
		from++
	}
	right.n = btMax - from
	copy(right.words[:], nd.words[from:])
	copy(right.recs[:], nd.recs[from:])
	if nd.kids != nil {
		copy(right.kids[:], nd.kids[from:])
	}
	var upW uint64
	var up *btRecord[S]
	switch {
	case i < mid:
		upW, up = nd.words[mid-1], nd.recs[mid-1]
		nd.truncate(mid - 1)
		nd.place(i, w, r, kid)
	case i == mid:
		upW, up = w, r
		nd.truncate(mid)
		if right.kids != nil {
			right.kids[0] = kid
		}
	default:
		upW, up = nd.words[mid], nd.recs[mid]
		nd.truncate(mid)
		right.place(i-from, w, r, kid)
	}
	return upW, up, right
}

// place shifts entries i.. of a node with room one slot right and puts
// (w, r) at i, with child kid to its right in an inner node.
func (nd *btNode[S]) place(i int, w uint64, r *btRecord[S], kid *btNode[S]) {
	copy(nd.words[i+1:nd.n+1], nd.words[i:nd.n])
	copy(nd.recs[i+1:nd.n+1], nd.recs[i:nd.n])
	nd.words[i], nd.recs[i] = w, r
	if nd.kids != nil {
		copy(nd.kids[i+2:nd.n+2], nd.kids[i+1:nd.n+1])
		nd.kids[i+1] = kid
	}
	nd.n++
}

// cut removes entry i of nd and, in an inner node, child kid, which is i
// or i+1.
func (nd *btNode[S]) cut(i, kid int) {
	copy(nd.words[i:], nd.words[i+1:nd.n])
	copy(nd.recs[i:], nd.recs[i+1:nd.n])
	if nd.kids != nil {
		copy(nd.kids[kid:], nd.kids[kid+1:nd.n+1])
	}
	nd.truncate(nd.n - 1)
}

// truncate keeps the first n entries of nd, clearing the pointers past
// them so the garbage collector does not keep moved entries alive.
func (nd *btNode[S]) truncate(n int) {
	clear(nd.recs[n:nd.n])
	if nd.kids != nil {
		clear(nd.kids[n+1 : nd.n+1])
	}
	nd.n = n
}

// remove deletes k from the subtree at nd and reports whether it was
// there. Every child it descends into is refilled to btMin entries on the
// way back, so only nd itself may be left short.
func (m *treeMap[S, P]) remove(nd *btNode[S], k rel.Key, w uint64, exact bool) bool {
	i, ok := find[S, P](nd, k, w, exact)
	switch {
	case nd.kids == nil:
		if ok {
			nd.cut(i, 0)
		}
		return ok
	case ok:
		// The entry's predecessor, the last entry of the subtree on its
		// left, takes its place.
		nd.words[i], nd.recs[i] = removeLast(nd.kids[i])
	case !m.remove(nd.kids[i], k, w, exact):
		return false
	}
	nd.refill(i)
	return true
}

// removeLast removes the last entry of the subtree at nd and returns it.
func removeLast[S any](nd *btNode[S]) (uint64, *btRecord[S]) {
	if nd.kids == nil {
		w, r := nd.words[nd.n-1], nd.recs[nd.n-1]
		nd.truncate(nd.n - 1)
		return w, r
	}
	w, r := removeLast(nd.kids[nd.n])
	nd.refill(nd.n)
	return w, r
}

// refill brings child i of the inner node nd back to btMin entries: it
// borrows one through nd from a sibling that has one to spare, or else
// merges the child with a sibling and nd's entry between them.
func (nd *btNode[S]) refill(i int) {
	c := nd.kids[i]
	if c.n >= btMin {
		return
	}
	switch {
	case i > 0 && nd.kids[i-1].n > btMin:
		l := nd.kids[i-1]
		var kid *btNode[S]
		if c.kids != nil {
			kid = c.kids[0]
		}
		c.place(0, nd.words[i-1], nd.recs[i-1], kid)
		if c.kids != nil {
			c.kids[0] = l.kids[l.n]
		}
		nd.words[i-1], nd.recs[i-1] = l.words[l.n-1], l.recs[l.n-1]
		l.truncate(l.n - 1)
	case i < nd.n && nd.kids[i+1].n > btMin:
		r := nd.kids[i+1]
		var kid *btNode[S]
		if r.kids != nil {
			kid = r.kids[0]
		}
		c.place(c.n, nd.words[i], nd.recs[i], kid)
		nd.words[i], nd.recs[i] = r.words[0], r.recs[0]
		r.cut(0, 0)
	default:
		if i == nd.n {
			i--
		}
		l, r := nd.kids[i], nd.kids[i+1]
		var kid *btNode[S]
		if r.kids != nil {
			kid = r.kids[0]
		}
		l.place(l.n, nd.words[i], nd.recs[i], kid)
		copy(l.words[l.n:], r.words[:r.n])
		copy(l.recs[l.n:], r.recs[:r.n])
		if r.kids != nil {
			copy(l.kids[l.n+1:], r.kids[1:r.n+1])
		}
		l.n += r.n
		nd.cut(i, i+1)
	}
}

// Scan iterates over entries in ascending key order.
func (m *treeMap[S, P]) Scan(f func(k rel.Key, v any) bool) {
	if m.root != nil {
		scan[S, P](m.root, f)
	}
}

func scan[S any, P keySlot[S]](nd *btNode[S], f func(k rel.Key, v any) bool) bool {
	for i, r := range nd.recs[:nd.n] {
		if nd.kids != nil && !scan[S, P](nd.kids[i], f) {
			return false
		}
		if !f(P(&r.key).key(), r.val) {
			return false
		}
	}
	return nd.kids == nil || scan[S, P](nd.kids[nd.n], f)
}

// Len returns the number of entries.
func (m *treeMap[S, P]) Len() int { return m.size }
