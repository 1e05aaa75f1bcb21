package container

import "repro/internal/rel"

// treeMap is a from-scratch left-leaning red-black tree (Sedgewick's LLRB
// 2-3 variant), the analog of java.util.TreeMap: sorted iteration, O(log n)
// lookup and update, safe for parallel reads, unsafe under concurrent
// writes.
type treeMap[S any, P keySlot[S]] struct {
	root *llrb[S]
	size int
}

type llrb[S any] struct {
	key         S
	val         any
	left, right *llrb[S]
	red         bool
}

func isRed[S any](h *llrb[S]) bool { return h != nil && h.red }

func rotateLeft[S any](h *llrb[S]) *llrb[S] {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight[S any](h *llrb[S]) *llrb[S] {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func flipColors[S any](h *llrb[S]) {
	h.red = !h.red
	h.left.red = !h.left.red
	h.right.red = !h.right.red
}

func fixUp[S any](h *llrb[S]) *llrb[S] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

// Lookup returns the value associated with k, if present.
func (m *treeMap[S, P]) Lookup(k rel.Key) (any, bool) {
	h := m.root
	for h != nil {
		switch c := P(&h.key).compare(k); {
		case c > 0:
			h = h.left
		case c < 0:
			h = h.right
		default:
			return h.val, true
		}
	}
	return nil, false
}

// Write inserts, updates, or (v == nil) removes the entry for k.
func (m *treeMap[S, P]) Write(k rel.Key, v any) {
	if v == nil {
		if _, ok := m.Lookup(k); !ok {
			return
		}
		m.root = m.delete(m.root, k)
		if m.root != nil {
			m.root.red = false
		}
		m.size--
		return
	}
	var inserted bool
	m.root, inserted = m.insert(m.root, k, v)
	m.root.red = false
	if inserted {
		m.size++
	}
}

func (m *treeMap[S, P]) insert(h *llrb[S], k rel.Key, v any) (*llrb[S], bool) {
	if h == nil {
		n := &llrb[S]{val: v, red: true}
		P(&n.key).set(k)
		return n, true
	}
	var inserted bool
	switch c := P(&h.key).compare(k); {
	case c > 0:
		h.left, inserted = m.insert(h.left, k, v)
	case c < 0:
		h.right, inserted = m.insert(h.right, k, v)
	default:
		h.val = v
	}
	return fixUp(h), inserted
}

func moveRedLeft[S any](h *llrb[S]) *llrb[S] {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight[S any](h *llrb[S]) *llrb[S] {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func llrbMin[S any](h *llrb[S]) *llrb[S] {
	for h.left != nil {
		h = h.left
	}
	return h
}

func llrbDeleteMin[S any](h *llrb[S]) *llrb[S] {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = llrbDeleteMin(h.left)
	return fixUp(h)
}

// delete removes k from the subtree; the key must be present. A node
// whose key goes is replaced by its successor node, never overwritten with
// a copy of the successor's entry: an entry keeps its key slot for life,
// so a key view an earlier Scan yielded is never rewritten.
func (m *treeMap[S, P]) delete(h *llrb[S], k rel.Key) *llrb[S] {
	if P(&h.key).compare(k) > 0 {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = m.delete(h.left, k)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if P(&h.key).compare(k) == 0 && h.right == nil {
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if P(&h.key).compare(k) == 0 {
			succ := llrbMin(h.right)
			right := llrbDeleteMin(h.right)
			succ.left, succ.right, succ.red = h.left, right, h.red
			h = succ
		} else {
			h.right = m.delete(h.right, k)
		}
	}
	return fixUp(h)
}

// Scan iterates over entries in ascending key order.
func (m *treeMap[S, P]) Scan(f func(k rel.Key, v any) bool) {
	m.scan(m.root, f)
}

func (m *treeMap[S, P]) scan(h *llrb[S], f func(k rel.Key, v any) bool) bool {
	if h == nil {
		return true
	}
	if !m.scan(h.left, f) {
		return false
	}
	if !f(P(&h.key).key(), h.val) {
		return false
	}
	return m.scan(h.right, f)
}

// Len returns the number of entries.
func (m *treeMap[S, P]) Len() int { return m.size }
