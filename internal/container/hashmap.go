package container

import "repro/internal/rel"

// hashMap is a from-scratch chained hash table, the analog of
// java.util.HashMap: safe for parallel lookups and scans, unsafe under any
// concurrent write. Buckets double when the load factor exceeds 1.
type hashMap[S any, P keySlot[S]] struct {
	buckets []*hentry[S]
	size    int
}

type hentry[S any] struct {
	key  S
	hash uint64
	val  any
	next *hentry[S]
}

const hashMapInitialBuckets = 8

func newHashMap[S any, P keySlot[S]]() *hashMap[S, P] {
	return &hashMap[S, P]{buckets: make([]*hentry[S], hashMapInitialBuckets)}
}

// hmatch reports whether e holds key k, whose hash is h.
func hmatch[S any, P keySlot[S]](e *hentry[S], h uint64, k rel.Key) bool {
	return e.hash == h && P(&e.key).compare(k) == 0
}

func (m *hashMap[S, P]) bucketFor(h uint64) int {
	return int(h & uint64(len(m.buckets)-1))
}

// Lookup returns the value associated with k, if present.
func (m *hashMap[S, P]) Lookup(k rel.Key) (any, bool) {
	h := k.Hash()
	for e := m.buckets[m.bucketFor(h)]; e != nil; e = e.next {
		if hmatch[S, P](e, h, k) {
			return e.val, true
		}
	}
	return nil, false
}

// Write inserts, updates, or (v == nil) removes the entry for k.
func (m *hashMap[S, P]) Write(k rel.Key, v any) {
	h := k.Hash()
	b := m.bucketFor(h)
	if v == nil {
		for p, e := &m.buckets[b], m.buckets[b]; e != nil; p, e = &e.next, e.next {
			if hmatch[S, P](e, h, k) {
				*p = e.next
				m.size--
				return
			}
		}
		return
	}
	for e := m.buckets[b]; e != nil; e = e.next {
		if hmatch[S, P](e, h, k) {
			e.val = v
			return
		}
	}
	e := &hentry[S]{hash: h, val: v, next: m.buckets[b]}
	P(&e.key).set(k)
	m.buckets[b] = e
	m.size++
	if m.size > len(m.buckets) {
		m.grow()
	}
}

func (m *hashMap[S, P]) grow() {
	old := m.buckets
	m.buckets = make([]*hentry[S], 2*len(old))
	for _, e := range old {
		for e != nil {
			next := e.next
			b := m.bucketFor(e.hash)
			e.next = m.buckets[b]
			m.buckets[b] = e
			e = next
		}
	}
}

// Scan iterates over the entries in bucket order (unsorted).
func (m *hashMap[S, P]) Scan(f func(k rel.Key, v any) bool) {
	for _, e := range m.buckets {
		for ; e != nil; e = e.next {
			if !f(P(&e.key).key(), e.val) {
				return
			}
		}
	}
}

// Len returns the number of entries.
func (m *hashMap[S, P]) Len() int { return m.size }
