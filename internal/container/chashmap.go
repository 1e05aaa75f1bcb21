package container

import (
	"sync"
	"sync/atomic"

	"repro/internal/rel"
)

// concurrentHashMap is a segment-striped hash table, the analog of
// java.util.concurrent.ConcurrentHashMap: each key hashes to one of a fixed
// number of independently locked segments, so lookups and writes to
// different segments never contend and operations on the same key are
// linearizable. Iteration visits one segment at a time and is therefore
// only weakly consistent (§3.1): it may or may not observe writes that run
// in parallel with the scan.
type concurrentHashMap[S any, P keySlot[S]] struct {
	segments [chmSegments]chmSegment[S]
	size     atomic.Int64
}

const chmSegments = 16

type chmSegment[S any] struct {
	mu      sync.RWMutex
	buckets []*hentry[S]
	count   int
}

func newConcurrentHashMap[S any, P keySlot[S]]() *concurrentHashMap[S, P] {
	m := &concurrentHashMap[S, P]{}
	for i := range m.segments {
		m.segments[i].buckets = make([]*hentry[S], hashMapInitialBuckets)
	}
	return m
}

func (m *concurrentHashMap[S, P]) segmentFor(h uint64) *chmSegment[S] {
	// Use high bits for the segment so the low bits remain useful for the
	// per-segment bucket index.
	return &m.segments[(h>>59)&(chmSegments-1)]
}

// Lookup returns the value for k; linearizable with concurrent writes.
func (m *concurrentHashMap[S, P]) Lookup(k rel.Key) (any, bool) {
	h := k.Hash()
	s := m.segmentFor(h)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for e := s.buckets[int(h&uint64(len(s.buckets)-1))]; e != nil; e = e.next {
		if hmatch[S, P](e, h, k) {
			return e.val, true
		}
	}
	return nil, false
}

// Write inserts, updates, or (v == nil) removes the entry for k;
// linearizable with concurrent lookups and writes.
func (m *concurrentHashMap[S, P]) Write(k rel.Key, v any) {
	h := k.Hash()
	s := m.segmentFor(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := int(h & uint64(len(s.buckets)-1))
	if v == nil {
		for p, e := &s.buckets[b], s.buckets[b]; e != nil; p, e = &e.next, e.next {
			if hmatch[S, P](e, h, k) {
				*p = e.next
				s.count--
				m.size.Add(-1)
				return
			}
		}
		return
	}
	for e := s.buckets[b]; e != nil; e = e.next {
		if hmatch[S, P](e, h, k) {
			e.val = v
			return
		}
	}
	e := &hentry[S]{hash: h, val: v, next: s.buckets[b]}
	P(&e.key).set(k)
	s.buckets[b] = e
	s.count++
	m.size.Add(1)
	if s.count > len(s.buckets) {
		s.grow()
	}
}

func (s *chmSegment[S]) grow() {
	old := s.buckets
	s.buckets = make([]*hentry[S], 2*len(old))
	// Readers hold the segment read lock, so relinking in place is safe.
	for _, e := range old {
		for e != nil {
			next := e.next
			b := int(e.hash & uint64(len(s.buckets)-1))
			e.next = s.buckets[b]
			s.buckets[b] = e
			e = next
		}
	}
}

// Scan iterates segment by segment under the segment read lock; the
// iteration is weakly consistent: writes racing with the scan in segments
// not yet visited are observed, earlier ones are not.
func (m *concurrentHashMap[S, P]) Scan(f func(k rel.Key, v any) bool) {
	for i := range m.segments {
		s := &m.segments[i]
		s.mu.RLock()
		// Snapshot the segment's key/value pairs so f runs without holding
		// the segment lock (f may call back into other containers), and so
		// no entry field is read outside the lock.
		entries := make([]cowEntry[S], 0, s.count)
		for _, e := range s.buckets {
			for ; e != nil; e = e.next {
				entries = append(entries, cowEntry[S]{key: e.key, val: e.val})
			}
		}
		s.mu.RUnlock()
		for j := range entries {
			if !f(P(&entries[j].key).key(), entries[j].val) {
				return
			}
		}
	}
}

// Len returns the entry count; exact only in quiescent states.
func (m *concurrentHashMap[S, P]) Len() int { return int(m.size.Load()) }
