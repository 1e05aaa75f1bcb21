package container

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rel"
)

// cowMap is a copy-on-write sorted array map, the analog of
// java.util.concurrent.CopyOnWriteArrayList used as an associative
// container: every mutation copies the backing array under a mutex and
// publishes it atomically, so reads and scans operate on immutable
// snapshots. All operation pairs are safe and linearizable, and iteration
// is snapshot iteration (§3.1) — at the cost of O(n) writes.
type cowMap[S any, P keySlot[S]] struct {
	mu   sync.Mutex
	data atomic.Pointer[[]cowEntry[S]]
}

type cowEntry[S any] struct {
	key S
	val any
}

func newCopyOnWriteMap[S any, P keySlot[S]]() *cowMap[S, P] {
	m := &cowMap[S, P]{}
	empty := make([]cowEntry[S], 0)
	m.data.Store(&empty)
	return m
}

func (m *cowMap[S, P]) search(data []cowEntry[S], k rel.Key) (int, bool) {
	i := sort.Search(len(data), func(i int) bool {
		return P(&data[i].key).compare(k) >= 0
	})
	return i, i < len(data) && P(&data[i].key).compare(k) == 0
}

// Lookup returns the value for k from the current snapshot.
func (m *cowMap[S, P]) Lookup(k rel.Key) (any, bool) {
	data := *m.data.Load()
	if i, ok := m.search(data, k); ok {
		return data[i].val, true
	}
	return nil, false
}

// Write inserts, updates, or (v == nil) removes the entry for k by
// publishing a fresh copy of the array.
func (m *cowMap[S, P]) Write(k rel.Key, v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data := *m.data.Load()
	i, found := m.search(data, k)
	switch {
	case v == nil && !found:
		return
	case v == nil:
		next := make([]cowEntry[S], 0, len(data)-1)
		next = append(next, data[:i]...)
		next = append(next, data[i+1:]...)
		m.data.Store(&next)
	case found:
		next := make([]cowEntry[S], len(data))
		copy(next, data)
		next[i].val = v
		m.data.Store(&next)
	default:
		next := make([]cowEntry[S], len(data)+1)
		copy(next, data[:i])
		next[i].val = v
		P(&next[i].key).set(k)
		copy(next[i+1:], data[i:])
		m.data.Store(&next)
	}
}

// Scan iterates a snapshot in ascending key order; snapshot iteration is
// linearizable (§3.1).
func (m *cowMap[S, P]) Scan(f func(k rel.Key, v any) bool) {
	data := *m.data.Load()
	for i := range data {
		if !f(P(&data[i].key).key(), data[i].val) {
			return
		}
	}
}

// Len returns the entry count of the current snapshot.
func (m *cowMap[S, P]) Len() int { return len(*m.data.Load()) }
