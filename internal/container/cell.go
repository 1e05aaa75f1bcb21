package container

import (
	"sync/atomic"

	"repro/internal/rel"
)

// cell is the singleton-tuple container backing the dotted edges of
// Figures 2 and 3: a decomposition edge whose source node functionally
// determines the edge columns holds at most one entry, so the "container"
// is a single atomically published (key, value) pair. All operation pairs
// are safe and linearizable.
type cell[S any, P keySlot[S]] struct {
	p atomic.Pointer[cowEntry[S]]
}

// Lookup returns the value if the cell holds exactly key k.
func (c *cell[S, P]) Lookup(k rel.Key) (any, bool) {
	if e := c.p.Load(); e != nil && P(&e.key).compare(k) == 0 {
		return e.val, true
	}
	return nil, false
}

// Write stores the single entry (v != nil) or clears the cell if it holds
// key k (v == nil). Storing a second distinct key replaces the first; the
// synthesizer only ever stores one key per cell because the source node's
// key columns functionally determine the edge columns.
func (c *cell[S, P]) Write(k rel.Key, v any) {
	if v == nil {
		if e := c.p.Load(); e != nil && P(&e.key).compare(k) == 0 {
			c.p.CompareAndSwap(e, nil)
		}
		return
	}
	e := &cowEntry[S]{val: v}
	P(&e.key).set(k)
	c.p.Store(e)
}

// Scan yields the single entry, if present (trivially sorted and a
// snapshot).
func (c *cell[S, P]) Scan(f func(k rel.Key, v any) bool) {
	if e := c.p.Load(); e != nil {
		f(P(&e.key).key(), e.val)
	}
}

// Len returns 0 or 1.
func (c *cell[S, P]) Len() int {
	if c.p.Load() != nil {
		return 1
	}
	return 0
}
