package locks

import (
	"fmt"
	"slices"
)

// This file implements multi-operation lock-set coalescing, the locking
// substrate of batched transactions: several compiled plans contribute
// their physical-lock requirements to one LockSet, which deduplicates
// requests by lock identity, upgrades shared requests to exclusive when
// any contributor writes, and acquires the merged set in the §5.1 global
// order. An N-operation batch therefore takes each physical lock at most
// once, in one ordered pass per decomposition node, instead of up to N
// times across N transactions.

// Req is one coalesced lock request: a physical lock and the mode some
// batch member needs it in.
type Req struct {
	L *Lock
	M Mode
}

// LockSet accumulates the lock requirements of several compiled plans
// before a single ordered acquisition. The zero value is ready to use;
// Reset recycles the backing storage between rounds.
type LockSet struct {
	reqs []Req
	// requested counts every Add call, including duplicates that the
	// acquisition later merges — the denominator of the batch's
	// coalescing ratio.
	requested int
}

// Add records that some batch member needs l in mode m.
func (s *LockSet) Add(l *Lock, m Mode) {
	s.reqs = append(s.reqs, Req{L: l, M: m})
	s.requested++
}

// Len returns the number of pending (pre-dedup) requests.
func (s *LockSet) Len() int { return len(s.reqs) }

// Requested returns the total number of Add calls since the last Reset:
// the lock count a non-coalesced execution of the same members would have
// requested.
func (s *LockSet) Requested() int { return s.requested }

// Reset empties the set, retaining capacity.
func (s *LockSet) Reset() {
	s.reqs = s.reqs[:0]
	s.requested = 0
}

// AcquireSet acquires every distinct lock in the set, in the global ID
// order, each in the strongest mode any contributor requested — the
// shared→exclusive upgrade rule of batched transactions: if one member
// reads under a lock that another member writes under, the single
// acquisition is exclusive. Locks the transaction already holds are
// skipped; as in Acquire, a required upgrade of an already-held lock
// panics, because the coalescing pass must have merged the modes before
// the lock was first taken. The set is consumed (reset) by the call.
func (t *Txn) AcquireSet(s *LockSet) {
	if t.shrinking {
		panic("locks: acquire after release violates two-phase locking")
	}
	reqs := s.reqs
	if len(reqs) == 0 {
		return
	}
	// Sort by the precomputed lock identities (compareLocks); slices.SortFunc
	// allocates nothing, which keeps the batch hot path allocation-free.
	// Comparing order words instead of walking typed keys is what makes
	// the registry-wide (relation, node, inst, stripe) order one integer
	// comparison per pair of arrays.
	slices.SortFunc(reqs, func(a, b Req) int { return compareLocks(a.L, b.L) })
	for i := 0; i < len(reqs); i++ {
		l, m := reqs[i].L, reqs[i].M
		// Merge duplicate requests for the same lock: exclusive wins.
		for i+1 < len(reqs) && reqs[i+1].L == l {
			if reqs[i+1].M == Exclusive {
				m = Exclusive
			}
			i++
		}
		if max := t.maxHeld(); max != nil && compareLocks(l, max) <= 0 {
			if idx, held := t.findHeld(l); held {
				if m == Exclusive && t.held[idx].mode == Shared {
					panic(fmt.Sprintf("locks: batch upgrade from shared to exclusive on %v; coalescing must merge modes before first acquisition", l.ID()))
				}
				continue
			}
			panic(fmt.Sprintf("locks: batch acquisition of %v violates lock order (max held %v)", l.ID(), max.ID()))
		}
		l.lock(m)
		t.held = append(t.held, heldLock{l: l, mode: m})
	}
	s.Reset()
}

// HeldID returns the identity and mode of the i'th held lock, in
// acquisition (= global ID) order. It exposes the held list to the batch
// executor's tracing; i must be < HeldCount().
func (t *Txn) HeldID(i int) (ID, Mode) {
	h := t.held[i]
	return h.l.ID(), h.mode
}
