package locks

import "slices"

// This file implements the read-set of the optimistic read protocol: the
// §4.5 speculative idea — read without the lock, validate afterwards —
// generalized from one edge to a whole read-only transaction. Instead of
// acquiring its plan's physical locks shared, a read-only transaction
// RECORDS each lock's epoch cell where the pessimistic plan would have
// acquired it, performs its container reads lock-free, and finally
// validates that every recorded epoch is even (no protected write was in
// flight) and unchanged (no writer committed under that lock since the
// record). Writers bump the cells of exactly the locks they hold
// exclusively around their write phase (internal/core), so a successful
// validation proves the reads saw the same state a shared-lock execution
// would have — with zero lock acquisitions on the happy path.

// ReadEntry is one recorded observation: a physical lock and the epoch its
// cell held immediately before the reads that lock protects.
type ReadEntry struct {
	L *Lock
	E uint64
}

// ReadSet accumulates epoch observations during an optimistic read-only
// transaction. The zero value is ready to use; Reset recycles the backing
// storage between attempts.
type ReadSet struct {
	entries []ReadEntry
	// stale is set when a recorded epoch was odd at record time: a
	// protected write was already in flight, so the attempt cannot
	// validate no matter what happens later.
	stale bool
	// sorted records that entries are in global lock order (set by the
	// first sorting consumer, cleared by Record/Reset), so Validate
	// followed by Distinct sorts once, not twice.
	sorted bool
}

// Record snapshots l's epoch cell into the set. It must be called BEFORE
// the reads l protects (the plan emits lock steps before the accesses they
// cover, so recording at the acquisition point preserves this order). It
// reports whether the snapshot found the lock quiescent; an odd snapshot
// marks the whole set stale, but execution may continue — the reads are
// safe on concurrency-safe containers, merely doomed to fail validation.
func (s *ReadSet) Record(l *Lock) bool {
	e := l.epoch.Load()
	s.entries = append(s.entries, ReadEntry{L: l, E: e})
	s.sorted = false
	if e&1 == 1 {
		s.stale = true
		return false
	}
	return true
}

// Add appends an observation Record made earlier, so an owner can keep
// one across Reset: the growing phase of a batch records a root's epoch
// once, and every optimistic attempt validates it again.
func (s *ReadSet) Add(e ReadEntry) {
	s.entries = append(s.entries, e)
	s.sorted = false
	if e.E&1 == 1 {
		s.stale = true
	}
}

// sort puts the entries in the global lock order, once per set, without
// allocating, so the standalone optimistic read path stays
// allocation-free.
func (s *ReadSet) sort() {
	if s.sorted {
		return
	}
	slices.SortFunc(s.entries, func(a, b ReadEntry) int { return compareLocks(a.L, b.L) })
	s.sorted = true
}

// Len returns the number of recorded observations (with duplicates: a lock
// recorded by several plan steps appears once per step).
func (s *ReadSet) Len() int { return len(s.entries) }

// Contains reports whether l has been recorded. It is the read-set analog
// of Txn.Holds, used by the well-lockedness auditor to check that every
// lock-free container access is covered by a recorded epoch.
func (s *ReadSet) Contains(l *Lock) bool {
	for i := range s.entries {
		if s.entries[i].L == l {
			return true
		}
	}
	return false
}

// Validate re-reads every recorded epoch cell and reports whether the
// whole read-set is still valid: each recorded epoch was even (quiescent)
// and is unchanged now. Entries are validated in the global lock order —
// the same (relation, node, instance, stripe) order a pessimistic
// transaction acquires in — so the validation pass is deterministic, its
// trace lines up with lock-schedule traces, and a future downgrade path
// (acquiring the read-set shared after repeated failures) can reuse the
// sorted set as its acquisition schedule directly. Validation consumes
// nothing; call Reset before the next attempt.
//
// own, when non-nil, is the self-hold rule of the mixed-batch OCC
// protocol: entries whose lock own reports as held by the validating
// transaction itself (exclusively) are skipped. The transaction's own
// writes begin-bump those cells (making them odd), but mutual exclusion —
// the lock was held from before the record until this validation — already
// proves no OTHER transaction moved the protected state, so the
// transaction's own write activity must not fail its own reads. Read-only
// validation passes own == nil and keeps the strict all-even rule.
func (s *ReadSet) Validate(own func(*Lock) bool) bool {
	if s.stale && own == nil {
		// An odd epoch at record time dooms a lock-free set; with an own
		// filter the per-entry checks below decide, because the stale
		// record may belong to a self-held lock.
		return false
	}
	s.sort()
	es := s.entries
	for i := range es {
		if own != nil && own(es[i].L) {
			continue
		}
		if i > 0 && es[i].L == es[i-1].L {
			// The same lock recorded at two different epochs can never
			// validate; equal records collapse to one re-read.
			if es[i].E != es[i-1].E {
				return false
			}
			continue
		}
		if es[i].E&1 == 1 {
			return false
		}
		if es[i].L.epoch.Load() != es[i].E {
			return false
		}
	}
	return true
}

// Distinct returns the number of distinct physical locks recorded — the
// optimistic analog of a batch's acquired-lock count. The set is sorted
// at most once across Validate and Distinct.
func (s *ReadSet) Distinct() int {
	s.sort()
	es := s.entries
	n := 0
	for i := range es {
		if i == 0 || es[i].L != es[i-1].L {
			n++
		}
	}
	return n
}

// Reset empties the set, retaining capacity.
func (s *ReadSet) Reset() {
	clear(s.entries)
	s.entries = s.entries[:0]
	s.stale = false
	s.sorted = false
}
