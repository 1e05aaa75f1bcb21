package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/rel"
)

// This file implements the optimistic read protocol: the §4.5
// speculative protocol — read without the lock, validate afterwards —
// generalized from one edge to whole plans. The commit pipeline's
// optimistic row (commit.go) runs a batch's read members this way, and
// standalone reads run as one-member groups (runRead).
//
// A lock-free read walks its compiled plan straight through (exec.go's
// walk, in the buffer's optimistic mode), with every lock step RECORDING
// the epoch cell of the physical locks it would have acquired into a
// read-set (locks.ReadSet) and every speculative access recording its
// target's epoch — always before the reads the lock protects, because
// plans emit lock steps before the accesses they cover. Mutating
// transactions begin-bump (make odd) the epoch cells of the locks they
// hold exclusively before their first write under each and end-bump (make
// even) them just before releasing, so the final validation — every
// recorded epoch even and unchanged, checked in the global lock order —
// proves the lock-free reads observed exactly the state a shared-lock
// execution would have. On validation failure the read retries with a
// small backoff, and after optimisticMaxAttempts failed attempts it falls
// back to the locking path, which always succeeds. Results are delivered
// only after a successful validation, so callers never observe torn data.
//
// The mode is only legal when every container of the relation is
// concurrency-safe (Relation.OptimisticCapable): lock-free reads racing
// writers on a plain HashMap or TreeMap would be data races, so such
// relations always take locks.

// optimisticMaxAttempts bounds the validate/retry loop of an optimistic
// read or batch: after this many failed validations it falls back to
// pessimistic two-phase locking, which cannot starve. Contention raising
// retries this high means the read would have waited behind writers'
// locks anyway, so falling back loses nothing.
const optimisticMaxAttempts = 3

// optimisticValidateHook, when non-nil, runs after an optimistic
// attempt's lock-free execution but before its validation (argument: the
// 0-based attempt index). Tests use it to commit conflicting mutations at
// the worst possible moment, forcing validation failures, retries and the
// K-attempt fallback deterministically.
var optimisticValidateHook func(attempt int)

// optimisticBackoff delays between failed optimistic attempts: yield the
// processor first (the common conflict is a writer mid-commit on this
// core), then sleep exponentially so repeated conflicts cannot spin.
// sleeps counts the sleeps.
func optimisticBackoff(attempt int, sleeps *atomic.Uint64) {
	if attempt <= 1 {
		runtime.Gosched()
		return
	}
	sleeps.Add(1)
	time.Sleep(time.Duration(1<<uint(attempt-2)) * time.Microsecond)
}

// runRead executes a standalone read plan on b, leaving its final states
// in b.pipe until putBuf, and returns its count (a StepCount terminal's
// total, else the number of states). On an OptimisticCapable relation it
// first runs lock-free (runOptimistic) and takes the locking walk only if
// every attempt failed validation, so results never depend on the path
// taken. It is the one read path of Query, PreparedQuery.Exec, ExecRows
// and CountRow.
func (r *Relation) runRead(b *opBuf, plan *query.Plan, op rel.Row) int {
	r.ctr.reads.Add(1)
	if r.optimisticOK {
		if n, ok := r.runOptimistic(b, plan, op); ok {
			return n
		}
	}
	return r.walk(b, plan.Steps, op, plan.BoundMask, &b.pipe, &b.spare)
}

// runOptimistic walks a standalone read plan lock-free with epoch
// validation — the single-operation (one-member) analog of a read-only
// batch: on the conflict-free path a standalone read acquires zero
// physical locks. ok=false means every attempt failed validation; the
// buffer has been reset for the locking walk. Validated states stay in
// b.pipe until putBuf.
func (r *Relation) runOptimistic(b *opBuf, plan *query.Plan, op rel.Row) (int, bool) {
	for attempt := 0; attempt < optimisticMaxAttempts; attempt++ {
		if attempt > 0 {
			optimisticBackoff(attempt, &r.ctr.backoffSleeps)
		}
		b.reads.Reset()
		b.n = 0
		b.optimistic = true
		n := r.walk(b, plan.Steps, op, plan.BoundMask, &b.pipe, &b.spare)
		b.optimistic = false
		if hook := optimisticValidateHook; hook != nil {
			hook(attempt)
		}
		if b.reads.Validate(nil) {
			return n, true
		}
	}
	b.reads.Reset()
	b.n = 0
	return 0, false
}
