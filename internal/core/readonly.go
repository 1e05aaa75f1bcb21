package core

import (
	"runtime"
	"time"

	"repro/internal/locks"
	"repro/internal/query"
	"repro/internal/rel"
)

// This file implements the optimistic execution mode for read-only
// batches: the §4.5 speculative protocol — read without the lock, validate
// afterwards — generalized from one edge to a whole transaction, the
// ROADMAP's "optimistic read path for batches" item.
//
// A batch whose members are all queries and counts takes no locks at all
// on the happy path. Instead of the pessimistic growing phase, each
// member's compiled plan runs straight through (exec.go's walk, in the
// buffer's optimistic mode) and lock-free, with every lock step
// RECORDING the epoch cell of the physical locks it would have acquired
// into a read-set (locks.ReadSet) and every speculative access recording
// its target's epoch — always before the reads the lock protects, because
// plans emit lock steps before the accesses they cover. Mutating
// transactions begin-bump (make odd) the epoch cells of the locks they
// hold exclusively before their first write under each and end-bump (make
// even) them just before releasing, so the final validation — every
// recorded epoch even and unchanged, checked in the global lock order —
// proves the lock-free reads observed exactly the state a shared-lock
// execution would have. On validation failure the whole batch retries
// with a small backoff, and after optimisticMaxAttempts failed attempts
// it falls back to the ordinary pessimistic two-phase-locking path, which
// always succeeds. Results are delivered (pendings resolved, yields run)
// only after a successful validation, so callers never observe torn data.
//
// The mode is only legal when every container of the relation is
// concurrency-safe (Relation.OptimisticCapable): lock-free reads racing
// writers on a plain HashMap or TreeMap would be data races, so such
// relations always use the pessimistic path. Standalone reads take the
// same mode as one-member groups (runRead): the same walk, the same retry
// loop, the locking walk as the fallback.

// optimisticMaxAttempts bounds the validate/retry loop of a read-only
// batch: after this many failed validations the batch falls back to
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
func optimisticBackoff(attempt int) {
	if attempt <= 1 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(1<<uint(attempt-2)) * time.Microsecond)
}

// readOnly reports whether every enqueued member is a query or count —
// the precondition for the optimistic path. Shards track their first
// mutation for the apply phase's reuse rule, so this is a flag check.
func (t *Txn) readOnly() bool {
	for _, sh := range t.shards {
		if sh.firstMut >= 0 {
			return false
		}
	}
	return true
}

// commitReadOnly attempts the optimistic lock-free commit of a read-only
// batch, reporting success. Shards are validated in relation-id order, so
// the validation pass follows the registry-wide global lock order exactly
// as a pessimistic growing phase would. On false the caller must run
// commit2PL; the buffers have been reset for it.
func (t *Txn) commitReadOnly() bool {
	for _, sh := range t.shards {
		if !sh.r.optimisticOK {
			return false
		}
	}
	if tr := t.trace; tr != nil {
		tr.Optimistic = true
	}
	for attempt := 0; attempt < optimisticMaxAttempts; attempt++ {
		if attempt > 0 {
			optimisticBackoff(attempt)
		}
		if tr := t.trace; tr != nil {
			tr.Attempts++
		}
		for _, sh := range t.shards {
			sh.b.n = 0
			sh.r.runShardOptimistic(sh.b)
		}
		if hook := optimisticValidateHook; hook != nil {
			hook(attempt)
		}
		if t.validate(nil) {
			for _, ref := range t.order {
				ref.sh.r.applyMember(ref.sh.b, &ref.sh.b.members[ref.idx], ref.idx, -1)
			}
			return true
		}
	}
	if tr := t.trace; tr != nil {
		tr.FellBack = true
	}
	for _, sh := range t.shards {
		sh.b.reads.Reset()
		sh.b.n = 0
	}
	return false
}

// validate checks every shard's read-set in relation-id (= global lock)
// order, excluding the locks self reports held (nil: none), and on
// success adds the validated epochs to the trace.
func (t *Txn) validate(self func(*locks.Lock) bool) bool {
	for _, sh := range t.shards {
		if !sh.b.reads.Validate(self) {
			return false
		}
	}
	if tr := t.trace; tr != nil {
		for _, sh := range t.shards {
			tr.EpochsRecorded += sh.b.reads.Len()
			tr.EpochsDistinct += sh.b.reads.Distinct()
		}
	}
	return true
}

// runShardOptimistic executes one shard's READ members lock-free,
// recording epochs into the shard buffer's read-set. Each member's
// compiled plan runs exactly as in the apply phase of a pessimistic batch
// — there is no growing-phase scheduling to do, which is the point — on
// the member's own state arrays, and retains its final states (queries)
// or count for the post-validation delivery. Mutation members are
// skipped: a read-only batch has none, and in a mixed OCC commit (occ.go)
// they already ran the pessimistic growing phase under exclusive locks.
// Callers reset the state pool to the attempt's floor first (b.n = 0 for
// read-only batches, the post-growing mark for OCC), because the previous
// attempt's retained read lists are invalid and overwritten.
func (r *Relation) runShardOptimistic(b *opBuf) {
	b.optimistic = true
	b.reads.Reset()
	for i := range b.members {
		m := &b.members[i]
		if m.kind == mInsert || m.kind == mRemove {
			if !b.occ {
				// A read-only batch holding a mutation means readOnly()
				// misclassified it: silently skipping would later apply the
				// mutation with no locks, no epochs and no undo log.
				panic("core: mutation member in a read-only batch")
			}
			continue
		}
		r.runMember(b, m)
	}
	b.optimistic = false
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
			optimisticBackoff(attempt)
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
