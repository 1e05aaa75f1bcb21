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
// member's compiled plan runs directly (lock-free), with every lock step
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
// relations always use the pessimistic path.

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

// runStatesOptimistic executes a standalone read plan lock-free with
// epoch validation — the single-operation (one-member) analog of a
// read-only batch, closing the ROADMAP "optimistic single operations"
// item: standalone Query/ExecRows on an OptimisticCapable relation
// acquire zero physical locks on the conflict-free path. ok=false means
// every attempt failed validation; the caller falls back to the ordinary
// locking execution on the same (reset) buffer, so results never depend
// on the path taken. Validated states stay pooled on b until putBuf.
func (r *Relation) runStatesOptimistic(b *opBuf, steps []query.Step, op rel.Row, mask uint64) ([]*qstate, bool) {
	for attempt := 0; attempt < optimisticMaxAttempts; attempt++ {
		if attempt > 0 {
			optimisticBackoff(attempt)
		}
		b.reads.Reset()
		b.n = 0
		b.optimistic = true
		states := r.runSteps(b, steps, op, mask)
		b.optimistic = false
		if hook := optimisticValidateHook; hook != nil {
			hook(attempt)
		}
		if b.reads.Validate(nil) {
			return states, true
		}
		b.recycle(states)
	}
	b.reads.Reset()
	b.n = 0
	return nil, false
}

// runCountOptimistic is the count analog of runStatesOptimistic: the
// standalone count path of Relation.Query/PreparedQuery.Count runs
// lock-free on capable relations, validated by epochs, with pessimistic
// fallback after optimisticMaxAttempts.
func (r *Relation) runCountOptimistic(b *opBuf, steps []query.Step, op rel.Row, mask uint64) (int, bool) {
	for attempt := 0; attempt < optimisticMaxAttempts; attempt++ {
		if attempt > 0 {
			optimisticBackoff(attempt)
		}
		b.reads.Reset()
		b.n = 0
		b.optimistic = true
		n := r.runCountSteps(b, steps, op, mask)
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

// runCountSteps executes a count plan's step list from the root state: a
// StepCount terminal sums container sizes at the counting frontier,
// otherwise the surviving states are counted. It is the shared body of
// the single-operation count path (prepared.go) and its optimistic
// runner.
func (r *Relation) runCountSteps(b *opBuf, steps []query.Step, op rel.Row, mask uint64) int {
	states := append(b.pipe[:0], b.rootState(r, op, mask))
	b.pipe = states
	total := -1
	for i := range steps {
		step := &steps[i]
		if step.Kind == query.StepCount {
			total = r.countAt(b, step, states)
			break
		}
		states = r.execStep(b, step, states, op)
		if len(states) == 0 {
			break
		}
	}
	if total < 0 {
		total = len(states)
	}
	b.recycle(states)
	return total
}
