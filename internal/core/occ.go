package core

// This file implements the Silo-style OCC commit of MIXED batches —
// groups holding both mutations and reads — on OptimisticCapable
// relations, closing the gap PR 4 left open: a read-only group already
// ran lock-free, but a mixed group (e.g. the social Follow = insert one
// relation + count another) still locked its read members pessimistically
// and could therefore acquire MORE locks than its sequential
// decomposition. The protocol synthesized here is derived from the
// compiled plans, in the spirit of the synchronization-synthesis line of
// work (Locksynth): the batch scheduler already knows exactly which lock
// IDs belong to write members, so the commit splits per batch into
//
//  1. GROWING (write locks only): the ordinary coalesced growing phase
//     runs over the WRITE members alone — their lock sets deduplicated,
//     acquired exclusively in the global byte-compare order. Read members
//     sit this phase out (initBatchMembers parks them at wDone).
//
//  2. READ (lock-free): each read member's compiled plan runs directly
//     with the buffer in optimistic mode (runShardOptimistic): lock steps
//     record epoch cells into the read-set where the pessimistic plan
//     would have acquired shared locks, speculative steps record their
//     targets' epochs. Reads may traverse instances the batch itself
//     write-locked — the auditor accepts either coverage (audit.go).
//
//  3. APPLY (undo-logged staging): members compute their results in
//     enqueue order under the held locks (computeMember): mutations write
//     — begin-bumping the epoch cells of the locks they hold exclusively,
//     recording every displaced binding in the undo log — and read
//     members overlapping an earlier mutation re-execute so the group
//     keeps sequential semantics. Nothing is delivered yet.
//
//  4. VALIDATE: the read-set is checked in the global lock order — every
//     recorded epoch even and unchanged — EXCLUDING locks the batch
//     itself holds exclusively (the self-hold rule: those cells are odd
//     because of our own begin-bumps, and mutual exclusion from before
//     the record until now already proves no other transaction moved
//     them). Success delivers every member's staged result (pendings,
//     yields) and commits. Failure rolls the undo log back, end-bumps the
//     begin-bumped cells (the state is genuinely restored, so concurrent
//     readers may validate against it again), and retries phases 2–4.
//
//  5. FALLBACK: after optimisticMaxAttempts failed validations the write
//     locks are released, the lock transaction reset, and the whole batch
//     re-runs under ordinary pessimistic 2PL (commit2PL), which cannot
//     starve — results never depend on the path taken.
//
// The serialization point of a successful OCC commit is its validation
// instant: the write locks are held across it (writes are "current"
// there), and the validated epochs prove every lock-free read observed
// exactly the state a shared-lock execution would have observed at that
// instant. Deadlock freedom is unchanged: phase 1 is the ordered growing
// phase, phases 2–4 block on nothing, and the fallback starts a fresh
// ordered acquisition from an empty lock set.
//
// One body serves Relation.Batch (one shard) and Registry.Batch: shards run
// their growing phases in relation-id order on the shared lock
// transaction, read members run lock-free per shard, one undo log spans
// every shard's apply, and validation walks the shards in relation-id
// order — following the registry-wide global lock order exactly as the
// read-only path does.

// commitOCC attempts the Silo-style commit of a mixed batch, reporting
// success. It declines (false, nothing executed) unless the batch holds
// both mutations and reads and every touched relation is
// OptimisticCapable (lock-free reads racing writers would be data races
// otherwise); after declining or exhausting its attempts the caller must
// run commit2PL — the buffers have been reset for it. A non-nil error is
// a commit-logger failure (redo.go): the attempt's writes were rolled
// back and the caller must surface the error rather than fall back — the
// disk, not contention, rejected the batch.
func (t *Txn) commitOCC() (bool, error) {
	hasRead, hasMut := false, false
	for _, sh := range t.shards {
		if !sh.r.optimisticOK {
			return false, nil
		}
		hasRead = hasRead || sh.hasRead
		hasMut = hasMut || sh.firstMut >= 0
	}
	if !hasRead || !hasMut {
		return false, nil
	}
	if tr := t.trace; tr != nil {
		tr.OCC = true
	}
	for _, sh := range t.shards {
		sh.b.occ = true
		sh.r.initBatchMembers(sh.b)
	}
	for _, sh := range t.shards {
		sh.r.growBatch(t, sh.b) // write members only: coalesced exclusive locks in global order
		sh.mark = sh.b.n        // write members' retained states end here; read/apply states are per-attempt
	}
	for attempt := 0; attempt < optimisticMaxAttempts; attempt++ {
		if attempt > 0 {
			optimisticBackoff(attempt)
			t.ctr.occRetries.Add(1)
		}
		if tr := t.trace; tr != nil {
			tr.Attempts++
		}
		for _, sh := range t.shards {
			sh.b.n = sh.mark
			sh.r.runShardOptimistic(sh.b)
		}
		if hook := optimisticValidateHook; hook != nil {
			hook(attempt)
		}
		ok, err := t.occApply()
		if err != nil {
			// Logging failure, not a validation conflict: the writes were
			// rolled back and the epochs end-bumped; the deferred release
			// in runBatch releases the write locks. No pessimistic
			// fallback — retrying against a failed log would just fail
			// again.
			return false, err
		}
		if ok {
			for _, sh := range t.shards {
				sh.b.occ = false
			}
			return true, nil
		}
	}
	// Fallback: release the held write locks (the pessimistic growing
	// phase re-acquires read members' locks, which may precede them in the
	// global order, so the transaction must restart from an empty lock
	// set), clear the lock-schedule trace fields the rerun re-records
	// (Attempts, FellBack and OCC describe the failed attempt history and
	// stay), and reset the buffers for commit2PL. The failed attempts'
	// writes were all rolled back and their epoch cells end-bumped, so
	// releasing here exposes exactly the pre-batch state.
	t.ctr.occFallbacks.Add(1)
	if tr := t.trace; tr != nil {
		tr.FellBack = true
		tr.Rounds = tr.Rounds[:0]
		tr.Requested, tr.Acquired, tr.Speculative, tr.SharedAcquired = 0, 0, 0, 0
	}
	for _, sh := range t.shards {
		sh.b.occ = false
		sh.b.reads.Reset()
		sh.b.n = 0
	}
	t.ltxn.ReleaseAll()
	t.ltxn.Reset()
	return false, nil
}

// occApply runs one OCC attempt's apply-and-validate step: every member
// computes its staged result in global enqueue order under the one undo
// log (mutations write, overlapping reads re-execute), then every shard's
// read-set is validated under the self-hold rule, and on success the
// batch's redo record is appended (commit point, redo.go) before the
// results are delivered — still under the undo log, so a panicking yield
// callback unwinds every relation's writes all-or-nothing exactly like
// the pessimistic apply phase. On validation failure the writes are
// rolled back and the begin-bumped epoch cells end-bumped — the
// representation is restored, so leaving them odd would wrongly doom
// concurrent readers — and the next attempt starts from a clean slate; a
// logging failure rolls back the same way but returns the error. A panic
// rolls back and unwinds; runBatch's release completes the shrink.
func (t *Txn) occApply() (ok bool, err error) {
	undo := t.armUndo()
	defer t.disarmUndo(undo)
	// Staged query states survive until post-validation delivery; they
	// live on member-owned arrays, and the buffer's pair serves only the
	// insert/remove re-executions, which retain nothing.
	for pos, ref := range t.order {
		if registryApplyHook != nil {
			registryApplyHook(ref.sh.r.name, pos)
		}
		ref.sh.r.computeMember(ref.sh.b, &ref.sh.b.members[ref.idx], ref.idx, ref.sh.firstMut)
	}
	if t.validate(t.ltxn.HoldsExclusive) {
		// Commit point: every shard validated, all locks held, nothing
		// delivered yet — exactly where a replayed prefix must cut.
		err = t.logCommit()
		if err == nil {
			for _, ref := range t.order {
				ref.sh.r.deliverMember(ref.sh.b, &ref.sh.b.members[ref.idx])
			}
			return true, nil
		}
	}
	undo.rollback()
	for _, sh := range t.shards {
		sh.b.finishEpochs()
	}
	return false, err
}
