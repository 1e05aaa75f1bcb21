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
//     re-runs under ordinary pessimistic 2PL (commitBatch/commitTxn),
//     which cannot starve — results never depend on the path taken.
//
// The serialization point of a successful OCC commit is its validation
// instant: the write locks are held across it (writes are "current"
// there), and the validated epochs prove every lock-free read observed
// exactly the state a shared-lock execution would have observed at that
// instant. Deadlock freedom is unchanged: phase 1 is the ordered growing
// phase, phases 2–4 block on nothing, and the fallback starts a fresh
// ordered acquisition from an empty lock set.

// occEligible reports whether one shard can join an OCC commit: the
// relation's containers are all concurrency-safe (lock-free reads racing
// writers would be data races otherwise).
func occEligible(sh *txnShard) bool { return sh.r.optimisticOK }

// commitOCC attempts the Silo-style commit of a mixed single-relation
// batch, reporting success. It declines (false, nothing executed) unless
// the batch holds both mutations and reads on an OptimisticCapable
// relation; after declining or exhausting its attempts the caller must
// run the pessimistic commitBatch — the buffer has been reset for it. A
// non-nil error is a commit-logger failure (redo.go): the attempt's
// writes were rolled back and the caller must surface the error rather
// than fall back — the disk, not contention, rejected the batch.
func (r *Relation) commitOCC(t *Txn, sh *txnShard) (bool, error) {
	if !occEligible(sh) || sh.firstMut < 0 || !sh.hasRead {
		return false, nil
	}
	b := sh.b
	if tr := t.trace; tr != nil {
		tr.OCC = true
	}
	b.occ = true
	r.initBatchMembers(b)
	r.growBatch(t, b) // write members only: coalesced exclusive locks in global order
	mark := b.n       // write members' retained states end here; read/apply states are per-attempt
	for attempt := 0; attempt < optimisticMaxAttempts; attempt++ {
		if attempt > 0 {
			optimisticBackoff(attempt)
			r.ctr.occRetries.Add(1)
		}
		if tr := t.trace; tr != nil {
			tr.Attempts++
		}
		b.n = mark
		r.runShardOptimistic(b)
		if hook := optimisticValidateHook; hook != nil {
			hook(attempt)
		}
		ok, err := r.occApply(b, sh.firstMut, func() {
			if tr := t.trace; tr != nil {
				tr.EpochsRecorded += b.reads.Len()
				tr.EpochsDistinct += b.reads.Distinct()
			}
			for i := range b.members {
				r.deliverMember(b, &b.members[i])
			}
		})
		if err != nil {
			// Logging failure, not a validation conflict: the writes were
			// rolled back and the epochs end-bumped; putBuf (in batch)
			// releases the write locks. No pessimistic fallback — retrying
			// against a failed log would just fail again.
			return false, err
		}
		if ok {
			b.occ = false
			return true, nil
		}
	}
	r.occFallback(t, b)
	return false, nil
}

// occApply runs one OCC attempt's apply-and-validate step: every member
// computes its staged result under the undo log (mutations write,
// overlapping reads re-execute), then the read-set is validated under the
// self-hold rule, and on success the batch's redo record is appended
// (commit point, redo.go) before deliver runs — still under the undo log,
// so a panicking yield callback unwinds the whole batch all-or-nothing
// exactly like the pessimistic apply phase. On validation failure the
// writes are rolled back and the begin-bumped epoch cells end-bumped —
// the representation is restored, so leaving them odd would wrongly doom
// concurrent readers — and the next attempt starts from a clean slate; a
// logging failure rolls back the same way but returns the error. A
// panic rolls back and unwinds; putBuf's finishEpochs/ReleaseAll complete
// the shrink.
func (r *Relation) occApply(b *opBuf, firstMut int, deliver func()) (ok bool, err error) {
	b.apply = true
	undo := &b.undoPool // buffer-resident: a stack undoLog would escape via b.undo
	undo.recs = undo.recs[:0]
	b.undo = undo
	defer func() {
		b.undo = nil
		b.apply = false
		if p := recover(); p != nil {
			undo.rollback()
			panic(p)
		}
		clear(undo.recs)
		undo.recs = undo.recs[:0]
	}()
	// Staged query states survive until post-validation delivery; they
	// live on member-owned arrays, and the shared ping-pong pair serves
	// only applyInsert/applyRemove transients, which nothing retains.
	for i := range b.members {
		r.computeMember(b, &b.members[i], i, firstMut)
	}
	if b.reads.Validate(b.txn.HoldsExclusive) {
		// Commit point: validation succeeded, write locks held, nothing
		// delivered yet — exactly where a replayed prefix must cut.
		if lg, tp := r.commitLogger(), r.commitTap(); lg != nil || tp != nil {
			ops := r.shardRedo(b)
			if lg != nil && ops != nil {
				if lerr := lg.LogCommit(ops); lerr != nil {
					undo.rollback()
					b.finishEpochs()
					return false, lerr
				}
			}
			// Migration tap: durable commits only, under the held write
			// locks (migrate.go).
			if tp != nil && ops != nil {
				tp.record(ops)
			}
		}
		deliver()
		return true, nil
	}
	undo.rollback()
	b.finishEpochs()
	return false, nil
}

// occFallbackTrace marks the trace fallen-back and clears the
// lock-schedule fields the pessimistic rerun re-records (Attempts,
// FellBack and OCC are kept — they describe the failed attempt history).
func occFallbackTrace(t *Txn) {
	if tr := t.trace; tr != nil {
		tr.FellBack = true
		tr.Rounds = tr.Rounds[:0]
		tr.Requested, tr.Acquired, tr.Speculative, tr.SharedAcquired = 0, 0, 0, 0
	}
}

// occResetBuf returns one shard buffer from OCC mode to a clean slate for
// the pessimistic rerun: mode flag off, read-set emptied, state pool
// floor back to zero.
func occResetBuf(b *opBuf) {
	b.occ = false
	b.reads.Reset()
	b.n = 0
}

// occFallback abandons the OCC attempt sequence: the held write locks are
// released (the pessimistic growing phase re-acquires read members' locks,
// which may precede them in the global order, so the transaction must
// restart from an empty lock set), the lock-schedule trace fields are
// cleared (the pessimistic rerun re-records them), and the buffer is
// reset for commitBatch/commitTxn. The failed attempts' writes were all
// rolled back and their epoch cells end-bumped, so releasing here exposes
// exactly the pre-batch state.
func (r *Relation) occFallback(t *Txn, b *opBuf) {
	r.ctr.occFallbacks.Add(1)
	occFallbackTrace(t)
	occResetBuf(b)
	b.txn.ReleaseAll()
	b.txn.Reset()
}

// commitOCC attempts the Silo-style commit of a mixed registry batch:
// shard growing phases (write members only) run in relation-id order on
// the shared lock transaction, read members run lock-free per shard, one
// undo log spans every shard's apply, and validation walks the shards in
// relation-id order — so the validation pass follows the registry-wide
// global lock order exactly as the read-only path does. Any shard on a
// non-capable relation vetoes the whole batch (false, nothing executed).
// A non-nil error is a commit-logger failure, surfaced without falling
// back (see the single-relation commitOCC).
func (g *Registry) commitOCC(t *Txn) (bool, error) {
	hasRead, hasMut := false, false
	for _, sh := range t.multi.shards {
		if !occEligible(sh) {
			return false, nil
		}
		if sh.hasRead {
			hasRead = true
		}
		if sh.firstMut >= 0 {
			hasMut = true
		}
	}
	if !hasRead || !hasMut {
		return false, nil
	}
	if tr := t.trace; tr != nil {
		tr.OCC = true
	}
	for _, sh := range t.multi.shards {
		sh.b.occ = true
		sh.r.initBatchMembers(sh.b)
	}
	for _, sh := range t.multi.shards { // shards pre-sorted by relation id (Registry.batch)
		sh.r.growBatch(t, sh.b)
		sh.mark = sh.b.n
	}
	for attempt := 0; attempt < optimisticMaxAttempts; attempt++ {
		if attempt > 0 {
			optimisticBackoff(attempt)
			g.ctr.occRetries.Add(1)
		}
		if tr := t.trace; tr != nil {
			tr.Attempts++
		}
		for _, sh := range t.multi.shards {
			sh.b.n = sh.mark
			sh.r.runShardOptimistic(sh.b)
		}
		if hook := optimisticValidateHook; hook != nil {
			hook(attempt)
		}
		ok, err := g.occApply(t, func() {
			if tr := t.trace; tr != nil {
				for _, sh := range t.multi.shards {
					tr.EpochsRecorded += sh.b.reads.Len()
					tr.EpochsDistinct += sh.b.reads.Distinct()
				}
			}
			for _, ref := range t.multi.order {
				ref.sh.r.deliverMember(ref.sh.b, &ref.sh.b.members[ref.idx])
			}
		})
		if err != nil {
			// Logging failure: writes rolled back, epochs end-bumped; the
			// deferred shrink in Registry.batch releases the locks.
			return false, err
		}
		if ok {
			for _, sh := range t.multi.shards {
				sh.b.occ = false
			}
			return true, nil
		}
	}
	g.ctr.occFallbacks.Add(1)
	occFallbackTrace(t)
	for _, sh := range t.multi.shards {
		occResetBuf(sh.b)
	}
	t.ltxn.ReleaseAll()
	t.ltxn.Reset()
	return false, nil
}

// occApply is the registry counterpart of Relation.occApply: one undo log
// spans every shard, members compute in global enqueue order, every
// shard's read-set must validate (in relation-id = global lock order)
// under the shared transaction's self-hold rule, the redo record is
// appended at the post-validation commit point (redo.go), and deliver
// runs under the undo log so a panicking yield unwinds every relation's
// writes.
func (g *Registry) occApply(t *Txn, deliver func()) (ok bool, err error) {
	undo := t.armUndo()
	defer func() {
		for _, sh := range t.multi.shards {
			sh.b.undo = nil
			sh.b.apply = false
		}
		if p := recover(); p != nil {
			undo.rollback()
			panic(p)
		}
		clear(undo.recs)
		undo.recs = undo.recs[:0]
	}()
	for pos, ref := range t.multi.order {
		if registryApplyHook != nil {
			registryApplyHook(ref.sh.r.name, pos)
		}
		ref.sh.r.computeMember(ref.sh.b, &ref.sh.b.members[ref.idx], ref.idx, ref.sh.firstMut)
	}
	valid := true
	for _, sh := range t.multi.shards {
		if !sh.b.reads.Validate(t.ltxn.HoldsExclusive) {
			valid = false
			break
		}
	}
	if valid {
		// Commit point: every shard validated, all locks held, nothing
		// delivered yet (see redo.go).
		if lg, tp := g.logger, g.tap.Load(); lg != nil || tp != nil {
			ops := t.registryRedo()
			if lg != nil && ops != nil {
				if lerr := lg.LogCommit(ops); lerr != nil {
					undo.rollback()
					for _, sh := range t.multi.shards {
						sh.b.finishEpochs()
					}
					return false, lerr
				}
			}
			// Migration tap: durable commits only, under the held locks
			// (migrate.go).
			if tp != nil && ops != nil {
				tp.record(ops)
			}
		}
		deliver()
		return true, nil
	}
	undo.rollback()
	for _, sh := range t.multi.shards {
		sh.b.finishEpochs()
	}
	return false, nil
}
