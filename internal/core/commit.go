package core

import (
	"math/bits"

	"repro/internal/container"
	"repro/internal/locks"
	"repro/internal/rel"
)

// This file is the commit pipeline of batched transactions. Once a batch
// is assembled (batch.go), one body commits it, whatever it holds:
//
//	grow → lock-free read → compute → stamp + validate → yields → log → pendings
//
// Two rows parameterise the body. What the batch holds picks the row; no
// option does. This is the synchronization-synthesis framing (Samanta et
// al., Locksynth): the least synchronization that keeps the
// specification, derived once from the compiled plans instead of written
// once per case.
//
//   - The OPTIMISTIC row applies when every shard's relation is
//     OptimisticCapable and some shard holds a read member. Lock-free
//     reads racing writers on other containers would be data races. The
//     row grows the WRITE members only (rounds.go): their coalesced lock
//     sets, acquired exclusively in the global order. A read-only batch
//     grows nothing and takes no lock at all. Every read member's plan
//     then runs lock-free on the member's own arrays, recording the epoch
//     cells of the locks a pessimistic plan would have taken into its
//     shard's read-set (readonly.go). The row makes up to
//     optimisticMaxAttempts attempts and validates under the self-hold
//     rule: a recorded lock the batch holds exclusively is skipped. Its
//     cell is odd from the batch's own begin-bumps, and mutual exclusion
//     since the record proves nobody else moved it. This is Silo's OCC; a
//     read-only batch is OCC with an empty write set.
//
//   - The 2PL row covers every other batch, and the optimistic row's
//     fallback after its last failed attempt. It grows every member,
//     makes one attempt and validates an empty read-set.
//
// An attempt (Txn.attempt) holds the commit point, in one order on both
// rows. Every member computes its result in global enqueue order under
// one undo log spanning all shards (computeMember): mutations write, and
// members an earlier mutation can affect re-execute, so the batch keeps
// sequential semantics. The stamp is drawn (Txn.Stamp). The read-sets
// validate. Query yields run, still under the undo log and every held
// lock. The redo record goes to the commit logger and the migration tap
// (redo.go). Only then do pendings resolve. Whatever fails before the
// logger accepted the record — a validation, a panic in compute or in a
// yield, the logger itself — rolls every shard's writes back and
// end-bumps the begin-bumped epoch cells while the locks are still held:
// nothing is logged and no Pending resolves for a batch that did not
// commit. A failed validation retries, a panic unwinds, and a logger
// error is returned from Batch (the disk, not contention, rejected it).
//
// The fallback releases the held write locks and restarts from an empty
// lock set, because the 2PL growing phase takes read members' locks,
// which may precede them in the global order. So every acquisition stays
// ordered, validation blocks on nothing, and deadlock freedom is the
// growing phase's. A committed batch serializes at its stamp: every lock
// the batch holds is held there, and on the optimistic row the stamp
// falls after the last epoch record and before the validation that
// proves every lock-free read saw the state a shared-lock execution would
// have seen at that instant.

// commit runs the assembled batch through the pipeline, starting on the
// optimistic row when the batch qualifies for it.
func (t *Txn) commit() error {
	opt, read, mut := true, false, false
	for _, sh := range t.shards {
		opt = opt && sh.r.optimisticOK
		read = read || sh.hasRead
		mut = mut || sh.firstMut >= 0
	}
	opt = opt && read
	if tr := t.trace; tr != nil && opt {
		tr.Optimistic, tr.OCC = !mut, mut
	}
	attempts := 1
	if opt {
		attempts = optimisticMaxAttempts
	}
	for {
		for _, sh := range t.shards {
			sh.b.occ = opt
			sh.r.initBatchMembers(sh.b)
		}
		for _, sh := range t.shards {
			if !opt || sh.firstMut >= 0 {
				sh.r.growBatch(t, sh.b)
			}
			sh.mark = sh.b.n // retained growing-phase states end here; read states are per attempt
		}
		escalated := false
		for attempt := 0; attempt < attempts; attempt++ {
			if attempt > 0 {
				optimisticBackoff(attempt, &t.ctr.backoffSleeps)
				if mut {
					t.ctr.occRetries.Add(1)
				}
			}
			if opt {
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
			}
			if ok, err := t.attempt(); ok || err != nil {
				if ok {
					t.noteBatch(opt, mut)
				}
				return err
			}
			if escalated = t.escalateLate(); escalated {
				break
			}
		}
		// Regrow. Every failed attempt's writes were rolled back and their
		// epoch cells end-bumped, so releasing here exposes exactly the
		// pre-batch state. The trace keeps Attempts, FellBack, Escalations
		// and the row flags and drops the lock schedule the regrowth
		// records again. A late escalation regrows on the same row, its
		// escalated roots exclusive; otherwise every attempt failed
		// validation and the batch falls back to the 2PL row.
		if !escalated && mut {
			t.ctr.occFallbacks.Add(1)
		}
		if tr := t.trace; tr != nil {
			tr.FellBack = tr.FellBack || !escalated
			tr.rewind(traceMark{})
		}
		for _, sh := range t.shards {
			sh.b.reads.Reset()
			sh.b.rootRead = locks.ReadEntry{}
			sh.b.n = 0
		}
		t.ltxn.ReleaseAll()
		t.ltxn.Reset()
		if !escalated {
			opt, attempts = false, 1
		}
	}
}

// escalateLate ends an attempt that rolled back because a shard's apply
// phase wrote, or would have written, its demotable root's container
// under a root held Shared or recorded (insertWrite, sweepUnlinks): it
// marks every such shard's root exclusive for the regrowth, counts the
// escalations and reports whether there was any.
func (t *Txn) escalateLate() bool {
	found := false
	for _, sh := range t.shards {
		if sh.b.escalate {
			sh.b.escalate, sh.b.rootX = false, true
			t.noteEscalation(sh.r)
			found = true
		}
	}
	return found
}

// attempt runs one attempt's commit point, reporting whether the batch
// committed; a non-nil error is the commit logger's. On false the batch
// has been rolled back. A panic rolls back and unwinds; runBatch's
// release completes the shrink.
func (t *Txn) attempt() (ok bool, err error) {
	undo := t.armUndo()
	defer t.disarmUndo(undo)
	escalate := false
	for pos, ref := range t.order {
		if registryApplyHook != nil {
			registryApplyHook(ref.sh.r.name, pos)
		}
		ref.sh.r.computeMember(ref.sh.b, ref.member(), ref.idx, ref.sh.firstMut)
		if escalate = ref.sh.b.escalate; escalate {
			break
		}
	}
	for _, sh := range t.shards {
		if !escalate && len(sh.b.unlinks) > 0 {
			sh.r.sweepUnlinks(sh.b)
			escalate = sh.b.escalate
		}
	}
	if !escalate && t.reg != nil {
		t.stamp = t.reg.stamps.Add(1)
	}
	if !escalate && t.validate() {
		for _, ref := range t.order {
			ref.member().yieldRows()
		}
		if err = t.logCommit(); err == nil {
			for _, ref := range t.order {
				ref.member().resolve()
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

// Stamp returns the batch's commit stamp, valid after Batch returned nil.
// Every batch of a registry — Registry.Batch, and Relation.Batch on a
// registered relation — draws it from one registry counter inside the
// attempt that commits, while every lock the batch holds is held. Stamps
// are unique and order conflicting batches as they serialized, so
// replaying committed batches in stamp order reproduces every result.
// Standalone relations' batches and empty batches have stamp 0.
func (t *Txn) Stamp() uint64 { return t.stamp }

// member returns the member ref addresses.
func (ref memberRef) member() *member { return &ref.sh.b.members[ref.idx] }

// validate checks every shard's read-set in relation-id (= global lock)
// order under the self-hold rule, and on success adds the validated
// epochs to the trace.
func (t *Txn) validate() bool {
	for _, sh := range t.shards {
		if !sh.b.reads.Validate(t.ltxn.HoldsExclusive) {
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

// runShardOptimistic runs one shard's READ members lock-free, recording
// epochs into the shard buffer's read-set. Each member's plan walks
// straight through on the member's own state arrays and keeps its final
// states (queries) or count for the commit point; write members already
// ran the growing phase. Callers reset the state pool to the attempt's
// floor first (sh.mark), because the previous attempt's read lists are
// invalid and overwritten.
func (r *Relation) runShardOptimistic(b *opBuf) {
	b.optimistic = true
	b.reads.Reset()
	if b.rootRead.L != nil {
		b.reads.Add(b.rootRead) // the write members' root record (rootRound)
	}
	for i := range b.members {
		if m := &b.members[i]; m.kind == mQuery || m.kind == mCount {
			r.runMember(b, m)
		}
	}
	b.optimistic = false
}

// armUndo enters every shard's apply phase under one shared undo log: the
// first shard's buffer-resident undoPool, emptied (a stack undoLog would
// escape through b.undo and regrow its records every batch). Callers
// clear its records on every exit.
func (t *Txn) armUndo() *undoLog {
	undo := &t.shards[0].b.undoPool
	undo.recs = undo.recs[:0]
	for _, sh := range t.shards {
		sh.b.apply = true
		sh.b.undo = undo
		clear(sh.b.unlinks) // a failed attempt's, which its rollback relinked
		sh.b.unlinks = sh.b.unlinks[:0]
	}
	return undo
}

// disarmUndo leaves the apply phase armed by armUndo. On a panic it rolls
// the undo log back before the locks are released and re-panics;
// otherwise it empties the log's records.
func (t *Txn) disarmUndo(undo *undoLog) {
	for _, sh := range t.shards {
		sh.b.undo = nil
		sh.b.apply = false
	}
	if p := recover(); p != nil {
		undo.rollback()
		panic(p)
	}
	clear(undo.recs)
	undo.recs = undo.recs[:0]
}

// rowsAgree reports whether two rows hold equal values at every column
// of mask. An empty mask agrees vacuously — callers treat that as a
// potential conflict (nothing distinguishes the rows).
func rowsAgree(a, c rel.Row, mask uint64) bool {
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		if !rel.Equal(a.At(i), c.At(i)) {
			return false
		}
		mask &^= 1 << uint(i)
	}
	return true
}

// opMask returns the member's bound-column mask (the key scope of the
// operation).
func (m *member) opMask() uint64 {
	if m.mut != nil {
		return m.mut.BoundMask
	}
	return m.boundMask
}

// memberReusable reports whether member m at index idx can reuse its
// growing-phase results at apply time instead of re-executing. The
// growing phase saw the pre-batch state, so reuse is sound iff no earlier
// mutation can have changed what m observes or the instances m writes:
//
//   - tuple overlap: an earlier insert's row extending m's bound key, or
//     an earlier remove whose key can share an extension with m's,
//     changes m's existence check / victim set / query result;
//   - creation overlap (inserts only): a node instance m found missing
//     and plans to create may have been created by an earlier insert that
//     agrees on the node's key columns A — m must re-locate;
//   - deletion overlap (inserts only): a node instance m located may have
//     been cascade-deleted by an earlier remove agreeing on A.
//
// Disagreement on any shared bound column proves disjointness; columns a
// side leaves unbound cannot be compared, so they count as agreement
// (conservative).
func (r *Relation) memberReusable(b *opBuf, m *member, idx, firstMut int) bool {
	if firstMut < 0 || idx <= firstMut {
		return true
	}
	mMask := m.opMask()
	rootIdx := r.decomp.Root.Index
	for i := firstMut; i < idx; i++ {
		mm := &b.members[i]
		if mm.kind != mInsert && mm.kind != mRemove {
			continue
		}
		test := mMask
		if mm.kind == mRemove {
			test &= mm.mut.BoundMask
		}
		if rowsAgree(m.row, mm.row, test) {
			return false
		}
		if m.kind != mInsert {
			continue
		}
		for v, am := range r.nodeKeyMask {
			if v == rootIdx {
				continue
			}
			if m.xinst[v] == nil {
				if mm.kind == mInsert && rowsAgree(m.row, mm.row, am) {
					return false
				}
			} else if mm.kind == mRemove && rowsAgree(m.row, mm.row, am&mm.mut.BoundMask) {
				return false
			}
		}
	}
	return true
}

// computeMember executes one member's apply-phase work and stages the
// result on the member (states for queries, count for counts, ok for
// mutations) without touching any caller-visible sink. Members whose
// scope no earlier mutation touched reuse their growing/read-phase
// traversal (it is exact); the rest re-execute in apply mode so they
// observe the writes of the members before them — sequential semantics.
// firstMut is the owning SHARD's first-mutation index: mutations in other
// relations of a registry batch never invalidate reuse, because relations
// are disjoint object graphs.
//
// Staged query states must survive until the commit point, after later
// members ran: they live on member-owned arrays, the state pool only
// grows within an attempt, and the buffer's pair serves only the
// insert/remove re-executions, which retain nothing.
//
// computeMember is idempotent across attempts: a failed attempt rolls the
// container writes back (undo log) and the next attempt recomputes from
// the restored state — which is why the reuse-insert branch writes
// through a scratch copy of the located instances instead of mutating
// m.xinst (insertWrite fills in the instances it creates).
func (r *Relation) computeMember(b *opBuf, m *member, idx, firstMut int) {
	reuse := r.memberReusable(b, m, idx, firstMut)
	switch m.kind {
	case mQuery:
		if !reuse {
			r.runMember(b, m)
		}
	case mCount:
		switch {
		case reuse && m.counted:
			// m.count already holds the growing/read-phase result.
		case reuse:
			m.count, m.counted = len(m.states), true
		default:
			r.runMember(b, m)
		}
	case mInsert:
		m.ok = false
		if reuse {
			if len(m.states) == 0 {
				nNodes := len(m.xinst)
				if cap(b.xinst) < nNodes {
					b.xinst = make([]*Instance, nNodes)
				}
				xinst := b.xinst[:nNodes]
				copy(xinst, m.xinst)
				r.insertWrite(b, xinst, m.row)
				m.ok = true
			}
		} else {
			m.ok = r.insert(b, m.ins, m.row)
		}
	case mRemove:
		m.ok = false
		if reuse {
			for _, st := range m.states {
				if st.row.Mask() != r.fullMask {
					continue
				}
				r.deleteTuple(b, st)
				m.ok = true
			}
		} else {
			m.ok = r.remove(b, m.mut, m.row)
		}
	}
}

// runMember walks a query or count member's plan straight through on the
// member's own arrays, outside the growing phase: the apply phase's
// re-execution (b.apply) and the optimistic read phase (b.optimistic). A
// query member keeps its final states; a count member stores its count
// and drops its states.
func (r *Relation) runMember(b *opBuf, m *member) {
	n := r.walk(b, m.steps, m.row, m.boundMask, &m.states, &m.specOut)
	if m.kind == mCount {
		m.count, m.counted = n, true
		m.states = m.states[:0]
	}
}

// yieldRows runs a query member's yield over its staged rows, before the
// commit point: a panic there rolls the batch back.
func (m *member) yieldRows() {
	if m.yield == nil {
		return
	}
	for _, st := range m.states {
		if !m.yield(st.row) {
			return
		}
	}
}

// resolve sets the member's Pending from its staged result, after the
// commit point.
func (m *member) resolve() {
	switch m.kind {
	case mQuery:
		if m.pt == nil {
			return
		}
		results := make([]rel.Tuple, 0, len(m.states))
		for _, st := range m.states {
			vals := make([]rel.Value, len(m.outIdx))
			for j, ci := range m.outIdx {
				vals[j] = st.row.At(ci)
			}
			results = append(results, rel.TupleFromSorted(m.outCols, vals))
		}
		m.pt.set(results)
	case mCount:
		m.pi.set(m.count)
	case mInsert, mRemove:
		m.pb.set(m.ok)
	}
}

// undoLog records displaced container bindings during a batch's apply
// phase so a failed attempt can restore the pre-batch representation
// before the transaction's locks are released (all-or-nothing).
type undoLog struct {
	recs []undoRec
}

// undoRec is one displaced binding: the container, the written key, and
// what the key mapped to before (had=false for a previously absent key).
type undoRec struct {
	c   container.Map
	key rel.Key
	old any
	had bool
}

// record appends one displaced binding.
func (u *undoLog) record(c container.Map, key rel.Key, old any, had bool) {
	u.recs = append(u.recs, undoRec{c: c, key: key, old: old, had: had})
}

// rollback restores every displaced binding in reverse order. The recorded
// keys are carved from the operation's arena, which outlives the rollback
// (it runs before the buffer is released); a re-inserting write stores
// its own copy.
func (u *undoLog) rollback() {
	for i := len(u.recs) - 1; i >= 0; i-- {
		rec := u.recs[i]
		if rec.had {
			rec.c.Write(rec.key, rec.old)
		} else {
			rec.c.Write(rec.key, nil)
		}
	}
	clear(u.recs)
	u.recs = u.recs[:0]
}
