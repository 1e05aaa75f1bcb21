package core

import (
	"fmt"
	"sort"

	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/query"
	"repro/internal/rel"
)

// This file interprets compiled plans against a decomposition instance.
// The executor is the runtime half of the paper's code generator: plans
// fix the access path, the lock steps, their order, and — since the
// schema-compilation pass — every column offset at synthesis time; the
// executor evaluates them over dense row states (§5.2) with no string
// comparisons, sorting lock batches into the global order (eliding the
// sort when the plan proved the states pre-sorted) and running the
// speculative acquire/validate/retry protocol of §4.5.

// specRetryLimit bounds the §4.5 validate/retry loop; exceeding it
// indicates a livelock bug rather than contention, so the executor panics.
const specRetryLimit = 1 << 20

// runSteps executes a step list from the root state: the shared skeleton
// of queries, counts and the mutation-embedded existence checks. Callers
// must pass the final state list to b.recycle once consumed.
func (r *Relation) runSteps(b *opBuf, steps []query.Step, op rel.Row, mask uint64) []*qstate {
	states := append(b.pipe[:0], b.rootState(r, op, mask))
	b.pipe = states
	for i := range steps {
		states = r.execStep(b, &steps[i], states, op)
		if len(states) == 0 {
			break
		}
	}
	return states
}

// execStep dispatches one plan step over the current states. In a batch's
// apply phase (b.apply) every lock the batch can need is already held, so
// lock steps are skipped and speculative accesses run as plain lookups and
// scans — re-validation is unnecessary because no other transaction can
// move entries under the batch's locks, and entries written by earlier
// batch members live in instances private to the transaction.
func (r *Relation) execStep(b *opBuf, step *query.Step, states []*qstate, op rel.Row) []*qstate {
	switch step.Kind {
	case query.StepLock:
		if b.apply {
			return states
		}
		r.execLock(b, step, states, op)
		return states
	case query.StepLookup:
		return r.execLookup(b, step.Edge, step.ColIdx, states)
	case query.StepScan:
		if r.placement.RuleFor(step.Edge).Speculative && !b.apply {
			if b.optimistic {
				return r.execOptimisticScanSpec(b, step, states)
			}
			return r.execScanSpec(b, step, states)
		}
		return r.execScan(b, step.Edge, step.ColIdx, step.FilterPos, step.FilterIdx, states)
	case query.StepSpecLookup:
		if b.apply {
			return r.execApplyLookup(b, step.Edge, step.ColIdx, states)
		}
		if b.optimistic {
			return r.execOptimisticLookup(b, step.Edge, step.ColIdx, states)
		}
		return r.execSpecLookup(b, step.Edge, step.ColIdx, step.TargetIdx, states, step.Mode)
	default:
		panic(fmt.Sprintf("core: unknown step kind %d", step.Kind))
	}
}

// execApplyLookup advances states across a speculatively placed edge
// during a batch's apply phase: a plain keyed lookup, trusted without the
// §4.5 validate/retry protocol because the batch already holds either the
// target's lock (acquired when the growing phase located it) or created
// the target itself (private to the transaction).
func (r *Relation) execApplyLookup(b *opBuf, e *decomp.Edge, colIdx []int, states []*qstate) []*qstate {
	out := states[:0]
	for _, st := range states {
		src := st.insts[e.Src.Index]
		if src == nil {
			continue
		}
		v, ok := r.container(src, e).Lookup(b.keyOf(st.row, colIdx))
		if !ok {
			r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, false)
			continue
		}
		inst := v.(*Instance)
		r.auditAccess(b, e, st.insts, st.row, inst, b.fresh, false)
		st.insts[e.Dst.Index] = inst
		out = append(out, st)
	}
	return out
}

// execOptimisticLookup advances states across a speculatively placed edge
// during an optimistic read-only attempt: a plain lock-free lookup whose
// stability is established by epochs rather than by the §4.5
// acquire/validate/retry protocol. The entry's membership is covered by
// the fallback stripes the plan's preceding lock step recorded; the
// target's content is covered by recording the target lock's epoch here,
// before any later step descends into the target's containers. If the
// entry moves or the target's subtree changes before the batch validates,
// one of those recorded epochs moves with it.
func (r *Relation) execOptimisticLookup(b *opBuf, e *decomp.Edge, colIdx []int, states []*qstate) []*qstate {
	out := states[:0]
	for _, st := range states {
		src := st.insts[e.Src.Index]
		if src == nil {
			continue
		}
		v, ok := r.container(src, e).Lookup(b.keyOf(st.row, colIdx))
		if !ok {
			r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, false)
			continue
		}
		inst := v.(*Instance)
		b.reads.Record(inst.lock(0))
		r.auditAccess(b, e, st.insts, st.row, inst, b.fresh, false)
		st.insts[e.Dst.Index] = inst
		out = append(out, st)
	}
	return out
}

// execOptimisticScanSpec scans a speculatively placed edge during an
// optimistic read-only attempt. The plan's preceding lock step recorded
// every fallback stripe (the epochs standing in for "freezing the
// membership"), so each discovered entry only needs its target's epoch
// recorded before later steps read the target's subtree.
func (r *Relation) execOptimisticScanSpec(b *opBuf, step *query.Step, states []*qstate) []*qstate {
	out := r.execOptimisticScanSpecInto(b, b.spare[:0], step, states)
	b.spare = states[:0]
	return out
}

// execOptimisticScanSpecInto is execOptimisticScanSpec building onto a
// caller-supplied output array; batch members pass their own arrays here
// instead of the shared ping-pong pair.
func (r *Relation) execOptimisticScanSpecInto(b *opBuf, out []*qstate, step *query.Step, states []*qstate) []*qstate {
	e := step.Edge
	for _, st := range states {
		src := st.insts[e.Src.Index]
		if src == nil {
			continue
		}
		r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, true)
		r.container(src, e).Scan(func(k rel.Key, v any) bool {
			for fi, p := range step.FilterPos {
				if !rel.Equal(k.At(p), st.row.At(step.FilterIdx[fi])) {
					return true
				}
			}
			ns := b.clone(r, st)
			for p, ci := range step.ColIdx {
				ns.row.Set(ci, k.At(p))
			}
			inst := v.(*Instance)
			b.reads.Record(inst.lock(0))
			ns.insts[e.Dst.Index] = inst
			out = append(out, ns)
			return true
		})
	}
	return out
}

// execLock acquires the physical locks the step requires on the instances
// of its node present in states. Stripe selection follows §4.4: a bound
// selector hashes the operation row through its compiled indices;
// anything else takes every stripe.
func (r *Relation) execLock(b *opBuf, step *query.Step, states []*qstate, op rel.Row) {
	n := step.Node
	// Deduplicate instances: linear for small batches, map beyond.
	insts := b.instScratch[:0]
	if len(states) <= 64 {
		for _, st := range states {
			inst := st.insts[n.Index]
			if inst == nil {
				continue
			}
			dup := false
			for _, seen := range insts {
				if seen == inst {
					dup = true
					break
				}
			}
			if !dup {
				insts = append(insts, inst)
			}
		}
	} else {
		if b.seen == nil {
			b.seen = make(map[*Instance]bool, len(states))
		}
		for _, st := range states {
			inst := st.insts[n.Index]
			if inst == nil || b.seen[inst] {
				continue
			}
			b.seen[inst] = true
			insts = append(insts, inst)
		}
		clear(b.seen)
	}
	b.instScratch = insts[:0]
	r.execLockInsts(b, step, insts, op)
}

// execLockInsts acquires the step's locks over a deduplicated instance
// list. The stripe set depends only on the operation row, so it is
// computed once and applied per instance.
func (r *Relation) execLockInsts(b *opBuf, step *query.Step, insts []*Instance, op rel.Row) {
	n := step.Node
	k := r.placement.StripeCount(n)
	all := false
	var sbuf [4]int
	stripes := sbuf[:0]
	for i := range step.Selectors {
		sel := &step.Selectors[i]
		if sel.All {
			all = true
			break
		}
		if k == 1 || len(sel.Idx) == 0 {
			stripes = append(stripes, 0)
			continue
		}
		if !op.BindsAll(sel.Mask) {
			all = true
			break
		}
		stripes = append(stripes, int(op.HashAt(sel.Idx)%uint64(k)))
	}
	distinct := 0
	if !all {
		sort.Ints(stripes)
		w := 0
		for i, idx := range stripes {
			if i == 0 || idx != stripes[w-1] {
				stripes[w] = idx
				w++
			}
		}
		stripes = stripes[:w]
		distinct = w
	}
	batch := b.lockBatch[:0]
	for _, inst := range insts {
		if all {
			for i := 0; i < k; i++ {
				batch = append(batch, inst.lock(i))
			}
			continue
		}
		for _, idx := range stripes {
			batch = append(batch, inst.lock(idx))
		}
	}
	preSorted := step.PreSorted && k == 1 && !all && distinct == 1
	switch {
	case b.optimistic:
		// Optimistic read-only attempt: record each lock's epoch where the
		// pessimistic plan would acquire it — BEFORE the reads it protects,
		// which follow this step — and acquire nothing (readonly.go).
		for _, l := range batch {
			b.reads.Record(l)
		}
	case b.collect != nil:
		// Batch growing phase: divert the step's requests into the
		// coalescing set; the batch scheduler acquires the merged set once
		// per decomposition node (batch.go).
		for _, l := range batch {
			b.collect.Add(l, step.Mode)
		}
	default:
		b.txn.Acquire(batch, step.Mode, preSorted)
	}
	b.lockBatch = batch[:0]
}

// execLookup advances each state across edge e by key lookup, gathering
// the container key straight from the row through the compiled indices.
// States whose entry is absent are dropped: the transaction observed the
// absence under the logical lock its earlier lock steps imply.
func (r *Relation) execLookup(b *opBuf, e *decomp.Edge, colIdx []int, states []*qstate) []*qstate {
	out := states[:0]
	for _, st := range states {
		src := st.insts[e.Src.Index]
		if src == nil {
			continue
		}
		r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, false)
		v, ok := r.container(src, e).Lookup(b.keyOf(st.row, colIdx))
		if !ok {
			continue
		}
		st.insts[e.Dst.Index] = v.(*Instance)
		out = append(out, st)
	}
	return out
}

// execScan advances states across edge e by iterating the source
// containers. Each surviving entry's key values are scattered directly
// into a cloned row through the compiled indices — the dense-row analog
// of the tuple join, with no merge and no allocation beyond the pooled
// state. Filter positions compare entry values against row slots bound by
// the operation.
func (r *Relation) execScan(b *opBuf, e *decomp.Edge, colIdx, filterPos, filterIdx []int, states []*qstate) []*qstate {
	out := r.execScanInto(b, b.spare[:0], e, colIdx, filterPos, filterIdx, states)
	b.spare = states[:0]
	return out
}

// execScanInto is execScan building onto a caller-supplied output array;
// batch members pass their own arrays here instead of the shared
// ping-pong pair.
func (r *Relation) execScanInto(b *opBuf, out []*qstate, e *decomp.Edge, colIdx, filterPos, filterIdx []int, states []*qstate) []*qstate {
	// The visitor closure is created once per buffer and parameterized
	// through b.scan: a fresh closure per (call × state) is the hottest
	// allocation in a scan-heavy batch, and Scan's indirect call makes it
	// escape unconditionally.
	sc := &b.scan
	if b.scanFn == nil {
		b.scanFn = func(k rel.Key, v any) bool {
			st := sc.st
			for fi, p := range sc.filterPos {
				if !rel.Equal(k.At(p), st.row.At(sc.filterIdx[fi])) {
					return true
				}
			}
			ns := sc.b.clone(sc.r, st)
			for p, ci := range sc.colIdx {
				ns.row.Set(ci, k.At(p))
			}
			ns.insts[sc.e.Dst.Index] = v.(*Instance)
			sc.out = append(sc.out, ns)
			return true
		}
	}
	sc.r, sc.b, sc.e = r, b, e
	sc.colIdx, sc.filterPos, sc.filterIdx = colIdx, filterPos, filterIdx
	sc.out = out
	for _, st := range states {
		src := st.insts[e.Src.Index]
		if src == nil {
			continue
		}
		r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, len(filterPos) == 0)
		sc.st = st
		r.container(src, e).Scan(b.scanFn)
	}
	out = sc.out
	sc.out, sc.st = nil, nil // release retained states
	return out
}

// scanCtx carries execScanInto's per-call parameters to the buffer's
// cached visitor closure.
type scanCtx struct {
	r                            *Relation
	b                            *opBuf
	e                            *decomp.Edge
	colIdx, filterPos, filterIdx []int
	st                           *qstate
	out                          []*qstate
}

// execSpecLookup advances states across a speculatively placed edge
// (§4.5). The plan has already taken the fallback stripe covering the
// absent case, so:
//
//   - an unlocked read that misses is final (the absence is protected by
//     the held fallback lock) and the state dies;
//   - a hit guesses the target instance, acquires its lock, and validates
//     the read under the lock; if the entry moved to a different instance
//     the guess is abandoned and retried, which is safe because the
//     abandoned lock was the most recently acquired.
//
// Requests are processed in target-key order so acquisitions respect the
// global lock order across states.
func (r *Relation) execSpecLookup(b *opBuf, e *decomp.Edge, colIdx, targetIdx []int, states []*qstate, mode locks.Mode) []*qstate {
	reqs := b.reqs[:0]
	for _, st := range states {
		if st.insts[e.Src.Index] == nil {
			continue
		}
		reqs = append(reqs, specReq{st: st, target: b.keyOf(st.row, targetIdx)})
	}
	sort.Slice(reqs, func(i, j int) bool { return rel.CompareKeys(reqs[i].target, reqs[j].target) < 0 })
	out := b.spare[:0]
	for i := range reqs {
		st := reqs[i].st
		src := st.insts[e.Src.Index]
		if inst, ok := r.specLocate(b, e, colIdx, src, st.row, mode); ok {
			st.insts[e.Dst.Index] = inst
			out = append(out, st)
		} else {
			// Absence is covered by the held fallback stripe; audit it.
			r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, false)
		}
	}
	clear(reqs) // drop state/key pointers now, so putBuf need not sweep capacity
	b.reqs = reqs[:0]
	b.spare = states[:0]
	return out
}

// specLocate runs the speculative protocol for a single bound key and
// returns the locked target instance, or ok=false if the edge instance is
// absent (covered by the held fallback stripe).
func (r *Relation) specLocate(b *opBuf, e *decomp.Edge, colIdx []int, src *Instance, row rel.Row, mode locks.Mode) (*Instance, bool) {
	c := r.container(src, e)
	key := b.keyOf(row, colIdx)
	for attempt := 0; ; attempt++ {
		if attempt > specRetryLimit {
			panic(fmt.Sprintf("core: speculative retry livelock on edge %s", e.Name))
		}
		v, ok := c.Lookup(key) // unlocked read: container has linearizable lookups
		if !ok {
			return nil, false
		}
		guess := v.(*Instance)
		l := guess.lock(0)
		if b.txn.Holds(l) {
			// Already locked (e.g. located earlier via another in-edge or
			// an earlier state): the mapping is stable, trust a re-read.
			v2, ok2 := c.Lookup(key)
			if !ok2 {
				return nil, false
			}
			if v2.(*Instance) == guess {
				return guess, true
			}
			continue
		}
		b.txn.AcquireSpeculative(l, mode)
		v2, ok2 := c.Lookup(key)
		if ok2 && v2.(*Instance) == guess {
			return guess, true // guessed right: read was stable
		}
		b.txn.Abandon(l)
		if !ok2 {
			return nil, false
		}
		// The entry moved to a different instance; retry with the new one.
	}
}

// execScanSpec scans a speculatively placed edge: the plan took every
// fallback stripe (covering all absent entries, and thereby freezing the
// container's membership), so each discovered entry only needs its target
// lock validated. Candidates are locked in target-key order.
func (r *Relation) execScanSpec(b *opBuf, step *query.Step, states []*qstate) []*qstate {
	e := step.Edge
	cands := b.reqs[:0]
	for _, st := range states {
		src := st.insts[e.Src.Index]
		if src == nil {
			continue
		}
		r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, true)
		r.container(src, e).Scan(func(k rel.Key, v any) bool {
			for fi, p := range step.FilterPos {
				if !rel.Equal(k.At(p), st.row.At(step.FilterIdx[fi])) {
					return true
				}
			}
			ns := b.clone(r, st)
			for p, ci := range step.ColIdx {
				ns.row.Set(ci, k.At(p))
			}
			cands = append(cands, specReq{st: ns, target: b.keyOf(ns.row, step.TargetIdx)})
			return true
		})
	}
	sort.Slice(cands, func(i, j int) bool { return rel.CompareKeys(cands[i].target, cands[j].target) < 0 })
	out := b.spare[:0]
	for i := range cands {
		ns := cands[i].st
		src := ns.insts[e.Src.Index]
		if inst, ok := r.specLocate(b, e, step.ColIdx, src, ns.row, step.Mode); ok {
			ns.insts[e.Dst.Index] = inst
			out = append(out, ns)
		}
	}
	clear(cands)
	b.reqs = cands[:0]
	b.spare = states[:0]
	return out
}
