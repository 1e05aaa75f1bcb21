package core

import (
	"fmt"
	"slices"

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
//
// A plan runs in one of two forms. A batch's growing phase (rounds.go)
// sweeps every member's round program in lockstep, so that the members'
// lock requests coalesce and their speculative requests resolve together.
// Every other execution — single-op queries and counts, their optimistic
// attempts, a batch member's apply re-execution and its optimistic or OCC
// read — is the straight walk below: walk runs plan.Steps from the root
// state, and execStep sends each step kind to one primitive. The buffer's
// mode picks what a primitive does: pessimistic (take locks, run §4.5),
// apply (every lock is already held: lock steps do nothing and
// speculative accesses are plain reads) or optimistic (record epochs
// instead of taking locks). The growing phase calls the same primitives
// for its plain access steps.

// specRetryLimit bounds the §4.5 validate/retry loop; exceeding it
// indicates a livelock bug rather than contention, so the executor panics.
const specRetryLimit = 1 << 20

// walk runs a plan's steps straight through from the root state on the
// array pair (pipe, spare): the buffer's pair for a single operation, a
// batch member's own arrays for a member. The final states are left in
// *pipe. It returns a StepCount terminal's total, or else the number of
// final states. In a batch's apply phase it hides the key-node instances
// an earlier member emptied and left linked (deleteTuple): a plan may end
// at the key node, or count its instances, without looking below it.
func (r *Relation) walk(b *opBuf, steps []query.Step, op rel.Row, mask uint64, pipe, spare *[]*qstate) int {
	*pipe = append((*pipe)[:0], b.rootState(r, op, mask))
	for i := range steps {
		s := &steps[i]
		if s.Kind == query.StepCount {
			return r.countAt(b, s, *pipe)
		}
		r.execStep(b, s, op, pipe, spare)
		if len(b.unlinks) > 0 && s.Kind != query.StepLock && s.Edge.Dst.Index == r.keyNode {
			*pipe = r.hidePending(b, *pipe)
		}
		if len(*pipe) == 0 {
			break
		}
	}
	return len(*pipe)
}

// execStep runs one plan step over the states in *pipe. Steps that build
// a new list build it on *spare, which then receives the old list's
// array, so the two arrays never alias.
func (r *Relation) execStep(b *opBuf, s *query.Step, op rel.Row, pipe, spare *[]*qstate) {
	states := *pipe
	switch s.Kind {
	case query.StepLock:
		r.execLock(b, s, states, op)
	case query.StepLookup:
		*pipe = r.execLookup(b, s.Edge, s.ColIdx, states)
	case query.StepSpecLookup:
		*pipe = r.execSpecLookup(b, s.Edge, s.ColIdx, s.TargetIdx, s.Mode, states)
	case query.StepScan:
		if r.placement.RuleFor(s.Edge).Speculative {
			*pipe = r.execScanSpec(b, (*spare)[:0], s, states)
		} else {
			*pipe = r.execScan(b, scanAppend, (*spare)[:0], s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx, states)
		}
		*spare = states[:0]
	default:
		panic(fmt.Sprintf("core: unknown step kind %d", s.Kind))
	}
}

// countAt sums the sizes of a StepCount terminal's containers over the
// counting frontier — the count-pushdown result, read without traversing
// the counted entries.
func (r *Relation) countAt(b *opBuf, s *query.Step, states []*qstate) int {
	total := 0
	for _, st := range states {
		if inst := st.insts[s.Edge.Src.Index]; inst != nil {
			r.auditAccess(b, s.Edge, st.insts, st.row, nil, b.fresh, true)
			total += r.container(inst, s.Edge).Len()
			if len(b.unlinks) > 0 && s.Edge.Dst.Index == r.keyNode {
				total -= r.pendingDeadCount(b)
			}
		}
	}
	return total
}

// execLock takes the physical locks the step requires on the instances of
// its node present in states. Stripe selection follows §4.4: a bound
// selector hashes the operation row through its compiled indices;
// anything else takes every stripe. In a batch's apply phase every lock is
// already held, so it does nothing.
func (r *Relation) execLock(b *opBuf, step *query.Step, states []*qstate, op rel.Row) {
	if b.apply {
		return
	}
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

// execLockInsts takes the step's locks over a deduplicated instance list.
// The stripe set depends only on the operation row, so it is computed
// once and applied per instance. Stripes are deduplicated as they are
// gathered: a one-stripe node's set is {0} however many selectors the
// step carries.
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
		idx := 0
		if k > 1 && len(sel.Idx) > 0 {
			if !op.BindsAll(sel.Mask) {
				all = true
				break
			}
			idx = int(op.HashAt(sel.Idx) % uint64(k))
		}
		if at, found := slices.BinarySearch(stripes, idx); !found {
			stripes = slices.Insert(stripes, at, idx)
		}
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
	preSorted := step.PreSorted && k == 1 && !all && len(stripes) == 1
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

// execSpecLookup advances states across a speculatively placed edge
// (§4.5). In apply and optimistic mode each state takes a plain lookup
// (lookupSpec). Otherwise the plan has already taken the fallback stripe
// covering the absent case, so:
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
func (r *Relation) execSpecLookup(b *opBuf, e *decomp.Edge, colIdx, targetIdx []int, mode locks.Mode, states []*qstate) []*qstate {
	out := states[:0]
	if b.apply || b.optimistic {
		for _, st := range states {
			if src := st.insts[e.Src.Index]; src != nil {
				if inst, ok := r.lookupSpec(b, e, colIdx, src, st.row, st.insts); ok {
					st.insts[e.Dst.Index] = inst
					out = append(out, st)
				}
			}
		}
		return out
	}
	reqs := b.reqs[:0]
	for _, st := range states {
		if st.insts[e.Src.Index] != nil {
			reqs = append(reqs, specReq{st: st, target: b.keyOf(st.row, targetIdx)})
		}
	}
	slices.SortFunc(reqs, compareSpecReqs)
	for i := range reqs {
		st := reqs[i].st
		if inst, ok := r.specLocate(b, e, colIdx, st.insts[e.Src.Index], st.row, mode); ok {
			st.insts[e.Dst.Index] = inst
			out = append(out, st)
		} else {
			// Absence is covered by the held fallback stripe; audit it.
			r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, false)
		}
	}
	clear(reqs) // drop state/key pointers now, so putBuf need not sweep capacity
	b.reqs = reqs[:0]
	return out
}

// compareSpecReqs orders §4.5 candidates by target key.
func compareSpecReqs(a, c specReq) int { return rel.CompareKeys(a.target, c.target) }

// lookupSpec reads the target of a speculatively placed edge for one row
// outside the §4.5 protocol. In a batch's apply phase the plain lookup is
// trusted because the batch already holds the target's lock (taken when
// the growing phase located it) or created the target itself. In an
// optimistic attempt it records the target lock's epoch, before any later
// step descends into the target's containers; the entry's membership is
// covered by the fallback stripes the plan's preceding lock step recorded.
func (r *Relation) lookupSpec(b *opBuf, e *decomp.Edge, colIdx []int, src *Instance, row rel.Row, insts []*Instance) (*Instance, bool) {
	v, ok := r.container(src, e).Lookup(b.keyOf(row, colIdx))
	if !ok {
		r.auditAccess(b, e, insts, row, nil, b.fresh, false)
		return nil, false
	}
	inst := v.(*Instance)
	if b.optimistic {
		b.reads.Record(inst.lock(0))
	}
	r.auditAccess(b, e, insts, row, inst, b.fresh, false)
	return inst, true
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

// execScanSpec scans a speculatively placed edge, building the survivors
// onto out. The plan took every fallback stripe (covering all absent
// entries, and thereby freezing the container's membership), so each
// discovered entry only needs its target covered: in apply mode the batch
// already holds it, an optimistic attempt records its epoch, and otherwise
// the candidates are locked and validated in target-key order (§4.5).
func (r *Relation) execScanSpec(b *opBuf, out []*qstate, s *query.Step, states []*qstate) []*qstate {
	switch {
	case b.apply:
		return r.execScan(b, scanAppend, out, s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx, states)
	case b.optimistic:
		return r.execScan(b, scanRecord, out, s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx, states)
	}
	b.scan.s, b.reqs = s, b.reqs[:0]
	r.execScan(b, scanCand, nil, s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx, states)
	cands := b.reqs
	slices.SortFunc(cands, compareSpecReqs)
	for i := range cands {
		ns := cands[i].st
		if inst, ok := r.specLocate(b, s.Edge, s.ColIdx, ns.insts[s.Edge.Src.Index], ns.row, s.Mode); ok {
			ns.insts[s.Edge.Dst.Index] = inst
			out = append(out, ns)
		}
	}
	clear(cands)
	b.reqs = cands[:0]
	return out
}

// scanAct is what the buffer's scan visitor does with each entry that
// passes the scan's filter, after extending a clone of the scanned state
// with the entry's key values.
type scanAct uint8

const (
	scanAppend   scanAct = iota // append the state to the output list
	scanRecord                  // the same, recording the target lock's epoch (optimistic §4.5 scan)
	scanCand                    // collect a §4.5 candidate keyed by its target (b.reqs)
	scanRegister                // register a batch speculative request for member m (b.specs)
)

// scanCtx is the parameter block of the buffer's cached scan visitor
// (b.scanFn), the only function the executor passes to a container's
// Scan: a fresh closure per (call × state) is the hottest allocation in a
// scan-heavy batch, and Scan's indirect call makes it escape
// unconditionally.
type scanCtx struct {
	r                            *Relation
	b                            *opBuf
	act                          scanAct
	e                            *decomp.Edge
	colIdx, filterPos, filterIdx []int
	s                            *query.Step // scanCand, scanRegister: the speculative step
	m                            *member     // scanRegister: the requesting member
	st                           *qstate     // the state whose source container is scanned
	src                          *Instance   // its source instance
	out                          []*qstate
}

// execScan advances states across edge e by iterating the source
// containers with the buffer's cached visitor, doing act with each entry
// that passes the filter; appended states build onto out, which it
// returns. Each entry's key values are scattered directly into a cloned
// row through the compiled indices — the dense-row analog of the tuple
// join, with no merge and no allocation beyond the pooled state. Filter
// positions compare entry values against row slots bound by the
// operation. Callers set b.scan.s (and b.scan.m) first for the acts that
// need them.
func (r *Relation) execScan(b *opBuf, act scanAct, out []*qstate, e *decomp.Edge, colIdx, filterPos, filterIdx []int, states []*qstate) []*qstate {
	sc := &b.scan
	if b.scanFn == nil {
		b.scanFn = sc.visit
	}
	sc.r, sc.b, sc.act, sc.e = r, b, act, e
	sc.colIdx, sc.filterPos, sc.filterIdx = colIdx, filterPos, filterIdx
	sc.out = out
	// A speculative scan observes the whole container: its fallback
	// stripes freeze the membership.
	whole := act != scanAppend || len(filterPos) == 0
	for _, st := range states {
		src := st.insts[e.Src.Index]
		if src == nil {
			continue
		}
		r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, whole)
		sc.st, sc.src = st, src
		r.container(src, e).Scan(b.scanFn)
	}
	out = sc.out
	sc.out, sc.st, sc.src, sc.s, sc.m = nil, nil, nil, nil, nil // release retained pointers
	return out
}

// visit is the scan visitor: filter the entry, extend a clone of the
// scanned state with its key values, and do the scan's act with it.
func (sc *scanCtx) visit(k rel.Key, v any) bool {
	st := sc.st
	for fi, p := range sc.filterPos {
		if !rel.Equal(k.At(p), st.row.At(sc.filterIdx[fi])) {
			return true
		}
	}
	b := sc.b
	ns := b.clone(sc.r, st)
	for p, ci := range sc.colIdx {
		ns.row.Set(ci, k.At(p))
	}
	switch sc.act {
	case scanCand:
		b.reqs = append(b.reqs, specReq{st: ns, target: b.keyOf(ns.row, sc.s.TargetIdx)})
	case scanRegister:
		b.specs = append(b.specs, batchSpecReq{m: sc.m, st: ns, edge: sc.e, colIdx: sc.colIdx,
			row: ns.row, src: sc.src, key: b.keyOf(ns.row, sc.s.TargetIdx), node: sc.e.Dst.Index, mode: sc.s.Mode})
	default:
		inst := v.(*Instance)
		if sc.act == scanRecord {
			b.reads.Record(inst.lock(0))
		}
		ns.insts[sc.e.Dst.Index] = inst
		sc.out = append(sc.out, ns)
	}
	return true
}
