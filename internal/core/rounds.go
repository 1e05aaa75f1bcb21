package core

import (
	"fmt"
	"sort"

	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/query"
	"repro/internal/rel"
)

// This file is the runtime half of the compiled round maps
// (internal/query/roundmap.go): the batched growing phase as a walk over
// each member's pre-classified round array. A sweep costs each member two
// integer comparisons (is it waiting, has the sweep reached the round's
// gate); the lock schedule is fixed by the program, and
// TestBatchScheduleGolden freezes it. Members pipe their scans through
// member-owned state arrays, leaving the buffer's shared ping-pong pair to
// the apply phase's insert/remove re-executions, so steady-state batches
// allocate nothing.
//
// Members are swept in plan-identity groups (buildGroups): the member
// order is partitioned by compiled-program pointer, memoized across
// batches on the pooled buffer, so same-plan members advance back to back
// and their per-node contributions merge while the plan's rounds stay hot.
// Speculative waves resolve through per-node index buckets instead of a
// global (node, key) sort, reusing the bucket arrays across waves.

// prog returns the member's compiled-program pointer, the plan-identity
// key of the memoized grouping.
func (m *member) prog() any {
	if m.mut != nil {
		return m.mut.Prog
	}
	return m.qprog
}

// sameBacking reports whether two state lists share a backing array.
func sameBacking(a, c []*qstate) bool {
	return cap(a) > 0 && cap(c) > 0 && &a[:cap(a)][0] == &c[:cap(c)][0]
}

// buildGroups (re)computes the plan-identity sweep order: members sharing
// a compiled program are swept consecutively, first-occurrence order. The
// grouping is memoized on the buffer — steady-state callers enqueue the
// same operation mix batch after batch, so validation (one pointer
// comparison per member) almost always hits.
func (b *opBuf) buildGroups() {
	n := len(b.members)
	if len(b.groupKey) == n && len(b.groupOrder) == n {
		hit := true
		for i := range b.members {
			if b.groupKey[i] != b.members[i].prog() {
				hit = false
				break
			}
		}
		if hit {
			return
		}
	}
	b.groupKey = b.groupKey[:0]
	for i := range b.members {
		b.groupKey = append(b.groupKey, b.members[i].prog())
	}
	b.groupOrder = b.groupOrder[:0]
	for i := 0; i < n; i++ {
		k := b.groupKey[i]
		dup := false
		for j := 0; j < i; j++ {
			if b.groupKey[j] == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for j := i; j < n; j++ {
			if b.groupKey[j] == k {
				b.groupOrder = append(b.groupOrder, int32(j))
			}
		}
	}
}

// advanceMember runs one member's growing-phase cursor through its round
// program as far as sweep v allows, reporting whether any work was done.
// Lock rounds divert into the round's coalescing set (b.collect);
// speculative rounds register requests for the pooled resolution.
func (r *Relation) advanceMember(b *opBuf, m *member, v int) bool {
	if m.wait != wNone {
		return false
	}
	switch m.kind {
	case mQuery, mCount:
		return r.advancePlan(b, m, v)
	case mInsert:
		return r.advanceInsert(b, m, v)
	case mRemove:
		return r.advanceRemove(b, m, v)
	}
	panic("core: unknown batch member kind")
}

// advancePlan advances a query/count member through its round program.
func (r *Relation) advancePlan(b *opBuf, m *member, v int) bool {
	rounds := m.qprog.Rounds
	progress := false
	for m.cursor < len(rounds) {
		rd := &rounds[m.cursor]
		switch rd.Kind {
		case query.RoundLock:
			if rd.Gate > v {
				return progress
			}
			r.execLock(b, &m.steps[rd.Lo], m.states, m.row) // diverts into b.collect
			m.cursor++
			m.wait = wLock
			return true
		case query.RoundSpec:
			if m.specResolved {
				m.consumeSpec()
				progress = true
				continue
			}
			if rd.Gate > v {
				return progress
			}
			if r.registerSpec(b, m, &m.steps[rd.Lo]) == 0 {
				m.specResolved = true
				continue
			}
			m.wait = wSpec
			return true
		default: // RoundSteps: a gate-free run of access steps
			for i := rd.Lo; i < rd.Hi; i++ {
				s := &m.steps[i]
				switch s.Kind {
				case query.StepScan:
					// Plain scan (speculative scans compile to RoundSpec):
					// ping-pong through the member's own arrays.
					r.execScanMember(b, m, s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx)
				case query.StepCount:
					m.count, m.counted = r.countAt(b, s, m.states), true
					m.cursor = len(rounds)
					m.wait = wDone
					return true
				default:
					m.states = r.execStep(b, s, m.states, m.row)
				}
				progress = true
				if len(m.states) == 0 {
					m.wait = wDone
					return true
				}
			}
			m.cursor++
		}
	}
	m.wait = wDone
	return true
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
		}
	}
	return total
}

// registerSpec registers a speculative step's requests over the member's
// live states — one per state for a keyed lookup, one per surviving entry
// for a scan — and opens the member's delivery list, returning how many
// requests were registered.
func (r *Relation) registerSpec(b *opBuf, m *member, s *query.Step) int {
	n := 0
	if s.Kind == query.StepSpecLookup {
		for _, st := range m.states {
			src := st.insts[s.Edge.Src.Index]
			if src == nil {
				continue
			}
			b.specs = append(b.specs, batchSpecReq{m: m, st: st, edge: s.Edge, colIdx: s.ColIdx,
				row: st.row, src: src, key: b.keyOf(st.row, s.TargetIdx), node: s.Edge.Dst.Index, mode: s.Mode})
			n++
		}
	} else {
		n = r.registerSpecScan(b, m, s)
	}
	m.specOut = m.specOut[:0]
	m.specReg = true
	return n
}

// registerSpecScan scans a speculatively placed edge (membership frozen
// by the already-held fallback stripes) and registers one request per
// surviving entry, returning how many were registered.
func (r *Relation) registerSpecScan(b *opBuf, m *member, s *query.Step) int {
	n := 0
	for _, st := range m.states {
		src := st.insts[s.Edge.Src.Index]
		if src == nil {
			continue
		}
		r.auditAccess(b, s.Edge, st.insts, st.row, nil, b.fresh, true)
		r.container(src, s.Edge).Scan(func(k rel.Key, v any) bool {
			for fi, p := range s.FilterPos {
				if !rel.Equal(k.At(p), st.row.At(s.FilterIdx[fi])) {
					return true
				}
			}
			ns := b.clone(r, st)
			for p, ci := range s.ColIdx {
				ns.row.Set(ci, k.At(p))
			}
			b.specs = append(b.specs, batchSpecReq{m: m, st: ns, edge: s.Edge, colIdx: s.ColIdx,
				row: ns.row, src: src, key: b.keyOf(ns.row, s.TargetIdx), node: s.Edge.Dst.Index, mode: s.Mode})
			n++
			return true
		})
	}
	return n
}

// takeSpecResults installs the survivors of a resolved speculative wave:
// the member's pipeline becomes the delivered specOut list, and the old
// states array (no longer referenced by anyone) becomes the next
// specOut backing — the same ownership-transfer discipline as the scan
// ping-pong.
func (m *member) takeSpecResults() {
	m.states, m.specOut = m.specOut, m.states[:0]
	m.specResolved, m.specReg = false, false
}

// consumeSpec installs the survivors of a resolved speculative step and
// advances the cursor past it.
func (m *member) consumeSpec() {
	m.takeSpecResults()
	m.cursor++
}

// insertAccess locates an insert directive's instance through its plain
// access edge, unless a speculative in-edge already located it.
func (r *Relation) insertAccess(b *opBuf, m *member, nd *query.NodeDirective) {
	if m.xinst[nd.Node.Index] == nil && nd.AccessIn != nil {
		if src := m.xinst[nd.AccessIn.Src.Index]; src != nil {
			r.auditAccess(b, nd.AccessIn, m.xinst, m.row, nil, b.fresh, false)
			if val, ok := r.container(src, nd.AccessIn).Lookup(b.keyOf(m.row, nd.ColIdx)); ok {
				m.xinst[nd.Node.Index] = val.(*Instance)
			}
		}
	}
}

// advanceInsert advances an insert member through its round program: per
// node, locate the row's instance (speculative in-edges via the pooled
// resolution, then the planned access edge), interleave the put-if-absent
// existence states, and contribute the lock directive — the batched
// counterpart of runInsert's growing phase.
func (r *Relation) advanceInsert(b *opBuf, m *member, v int) bool {
	rounds := m.mut.Prog.Rounds
	progress := false
	for m.cursor < len(rounds) {
		rd := &rounds[m.cursor]
		if rd.Gate > v {
			return progress
		}
		nd := &m.mut.PerNode[rd.Dir]
		switch rd.Kind {
		case query.MRoundSpecIn:
			n := 0
			for i, e := range nd.SpecIns {
				src := m.xinst[e.Src.Index]
				if src == nil {
					continue
				}
				b.specs = append(b.specs, batchSpecReq{m: m, edge: e, colIdx: nd.SpecColIdx[i],
					row: m.row, src: src, key: b.keyOf(m.row, nd.SpecTargetIdx[i]),
					node: nd.Node.Index, mode: locks.Exclusive})
				n++
			}
			m.cursor++
			if n > 0 {
				m.specReg = true
				m.wait = wSpec
				return true
			}
		case query.MRoundLocate:
			if m.specFound != nil {
				m.xinst[nd.Node.Index] = m.specFound
				m.specFound = nil
			}
			m.specReg, m.specResolved = false, false
			r.insertAccess(b, m, nd)
			m.cursor++
		case query.MRoundAccess:
			r.insertAccess(b, m, nd)
			m.cursor++
		case query.MRoundExist:
			step := m.ins.existAt[nd.Node.Index]
			if step == nil || len(m.states) == 0 {
				m.cursor++
				continue
			}
			if step.Kind == query.StepSpecLookup {
				if m.specResolved {
					m.takeSpecResults()
					m.cursor++
					continue
				}
				if r.registerSpec(b, m, step) > 0 {
					m.wait = wSpec
					return true // cursor NOT advanced: resolution re-enters here
				}
				m.specResolved = true
				continue
			}
			switch {
			case step.Kind == query.StepScan && r.placement.RuleFor(step.Edge).Speculative:
				// Synchronous §4.5 scan, routed as execStep would route it
				// but onto member-owned arrays.
				r.execScanSpecMember(b, m, step)
			case step.Kind == query.StepScan:
				r.execScanMember(b, m, step.Edge, step.ColIdx, step.FilterPos, step.FilterIdx)
			default:
				m.states = r.execStep(b, step, m.states, m.row)
			}
			m.cursor++
		case query.MRoundLock:
			r.lockDirective(b, nd, m.xinst[nd.Node.Index], m.states, m.row) // diverts into b.collect
			m.cursor++
			if len(nd.Selectors) > 0 {
				m.wait = wLock
				return true
			}
			progress = true
		}
	}
	m.wait = wDone
	return true
}

// advanceRemove advances a remove member through its round program: per
// node, move the victim states across the planned access route and
// contribute the lock directive — the batched counterpart of runRemove's
// growing phase.
//
// In addition to the state pipeline, removes maintain an insert-style
// row-based locate (xinst). The states alone under-lock a batch: when a
// keyed lookup misses, the victim states die, and directive nodes keyed
// from still-located sources (e.g. the root) would never register their
// lock requests — yet the apply phase can reach those pre-existing
// instances if an earlier batch member re-creates the missing key. The
// row-based locate covers every instance the bound row determines,
// independent of state survival, closing that gap.
func (r *Relation) advanceRemove(b *opBuf, m *member, v int) bool {
	rounds := m.mut.Prog.Rounds
	progress := false
	for m.cursor < len(rounds) {
		rd := &rounds[m.cursor]
		if rd.Gate > v {
			return progress
		}
		nd := &m.mut.PerNode[rd.Dir]
		switch rd.Kind {
		case query.MRoundSpecIn:
			n := 0
			// Row-based locate requests over every speculative in-edge
			// (their key columns are always bound for mutations).
			for i, e := range nd.SpecIns {
				src := m.xinst[e.Src.Index]
				if src == nil {
					continue
				}
				b.specs = append(b.specs, batchSpecReq{m: m, edge: e, colIdx: nd.SpecColIdx[i],
					row: m.row, src: src, key: b.keyOf(m.row, nd.SpecTargetIdx[i]),
					node: nd.Node.Index, mode: locks.Exclusive})
				n++
			}
			// State-based requests advancing the victim pipeline.
			for _, st := range m.states {
				src := st.insts[nd.SpecIns[0].Src.Index]
				if src == nil {
					continue
				}
				b.specs = append(b.specs, batchSpecReq{m: m, st: st, edge: nd.SpecIns[0],
					colIdx: nd.SpecColIdx[0], row: st.row, src: src,
					key: b.keyOf(st.row, nd.SpecTargetIdx[0]), node: nd.Node.Index, mode: locks.Exclusive})
				n++
			}
			m.specOut = m.specOut[:0]
			m.specReg = true
			m.cursor++
			if n > 0 {
				m.wait = wSpec
				return true
			}
			m.specResolved = true
		case query.MRoundLocate:
			m.takeSpecResults()
			if m.specFound != nil {
				m.xinst[nd.Node.Index] = m.specFound
				m.specFound = nil
			}
			r.rowLocate(b, m, nd)
			m.cursor++
			progress = true
		case query.MRoundAccess:
			switch e := nd.AccessIn; {
			case e == nil:
				m.states = m.states[:0]
			case nd.AccessScan:
				r.execScanMember(b, m, e, nd.ColIdx, nd.FilterPos, nd.FilterIdx)
			default:
				m.states = r.execLookup(b, e, nd.ColIdx, m.states)
			}
			r.rowLocate(b, m, nd)
			m.cursor++
			progress = true
		case query.MRoundLock:
			r.lockDirective(b, nd, m.xinst[nd.Node.Index], m.states, m.row) // diverts into b.collect
			m.cursor++
			if len(nd.Selectors) > 0 {
				m.wait = wLock
				return true
			}
			progress = true
		}
	}
	m.wait = wDone
	return true
}

// rowLocate fills a remove member's row-based located instance for the
// directive's node via the planned access edge, when the edge's key
// columns are bound by the operation row (scan-located nodes stay nil:
// their instances are only reachable through state rows, and the
// fresh-bridge argument covers them at apply time).
func (r *Relation) rowLocate(b *opBuf, m *member, nd *query.NodeDirective) {
	if m.xinst[nd.Node.Index] != nil || nd.AccessIn == nil || nd.AccessScan {
		return
	}
	var need uint64
	for _, ci := range nd.ColIdx {
		need |= 1 << uint(ci)
	}
	if !m.row.BindsAll(need) {
		return
	}
	src := m.xinst[nd.AccessIn.Src.Index]
	if src == nil {
		return
	}
	r.auditAccess(b, nd.AccessIn, m.xinst, m.row, nil, b.fresh, false)
	if val, ok := r.container(src, nd.AccessIn).Lookup(b.keyOf(m.row, nd.ColIdx)); ok {
		m.xinst[nd.Node.Index] = val.(*Instance)
	}
}

// execScanMember runs a plain scan over the member's states, ping-ponging
// between the member's two owned arrays (states and specOut — the latter
// is only live between spec registration and consumption, so outside a
// wave it is free scan scratch). Keeping member scans off the buffer's
// shared pair is what lets batches retain every capacity across the
// transaction without aliasing hazards.
func (r *Relation) execScanMember(b *opBuf, m *member, e *decomp.Edge, colIdx, filterPos, filterIdx []int) {
	out := r.execScanInto(b, m.specOut[:0], e, colIdx, filterPos, filterIdx, m.states)
	m.specOut = m.states[:0]
	m.states = out
}

// execOptimisticScanSpecMember is execScanMember for the optimistic
// speculative-scan degradation (readonly.go).
func (r *Relation) execOptimisticScanSpecMember(b *opBuf, m *member, s *query.Step) {
	out := r.execOptimisticScanSpecInto(b, m.specOut[:0], s, m.states)
	m.specOut = m.states[:0]
	m.states = out
}

// execScanSpecMember is execScanSpec (the synchronous speculative scan of
// an insert's existence check) onto member-owned arrays: candidates still
// pool in b.reqs — consumed before returning — but the survivor list the
// member retains is its own.
func (r *Relation) execScanSpecMember(b *opBuf, m *member, step *query.Step) {
	e := step.Edge
	cands := b.reqs[:0]
	for _, st := range m.states {
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
	out := m.specOut[:0]
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
	m.specOut = m.states[:0]
	m.states = out
}

// execSpecRoundMember executes a RoundSpec step outside the pessimistic
// growing phase — apply-mode re-execution or an optimistic read attempt —
// where speculative accesses degrade to plain (recorded) lookups/scans.
func (r *Relation) execSpecRoundMember(b *opBuf, m *member, s *query.Step) {
	switch {
	case s.Kind == query.StepSpecLookup && b.apply:
		m.states = r.execApplyLookup(b, s.Edge, s.ColIdx, m.states)
	case s.Kind == query.StepSpecLookup:
		m.states = r.execOptimisticLookup(b, s.Edge, s.ColIdx, m.states)
	case b.apply:
		r.execScanMember(b, m, s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx)
	default:
		r.execOptimisticScanSpecMember(b, m, s)
	}
}

// runMember executes a query or count member over its round program on
// member-owned arrays, outside the growing phase: the apply phase's
// re-execution (b.apply) and the optimistic read phase (b.optimistic). A
// query member keeps its final states; a count member stores its
// count-pushdown total (or, for plans with no StepCount terminal, the
// surviving-state count) and drops its states.
func (r *Relation) runMember(b *opBuf, m *member) {
	m.states = append(m.states[:0], b.rootState(r, m.row, m.boundMask))
	total := -1 // set by a StepCount terminal
	rounds := m.qprog.Rounds
walk:
	for ri := range rounds {
		rd := &rounds[ri]
		switch rd.Kind {
		case query.RoundLock:
			if !b.apply {
				r.execLock(b, &m.steps[rd.Lo], m.states, m.row) // optimistic: records epochs
			}
		case query.RoundSpec:
			r.execSpecRoundMember(b, m, &m.steps[rd.Lo])
		default:
			for i := rd.Lo; i < rd.Hi; i++ {
				s := &m.steps[i]
				switch s.Kind {
				case query.StepCount:
					total = r.countAt(b, s, m.states)
					break walk
				case query.StepScan:
					r.execScanMember(b, m, s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx)
				default:
					m.states = r.execStep(b, s, m.states, m.row)
				}
				if len(m.states) == 0 {
					break walk
				}
			}
		}
		if len(m.states) == 0 {
			break
		}
	}
	if m.kind == mCount {
		if total < 0 {
			total = len(m.states)
		}
		m.count, m.counted = total, true
		m.states = m.states[:0]
	}
}

// resolveBatchSpecs runs the §4.5 protocol for every pending request, in
// (node, target key) order across all members so the interleaved target
// acquisitions respect the global lock order. Requests are distributed
// into per-node index buckets (pooled on the buffer), each bucket is
// sorted by target key only, and the buckets are walked in node order.
// Requests for the same target resolve in the strongest mode any
// requester needs (the speculative analog of the coalescing upgrade
// rule); later requesters find the lock held and merely re-validate.
// Survivors are delivered to their members, which resume at the next
// scheduler sweep. One trace round covers the wave, labelled by its first
// node.
func (r *Relation) resolveBatchSpecs(t *Txn, b *opBuf) {
	specs := b.specs
	nNodes := len(r.decomp.Nodes)
	if cap(b.specIdx) < nNodes {
		idx := make([][]int32, nNodes)
		copy(idx, b.specIdx)
		b.specIdx = idx
	}
	buckets := b.specIdx[:nNodes]
	for i := range specs {
		nd := specs[i].node
		buckets[nd] = append(buckets[nd], int32(i))
	}
	prev := b.txn.HeldCount()
	label := -1
	for nd := 0; nd < nNodes; nd++ {
		idx := buckets[nd]
		if len(idx) == 0 {
			continue
		}
		if label < 0 {
			label = nd
		}
		if len(idx) <= 32 {
			for i := 1; i < len(idx); i++ {
				for j := i; j > 0 && rel.CompareKeys(specs[idx[j]].key, specs[idx[j-1]].key) < 0; j-- {
					idx[j], idx[j-1] = idx[j-1], idx[j]
				}
			}
		} else {
			sort.Slice(idx, func(i, j int) bool {
				return rel.CompareKeys(specs[idx[i]].key, specs[idx[j]].key) < 0
			})
		}
		for i := 0; i < len(idx); {
			j := i
			mode := locks.Shared
			for ; j < len(idx) && rel.CompareKeys(specs[idx[j]].key, specs[idx[i]].key) == 0; j++ {
				if specs[idx[j]].mode == locks.Exclusive {
					mode = locks.Exclusive
				}
			}
			for k := i; k < j; k++ {
				r.resolveOneSpec(b, &specs[idx[k]], mode)
			}
			i = j
		}
		buckets[nd] = idx[:0]
	}
	if t.trace != nil && label >= 0 {
		t.recordRound(b, r.traceLabel(r.decomp.Nodes[label].Name), len(specs), prev, true)
	}
	clear(specs)
	b.specs = specs[:0]
	for i := range b.members {
		m := &b.members[i]
		if m.wait == wSpec {
			m.wait = wNone
			m.specResolved = true
		}
	}
}

// resolveOneSpec runs the §4.5 protocol body for one pending request in
// the (already upgraded) mode of its (node, key) run, delivering survivors
// to the member's specOut list or its located-instance slot.
func (r *Relation) resolveOneSpec(b *opBuf, req *batchSpecReq, mode locks.Mode) {
	inst, ok := r.specLocate(b, req.edge, req.colIdx, req.src, req.row, mode)
	switch {
	case req.st != nil && ok:
		req.st.insts[req.edge.Dst.Index] = inst
		req.m.specOut = append(req.m.specOut, req.st)
	case req.st != nil:
		r.auditAccess(b, req.edge, req.st.insts, req.st.row, nil, b.fresh, false)
	case ok:
		if req.m.specFound != nil && req.m.specFound != inst {
			panic(fmt.Sprintf("core: inconsistent instances of %s via speculative in-edges", req.edge.Dst.Name))
		}
		req.m.specFound = inst
	default:
		r.auditAccess(b, req.edge, req.m.xinst, req.row, nil, b.fresh, false)
	}
}
