package core

import (
	"fmt"
	"slices"

	"repro/internal/locks"
	"repro/internal/query"
	"repro/internal/rel"
)

// This file is the runtime half of the compiled round maps
// (internal/query/roundmap.go): the batched growing phase as a walk over
// each member's pre-classified round array. A sweep costs each member two
// integer comparisons (is it waiting, has the sweep reached the round's
// gate); the lock schedule is fixed by the program, and
// TestBatchScheduleGolden freezes it. It is the one place a plan runs in
// rounds rather than straight through (exec.go's walk): members yield at
// every lock and speculative round so that their requests coalesce into
// one lock set per node and one pooled §4.5 wave. Between those rounds a
// member's plain access steps go through the same primitives as the walk
// (execStep), on member-owned state arrays — the buffer's pair is left to
// the apply phase's insert/remove re-executions — so steady-state batches
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
				if s.Kind == query.StepCount {
					m.count, m.counted = r.countAt(b, s, m.states), true
					m.cursor = len(rounds)
					m.wait = wDone
					return true
				}
				// Lookups and plain scans (speculative scans compile to
				// RoundSpec), on the member's own arrays.
				r.execStep(b, s, m.row, &m.states, &m.specOut)
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
	n := len(b.specs)
	b.scan.s, b.scan.m = s, m
	r.execScan(b, scanRegister, nil, s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx, m.states)
	return len(b.specs) - n
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
			// A lookup or a scan; a speculative scan runs §4.5
			// synchronously, on member-owned arrays.
			r.execStep(b, step, m.row, &m.states, &m.specOut)
			m.cursor++
		case query.MRoundEscalate:
			if m.xinst[nd.Node.Index] == nil && !b.rootX {
				b.escalate = true // growBatch abandons the root before any key-node lock
			}
			m.cursor++
		case query.MRoundRootLock:
			m.cursor++
			if r.rootRound(b, m, nd) {
				m.wait = wLock
				return true
			}
			progress = true
		case query.MRoundLock:
			r.lockDirective(b, nd, m.xinst[nd.Node.Index], m.states, m.row, locks.Exclusive) // diverts into b.collect
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

// rootRound runs a member's MRoundRootLock round, reporting whether the
// member waits for the round's AcquireSet: once the batch escalated, the
// root's lock exclusively; before, Shared on the 2PL row, and on the
// optimistic row no lock at all but the root's epoch, recorded once per
// shard before any member locates a key-node instance through the root
// container (commit.go validates it).
func (r *Relation) rootRound(b *opBuf, m *member, nd *query.NodeDirective) bool {
	switch {
	case b.rootX:
		r.lockDirective(b, nd, r.root, m.states, m.row, locks.Exclusive)
	case b.occ:
		if b.rootRead.L == nil {
			l := r.root.lock(0)
			b.rootRead = locks.ReadEntry{L: l, E: l.Epoch()}
			b.reads.Add(b.rootRead)
		}
		return false
	default:
		r.lockDirective(b, nd, r.root, m.states, m.row, locks.Shared)
	}
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
			r.accessStates(b, nd, &m.states, &m.specOut)
			r.rowLocate(b, m, nd)
			m.cursor++
			progress = true
		case query.MRoundEscalate:
			if m.xinst[nd.Node.Index] != nil && !b.rootX && !r.refilled(b, m) {
				b.escalate = true // growBatch abandons the root before any key-node lock
			}
			m.cursor++
			progress = true
		case query.MRoundRootLock:
			m.cursor++
			if r.rootRound(b, m, nd) {
				m.wait = wLock
				return true
			}
			progress = true
		case query.MRoundLock:
			r.lockDirective(b, nd, m.xinst[nd.Node.Index], m.states, m.row, locks.Exclusive) // diverts into b.collect
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

// refilled reports whether some insert of the batch's shard agrees with
// remove member m on the key node's columns, and so may refill the
// key-node instance m empties: the remove then leaves the unlink to the
// end of the apply phase (sweepUnlinks), which escalates late only if
// the instance is still empty there.
func (r *Relation) refilled(b *opBuf, m *member) bool {
	mask := r.nodeKeyMask[r.keyNode]
	for i := range b.members {
		if mm := &b.members[i]; mm.kind == mInsert && rowsAgree(m.row, mm.row, mask) {
			return true
		}
	}
	return false
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
		slices.SortFunc(idx, func(i, j int32) int { return rel.CompareKeys(specs[i].key, specs[j].key) })
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
