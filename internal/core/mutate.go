package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/query"
	"repro/internal/rel"
)

// This file executes mutation plans. Both mutations share the same growing
// phase skeleton: one pass over the decomposition nodes in topological
// order, acquiring each node's locks exclusively (so lock acquisition
// follows the global order of §5.1), locating the instances the operation
// touches, and — interleaved at the right node positions — advancing the
// embedded existence/locate query states. Writes and deletes then run
// entirely under the held locks, and the transaction releases everything
// at the end: trivially two-phase (§4.2). Operations run on dense rows:
// x is the fully bound tuple as a row, and the key-column subset s is just
// x narrowed to the plan's bound mask.

// runInsert implements insert r s t (§2): insert x = s ∪ t unless some
// existing tuple matches s. x must bind every schema column.
func (r *Relation) runInsert(plan *opPlan, x rel.Row) bool {
	b := r.getBuf()
	defer r.putBuf(b)

	nNodes := len(r.decomp.Nodes)
	if cap(b.xinst) < nNodes {
		b.xinst = make([]*Instance, nNodes)
	}
	xinst := b.xinst[:nNodes]
	clear(xinst)
	xinst[r.decomp.Root.Index] = r.root
	estates := append(b.pipe[:0], b.rootState(r, x, plan.mut.BoundMask))
	b.pipe = estates

	for i := range plan.mut.PerNode {
		nd := &plan.mut.PerNode[i]
		v := nd.Node
		if v != r.decomp.Root {
			r.locateX(b, nd, xinst, x)
			// Advance the put-if-absent existence states if the exist
			// plan's path passes through this node.
			if step := plan.existAt[v.Index]; step != nil {
				estates = r.execStep(b, step, estates, x)
			}
		}
		r.lockDirective(b, nd, xinst[v.Index], estates, x)
	}

	// Existence: any surviving state traversed the whole existence path,
	// i.e. some tuple matches s — the insert must not happen.
	if len(estates) > 0 {
		b.recycle(estates)
		r.ctr.writes.Add(1)
		return false
	}
	b.recycle(estates)

	r.insertWrite(b, xinst, x)
	r.ctr.writes.Add(1)
	// Migration tap (migrate.go): the deferred putBuf still holds this
	// operation's locks here, so the recorded order is the serialization
	// order.
	r.tapDirect(true, plan.mut.BoundMask, x)
	return true
}

// insertWrite is the write phase of an insert: create the missing
// instances under the held locks. A located instance implies all its
// in-edge entries exist (the entry/instance existence invariant), so only
// missing instances need writes — and they need an entry on every
// in-edge. Written keys come from the operation's key arena like every
// other key: containers copy the keys they store. Batched transactions
// share one fresh-instance set (b.fresh) across all member applies.
func (r *Relation) insertWrite(b *opBuf, xinst []*Instance, x rel.Row) {
	fresh := b.fresh
	if fresh == nil && AuditEnabled() {
		fresh = map[*Instance]bool{}
	}
	for _, n := range r.decomp.Nodes {
		if n == r.decomp.Root || xinst[n.Index] != nil {
			continue
		}
		inst := r.newInstance(n, x)
		xinst[n.Index] = inst
		if fresh != nil {
			fresh[inst] = true
		}
		for _, e := range n.In {
			src := xinst[e.Src.Index]
			if src == nil {
				panic(fmt.Sprintf("core: insert write phase reached %s before its source %s", n.Name, e.Src.Name))
			}
			r.auditAccess(b, e, xinst, x, nil, fresh, false)
			r.writeEdge(b, xinst, e, b.keyOf(x, r.edgeCols[e.Index]), inst)
			r.auditWrite(b, e, xinst, x, fresh)
		}
	}
}

// writeEdge performs the container write implementing edge e on the
// source instance among insts (the operation's located instances):
// begin-bump the epoch cells of the exclusively held
// locks on the edge's placement instance (so optimistic readers
// overlapping this write cannot validate; epochs stay odd until the
// shrinking phase even if the batch later rolls back), then record the
// displaced binding in the batch undo log when one is active
// (all-or-nothing rollback; batch.go), then write.
func (r *Relation) writeEdge(b *opBuf, insts []*Instance, e *decomp.Edge, key rel.Key, val any) {
	r.beginWriteEpochs(b, insts, e)
	c := r.container(insts[e.Src.Index], e)
	if b.undo != nil {
		old, had := c.Lookup(key)
		b.undo.record(c, key, old, had)
	}
	c.Write(key, val)
}

// runRemove implements remove r s (§2) for a key row s: locate the
// matching tuple (if any), then remove its edge entries bottom-up with
// cascading cleanup of dead instances.
func (r *Relation) runRemove(mut *query.MutationPlan, s rel.Row) bool {
	b := r.getBuf()
	defer r.putBuf(b)

	states := append(b.pipe[:0], b.rootState(r, s, mut.BoundMask))
	b.pipe = states
	for i := range mut.PerNode {
		nd := &mut.PerNode[i]
		if nd.Node != r.decomp.Root {
			states = r.advanceStates(b, nd, states)
		}
		r.lockDirective(b, nd, nil, states, s)
	}
	// Survivors hold complete rows extending s; with s a key there is at
	// most one (more only if the client violated the FDs, in which case we
	// remove them all — remove r s removes every tuple extending s).
	removed := false
	for _, st := range states {
		if st.row.Mask() != r.fullMask {
			continue
		}
		r.deleteTuple(b, st)
		removed = true
	}
	b.recycle(states)
	r.ctr.writes.Add(1)
	if removed {
		// Migration tap (migrate.go): locks still held (putBuf deferred).
		r.tapDirect(false, mut.BoundMask, s)
	}
	return removed
}

// locateX locates node nd.Node's instance for the fully bound row x
// during an insert, via the speculative in-edges (running the §4.5
// protocol, which leaves the target instance locked) or the planned access
// edge. Absent instances leave xinst nil; their creation happens in the
// write phase.
func (r *Relation) locateX(b *opBuf, nd *query.NodeDirective, xinst []*Instance, x rel.Row) {
	v := nd.Node
	var found *Instance
	for i, e := range nd.SpecIns {
		src := xinst[e.Src.Index]
		if src == nil {
			continue
		}
		var inst *Instance
		var ok bool
		if b.apply {
			// Batch apply phase: a plain lookup suffices (see execApplyLookup).
			inst, ok = r.applySpecLocate(b, e, nd.SpecColIdx[i], src, x, xinst)
		} else {
			inst, ok = r.specLocate(b, e, nd.SpecColIdx[i], src, x, locks.Exclusive)
		}
		if !ok {
			continue
		}
		if found != nil && found != inst {
			panic(fmt.Sprintf("core: inconsistent instances of %s via speculative in-edges", v.Name))
		}
		found = inst
	}
	if found == nil && nd.AccessIn != nil {
		if src := xinst[nd.AccessIn.Src.Index]; src != nil {
			r.auditAccess(b, nd.AccessIn, xinst, x, nil, b.fresh, false)
			if val, ok := r.container(src, nd.AccessIn).Lookup(b.keyOf(x, nd.ColIdx)); ok {
				found = val.(*Instance)
			}
		}
	}
	xinst[v.Index] = found
}

// applySpecLocate locates the target of a speculative in-edge during a
// batch's apply phase with a plain lookup: the growing phase already
// locked every pre-existing target the batch can reach, and targets
// created by earlier batch members are private to the transaction.
func (r *Relation) applySpecLocate(b *opBuf, e *decomp.Edge, colIdx []int, src *Instance, row rel.Row, insts []*Instance) (*Instance, bool) {
	v, ok := r.container(src, e).Lookup(b.keyOf(row, colIdx))
	if !ok {
		r.auditAccess(b, e, insts, row, nil, b.fresh, false)
		return nil, false
	}
	inst := v.(*Instance)
	r.auditAccess(b, e, insts, row, inst, b.fresh, false)
	return inst, true
}

// advanceStates moves the remove operation's query states across node
// nd.Node using the planned access route: the first speculative in-edge
// (whose key columns are always bound for mutations) or the planned
// access edge as a lookup or filtered scan.
func (r *Relation) advanceStates(b *opBuf, nd *query.NodeDirective, states []*qstate) []*qstate {
	if len(nd.SpecIns) > 0 {
		if b.apply {
			return r.execApplyLookup(b, nd.SpecIns[0], nd.SpecColIdx[0], states)
		}
		return r.execSpecLookup(b, nd.SpecIns[0], nd.SpecColIdx[0], nd.SpecTargetIdx[0], states, locks.Exclusive)
	}
	e := nd.AccessIn
	if e == nil {
		return nil
	}
	if nd.AccessScan {
		return r.execScan(b, e, nd.ColIdx, nd.FilterPos, nd.FilterIdx, states)
	}
	return r.execLookup(b, e, nd.ColIdx, states)
}

// lockDirective acquires the node's lock step for a mutation: the union of
// the directive's selectors over the x instance (if any) and every state's
// instance at this node, all exclusive.
func (r *Relation) lockDirective(b *opBuf, nd *query.NodeDirective, x *Instance, states []*qstate, op rel.Row) {
	if len(nd.Selectors) == 0 {
		return
	}
	insts := b.instScratch[:0]
	if x != nil {
		insts = append(insts, x)
	}
	for _, st := range states {
		if inst := st.insts[nd.Node.Index]; inst != nil && inst != x {
			insts = append(insts, inst)
		}
	}
	b.instScratch = insts[:0]
	step := query.Step{Kind: query.StepLock, Node: nd.Node, Mode: locks.Exclusive, Selectors: nd.Selectors}
	r.execLockInsts(b, &step, insts, op)
}

// deleteTuple removes the tuple of st.row (fully bound) from every edge,
// in reverse topological order with cascading cleanup (§4.1's instances
// stay adequate): an instance is dead once all its containers are empty —
// unit instances always are — and a dead instance's in-edge entries are
// removed, which may empty its parents' containers in turn.
func (r *Relation) deleteTuple(b *opBuf, st *qstate) {
	for i := len(r.decomp.Nodes) - 1; i >= 0; i-- {
		n := r.decomp.Nodes[i]
		if n == r.decomp.Root {
			// The root never dies, so no remove observes a root
			// container's emptiness: query.Planner.mutationSelector
			// relies on this to lock only a root edge's keyed stripe.
			continue
		}
		inst := st.insts[n.Index]
		if inst == nil {
			panic(fmt.Sprintf("core: delete phase missing instance of %s", n.Name))
		}
		dead := true
		for ci, c := range inst.containers {
			// Emptiness is a whole-container observation.
			r.auditAccess(b, n.Out[ci], st.insts, st.row, nil, b.fresh, true)
			if c.Len() > 0 {
				dead = false
				break
			}
		}
		if !dead {
			continue
		}
		for _, e := range n.In {
			src := st.insts[e.Src.Index]
			if src == nil {
				panic(fmt.Sprintf("core: delete phase missing source %s of edge %s", e.Src.Name, e.Name))
			}
			// Removal flips present→absent: both the present-entry lock
			// (the speculative target, when applicable) and the absent
			// lock (fallback stripe / placement lock) must be held.
			r.auditAccess(b, e, st.insts, st.row, inst, b.fresh, false)
			r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, false)
			r.writeEdge(b, st.insts, e, b.keyOf(st.row, r.edgeCols[e.Index]), nil)
			r.auditWrite(b, e, st.insts, st.row, b.fresh)
		}
	}
}
