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
//
// Each mutation has one body (insert, remove), which a batch's apply
// phase re-executes in the buffer's apply mode, where the lock directives
// take nothing; the single-operation wrappers add the buffer checkout,
// the write counter and the migration tap. A batch's growing phase runs
// the same directives in rounds instead (rounds.go).

// runInsert implements insert r s t (§2) as a single operation: insert
// x = s ∪ t unless some existing tuple matches s. x must bind every
// schema column.
func (r *Relation) runInsert(plan *opPlan, x rel.Row) bool {
	b := r.getBuf()
	defer r.putBuf(b)
	ok := r.insert(b, plan, x)
	r.ctr.writes.Add(1)
	if ok {
		// Migration tap (migrate.go): the deferred putBuf still holds this
		// operation's locks here, so the recorded order is the
		// serialization order.
		r.tapDirect(true, plan.mut.BoundMask, x)
	}
	return ok
}

// insert is the body of every insert, a single operation's and a batch
// member's apply re-execution alike: per node in topological order,
// locate x's instance, advance the put-if-absent existence states on the
// buffer's pair if the existence plan passes through the node, and take
// the node's lock directive (nothing in apply mode, where the growing
// phase holds every lock). If no existence state survives, x is written.
func (r *Relation) insert(b *opBuf, plan *opPlan, x rel.Row) bool {
	nNodes := len(r.decomp.Nodes)
	if cap(b.xinst) < nNodes {
		b.xinst = make([]*Instance, nNodes)
	}
	xinst := b.xinst[:nNodes]
	clear(xinst)
	xinst[r.decomp.Root.Index] = r.root
	b.pipe = append(b.pipe[:0], b.rootState(r, x, plan.mut.BoundMask))
	for i := range plan.mut.PerNode {
		nd := &plan.mut.PerNode[i]
		v := nd.Node
		if v != r.decomp.Root {
			r.locateX(b, nd, xinst, x)
			if step := plan.existAt[v.Index]; step != nil {
				r.execStep(b, step, x, &b.pipe, &b.spare)
			}
		}
		r.lockDirective(b, nd, xinst[v.Index], b.pipe, x, locks.Exclusive)
	}
	// Existence: any surviving state traversed the whole existence path,
	// i.e. some tuple matches s — the insert must not happen.
	if len(b.pipe) > 0 {
		return false
	}
	r.insertWrite(b, xinst, x)
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
	if k := r.keyNode; k >= 0 && b.apply && xinst[k] == nil && !b.rootX {
		// Linking a new key-node instance writes the root container,
		// which the batch holds Shared or only recorded: the attempt
		// rolls back and regrows with the root exclusive (commit.go).
		b.escalate = true
		return
	}
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

// runRemove implements remove r s (§2) as a single operation for a key
// row s.
func (r *Relation) runRemove(mut *query.MutationPlan, s rel.Row) bool {
	b := r.getBuf()
	defer r.putBuf(b)
	removed := r.remove(b, mut, s)
	r.ctr.writes.Add(1)
	if removed {
		// Migration tap (migrate.go): locks still held (putBuf deferred).
		r.tapDirect(false, mut.BoundMask, s)
	}
	return removed
}

// remove is the body of every remove, a single operation's and a batch
// member's apply re-execution alike: walk the victim states across each
// node's planned access route on the buffer's pair, taking the node's
// lock directive (nothing in apply mode), then remove every matching
// tuple's edge entries bottom-up with cascading cleanup of dead
// instances.
func (r *Relation) remove(b *opBuf, mut *query.MutationPlan, s rel.Row) bool {
	b.pipe = append(b.pipe[:0], b.rootState(r, s, mut.BoundMask))
	for i := range mut.PerNode {
		nd := &mut.PerNode[i]
		if nd.Node != r.decomp.Root {
			r.advanceStates(b, nd, &b.pipe, &b.spare)
			if len(b.pipe) == 0 {
				break // later directives would lock nothing
			}
		}
		r.lockDirective(b, nd, nil, b.pipe, s, locks.Exclusive)
	}
	// Survivors hold complete rows extending s; with s a key there is at
	// most one (more only if the client violated the FDs, in which case we
	// remove them all — remove r s removes every tuple extending s).
	removed := false
	for _, st := range b.pipe {
		if st.row.Mask() != r.fullMask {
			continue
		}
		r.deleteTuple(b, st)
		removed = true
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
			// Batch apply phase: a plain lookup suffices (see lookupSpec).
			inst, ok = r.lookupSpec(b, e, nd.SpecColIdx[i], src, x, xinst)
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

// advanceStates moves the remove operation's query states in *pipe
// across node nd.Node using the planned access route: the first
// speculative in-edge (whose key columns are always bound for mutations)
// or the planned access edge.
func (r *Relation) advanceStates(b *opBuf, nd *query.NodeDirective, pipe, spare *[]*qstate) {
	if len(nd.SpecIns) > 0 {
		*pipe = r.execSpecLookup(b, nd.SpecIns[0], nd.SpecColIdx[0], nd.SpecTargetIdx[0], locks.Exclusive, *pipe)
		return
	}
	r.accessStates(b, nd, pipe, spare)
}

// accessStates moves the states in *pipe across the directive's planned
// access edge, as a lookup or a filtered scan built on *spare; with no
// access edge they die.
func (r *Relation) accessStates(b *opBuf, nd *query.NodeDirective, pipe, spare *[]*qstate) {
	states := *pipe
	switch e := nd.AccessIn; {
	case e == nil:
		*pipe = states[:0]
	case nd.AccessScan:
		*pipe = r.execScan(b, scanAppend, (*spare)[:0], e, nd.ColIdx, nd.FilterPos, nd.FilterIdx, states)
		*spare = states[:0]
	default:
		*pipe = r.execLookup(b, e, nd.ColIdx, states)
	}
}

// lockDirective acquires the node's lock step for a mutation: the union of
// the directive's selectors over the x instance (if any) and every state's
// instance at this node, in mode — exclusive, except a batch's demotable
// root before escalation (rootRound). In a batch's apply phase every
// lock is already held, so it does nothing.
func (r *Relation) lockDirective(b *opBuf, nd *query.NodeDirective, x *Instance, states []*qstate, op rel.Row, mode locks.Mode) {
	if len(nd.Selectors) == 0 || b.apply {
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
	step := query.Step{Kind: query.StepLock, Node: nd.Node, Mode: mode, Selectors: nd.Selectors}
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
		if !r.dead(b, inst, st) {
			continue
		}
		if b.apply && n.Index == r.keyNode {
			// A batch leaves an emptied key-node instance linked in the
			// root container: a later member's insert refills the same
			// instance, later reads do not see it while it is empty
			// (pendingDead), and sweepUnlinks unlinks it at the end of
			// the apply phase only if it is still empty.
			b.unlinks = append(b.unlinks, st)
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

// dead reports whether inst, located by st, is dead: every container
// empty. Emptiness is a whole-container observation.
func (r *Relation) dead(b *opBuf, inst *Instance, st *qstate) bool {
	for ci, c := range inst.containers {
		r.auditAccess(b, inst.node.Out[ci], st.insts, st.row, nil, b.fresh, true)
		if c.Len() > 0 {
			return false
		}
	}
	return true
}

// sweepUnlinks ends one shard's apply phase, still under the undo log and
// every held lock: it unlinks from the root container each key-node
// instance a remove emptied (deleteTuple) that is still empty and still
// linked. An unlink writes the root container, so a batch that has not
// escalated raises b.escalate instead and writes nothing; the attempt
// then rolls back and regrows with the root exclusive (commit.go).
func (r *Relation) sweepUnlinks(b *opBuf) {
	n := r.decomp.Nodes[r.keyNode]
	for _, st := range b.unlinks {
		inst := st.insts[n.Index]
		if !r.dead(b, inst, st) {
			continue // refilled by a later member
		}
		e := n.In[0]
		key := b.keyOf(st.row, r.edgeCols[e.Index])
		r.auditAccess(b, e, st.insts, st.row, nil, b.fresh, false)
		if v, ok := r.container(r.root, e).Lookup(key); !ok || v != any(inst) {
			continue // unlinked by an earlier entry of the sweep
		}
		if !b.rootX {
			b.escalate = true
			break
		}
		r.auditAccess(b, e, st.insts, st.row, inst, b.fresh, false)
		r.writeEdge(b, st.insts, e, key, nil)
		r.auditWrite(b, e, st.insts, st.row, b.fresh)
	}
	clear(b.unlinks)
	b.unlinks = b.unlinks[:0]
}

// pendingDead reports whether inst is a key-node instance that a remove
// of this apply phase emptied and left linked (deleteTuple) and that no
// later member refilled: until sweepUnlinks it is linked but holds no
// tuple, so reads must not observe it.
func (r *Relation) pendingDead(b *opBuf, inst *Instance) bool {
	for _, st := range b.unlinks {
		if st.insts[r.keyNode] == inst {
			return r.dead(b, inst, st)
		}
	}
	return false
}

// hidePending drops the states located at a pendingDead key-node
// instance, in place.
func (r *Relation) hidePending(b *opBuf, states []*qstate) []*qstate {
	out := states[:0]
	for _, st := range states {
		if !r.pendingDead(b, st.insts[r.keyNode]) {
			out = append(out, st)
		}
	}
	return out
}

// pendingDeadCount returns the number of distinct pendingDead instances,
// which a Len read of the root container counts and the batch's
// sequential state does not.
func (r *Relation) pendingDeadCount(b *opBuf) int {
	n := 0
next:
	for i, st := range b.unlinks {
		inst := st.insts[r.keyNode]
		for _, prev := range b.unlinks[:i] {
			if prev.insts[r.keyNode] == inst {
				continue next
			}
		}
		if r.dead(b, inst, st) {
			n++
		}
	}
	return n
}
