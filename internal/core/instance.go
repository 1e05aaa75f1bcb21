// Package core ties the substrates together into the paper's headline
// artifact: Synthesize compiles a relational specification, a concurrent
// decomposition (§4.1) and a lock placement (§4.3–4.5) into a Relation
// whose operations (§2) are planned once (internal/query) and executed
// under two-phase, globally ordered locking — serializable and
// deadlock-free by construction (§5).
package core

import (
	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// Instance is the runtime counterpart of a decomposition node (§4.1): one
// object per distinct valuation of the node's bound columns A — except on
// a stateless leaf, whose valuations all share one immutable instance
// (layout.leaf). It owns one container per outgoing edge and, on the
// nodes the placement puts a lock on, the stripe array of physical locks
// (§4.4). An instance stores no copy of its key: the lock identities
// encode it once, and every other consumer reads the bound columns off the
// path that reached it, so tools that walk the representation identify an
// instance by (node, valuation), not by pointer (instKey).
type Instance struct {
	node *decomp.Node
	// containers holds one container per outgoing edge, indexed by the
	// edge's position in node.Out. Values stored in a container are
	// always *Instance.
	containers []container.Map
	// locks is the stripe array, nil on nodes that carry no lock
	// (Relation.lockNode). It is co-allocated with the instance.
	locks *locks.Array
}

// Co-allocated instance shapes: the common one-out-edge node keeps its
// container slot inline, and a lock-bearing node its stripe array, so a
// node instance costs one allocation plus its containers.
type (
	instance1 struct {
		Instance
		c [1]container.Map
	}
	lockedInstance struct {
		Instance
		arr locks.Array
	}
	lockedInstance1 struct {
		Instance
		c   [1]container.Map
		arr locks.Array
	}
)

// newInstance returns the instance of node n for the valuation carried by
// row (which must bind all of n.A). A stateless leaf — no out-edge, no
// lock — gets the node's one shared instance: it has no state for a
// valuation to own. Sharing it is invisible to the well-lockedness
// auditor, whose fresh set (instances private to the running operation)
// is only consulted for edge sources, placement instances and speculative
// targets, none of which is ever a leaf. Every other instance is
// allocated; a lock-bearing one's identity is encoded straight from the
// row through the relation's precomputed schema indices for n.A.
func (r *Relation) newInstance(n *decomp.Node, row rel.Row) *Instance {
	if leaf := r.leaf[n.Index]; leaf != nil {
		return leaf
	}
	var inst *Instance
	var arr *locks.Array
	switch locked, one := r.lockNode[n.Index], len(n.Out) == 1; {
	case locked && one:
		s := &lockedInstance1{}
		inst, arr = &s.Instance, &s.arr
		inst.containers = s.c[:]
	case locked:
		s := &lockedInstance{}
		inst, arr = &s.Instance, &s.arr
	case one:
		s := &instance1{}
		inst = &s.Instance
		inst.containers = s.c[:]
	default:
		inst = &Instance{}
	}
	inst.node = n
	if inst.containers == nil && len(n.Out) > 0 {
		inst.containers = make([]container.Map, len(n.Out))
	}
	for i, e := range n.Out {
		inst.containers[i] = r.newContainer[e.Index]()
	}
	if arr != nil {
		arr.Init(r.regID, n.Index, row, r.nodeKey[n.Index], r.placement.StripeCount(n))
		inst.locks = arr
	}
	return inst
}

// container returns the container implementing edge e on inst, via the
// relation's precomputed edge→slot table (no adjacency-list search).
// e must be an out-edge of inst's node.
func (r *Relation) container(inst *Instance, e *decomp.Edge) container.Map {
	return inst.containers[r.edgeSlot[e.Index]]
}

// lock returns the i'th physical lock of the instance, which must be of
// a lock-bearing node.
func (inst *Instance) lock(i int) *locks.Lock { return inst.locks.Lock(i) }

// beginWriteEpochs marks a protected write to edge e's container as in
// flight. insts maps node index → the writing operation's instances; the
// write is made under the edge's placement lock, which lives on the
// instance of edgeLockAt (the rule's At, or the speculative fallback),
// and every epoch cell of that instance whose lock the transaction holds
// exclusively is begin-bumped (made odd), exactly once per transaction.
// The bumped cells are remembered on the buffer and end-bumped (made even
// again) by finishEpochs just before the shrinking phase releases the
// locks, so a lock-free optimistic reader — which recorded the same
// placement lock's epoch where the pessimistic plan would have acquired
// it — can never validate a read that overlapped this transaction's write
// phase, including writes later undone by the rollback of a panicked
// batch, which happens while the locks (and the odd epochs) are still
// held.
//
// Bumping every exclusively held stripe of the placement instance is
// conservative beyond the written entry's own stripe (it may invalidate
// readers of sibling entries), but never misses a conflict. An
// already-odd cell under our exclusive hold was bumped by us (no other
// transaction can move a cell while we hold its lock) and is skipped
// inside BeginWriteEpochs. A placement instance created by this operation
// is private and has nothing held to bump.
func (r *Relation) beginWriteEpochs(b *opBuf, insts []*Instance, e *decomp.Edge) {
	b.bumped = b.txn.BeginWriteEpochs(insts[r.edgeLockAt[e.Index]].locks, b.bumped)
}

// qstate is a query state (§5.2): a dense row binding a subset of the
// relation's columns plus the node instances located so far, indexed by
// node topological index. States are pooled per operation (see opBuf);
// both backing arrays have fixed width, so states are recycled with no
// allocation on the hot path.
type qstate struct {
	row   rel.Row
	insts []*Instance
}
