package query

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/rel"
)

// OpKind discriminates the two mutation operations of §2.
type OpKind int

const (
	// OpInsert is insert r s t (put-if-absent generalization).
	OpInsert OpKind = iota
	// OpRemove is remove r s, with s a key for the relation.
	OpRemove
)

// String renders the operation kind.
func (k OpKind) String() string {
	if k == OpRemove {
		return "remove"
	}
	return "insert"
}

// NodeDirective drives the executor's handling of one decomposition node
// during a mutation's growing phase. Directives are executed in
// topological node order, which keeps every lock acquisition in the global
// lock order of §5.1.
type NodeDirective struct {
	Node *decomp.Node
	// Selectors for the lock step at this node: the stripe selectors of
	// every rule whose physical locks live here (own placements plus
	// speculative fallbacks). Empty means no locks at this node.
	Selectors []Selector
	// AccessIn is the in-edge used to locate this node's instances (nil
	// for the root). Speculative in-edges are located via SpecIns instead.
	AccessIn *decomp.Edge
	// AccessScan is true when AccessIn must be scanned (its key columns
	// are not bound) rather than looked up; FilterCols are checked
	// against scan results.
	AccessScan bool
	FilterCols []string
	// SpecIns lists speculative in-edges of this node, located and locked
	// with the §4.5 protocol (the conservative fallback stripes were taken
	// at the fallback node's directive).
	SpecIns []*decomp.Edge

	// Compiled (schema-resolved) offsets, filled by the planner; see the
	// matching fields on Step for semantics. ColIdx/FilterPos/FilterIdx
	// describe AccessIn; SpecColIdx/SpecTargetIdx are aligned with
	// SpecIns.
	ColIdx        []int
	FilterPos     []int
	FilterIdx     []int
	SpecColIdx    [][]int
	SpecTargetIdx [][]int
}

// MutationPlan is the compiled growing phase of an insert or remove: lock
// and locate directives per node. The write/delete phases that follow are
// structural (every in-edge of every node) and implemented directly by
// the executor.
type MutationPlan struct {
	Kind  OpKind
	Bound []string // dom(s)
	// PerNode holds one directive per decomposition node, in topological
	// order.
	PerNode []NodeDirective
	Cost    float64
	// Prog is the compiled round map of the growing phase; its pointer is
	// the plan-identity key of the batch executor (roundmap.go).
	Prog *MutationProgram

	// BoundMask is the schema-resolved bound-column bitmask, filled by
	// the planner (see Plan).
	BoundMask uint64
}

// String summarizes the plan.
func (m *MutationPlan) String() string {
	s := fmt.Sprintf("%s plan (bound %v):\n", m.Kind, m.Bound)
	for _, nd := range m.PerNode {
		s += fmt.Sprintf("  node %s:", nd.Node.Name)
		if len(nd.Selectors) > 0 {
			s += fmt.Sprintf(" lock[%d selectors]", len(nd.Selectors))
		}
		if nd.AccessIn != nil {
			verb := "lookup"
			if nd.AccessScan {
				verb = "scan"
			}
			s += fmt.Sprintf(" %s(%s)", verb, nd.AccessIn.Name)
		}
		for _, e := range nd.SpecIns {
			s += fmt.Sprintf(" speclookup(%s)", e.Name)
		}
		s += "\n"
	}
	return s
}

// PlanMutation compiles the growing phase of an insert or remove whose
// input tuple binds the given columns. For OpRemove, bound must be a key
// of the relation (§2). The plan locks every node's instances exclusively
// in topological order and locates the instances relevant to the bound
// tuple, after which the executor can run the put-if-absent check, the
// writes, or the cascading deletes entirely under held locks.
func (pl *Planner) PlanMutation(kind OpKind, bound []string) (*MutationPlan, error) {
	for _, c := range bound {
		if !pl.D.Spec.HasColumn(c) {
			return nil, fmt.Errorf("query: unknown column %q", c)
		}
	}
	if kind == OpRemove && !pl.D.Spec.IsKey(bound) {
		return nil, fmt.Errorf("query: remove requires a key; %v does not determine %v", bound, pl.D.Spec.Columns)
	}
	boundSet := map[string]bool{}
	for _, c := range bound {
		boundSet[c] = true
	}

	m := &MutationPlan{Kind: kind, Bound: append([]string(nil), bound...)}
	// Per-node selector accumulation.
	selectors := make([][]Selector, len(pl.D.Nodes))
	for _, e := range pl.D.Edges {
		r := pl.P.RuleFor(e)
		if r.Speculative {
			if !rel.ColsSubset(e.Cols, bound) {
				return nil, fmt.Errorf("query: speculative edge %s keyed by %v is not covered by the %s key %v; this placement cannot support the operation",
					e.Name, e.Cols, kind, bound)
			}
			selectors[r.FallbackAt.Index] = append(selectors[r.FallbackAt.Index],
				pl.mutationSelector(kind, e, r.FallbackStripeBy, boundSet))
			continue
		}
		selectors[r.At.Index] = append(selectors[r.At.Index],
			pl.mutationSelector(kind, e, r.StripeBy, boundSet))
	}

	// Observed columns grow as scans run, in topo order.
	observed := append([]string(nil), bound...)
	cost := 0.0
	for _, n := range pl.D.Nodes {
		nd := NodeDirective{Node: n, Selectors: selectors[n.Index]}
		if n != pl.D.Root {
			// Partition in-edges: speculative ones use the §4.5 protocol;
			// of the rest, pick the cheapest usable access edge.
			var best *decomp.Edge
			bestScan := false
			bestCost := 0.0
			for _, e := range n.In {
				if pl.P.RuleFor(e).Speculative {
					nd.SpecIns = append(nd.SpecIns, e)
					continue
				}
				keyed := rel.ColsSubset(e.Cols, observed)
				c := pl.Model.lookupCost(e.Container)
				if !keyed {
					c = pl.Model.ScanEntryCost * pl.Model.Fanout
				}
				if best == nil || c < bestCost {
					best, bestScan, bestCost = e, !keyed, c
				}
			}
			switch {
			case best != nil:
				nd.AccessIn = best
				nd.AccessScan = bestScan
				if bestScan {
					nd.FilterCols = rel.ColsIntersect(best.Cols, observed)
				}
				cost += bestCost
			case len(nd.SpecIns) > 0:
				// Located purely via speculative in-edges.
				cost += pl.Model.lookupCost(nd.SpecIns[0].Container) + pl.Model.LockCost
			default:
				return nil, fmt.Errorf("query: node %s has no usable access edge for %s over %v", n.Name, kind, bound)
			}
			// Whatever edge located the node, its columns are observed.
			observed = rel.ColsUnion(observed, n.A)
		}
		// Lock cost at this node.
		for _, s := range nd.Selectors {
			if s.All {
				cost += pl.Model.LockCost * float64(pl.P.StripeCount(n))
			} else {
				cost += pl.Model.LockCost
			}
		}
		m.PerNode = append(m.PerNode, nd)
	}
	m.Cost = cost
	pl.compileMutation(m)
	return m, nil
}

// mutationSelector computes the stripe selector for edge e under a
// mutation bound to the given columns: a bound selector takes one stripe;
// anything else degrades to all stripes (selectorFor).
//
// A remove whose edge is striped per entry (stripe columns not ⊆ A_src)
// also degrades to all stripes when the edge's source is not the root: the
// cascade cleanup of deleteTuple asks whether the source container is
// empty, an observation of every entry's logical lock. The root instance
// never dies, so no remove ever asks that of a root container; a remove of
// a root edge touches only its own entry, whose key-selected stripe it
// holds exclusively — exactly as an insert writes it. Placement.Validate
// already demands a concurrency-safe container wherever a root edge is
// striped per entry, so entries in other stripes may change concurrently.
func (pl *Planner) mutationSelector(kind OpKind, e *decomp.Edge, stripeBy []string, bound map[string]bool) Selector {
	if kind == OpRemove && e.Src != pl.D.Root && !rel.ColsSubset(stripeBy, e.Src.A) {
		return Selector{All: true}
	}
	return pl.selectorFor(stripeBy, bound)
}

// KeyNode returns the node whose instances a batch creates or unlinks
// exactly when it writes the root container, when the root is demotable,
// and nil otherwise. A root is demotable when its single-stripe lock
// protects nothing but its one out-edge's container: the root has one
// out-edge, placed at the root and not speculative, no other rule (or
// speculative fallback) lives at the root, and the edge's target — the
// key node — has no other in-edge and at least one out-edge, so an
// empty key-node instance holds no tuple. A batch's write members may
// then hold the root Shared (or, on the optimistic row, record its
// epoch): they write the root container only to link a missing key-node
// instance, which they detect while locating it (MRoundEscalate), or to
// unlink one left empty at the end of the apply phase, which internal/
// core detects there. Single operations keep the exclusive root lock.
func (pl *Planner) KeyNode() *decomp.Node {
	root := pl.D.Root
	if len(root.Out) != 1 || pl.P.StripeCount(root) != 1 {
		return nil
	}
	top := root.Out[0]
	key := top.Dst
	if len(key.In) != 1 || len(key.Out) == 0 {
		return nil
	}
	for _, e := range pl.D.Edges {
		r := pl.P.RuleFor(e)
		switch {
		case r.Speculative && (e == top || r.FallbackAt == root):
			return nil
		case !r.Speculative && r.At == root && e != top:
			return nil
		}
	}
	return key
}
