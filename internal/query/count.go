package query

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// Count pushdown: query r s C used only for its cardinality does not need
// the values of any output column, so the planner can stop as soon as the
// bound columns are consumed and count the remaining subtree by container
// size. The count of tuples below an edge entry is exactly 1 when the
// entry's bound columns form a key of the relation (the FDs pin every
// remaining column, and the cleanup invariant guarantees at least one
// complete path), so counting degenerates to one Len() call on a container
// whose lock the plan already holds — the relational analog of COUNT(*)
// index-only pushdown. The §6.2 benchmark's find-successors and
// find-predecessors operations hit this path.

// StepCount is the terminal step of a count plan: sum the entry counts of
// edge Edge's containers over the current states. The plan's preceding
// lock step covers the edge (a Len read observes presence and absence of
// every entry, like a scan).
const StepCount StepKind = 99

// PlanCount returns the cheapest plan computing |query r s C| (any C).
// If no counting edge is available the caller should fall back to a full
// query plan.
func (pl *Planner) PlanCount(bound []string) (*Plan, error) {
	for _, c := range bound {
		if !pl.D.Spec.HasColumn(c) {
			return nil, fmt.Errorf("query: unknown column %q", c)
		}
	}
	var best *Plan
	var dfs func(n *decomp.Node, boundNow, covered []string, path []*decomp.Edge)
	dfs = func(n *decomp.Node, boundNow, covered []string, path []*decomp.Edge) {
		if rel.ColsSubset(bound, covered) {
			// This node can serve as the counting frontier; deeper
			// frontiers may still be cheaper (or the only ones with a
			// keyed counting edge), so keep descending one level.
			if p := pl.assembleCount(bound, path, n); p != nil {
				if best == nil || p.Cost < best.Cost {
					best = p
				}
				return
			}
		}
		for _, e := range n.Out {
			dfs(e.Dst,
				rel.ColsUnion(boundNow, e.Cols),
				rel.ColsUnion(covered, e.Cols),
				append(path, e))
		}
	}
	dfs(pl.D.Root, bound, nil, nil)
	if best != nil {
		return best, nil
	}
	// No frontier admitted a keyed counting edge: fall back to a full
	// traversal whose surviving states are counted directly.
	return pl.PlanQuery(bound, pl.D.Spec.Columns)
}

// assembleCount builds a plan that traverses path and finishes with a
// counting step at the frontier node, or counts surviving states directly
// when the frontier is a unit node.
func (pl *Planner) assembleCount(bound []string, path []*decomp.Edge, frontier *decomp.Node) *Plan {
	if frontier.IsUnit() {
		p, err := pl.assemble(bound, nil, path, locks.Shared)
		if err != nil {
			return nil
		}
		return p
	}
	// Pick a counting edge: an out-edge whose target's bound columns form
	// a key, so each entry represents exactly one tuple. Prefer the
	// cheapest (they are all O(1) Len reads; prefer non-speculative).
	var count *decomp.Edge
	for _, e := range frontier.Out {
		if !pl.D.Spec.IsKey(e.Dst.A) {
			continue
		}
		if pl.P.RuleFor(e).Speculative {
			continue // a Len read under speculative placement has no single target lock
		}
		if count == nil {
			count = e
		}
	}
	if count == nil {
		// No keyed counting edge at this frontier; the caller descends.
		return nil
	}
	p, err := pl.assemble(bound, nil, path, locks.Shared)
	if err != nil {
		return nil
	}
	// Lock requirement for the Len read: same as a scan over the edge.
	boundSet := map[string]bool{}
	for _, c := range bound {
		boundSet[c] = true
	}
	r := pl.P.RuleFor(count)
	sel := pl.selectorFor(r.StripeBy, boundSet)
	// A Len read observes every entry, so a single stripe only suffices
	// when the selector is constant per container (⊆ the source's bound
	// columns).
	if !sel.All && len(r.StripeBy) > 0 && !rel.ColsSubset(r.StripeBy, count.Src.A) {
		sel = Selector{All: true}
	}
	p.Steps = append(p.Steps,
		Step{Kind: StepLock, Node: r.At, Mode: locks.Shared, Selectors: []Selector{sel}},
		Step{Kind: StepCount, Edge: count})
	p.Cost += pl.Model.LockCost + 0.2
	pl.compilePlan(p)
	return p
}
