package query

import (
	"fmt"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// CostModel holds the heuristic constants of the query planner's cost
// estimation function (§5.2). The defaults are deliberately simple: the
// planner only needs to rank alternatives (lookup beats scan, fewer locks
// beat more, striped full-scans are expensive), not predict wall time.
type CostModel struct {
	// Fanout is the assumed number of entries per container.
	Fanout float64
	// LockCost is the cost of acquiring one physical lock.
	LockCost float64
	// ScanEntryCost is the per-entry cost of a scan.
	ScanEntryCost float64
}

// DefaultCostModel returns the standard constants.
func DefaultCostModel() CostModel {
	return CostModel{Fanout: 8, LockCost: 0.3, ScanEntryCost: 0.4}
}

// lookupCost returns the per-state cost of one lookup in a container kind.
func (c CostModel) lookupCost(k container.Kind) float64 {
	switch k {
	case container.TreeMap, container.ConcurrentSkipListMap:
		return 1.5 // logarithmic
	case container.CopyOnWriteMap:
		return 1.2 // binary search
	case container.Cell:
		return 0.5
	default:
		return 1.0 // hash
	}
}

// Planner compiles relational operations against one decomposition and
// lock placement into plans. It is created once per synthesized relation.
type Planner struct {
	D     *decomp.Decomposition
	P     *locks.Placement
	Model CostModel
	// Schema assigns every spec column its dense index; the planner
	// resolves all column names in emitted plans against it, so the
	// executor runs on integer offsets only.
	Schema *rel.Schema
}

// NewPlanner returns a planner over d and p with the default cost model.
func NewPlanner(d *decomp.Decomposition, p *locks.Placement) *Planner {
	return &Planner{D: d, P: p, Model: DefaultCostModel(), Schema: rel.MustSchema(d.Spec.Columns)}
}

// PlanQuery returns the cheapest valid plan answering
// query r s C (§2) for dom(s) = bound and C = out.
// The needed columns (bound ∪ out) determine how deep plans must traverse;
// every root-to-leaf path covers all columns, so plans are downward paths.
func (pl *Planner) PlanQuery(bound, out []string) (*Plan, error) {
	plans, err := pl.EnumerateQueryPlans(bound, out)
	if err != nil {
		return nil, err
	}
	best := plans[0]
	for _, p := range plans[1:] {
		if p.Cost < best.Cost {
			best = p
		}
	}
	return best, nil
}

// EnumerateQueryPlans returns every valid query plan for the signature, in
// enumeration order. At least one plan always exists for a validated
// decomposition.
func (pl *Planner) EnumerateQueryPlans(bound, out []string) ([]*Plan, error) {
	for _, c := range append(append([]string(nil), bound...), out...) {
		if !pl.D.Spec.HasColumn(c) {
			return nil, fmt.Errorf("query: unknown column %q", c)
		}
	}
	needed := rel.ColsUnion(bound, out)
	var plans []*Plan
	var dfs func(n *decomp.Node, boundNow, covered []string, path []*decomp.Edge)
	dfs = func(n *decomp.Node, boundNow, covered []string, path []*decomp.Edge) {
		if rel.ColsSubset(needed, covered) {
			p, err := pl.assemble(bound, out, path, locks.Shared)
			if err == nil {
				plans = append(plans, p)
			}
			return // extending a complete path only adds cost
		}
		for _, e := range n.Out {
			dfs(e.Dst,
				rel.ColsUnion(boundNow, e.Cols),
				rel.ColsUnion(covered, e.Cols),
				append(path, e))
		}
	}
	dfs(pl.D.Root, bound, nil, nil)
	if len(plans) == 0 {
		return nil, fmt.Errorf("query: no valid plan for bound=%v out=%v", bound, out)
	}
	return plans, nil
}

// assemble weaves lock steps into an access path and costs the result.
// Lock steps are emitted at each placement node's position along the path,
// in node order, which satisfies the plan validity conditions by
// construction.
func (pl *Planner) assemble(bound, out []string, path []*decomp.Edge, mode locks.Mode) (*Plan, error) {
	boundSet := map[string]bool{}
	for _, c := range bound {
		boundSet[c] = true
	}
	// For each node on the path (by position), the selectors it must lock.
	type lockReq struct {
		node      *decomp.Node
		selectors []Selector
	}
	reqs := map[*decomp.Node]*lockReq{}
	addReq := func(n *decomp.Node, sel Selector) {
		r, ok := reqs[n]
		if !ok {
			r = &lockReq{node: n}
			reqs[n] = r
		}
		r.selectors = append(r.selectors, sel)
	}
	// Determine per-edge access kind and lock requirement.
	type access struct {
		edge   *decomp.Edge
		kind   StepKind
		filter []string
	}
	accesses := make([]access, 0, len(path))
	boundNow := append([]string(nil), bound...)
	for _, e := range path {
		r := pl.P.RuleFor(e)
		keyed := rel.ColsSubset(e.Cols, boundNow)
		var a access
		switch {
		case r.Speculative && keyed:
			a = access{edge: e, kind: StepSpecLookup}
			addReq(r.FallbackAt, pl.selectorFor(r.FallbackStripeBy, boundSet))
		case r.Speculative:
			a = access{edge: e, kind: StepScan, filter: rel.ColsIntersect(e.Cols, boundNow)}
			// Unkeyed speculative scan: every fallback stripe.
			addReq(r.FallbackAt, Selector{All: true})
		case keyed:
			a = access{edge: e, kind: StepLookup}
			addReq(r.At, pl.selectorFor(r.StripeBy, boundSet))
		default:
			a = access{edge: e, kind: StepScan, filter: rel.ColsIntersect(e.Cols, boundNow)}
			// A scan observes presence and absence of every entry, so it
			// needs all stripes unless the selector is bound per source
			// instance (selector ⊆ A_src, constant across the container).
			sel := pl.selectorFor(r.StripeBy, boundSet)
			if !sel.All && !rel.ColsSubset(r.StripeBy, e.Src.A) && len(rel.ColsMinus(r.StripeBy, bound)) > 0 {
				sel = Selector{All: true}
			}
			addReq(r.At, sel)
		}
		accesses = append(accesses, a)
		boundNow = rel.ColsUnion(boundNow, e.Cols)
	}

	// Weave: walk the path nodes root-down; before each access, emit the
	// lock steps for placement nodes at or before this position.
	plan := &Plan{Bound: bound, Out: out}
	cost := 0.0
	multiplicity := 1.0
	emitted := map[*decomp.Node]bool{}
	// lastSortedScan tracks the §5.2 sort-elision analysis: true when the
	// current states were produced, from a single predecessor state, by a
	// scan over a sorted container whose edge column order is the sorted
	// column order (so state order coincides with instance-key order).
	// lastScanDst records which node those states instantiate: the elision
	// only applies to a lock step on exactly that node, with one stripe.
	lastSortedScan := false
	var lastScanDst *decomp.Node

	emitLock := func(n *decomp.Node) {
		if emitted[n] {
			return
		}
		r := reqs[n]
		if r == nil {
			return
		}
		emitted[n] = true
		preSorted := lastSortedScan && n == lastScanDst && pl.P.StripeCount(n) == 1
		step := Step{Kind: StepLock, Node: n, Mode: mode, Selectors: r.selectors, PreSorted: preSorted}
		plan.Steps = append(plan.Steps, step)
		// Lock cost: one lock per state, or all stripes when unselective.
		stripes := 1.0
		for _, s := range r.selectors {
			if s.All {
				stripes = float64(pl.P.StripeCount(n))
			}
		}
		cost += pl.Model.LockCost * multiplicity * stripes
	}

	emitLock(pl.D.Root)
	for _, a := range accesses {
		e := a.edge
		r := pl.P.RuleFor(e)
		// Placement node for this edge must be locked before the access.
		if r.Speculative {
			emitLock(r.FallbackAt)
		} else {
			emitLock(r.At)
		}
		switch a.kind {
		case StepLookup:
			plan.Steps = append(plan.Steps, Step{Kind: StepLookup, Edge: e})
			cost += pl.Model.lookupCost(e.Container) * multiplicity
			lastSortedScan = false
		case StepSpecLookup:
			plan.Steps = append(plan.Steps, Step{Kind: StepSpecLookup, Edge: e, Mode: mode})
			cost += (pl.Model.lookupCost(e.Container) + pl.Model.LockCost) * multiplicity
			lastSortedScan = false
		case StepScan:
			plan.Steps = append(plan.Steps, Step{Kind: StepScan, Edge: e, FilterCols: a.filter})
			fan := pl.Model.Fanout
			if e.Container == container.Cell {
				fan = 1
			}
			cost += pl.Model.ScanEntryCost * multiplicity * fan
			sorted := container.PropertiesOf(e.Container).SortedScan && colsAreSorted(e.Cols)
			lastSortedScan = sorted && multiplicity == 1
			lastScanDst = e.Dst
			if len(a.filter) == 0 {
				multiplicity *= fan
			}
			// Filtered scans keep roughly one match per source state, so
			// the multiplicity is unchanged.
			if r.Speculative {
				// Each surviving entry's target lock is validated.
				cost += pl.Model.LockCost * multiplicity
			}
		}
	}
	plan.Cost = cost
	if err := plan.Validate(pl.P); err != nil {
		return nil, err
	}
	pl.compilePlan(plan)
	return plan, nil
}

// selectorFor builds a stripe selector given the statically bound columns:
// selectors whose columns are not all bound degrade to All.
func (pl *Planner) selectorFor(stripeBy []string, bound map[string]bool) Selector {
	for _, c := range stripeBy {
		if !bound[c] {
			return Selector{All: true}
		}
	}
	cols := append([]string(nil), stripeBy...)
	return Selector{Cols: cols, Idx: pl.Schema.Indices(cols), Mask: pl.Schema.Mask(cols)}
}

// colsAreSorted reports whether the edge's column order equals the sorted
// column order, the condition under which a sorted container scan yields
// states in instance-key order (§5.2's sort-elision analysis).
func colsAreSorted(cols []string) bool {
	for i := 1; i < len(cols); i++ {
		if cols[i-1] > cols[i] {
			return false
		}
	}
	return true
}
