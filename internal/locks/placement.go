package locks

import (
	"fmt"
	"strings"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/rel"
)

// Rule maps the logical locks of one decomposition edge onto physical
// locks (§4.3). For a non-speculative rule, the logical lock of edge
// instance uv_t lives on the instance of node At identified by t, in the
// stripe selected by hashing t's StripeBy columns. For a speculative rule
// (§4.5), present edge instances are protected by the (single) lock of the
// *target* node instance, and absent edge instances by a stripe on
// FallbackAt.
type Rule struct {
	// At is the node whose instances carry the lock. It must dominate the
	// edge's source, or equal the edge's target for speculative rules.
	At *decomp.Node
	// StripeBy lists the tuple columns hashed to select a stripe on At
	// (§4.4). Empty means stripe 0. When an access does not bind all
	// StripeBy columns (e.g. a scan), all stripes are taken, which the
	// paper calls conservatively taking all k locks.
	StripeBy []string
	// Speculative marks the §4.5 placement: present edges are locked at
	// the target node instance, absent edges at FallbackAt stripes.
	Speculative bool
	// FallbackAt carries the locks protecting *absent* edge instances of
	// a speculative rule. It must dominate the edge's source.
	FallbackAt *decomp.Node
	// FallbackStripeBy selects the fallback stripe, like StripeBy.
	FallbackStripeBy []string
}

// Placement assigns a Rule to every edge of a decomposition plus a stripe
// count to every node (the size of the physical lock array on each node
// instance). Placements must pass Validate before being used to
// synthesize a relation.
type Placement struct {
	D *decomp.Decomposition
	// Rules is indexed by edge.Index.
	Rules []Rule
	// Stripes is indexed by node.Index; every entry is ≥ 1.
	Stripes []int
}

// NewPlacement returns the fine-grain default placement ψ2 of §4.3: every
// edge protected by a single lock at its source node. Callers then
// override individual edges with Place / PlaceSpeculative / SetStripes.
func NewPlacement(d *decomp.Decomposition) *Placement {
	p := &Placement{
		D:       d,
		Rules:   make([]Rule, len(d.Edges)),
		Stripes: make([]int, len(d.Nodes)),
	}
	for i := range p.Stripes {
		p.Stripes[i] = 1
	}
	for _, e := range d.Edges {
		p.Rules[e.Index] = Rule{At: e.Src}
	}
	return p
}

// Coarse returns the coarse-grain placement ψ1 of §4.3: a single lock at
// the root protects every edge.
func Coarse(d *decomp.Decomposition) *Placement {
	p := NewPlacement(d)
	for i := range p.Rules {
		p.Rules[i] = Rule{At: d.Root}
	}
	return p
}

// FineGrained returns ψ2: each edge protected by one lock at its source.
func FineGrained(d *decomp.Decomposition) *Placement {
	return NewPlacement(d)
}

// Place overrides the rule for edge e: lock at node `at`, striped by the
// given columns.
func (p *Placement) Place(e *decomp.Edge, at *decomp.Node, stripeBy ...string) *Placement {
	p.Rules[e.Index] = Rule{At: at, StripeBy: stripeBy}
	return p
}

// PlaceSpeculative overrides the rule for edge e with the §4.5 speculative
// placement: present entries locked at the edge target, absent entries at
// a stripe of fallbackAt chosen by fallbackStripeBy.
func (p *Placement) PlaceSpeculative(e *decomp.Edge, fallbackAt *decomp.Node, fallbackStripeBy ...string) *Placement {
	p.Rules[e.Index] = Rule{
		At:               e.Dst,
		Speculative:      true,
		FallbackAt:       fallbackAt,
		FallbackStripeBy: fallbackStripeBy,
	}
	return p
}

// SetStripes sets the number of physical locks carried by each instance of
// node n (§4.4's striping factor k).
func (p *Placement) SetStripes(n *decomp.Node, k int) *Placement {
	p.Stripes[n.Index] = k
	return p
}

// Rebase clones placement p onto a structurally identical decomposition
// d2 — typically the output of Decomposition.WithContainers, which
// reassigns container kinds but preserves node and edge order. Every
// rule's placement nodes are remapped by index (names are checked to
// guard against shape drift) and the result is validated, since the new
// container kinds may make a previously legal rule illegal (e.g.
// entry-level striping on a container that is no longer concurrency-safe
// never happens on upgrades, but downgrades exist too). The online
// advisor uses Rebase to carry a tuned placement across a container
// migration.
func Rebase(p *Placement, d2 *decomp.Decomposition) (*Placement, error) {
	d := p.D
	if len(p.Rules) != len(d2.Edges) || len(p.Stripes) != len(d2.Nodes) {
		return nil, fmt.Errorf("locks: Rebase shape mismatch: %d rules / %d edges, %d stripes / %d nodes",
			len(p.Rules), len(d2.Edges), len(p.Stripes), len(d2.Nodes))
	}
	remap := func(n *decomp.Node) (*decomp.Node, error) {
		if n == nil {
			return nil, nil
		}
		m := d2.Nodes[n.Index]
		if m.Name != n.Name {
			return nil, fmt.Errorf("locks: Rebase node order drift: %s vs %s at index %d", n.Name, m.Name, n.Index)
		}
		return m, nil
	}
	q := &Placement{
		D:       d2,
		Rules:   make([]Rule, len(p.Rules)),
		Stripes: append([]int(nil), p.Stripes...),
	}
	for i, r := range p.Rules {
		if i < len(d.Edges) && d.Edges[i].Name != d2.Edges[i].Name {
			return nil, fmt.Errorf("locks: Rebase edge order drift: %s vs %s at index %d", d.Edges[i].Name, d2.Edges[i].Name, i)
		}
		nr := r
		var err error
		if nr.At, err = remap(r.At); err != nil {
			return nil, err
		}
		if nr.FallbackAt, err = remap(r.FallbackAt); err != nil {
			return nil, err
		}
		nr.StripeBy = append([]string(nil), r.StripeBy...)
		nr.FallbackStripeBy = append([]string(nil), r.FallbackStripeBy...)
		q.Rules[i] = nr
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// RuleFor returns the rule protecting edge e.
func (p *Placement) RuleFor(e *decomp.Edge) Rule { return p.Rules[e.Index] }

// LockNodes reports, indexed by node.Index, which nodes' instances carry
// physical locks: the At of every rule (for a speculative rule, the edge
// target) and the FallbackAt of every speculative rule. Instances of any
// other node need no stripe array.
func (p *Placement) LockNodes() []bool {
	out := make([]bool, len(p.D.Nodes))
	for _, r := range p.Rules {
		out[r.At.Index] = true
		if r.Speculative {
			out[r.FallbackAt.Index] = true
		}
	}
	return out
}

// StripeCount returns the stripe count of node n.
func (p *Placement) StripeCount(n *decomp.Node) int { return p.Stripes[n.Index] }

// StripeIndex returns the stripe on node `at` selected by tuple t for the
// given stripeBy columns, and whether t binds them all. When it does not,
// the caller must conservatively take all stripes.
func (p *Placement) StripeIndex(at *decomp.Node, stripeBy []string, t rel.Tuple) (int, bool) {
	k := p.Stripes[at.Index]
	if k == 1 || len(stripeBy) == 0 {
		return 0, true
	}
	if !t.HasAll(stripeBy) {
		return 0, false
	}
	return int(t.Key(stripeBy).Hash() % uint64(k)), true
}

// Validate checks the well-formedness conditions of §4.3 plus the
// taxonomy-driven legality constraints of §6.1:
//
//  1. every edge has a rule and every stripe count is ≥ 1;
//  2. domination: a non-speculative rule's At dominates the edge source;
//     a speculative rule's At equals the edge target and its FallbackAt
//     dominates the edge source;
//  3. path-sharing: every edge on a path from the placement node to the
//     protected edge's source is itself protected at that placement node,
//     so the logical→physical mapping is stable while the lock is held;
//  4. stripe selectors only use columns available when the edge is
//     accessed (source-bound columns plus the edge's own columns);
//  5. container legality: striping the entries of a single container
//     across distinct locks (a selector that uses edge columns), and any
//     speculative placement, require a concurrency-safe container;
//     speculative placement additionally requires linearizable unlocked
//     reads (§4.5) and a single-lock target node;
//  6. a concurrency-unsafe container must have all its entries mapped to
//     one lock, which condition 5 guarantees by rejecting entry-level
//     striping for such containers.
func (p *Placement) Validate() error {
	d := p.D
	if len(p.Rules) != len(d.Edges) || len(p.Stripes) != len(d.Nodes) {
		return fmt.Errorf("locks: placement shape mismatch")
	}
	for i, k := range p.Stripes {
		if k < 1 {
			return fmt.Errorf("locks: node %s has stripe count %d", d.Nodes[i].Name, k)
		}
	}
	for _, e := range d.Edges {
		r := p.Rules[e.Index]
		props := container.PropertiesOf(e.Container)
		if r.At == nil {
			return fmt.Errorf("locks: edge %s has no placement", e.Name)
		}
		if r.Speculative {
			if r.At != e.Dst {
				return fmt.Errorf("locks: speculative rule for %s must place the lock at the edge target", e.Name)
			}
			if r.FallbackAt == nil || !d.Dominates(r.FallbackAt, e.Src) {
				return fmt.Errorf("locks: speculative rule for %s needs a fallback node dominating %s", e.Name, e.Src.Name)
			}
			if !props.ConcurrencySafe() || !props.LinearizableReads() {
				return fmt.Errorf("locks: speculative placement on %s requires a concurrency-safe container with linearizable reads, %s is not", e.Name, e.Container)
			}
			if p.Stripes[e.Dst.Index] != 1 {
				return fmt.Errorf("locks: speculative target %s must carry exactly one lock", e.Dst.Name)
			}
			if err := p.checkStripeBy(e, r.FallbackAt, r.FallbackStripeBy, props); err != nil {
				return err
			}
			if err := p.checkPathSharing(e, r.FallbackAt); err != nil {
				return err
			}
			continue
		}
		if !d.Dominates(r.At, e.Src) {
			return fmt.Errorf("locks: placement of %s at %s does not dominate source %s", e.Name, r.At.Name, e.Src.Name)
		}
		if err := p.checkStripeBy(e, r.At, r.StripeBy, props); err != nil {
			return err
		}
		if err := p.checkPathSharing(e, r.At); err != nil {
			return err
		}
	}
	return nil
}

// checkStripeBy validates a stripe selector for edge e placed at node at.
func (p *Placement) checkStripeBy(e *decomp.Edge, at *decomp.Node, stripeBy []string, props container.Properties) error {
	avail := rel.ColsUnion(e.Src.A, e.Cols)
	if !rel.ColsSubset(stripeBy, avail) {
		return fmt.Errorf("locks: stripe selector %v of edge %s uses columns not available at access time (have %v)", stripeBy, e.Name, avail)
	}
	if p.Stripes[at.Index] > 1 {
		// Entry-level striping: distinct entries of one container may be
		// protected by distinct locks iff the selector depends on edge
		// columns beyond the source instance key.
		entryLevel := len(rel.ColsIntersect(stripeBy, rel.ColsMinus(e.Cols, e.Src.A))) > 0
		if entryLevel && !props.ConcurrencySafe() {
			return fmt.Errorf("locks: entry-level striping of edge %s requires a concurrency-safe container, %s is not (Figure 1)", e.Name, props.Kind)
		}
		// With a strict dominator, instances of distinct containers can
		// share or split stripes freely; with selector ⊆ source key all
		// entries of one container share a stripe, which serializes the
		// container and is legal for any kind.
	}
	return nil
}

// checkPathSharing enforces §4.3's second well-formedness condition.
func (p *Placement) checkPathSharing(e *decomp.Edge, at *decomp.Node) error {
	for _, path := range p.D.PathsBetween(at, e.Src) {
		for _, pe := range path {
			r := p.Rules[pe.Index]
			target := r.At
			if r.Speculative {
				target = r.FallbackAt
			}
			if target != at {
				return fmt.Errorf("locks: edge %s on the path from placement %s to %s is placed at %s; all edges between a lock and its protected edge must share the placement",
					pe.Name, at.Name, e.Src.Name, target.Name)
			}
		}
	}
	return nil
}

// String summarizes the placement, e.g. for cmd/crsexplain.
func (p *Placement) String() string {
	var b strings.Builder
	b.WriteString("lock placement:\n")
	for _, e := range p.D.Edges {
		r := p.Rules[e.Index]
		if r.Speculative {
			fmt.Fprintf(&b, "  ψ(%s) = %s if present, %s", e.Name, r.At.Name, r.FallbackAt.Name)
			if len(r.FallbackStripeBy) > 0 {
				fmt.Fprintf(&b, "[hash(%s) mod %d]", strings.Join(r.FallbackStripeBy, ","), p.Stripes[r.FallbackAt.Index])
			}
			b.WriteString(" if absent (speculative)\n")
			continue
		}
		fmt.Fprintf(&b, "  ψ(%s) = %s", e.Name, r.At.Name)
		if p.Stripes[r.At.Index] > 1 {
			if len(r.StripeBy) > 0 {
				fmt.Fprintf(&b, "[hash(%s) mod %d]", strings.Join(r.StripeBy, ","), p.Stripes[r.At.Index])
			} else {
				fmt.Fprintf(&b, "[all %d stripes]", p.Stripes[r.At.Index])
			}
		}
		b.WriteString("\n")
	}
	for _, n := range p.D.Nodes {
		if p.Stripes[n.Index] > 1 {
			fmt.Fprintf(&b, "  stripes(%s) = %d\n", n.Name, p.Stripes[n.Index])
		}
	}
	return b.String()
}
