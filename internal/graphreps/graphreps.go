// Package graphreps constructs the directed-graph representations of the
// paper's evaluation (§4.3, §6.2): the stick, split and diamond
// decomposition families of Figure 3, the per-side lock placements ψ1
// (coarse), ψ2 (fine), ψ3 (striped) and ψ4 (speculative), and the twelve
// named variants plotted in Figure 5 — named points of the space the
// autotuner enumerates.
package graphreps

import (
	"fmt"
	"slices"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// Spec returns the directed-graph relational specification
// {src, dst, weight | src,dst → weight} of §2.
func Spec() rel.Spec {
	return rel.MustSpec([]string{"src", "dst", "weight"},
		rel.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
}

// StripeFactor is the paper's large striping factor (§6.2 uses 1 or 1024).
const StripeFactor = 1024

// Stick builds the Figure 3(a) decomposition, ρ→u{src}→v{dst}→w{weight}:
// a map of maps plus a singleton weight cell. Successor queries are
// direct; predecessor queries must scan every edge.
func Stick(top, mid container.Kind) (*decomp.Decomposition, error) {
	return decomp.NewBuilder(Spec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, top).
		Edge("uv", "u", "v", []string{"dst"}, mid).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
}

// Split builds the Figure 3(b) decomposition: two independent stick-shaped
// indexes, one keyed by src (for successors) and one keyed by dst (for
// predecessors), with no node sharing.
func Split(topL, midL, topR, midR container.Kind) (*decomp.Decomposition, error) {
	return decomp.NewBuilder(Spec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, topL).
		Edge("uw", "u", "w", []string{"dst"}, midL).
		Edge("wx", "w", "x", []string{"weight"}, container.Cell).
		Edge("ρv", "ρ", "v", []string{"dst"}, topR).
		Edge("vy", "v", "y", []string{"src"}, midR).
		Edge("yz", "y", "z", []string{"weight"}, container.Cell).
		Build()
}

// Diamond builds the Figure 3(c) decomposition: src and dst indexes that
// share the per-edge node z (and its weight cell).
func Diamond(topL, midL, topR, midR container.Kind) (*decomp.Decomposition, error) {
	return decomp.NewBuilder(Spec(), "ρ").
		Edge("ρx", "ρ", "x", []string{"src"}, topL).
		Edge("ρy", "ρ", "y", []string{"dst"}, topR).
		Edge("xz", "x", "z", []string{"dst"}, midL).
		Edge("yz", "y", "z", []string{"src"}, midR).
		Edge("zw", "z", "w", []string{"weight"}, container.Cell).
		Build()
}

// Scheme is one index side's lock placement, applied to the side's
// root out-edge; the edges below it stay at their source (a single lock
// per node instance serializes them) unless the scheme is coarse.
type Scheme int

const (
	// Coarse is ψ1: the root lock protects the side's every edge.
	Coarse Scheme = iota
	// Fine is ψ2: every edge protected by one lock at its source node.
	Fine
	// Striped1 is ψ3 with striping factor 1: one root lock (the root's
	// first stripe) serializes the top container; lower edges are fine.
	Striped1
	// Striped is ψ3 with StripeFactor: the top edge is striped across the
	// root's locks by its key column; lower edges are fine.
	Striped
	// Speculative is ψ4: the top edge locks its targets speculatively,
	// with striped root fallbacks; lower edges are fine.
	Speculative
)

// String names the scheme as candidate names print it.
func (s Scheme) String() string {
	switch s {
	case Coarse:
		return "coarse"
	case Fine:
		return "fine"
	case Striped1:
		return "striped(1)"
	case Striped:
		return fmt.Sprintf("striped(%d)", StripeFactor)
	default:
		return "speculative"
	}
}

// Side is one index of a graph representation: the placement scheme of
// its root out-edge and the containers of its top and middle edges.
type Side struct {
	Scheme   Scheme
	Top, Mid container.Kind
}

// String renders the side as "scheme/Top-of-Mid".
func (s Side) String() string {
	return fmt.Sprintf("%s/%s-of-%s", s.Scheme, s.Top, s.Mid)
}

// Representation builds a family's decomposition with each side's
// containers and the placement its sides choose. The stick has one side;
// the split and the diamond a src side and then a dst side.
func Representation(family string, sides ...Side) (*decomp.Decomposition, *locks.Placement, error) {
	var d *decomp.Decomposition
	var err error
	switch {
	case family == "stick" && len(sides) == 1:
		d, err = Stick(sides[0].Top, sides[0].Mid)
	case family == "split" && len(sides) == 2:
		d, err = Split(sides[0].Top, sides[0].Mid, sides[1].Top, sides[1].Mid)
	case family == "diamond" && len(sides) == 2:
		d, err = Diamond(sides[0].Top, sides[0].Mid, sides[1].Top, sides[1].Mid)
	default:
		err = fmt.Errorf("graphreps: no %q family with %d sides", family, len(sides))
	}
	if err != nil {
		return nil, nil, err
	}
	p := locks.NewPlacement(d) // fine default
	for i, s := range sides {
		top := d.Root.Out[i]
		switch s.Scheme {
		case Coarse, Striped1:
			p.Place(top, d.Root)
		case Striped:
			p.SetStripes(d.Root, StripeFactor)
			p.Place(top, d.Root, top.Cols...)
		case Speculative:
			p.SetStripes(d.Root, StripeFactor)
			p.PlaceSpeculative(top, d.Root, top.Cols...)
		}
	}
	// A lower edge goes under the root lock when every side above it is
	// coarse: a coarse side's whole index, and the diamond's shared
	// weight cell zw only when both sides are coarse.
	var coarse func(n *decomp.Node) bool
	coarse = func(n *decomp.Node) bool {
		for _, in := range n.In {
			if in.Src == d.Root {
				if sides[slices.Index(d.Root.Out, in)].Scheme != Coarse {
					return false
				}
			} else if !coarse(in.Src) {
				return false
			}
		}
		return true
	}
	for _, e := range d.Edges {
		if e.Src != d.Root && coarse(e.Src) {
			p.Place(e, d.Root)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	return d, p, nil
}

// Synthesize builds the relation of Representation(family, sides...).
func Synthesize(family string, sides ...Side) (*core.Relation, error) {
	d, p, err := Representation(family, sides...)
	if err != nil {
		return nil, err
	}
	return core.Synthesize(d, p)
}

// Variant names one concrete representation: a decomposition family, a
// container assignment and a placement scheme.
type Variant struct {
	// Name is the Figure 5 series label, e.g. "Split 3".
	Name string
	// Family is "stick", "split" or "diamond".
	Family string
	// Description summarizes the containers and placement.
	Description string
	// Build synthesizes a fresh relation for this variant.
	Build func() (*core.Relation, error)
}

func variant(name, family, desc string, sides ...Side) Variant {
	return Variant{Name: name, Family: family, Description: desc,
		Build: func() (*core.Relation, error) { return Synthesize(family, sides...) }}
}

// The sides the named variants are made of.
var (
	coarseHashOfTree   = Side{Coarse, container.HashMap, container.TreeMap}
	stripedCHMOfHash   = Side{Striped, container.ConcurrentHashMap, container.HashMap}
	stripedCHMOfTree   = Side{Striped, container.ConcurrentHashMap, container.TreeMap}
	stripedSkipOfHash  = Side{Striped, container.ConcurrentSkipListMap, container.HashMap}
	speculativeCHMTree = Side{Speculative, container.ConcurrentHashMap, container.TreeMap}
)

// Figure5Variants returns the twelve representative decompositions of
// Figure 5, as described in §6.2, each a point of the autotuner's
// enumeration:
//
//	Stick 1 / Split 1 / Diamond 0 — single coarse lock over a HashMap of
//	    TreeMaps (the coarsely-locked baselines; the paper's text labels
//	    the coarse diamond inconsistently, we call it Diamond 0);
//	Stick 2/3/4 — striped root lock over ConcurrentHashMap of HashMap,
//	    ConcurrentHashMap of TreeMap, ConcurrentSkipListMap of HashMap;
//	Split 2 — striped locks and concurrent maps on the src side, one
//	    coarse lock over the dst side;
//	Split 3/4 — ConcurrentHashMap of HashMap / of TreeMap, striped;
//	Split 5 — ConcurrentSkipListMap of HashMap, striped;
//	Diamond 1/2 — the sharing counterparts of Split 3/5.
func Figure5Variants() []Variant {
	return []Variant{
		variant("Stick 1", "stick", "coarse; HashMap of TreeMap", coarseHashOfTree),
		variant("Stick 2", "stick", "striped root; ConcurrentHashMap of HashMap", stripedCHMOfHash),
		variant("Stick 3", "stick", "striped root; ConcurrentHashMap of TreeMap", stripedCHMOfTree),
		variant("Stick 4", "stick", "striped root; ConcurrentSkipListMap of HashMap", stripedSkipOfHash),
		variant("Split 1", "split", "coarse; HashMap of TreeMap", coarseHashOfTree, coarseHashOfTree),
		variant("Split 2", "split", "striped ConcurrentHashMap src side; coarse dst side", stripedCHMOfHash, coarseHashOfTree),
		variant("Split 3", "split", "striped root; ConcurrentHashMap of HashMap", stripedCHMOfHash, stripedCHMOfHash),
		variant("Split 4", "split", "striped root; ConcurrentHashMap of TreeMap", stripedCHMOfTree, stripedCHMOfTree),
		variant("Split 5", "split", "striped root; ConcurrentSkipListMap of HashMap", stripedSkipOfHash, stripedSkipOfHash),
		variant("Diamond 0", "diamond", "coarse; HashMap of TreeMap", coarseHashOfTree, coarseHashOfTree),
		variant("Diamond 1", "diamond", "striped root; ConcurrentHashMap of HashMap", stripedCHMOfHash, stripedCHMOfHash),
		variant("Diamond 2", "diamond", "striped root; ConcurrentSkipListMap of HashMap", stripedSkipOfHash, stripedSkipOfHash),
	}
}

// SpeculativeDiamond returns the ψ4 variant of Figure 3(c) — a mixture of
// speculatively locked concurrent containers and plain containers — used
// by the speculative-locking ablation.
func SpeculativeDiamond() Variant {
	return variant("Diamond Spec", "diamond", "speculative targets, striped fallback; ConcurrentHashMap of TreeMap",
		speculativeCHMTree, speculativeCHMTree)
}

// LockFreeReadStick returns the stick representation whose containers are
// all concurrency-safe — ConcurrentHashMap of ConcurrentSkipListMap under
// a striped root — making the relation OptimisticCapable: read-only
// batches against it validate epochs instead of taking shared locks. It
// is the representation the optimistic lock-count pass of
// workload.TestDeterministicLockCounts runs on. Its concurrent middle
// container puts it outside the autotuner's enumeration.
func LockFreeReadStick() Variant {
	return variant("Stick LF", "stick", "striped root; ConcurrentHashMap of ConcurrentSkipListMap (optimistic-capable)",
		Side{Striped, container.ConcurrentHashMap, container.ConcurrentSkipListMap})
}

// extraVariants lists the named representations beyond the twelve Figure 5
// series: the speculative ablation and the optimistic-capable stick.
func extraVariants() []Variant {
	return []Variant{SpeculativeDiamond(), LockFreeReadStick()}
}

// VariantByName returns the named variant among Figure5Variants,
// SpeculativeDiamond and LockFreeReadStick, or an error.
func VariantByName(name string) (Variant, error) {
	for _, v := range append(Figure5Variants(), extraVariants()...) {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("graphreps: unknown variant %q", name)
}
