// Package graphreps constructs the directed-graph representations of the
// paper's evaluation (§4.3, §6.2): the stick, split and diamond
// decomposition families of Figure 3, the lock placements ψ1 (coarse), ψ2
// (fine), ψ3 (striped) and ψ4 (speculative), and the twelve named variants
// plotted in Figure 5.
package graphreps

import (
	"fmt"

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

// PlacementScheme selects one of the paper's placement families for the
// top-level edges of a graph decomposition; lower edges are always placed
// at their source (which a single lock per node instance serializes).
type PlacementScheme int

const (
	// Coarse is ψ1: one lock at the root protects everything.
	Coarse PlacementScheme = iota
	// Fine is ψ2: every edge protected by one lock at its source node.
	Fine
	// Striped is ψ3: the top-level edges are striped across StripeFactor
	// locks at the root by their key column; lower edges are fine.
	Striped
	// Speculative is ψ4: top-level edges lock their targets speculatively
	// with striped root fallbacks; lower edges are fine. Requires
	// concurrency-safe top containers with linearizable reads.
	Speculative
)

// String names the scheme after the paper's placements.
func (s PlacementScheme) String() string {
	switch s {
	case Coarse:
		return "coarse(ψ1)"
	case Fine:
		return "fine(ψ2)"
	case Striped:
		return "striped(ψ3)"
	case Speculative:
		return "speculative(ψ4)"
	default:
		return fmt.Sprintf("PlacementScheme(%d)", int(s))
	}
}

// Place builds the placement for a graph decomposition: scheme applied to
// the root's out-edges with the given stripe factor, everything else fine.
func Place(d *decomp.Decomposition, scheme PlacementScheme, stripes int) (*locks.Placement, error) {
	p := locks.NewPlacement(d) // fine default
	switch scheme {
	case Coarse:
		for _, e := range d.Edges {
			p.Place(e, d.Root)
		}
	case Fine:
		// default
	case Striped:
		p.SetStripes(d.Root, stripes)
		for _, e := range d.Root.Out {
			p.Place(e, d.Root, e.Cols...)
		}
	case Speculative:
		p.SetStripes(d.Root, stripes)
		for _, e := range d.Root.Out {
			p.PlaceSpeculative(e, d.Root, e.Cols...)
		}
	default:
		return nil, fmt.Errorf("graphreps: unknown scheme %d", int(scheme))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
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

func mk(name, family, desc string, build func() (*core.Relation, error)) Variant {
	return Variant{Name: name, Family: family, Description: desc, Build: build}
}

func synth(d *decomp.Decomposition, err error, scheme PlacementScheme, stripes int) (*core.Relation, error) {
	if err != nil {
		return nil, err
	}
	p, err := Place(d, scheme, stripes)
	if err != nil {
		return nil, err
	}
	return core.Synthesize(d, p)
}

// Figure5Variants returns the twelve representative decompositions of
// Figure 5, as described in §6.2:
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
	k := StripeFactor
	return []Variant{
		mk("Stick 1", "stick", "coarse; HashMap of TreeMap", func() (*core.Relation, error) {
			d, err := Stick(container.HashMap, container.TreeMap)
			return synth(d, err, Coarse, 1)
		}),
		mk("Stick 2", "stick", "striped root; ConcurrentHashMap of HashMap", func() (*core.Relation, error) {
			d, err := Stick(container.ConcurrentHashMap, container.HashMap)
			return synth(d, err, Striped, k)
		}),
		mk("Stick 3", "stick", "striped root; ConcurrentHashMap of TreeMap", func() (*core.Relation, error) {
			d, err := Stick(container.ConcurrentHashMap, container.TreeMap)
			return synth(d, err, Striped, k)
		}),
		mk("Stick 4", "stick", "striped root; ConcurrentSkipListMap of HashMap", func() (*core.Relation, error) {
			d, err := Stick(container.ConcurrentSkipListMap, container.HashMap)
			return synth(d, err, Striped, k)
		}),
		mk("Split 1", "split", "coarse; HashMap of TreeMap", func() (*core.Relation, error) {
			d, err := Split(container.HashMap, container.TreeMap, container.HashMap, container.TreeMap)
			return synth(d, err, Coarse, 1)
		}),
		mk("Split 2", "split", "striped ConcurrentHashMap src side; coarse dst side", func() (*core.Relation, error) {
			d, err := Split(container.ConcurrentHashMap, container.HashMap, container.HashMap, container.TreeMap)
			if err != nil {
				return nil, err
			}
			p := locks.NewPlacement(d)
			p.SetStripes(d.Root, k)
			p.Place(d.EdgeByName("ρu"), d.Root, "src")
			// dst side under one coarse (root, stripe-0) lock.
			p.Place(d.EdgeByName("ρv"), d.Root)
			p.Place(d.EdgeByName("vy"), d.Root)
			p.Place(d.EdgeByName("yz"), d.Root)
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return core.Synthesize(d, p)
		}),
		mk("Split 3", "split", "striped root; ConcurrentHashMap of HashMap", func() (*core.Relation, error) {
			d, err := Split(container.ConcurrentHashMap, container.HashMap, container.ConcurrentHashMap, container.HashMap)
			return synth(d, err, Striped, k)
		}),
		mk("Split 4", "split", "striped root; ConcurrentHashMap of TreeMap", func() (*core.Relation, error) {
			d, err := Split(container.ConcurrentHashMap, container.TreeMap, container.ConcurrentHashMap, container.TreeMap)
			return synth(d, err, Striped, k)
		}),
		mk("Split 5", "split", "striped root; ConcurrentSkipListMap of HashMap", func() (*core.Relation, error) {
			d, err := Split(container.ConcurrentSkipListMap, container.HashMap, container.ConcurrentSkipListMap, container.HashMap)
			return synth(d, err, Striped, k)
		}),
		mk("Diamond 0", "diamond", "coarse; HashMap of TreeMap", func() (*core.Relation, error) {
			d, err := Diamond(container.HashMap, container.TreeMap, container.HashMap, container.TreeMap)
			return synth(d, err, Coarse, 1)
		}),
		mk("Diamond 1", "diamond", "striped root; ConcurrentHashMap of HashMap", func() (*core.Relation, error) {
			d, err := Diamond(container.ConcurrentHashMap, container.HashMap, container.ConcurrentHashMap, container.HashMap)
			return synth(d, err, Striped, k)
		}),
		mk("Diamond 2", "diamond", "striped root; ConcurrentSkipListMap of HashMap", func() (*core.Relation, error) {
			d, err := Diamond(container.ConcurrentSkipListMap, container.HashMap, container.ConcurrentSkipListMap, container.HashMap)
			return synth(d, err, Striped, k)
		}),
	}
}

// SpeculativeDiamond returns the ψ4 variant of Figure 3(c) — a mixture of
// speculatively locked concurrent containers and plain containers — used
// by the speculative-locking ablation.
func SpeculativeDiamond() Variant {
	return mk("Diamond Spec", "diamond", "speculative targets, striped fallback; ConcurrentHashMap of TreeMap",
		func() (*core.Relation, error) {
			d, err := Diamond(container.ConcurrentHashMap, container.TreeMap, container.ConcurrentHashMap, container.TreeMap)
			return synth(d, err, Speculative, StripeFactor)
		})
}

// LockFreeReadStick returns the stick representation whose containers are
// all concurrency-safe — ConcurrentHashMap of ConcurrentSkipListMap under
// a striped root — making the relation OptimisticCapable: read-only
// batches against it validate epochs instead of taking shared locks. It
// is the representation the optimistic lock-count pass of
// workload.TestDeterministicLockCounts runs on.
func LockFreeReadStick() Variant {
	return mk("Stick LF", "stick", "striped root; ConcurrentHashMap of ConcurrentSkipListMap (optimistic-capable)",
		func() (*core.Relation, error) {
			d, err := Stick(container.ConcurrentHashMap, container.ConcurrentSkipListMap)
			return synth(d, err, Striped, StripeFactor)
		})
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
