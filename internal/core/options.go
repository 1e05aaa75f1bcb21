package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// This file is the options-based synthesis surface: one SynthOption
// vocabulary shared by Registry.Synthesize (create a relation) and
// Registry.Migrate (re-synthesize a live one), so representation choice —
// explicit decomposition + placement, or a picker that derives them from
// the specification — is expressed the same way whether the relation is
// being born or being migrated.

// SynthOption configures a Synthesize or Migrate call.
type SynthOption func(*synthConfig)

// synthConfig is the resolved option set of one Synthesize/Migrate call.
type synthConfig struct {
	d      *decomp.Decomposition
	p      *locks.Placement
	picker func(rel.Spec) (*decomp.Decomposition, *locks.Placement, error)
}

// WithDecomposition selects an explicit decomposition for the relation.
func WithDecomposition(d *decomp.Decomposition) SynthOption {
	return func(c *synthConfig) { c.d = d }
}

// WithPlacement selects an explicit lock placement. Without it the
// fine-grain default placement (locks.NewPlacement) of the resolved
// decomposition is used.
func WithPlacement(p *locks.Placement) SynthOption {
	return func(c *synthConfig) { c.p = p }
}

// WithPicker installs a representation picker: a function deriving the
// decomposition (and optionally the placement) from the specification.
// An explicit WithDecomposition takes precedence; an explicit
// WithPlacement overrides the picker's placement. The public crs package
// wraps the §6.1 autotuner into a picker (crs.WithAutotune).
func WithPicker(pick func(rel.Spec) (*decomp.Decomposition, *locks.Placement, error)) SynthOption {
	return func(c *synthConfig) { c.picker = pick }
}

// SynthesizeSpec compiles a standalone concurrent relation from a
// specification and synthesis options — the options-based analog of the
// positional Synthesize(d, p). Use Registry.Synthesize instead when
// transactions must span several relations.
func SynthesizeSpec(spec rel.Spec, opts ...SynthOption) (*Relation, error) {
	d, p, err := resolveSynth(spec, opts)
	if err != nil {
		return nil, err
	}
	return synthesize(nil, 0, "", d, p)
}

// resolveSynth reduces an option list to a validated (decomposition,
// placement) pair for spec: explicit options win, the picker fills gaps,
// and a missing placement defaults to the fine-grain ψ2.
func resolveSynth(spec rel.Spec, opts []SynthOption) (*decomp.Decomposition, *locks.Placement, error) {
	var c synthConfig
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	d, p := c.d, c.p
	if d == nil && c.picker != nil {
		pd, pp, err := c.picker(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("core: representation picker: %w", err)
		}
		d = pd
		if p == nil {
			p = pp
		}
	}
	if d == nil {
		return nil, nil, fmt.Errorf("core: no representation selected (pass WithDecomposition or a picker option)")
	}
	if !specsEqual(d.Spec, spec) {
		return nil, nil, fmt.Errorf("core: decomposition implements spec %s, want %s", d.Spec, spec)
	}
	if p == nil {
		p = locks.NewPlacement(d)
	}
	return d, p, nil
}

// specsEqual reports whether two specifications are interchangeable for
// synthesis: same columns (same schema indices) and same functional
// dependencies. Spec's canonical rendering covers both.
func specsEqual(a, b rel.Spec) bool { return a.String() == b.String() }
