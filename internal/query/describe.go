package query

import (
	"fmt"
	"strings"

	"repro/internal/locks"
)

// This file renders the compiled (schema-resolved) form of plans: the
// integer offsets the executor actually runs on, as opposed to the
// paper-notation rendering of Plan.String. cmd/crsexplain prints this so
// the ARCHITECTURE.md worked example can be reproduced from the CLI.

// Describe renders the plan's compiled detail: the bound-column mask, the
// output projection offsets, and per step the resolved column, filter,
// target and stripe-selector offsets.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compiled plan: bound=%v mask=%#x out=%v outIdx=%v cost=%.2f\n",
		p.Bound, p.BoundMask, p.OutCols, p.OutIdx, p.Cost)
	for i := range p.Steps {
		fmt.Fprintf(&b, "  %2d: %s\n", i+1, describeStep(&p.Steps[i]))
	}
	return b.String()
}

// describeStep renders one step's compiled fields.
func describeStep(s *Step) string {
	switch s.Kind {
	case StepLock:
		return fmt.Sprintf("lock %s %v %s%s", s.Node.Name, describeSelectors(s.Selectors), s.Mode, presorted(s.PreSorted))
	case StepLookup:
		return fmt.Sprintf("lookup %s colIdx=%v", s.Edge.Name, s.ColIdx)
	case StepScan:
		return fmt.Sprintf("scan %s colIdx=%v filterPos=%v filterIdx=%v", s.Edge.Name, s.ColIdx, s.FilterPos, s.FilterIdx)
	case StepSpecLookup:
		return fmt.Sprintf("speclookup %s colIdx=%v targetIdx=%v %s", s.Edge.Name, s.ColIdx, s.TargetIdx, s.Mode)
	case StepCount:
		return fmt.Sprintf("count %s (sum container sizes)", s.Edge.Name)
	default:
		return fmt.Sprintf("step kind %d", s.Kind)
	}
}

// presorted annotates the §5.2 sort-elision flag.
func presorted(on bool) string {
	if on {
		return " presorted"
	}
	return ""
}

// describeSelectors renders stripe selectors with their compiled indices.
func describeSelectors(sels []Selector) string {
	if len(sels) == 0 {
		return "[]"
	}
	parts := make([]string, len(sels))
	for i, s := range sels {
		if s.All {
			parts[i] = "all-stripes"
			continue
		}
		if len(s.Cols) == 0 {
			parts[i] = "stripe0"
			continue
		}
		parts[i] = fmt.Sprintf("hash(%s)@%v", strings.Join(s.Cols, ","), s.Idx)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Describe renders the mutation plan's compiled per-node directives.
func (m *MutationPlan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compiled %s plan: bound=%v mask=%#x cost=%.2f\n", m.Kind, m.Bound, m.BoundMask, m.Cost)
	for i := range m.PerNode {
		nd := &m.PerNode[i]
		fmt.Fprintf(&b, "  node %s:", nd.Node.Name)
		if nd.AccessIn != nil {
			verb := "lookup"
			if nd.AccessScan {
				verb = "scan"
			}
			fmt.Fprintf(&b, " %s(%s colIdx=%v", verb, nd.AccessIn.Name, nd.ColIdx)
			if len(nd.FilterPos) > 0 {
				fmt.Fprintf(&b, " filterPos=%v filterIdx=%v", nd.FilterPos, nd.FilterIdx)
			}
			b.WriteString(")")
		}
		for j, e := range nd.SpecIns {
			fmt.Fprintf(&b, " speclookup(%s colIdx=%v targetIdx=%v)", e.Name, nd.SpecColIdx[j], nd.SpecTargetIdx[j])
		}
		if len(nd.Selectors) > 0 {
			fmt.Fprintf(&b, " lock %v %s", describeSelectors(nd.Selectors), locks.Exclusive)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// DescribeRounds renders the plan's compiled round map: the flat,
// pre-classified schedule the batched growing phase walks instead of
// re-inspecting steps (roundmap.go). Gates are lock-order node indices.
func (p *Plan) DescribeRounds() string {
	if p.Prog == nil {
		return "rounds: none compiled\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "round map (%d rounds):\n", len(p.Prog.Rounds))
	for i, rd := range p.Prog.Rounds {
		switch rd.Kind {
		case RoundSteps:
			fmt.Fprintf(&b, "  %2d: steps %d..%d\n", i+1, rd.Lo+1, rd.Hi)
		case RoundLock:
			fmt.Fprintf(&b, "  %2d: lock step %d, gate node %d\n", i+1, rd.Lo+1, rd.Gate)
		case RoundSpec:
			fmt.Fprintf(&b, "  %2d: speculative step %d, gate node %d\n", i+1, rd.Lo+1, rd.Gate)
		}
	}
	return b.String()
}

// DescribeRounds renders the mutation plan's compiled round map: one to
// five pre-classified rounds per growing-phase directive.
func (m *MutationPlan) DescribeRounds() string {
	if m.Prog == nil {
		return "rounds: none compiled\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "round map (%d rounds):\n", len(m.Prog.Rounds))
	for i, rd := range m.Prog.Rounds {
		kind := map[MutationRoundKind]string{
			MRoundSpecIn:   "speculative in-edges",
			MRoundLocate:   "locate via resolved targets",
			MRoundAccess:   "plain access",
			MRoundExist:    "existence check",
			MRoundLock:     "exclusive locks",
			MRoundRootLock: "root lock, shared or recorded until escalated",
			MRoundEscalate: "escalate the root if the batch writes it",
		}[rd.Kind]
		fmt.Fprintf(&b, "  %2d: %s, directive %d, gate node %d\n", i+1, kind, rd.Dir+1, rd.Gate)
	}
	return b.String()
}
