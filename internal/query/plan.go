// Package query implements the concurrent query language of §5.2 of
// "Concurrent Data Representation Synthesis" (PLDI 2012) — the plan
// fragment of Figure 4 — together with the concurrent query planner: plan
// enumeration, a heuristic cost model, and the validity rules that force
// plans to acquire the right locks in the right global order, making every
// compiled operation serializable and deadlock-free by construction.
//
// Plans are static: the planner runs once per operation signature (the set
// of bound columns and requested output columns) and the executor in
// internal/core interprets the resulting step list at run time.
package query

import (
	"fmt"
	"strings"

	"repro/internal/decomp"
	"repro/internal/locks"
)

// StepKind discriminates plan steps.
type StepKind int

const (
	// StepLock acquires physical locks on the instances of a node present
	// in the current query states (the lock(q, v) expression of Figure 4).
	StepLock StepKind = iota
	// StepLookup follows an edge by key (lookup(q, uv)).
	StepLookup
	// StepScan iterates an edge's containers (scan(q, uv)), optionally
	// filtering on columns bound by the operation.
	StepScan
	// StepSpecLookup follows a speculatively placed edge (§4.5): an
	// unlocked read guesses the target, the target's lock is acquired,
	// and the read is re-validated under the lock.
	StepSpecLookup
)

// Selector describes which stripes of a lock step's node must be taken for
// one protected edge (§4.4). If All is set, or the executing state does
// not bind Cols, every stripe is taken — "conservatively take all k
// locks".
type Selector struct {
	Cols []string
	All  bool

	// Idx holds the schema indices of Cols (same order), and Mask their
	// bound-column bitmask: the executor hashes row values at Idx to pick
	// a stripe with no column-name resolution. Filled by the planner.
	Idx  []int
	Mask uint64
}

// Step is one operation of a query plan.
type Step struct {
	Kind StepKind

	// Node and lock details for StepLock.
	Node      *decomp.Node
	Mode      locks.Mode
	Selectors []Selector
	// PreSorted records the §5.2 static analysis: the incoming states are
	// already in instance-key order (they were produced by a sorted-scan
	// whose key order coincides with the lock order), so the executor may
	// skip sorting the lock batch.
	PreSorted bool

	// Edge for StepLookup / StepScan / StepSpecLookup.
	Edge *decomp.Edge
	// FilterCols are bound columns checked against scan results.
	FilterCols []string

	// Compiled (schema-resolved) offsets, filled by the planner so the
	// executor touches no column names at run time.
	//
	// ColIdx maps each position of Edge.Cols to its schema index: lookups
	// gather a container key from a row through it, scans scatter a
	// container key's values into a row through it.
	ColIdx []int
	// FilterPos lists the positions within Edge.Cols that scans check
	// against the current row, and FilterIdx the schema indices those
	// positions compare to (aligned with FilterPos).
	FilterPos []int
	FilterIdx []int
	// TargetIdx holds the schema indices of Edge.Dst.A — the target
	// instance key of speculative lookups and scans.
	TargetIdx []int
}

// Plan is a compiled query: a two-phase sequence of lock and access steps
// (the shrinking phase — releasing every lock in reverse order — is
// implicit in the executor, mirroring the matching unlock sequence the
// paper requires).
type Plan struct {
	// Bound lists the columns the operation's input tuple binds (dom s).
	Bound []string
	// Out lists the columns the query returns.
	Out []string
	// Steps in execution order; lock steps appear in decomposition node
	// order, and every access step is preceded by the lock step covering
	// its edge.
	Steps []Step
	// Cost is the planner's heuristic estimate.
	Cost float64
	// Prog is the compiled round map of the plan's growing phase; its
	// pointer identifies the plan in the batch executor (roundmap.go).
	Prog *RoundProgram

	// Compiled (schema-resolved) boundary data, filled by the planner.
	//
	// BoundMask is the bitmask of the Bound columns — the executor
	// validates and narrows operation inputs with bit tests instead of
	// column-name comparisons.
	BoundMask uint64
	// OutCols is Out sorted and deduplicated, and OutIdx the matching
	// schema indices: result tuples are gathered positionally.
	OutCols []string
	OutIdx  []int
}

// String renders the plan in the paper's let-binding notation, e.g.
//
//	1: let _ = lock(a, ρ) in
//	2: let b = scan(scan(a, ρy), yz) in
//	3: let _ = unlock(a, ρ) in
//	4: b
//
// matching plans (2), (3) and (4) of §5.2.
func (p *Plan) String() string {
	var lines []string
	varName := func(i int) string { return string(rune('a' + i)) }
	cur := 0 // current variable index
	var lockVars []struct {
		v    string
		node string
	}
	expr := "" // pending access expression chain
	flush := func() {
		if expr == "" {
			return
		}
		next := cur + 1
		lines = append(lines, fmt.Sprintf("let %s = %s in", varName(next), expr))
		cur = next
		expr = ""
	}
	for _, s := range p.Steps {
		switch s.Kind {
		case StepLock:
			flush()
			lines = append(lines, fmt.Sprintf("let _ = lock(%s, %s) in", varName(cur), s.Node.Name))
			lockVars = append(lockVars, struct{ v, node string }{varName(cur), s.Node.Name})
		case StepLookup, StepScan, StepSpecLookup:
			op := "lookup"
			if s.Kind == StepScan {
				op = "scan"
			}
			if s.Kind == StepSpecLookup {
				op = "speclookup"
			}
			base := expr
			if base == "" {
				base = varName(cur)
			}
			expr = fmt.Sprintf("%s(%s, %s)", op, base, s.Edge.Name)
		}
	}
	flush()
	result := varName(cur)
	for i := len(lockVars) - 1; i >= 0; i-- {
		lines = append(lines, fmt.Sprintf("let _ = unlock(%s, %s) in", lockVars[i].v, lockVars[i].node))
	}
	lines = append(lines, result)
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "%d: %s\n", i+1, l)
	}
	return b.String()
}

// AccessEdges returns the edges the plan traverses, in order.
func (p *Plan) AccessEdges() []*decomp.Edge {
	var es []*decomp.Edge
	for _, s := range p.Steps {
		if s.Kind != StepLock {
			es = append(es, s.Edge)
		}
	}
	return es
}

// Validate checks the §5.2 well-formedness conditions on a compiled plan:
// lock steps appear in decomposition node order, every access step's
// placement lock (or fallback, for speculative edges) is acquired by an
// earlier lock step or by the speculative step itself, and lookups only
// follow edges whose key columns are bound at that point.
func (p *Plan) Validate(pl *locks.Placement) error {
	lockedNodes := map[*decomp.Node]bool{}
	lastLockIndex := -1
	bound := map[string]bool{}
	for _, c := range p.Bound {
		bound[c] = true
	}
	for i, s := range p.Steps {
		switch s.Kind {
		case StepLock:
			if s.Node.Index < lastLockIndex {
				return fmt.Errorf("query: lock step %d on %s violates node lock order", i, s.Node.Name)
			}
			lastLockIndex = s.Node.Index
			lockedNodes[s.Node] = true
		case StepLookup, StepScan:
			r := pl.RuleFor(s.Edge)
			if r.Speculative {
				// Scanning a speculative edge is allowed (the executor
				// takes every fallback stripe and validates each target);
				// a keyed access must use StepSpecLookup.
				if s.Kind != StepScan {
					return fmt.Errorf("query: step %d accesses speculative edge %s without StepSpecLookup", i, s.Edge.Name)
				}
				if !lockedNodes[r.FallbackAt] {
					return fmt.Errorf("query: step %d scans speculative %s before locking fallback %s", i, s.Edge.Name, r.FallbackAt.Name)
				}
			} else if !lockedNodes[r.At] {
				return fmt.Errorf("query: step %d accesses %s before locking its placement %s", i, s.Edge.Name, r.At.Name)
			}
			if s.Kind == StepLookup {
				for _, c := range s.Edge.Cols {
					if !bound[c] {
						return fmt.Errorf("query: step %d looks up %s with unbound column %q", i, s.Edge.Name, c)
					}
				}
			}
			for _, c := range s.Edge.Cols {
				bound[c] = true
			}
		case StepSpecLookup:
			r := pl.RuleFor(s.Edge)
			if !r.Speculative {
				return fmt.Errorf("query: step %d spec-lookups non-speculative edge %s", i, s.Edge.Name)
			}
			if !lockedNodes[r.FallbackAt] {
				return fmt.Errorf("query: step %d spec-lookup of %s before locking fallback %s", i, s.Edge.Name, r.FallbackAt.Name)
			}
			for _, c := range s.Edge.Cols {
				bound[c] = true
			}
		}
	}
	return nil
}
