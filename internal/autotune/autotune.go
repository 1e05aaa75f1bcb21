// Package autotune implements the autotuner of §6.1: given a concurrent
// benchmark (a training workload), it enumerates legal representations —
// decomposition structure × lock placement × striping factor × container
// selection, with container choices constrained by the placement exactly
// as the paper prescribes ("if the chosen lock placement serializes access
// to an edge, the autotuner picks a non-concurrent container, whereas if
// concurrent access … is permitted … it chooses a concurrency-safe
// container") — and ranks them by measured throughput.
//
// Enumeration is per index side (graphreps.Side): the stick has one
// side, the split and the diamond have a src side and a dst side that may
// be configured independently (§6.2's Split 2 mixes a striped concurrent
// side with a coarse side). Each side chooses a placement scheme — coarse
// (one root lock), fine (per-node locks), striped with factor 1 or 1024,
// and for the diamond speculative targets — and the container pair the
// scheme permits. The named Figure 5 variants are points of this space,
// built by the same graphreps.Synthesize.
package autotune

import (
	"fmt"
	"sort"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/graphreps"
	"repro/internal/query"
	"repro/internal/workload"
)

// Candidate is one representation the autotuner can measure.
type Candidate struct {
	Name        string
	Family      string
	Description string
	Build       func() (*core.Relation, error)
}

var nonConcurrent = []container.Kind{container.HashMap, container.TreeMap}
var concurrent = []container.Kind{container.ConcurrentHashMap, container.ConcurrentSkipListMap}

// sides enumerates the legal sides of one index. Mid-level containers
// sit under a single per-instance lock in every scheme, so they are
// always non-concurrent; top-level containers must be concurrency-safe
// exactly when the scheme admits concurrent access to them (striped with
// k>1, speculative).
func sides(allowSpec bool) []graphreps.Side {
	var out []graphreps.Side
	add := func(s graphreps.Scheme, tops []container.Kind) {
		for _, top := range tops {
			for _, mid := range nonConcurrent {
				out = append(out, graphreps.Side{Scheme: s, Top: top, Mid: mid})
			}
		}
	}
	add(graphreps.Coarse, nonConcurrent)
	add(graphreps.Fine, nonConcurrent)
	add(graphreps.Striped1, nonConcurrent)
	add(graphreps.Striped, concurrent)
	if allowSpec {
		add(graphreps.Speculative, concurrent)
	}
	return out
}

// candidate names a family's representation by its sides and builds it
// through graphreps.Synthesize, as the named Figure 5 variants are.
func candidate(family string, ss ...graphreps.Side) Candidate {
	c := Candidate{Family: family, Build: func() (*core.Relation, error) {
		return graphreps.Synthesize(family, ss...)
	}}
	if len(ss) == 1 {
		c.Name = fmt.Sprintf("%s[%s]", family, ss[0])
		c.Description = ss[0].String()
	} else {
		c.Name = fmt.Sprintf("%s[%s|%s]", family, ss[0], ss[1])
		c.Description = fmt.Sprintf("src side %s, dst side %s", ss[0], ss[1])
	}
	return c
}

// EnumerateGraph enumerates every legal representation of the directed
// graph relation over the three Figure 3 structures: 16 sticks, 256
// splits and 400 diamonds, 672 in all (TestEnumerationCount). The
// paper's run produced 448 variants; this per-side enumeration also
// admits asymmetric splits and diamonds, speculative diamond sides among
// them, so its space is larger.
func EnumerateGraph() []Candidate {
	var out []Candidate
	for _, s := range sides(false) {
		out = append(out, candidate("stick", s))
	}
	for _, l := range sides(false) {
		for _, r := range sides(false) {
			out = append(out, candidate("split", l, r))
		}
	}
	for _, l := range sides(true) {
		for _, r := range sides(true) {
			out = append(out, candidate("diamond", l, r))
		}
	}
	return out
}

// Scored is a candidate with its tuning measurements.
type Scored struct {
	Candidate
	// Static is the planner's cost estimate for the training mix (lower
	// is better); NaN when not computed.
	Static float64
	// Result is the measured training run (zero when only statically
	// ranked).
	Result workload.Result
}

// StaticCost estimates a mix-weighted plan cost for a built relation: the
// §5.2 cost model applied to the four benchmark operations, weighted by
// the mix. It is the "static" half of the paper's static + dynamic search
// (§8).
func StaticCost(r *core.Relation, mix workload.Mix) (float64, error) {
	pl := query.NewPlanner(r.Decomposition(), r.Placement())
	succ, err := pl.PlanQuery([]string{"src"}, []string{"dst", "weight"})
	if err != nil {
		return 0, err
	}
	pred, err := pl.PlanQuery([]string{"dst"}, []string{"src", "weight"})
	if err != nil {
		return 0, err
	}
	ins, err := pl.PlanMutation(query.OpInsert, []string{"dst", "src"})
	if err != nil {
		return 0, err
	}
	rem, err := pl.PlanMutation(query.OpRemove, []string{"dst", "src"})
	if err != nil {
		return 0, err
	}
	// The insert also runs its existence query.
	insCost := ins.Cost
	exist, err := pl.PlanQuery([]string{"dst", "src"}, r.Spec().Columns)
	if err == nil {
		insCost += exist.Cost
	}
	total := float64(mix.Successors)*succ.Cost +
		float64(mix.Predecessors)*pred.Cost +
		float64(mix.Inserts)*insCost +
		float64(mix.Removes)*rem.Cost
	return total / 100, nil
}

// Options tunes the search.
type Options struct {
	// TopStatic, when positive, statically ranks all candidates with the
	// cost model first and only measures the cheapest TopStatic of them —
	// the static/dynamic split of §8.
	TopStatic int
}

// Tune measures every distinct candidate under the training
// configuration and returns them sorted by descending throughput.
// Candidates that fail to build (illegal combinations) are skipped, and
// so is a candidate that builds the same representation — decomposition
// and placement — as an earlier one: each representation is measured
// once, under its first name. EnumerateGraph's 672 candidates are 412
// representations.
func Tune(cands []Candidate, cfg workload.Config, opts Options) ([]Scored, error) {
	scored := make([]Scored, 0, len(cands))
	seen := map[string]bool{}
	for _, c := range cands {
		r, err := c.Build()
		if err != nil {
			continue
		}
		k := representationKey(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		s := Scored{Candidate: c}
		if sc, err := StaticCost(r, cfg.Mix); err == nil {
			s.Static = sc
		}
		scored = append(scored, s)
	}
	if len(scored) == 0 {
		return nil, fmt.Errorf("autotune: no buildable candidates")
	}
	if opts.TopStatic > 0 && opts.TopStatic < len(scored) {
		sort.Slice(scored, func(i, j int) bool { return scored[i].Static < scored[j].Static })
		scored = scored[:opts.TopStatic]
	}
	for i := range scored {
		r, err := scored[i].Build()
		if err != nil {
			return nil, err
		}
		scored[i].Result = workload.Run(workload.MustRelationGraph(r), cfg)
	}
	sort.Slice(scored, func(i, j int) bool {
		return scored[i].Result.Throughput > scored[j].Result.Throughput
	})
	return scored, nil
}

// representationKey identifies the representation a relation was built
// with: its decomposition and its placement.
func representationKey(r *core.Relation) string {
	return r.Decomposition().String() + "\x00" + r.Placement().String()
}
