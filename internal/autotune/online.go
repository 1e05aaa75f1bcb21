package autotune

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// This file is the ONLINE half of the autotuner: instead of measuring
// candidates offline under a synthetic workload (autotune.go), it folds
// the counters every relation harvests during real traffic
// (core.Counters) into a read-fraction cost model and, when a better
// container choice emerges — typically upgrading non-concurrent
// containers to their concurrent archetypes, which unlocks the lock-free
// read-only path and Silo-style OCC — triggers a live migration through
// Registry.Migrate. The decision rule (RecommendKinds) is shared by the
// in-process Advisor loop, crstune -live and cmd/crsd's -adapt mode, so
// an offline dump and the online loop always agree.

// Config bounds the online advisor's decision rule.
type Config struct {
	// MinOps is the minimum number of observed operations (reads+writes)
	// on a relation before the advisor will consider migrating it —
	// below it the read fraction is noise.
	MinOps uint64
	// Margin is the relative cost improvement [0,1] the upgraded
	// representation must promise under the observed profile before a
	// migration is recommended.
	Margin float64
}

// DefaultConfig returns the advisor defaults: 1000 observed operations
// and a 10% required improvement.
func DefaultConfig() Config {
	return Config{MinOps: 1000, Margin: 0.10}
}

// UpgradeKind maps a container kind to its concurrency-safe archetype:
// HashMap → ConcurrentHashMap, TreeMap → ConcurrentSkipListMap (same
// iteration order contract, per Figure 1). Kinds that are already safe
// map to themselves; the second result reports whether anything changed.
func UpgradeKind(k container.Kind) (container.Kind, bool) {
	switch k {
	case container.HashMap:
		return container.ConcurrentHashMap, true
	case container.TreeMap:
		return container.ConcurrentSkipListMap, true
	default:
		return k, false
	}
}

// upgradeKindName is UpgradeKind on Kind.String() names, for decision
// passes that only have a harvested snapshot (crstune -live).
func upgradeKindName(name string) (string, bool) {
	switch name {
	case container.HashMap.String():
		return container.ConcurrentHashMap.String(), true
	case container.TreeMap.String():
		return container.ConcurrentSkipListMap.String(), true
	default:
		return name, false
	}
}

// readFraction is the share of a relation's observed operations that
// were reads.
func readFraction(rc core.RelationCounters) float64 {
	if total := rc.Reads + rc.Writes; total > 0 {
		return float64(rc.Reads) / float64(total)
	}
	return 0
}

// pathCost estimates the relative per-operation synchronization cost of
// a representation at read fraction f. Reads on an optimistic-capable
// representation validate epochs instead of locking (§6.2's lock-free
// read path), so they are discounted; writes pay slightly more on
// concurrent containers (CAS traffic) than on their plain counterparts.
// The absolute numbers only matter relative to each other — the advisor
// compares the same workload under two container choices.
func pathCost(optimistic bool, f float64) float64 {
	readCost, writeCost := 1.0, 1.5
	if optimistic {
		readCost, writeCost = 0.25, 1.65
	}
	return f*readCost + (1-f)*writeCost
}

// Recommendation is the advisor's proposal for one relation: upgrade its
// containers to the listed kinds.
type Recommendation struct {
	// Relation names the relation to migrate.
	Relation string
	// From and To list the container kinds of every decomposition edge,
	// in edge-index order, before and after the proposed migration.
	From, To []string
	// ReadFrac is the observed read fraction that justified the upgrade.
	ReadFrac float64
	// CostBefore and CostAfter are the modeled relative per-operation
	// costs under the observed profile.
	CostBefore, CostAfter float64
	// Reason is a one-line human-readable justification.
	Reason string
}

// RecommendKinds is the shared decision rule, computable from a
// harvested snapshot alone: if the relation has seen enough traffic, is
// not optimistic-capable, and upgrading its non-concurrent containers
// would beat the current representation by at least cfg.Margin under the
// observed profile, it returns the proposed kinds. crstune -live runs
// exactly this on an offline dump; Recommend materializes the same
// proposal against a live relation.
func RecommendKinds(rc core.RelationCounters, cfg Config) (*Recommendation, bool) {
	if rc.Reads+rc.Writes < cfg.MinOps {
		return nil, false
	}
	if rc.OptimisticCapable {
		return nil, false
	}
	to := make([]string, len(rc.Containers))
	changed := false
	for i, name := range rc.Containers {
		up, ok := upgradeKindName(name)
		to[i] = up
		changed = changed || ok
	}
	if !changed {
		return nil, false
	}
	f := readFraction(rc)
	before := pathCost(false, f)
	after := pathCost(true, f)
	if after > before*(1-cfg.Margin) {
		return nil, false
	}
	return &Recommendation{
		Relation:   rc.Name,
		From:       append([]string(nil), rc.Containers...),
		To:         to,
		ReadFrac:   f,
		CostBefore: before,
		CostAfter:  after,
		Reason: fmt.Sprintf("read fraction %.2f over %d ops: upgrading containers unlocks the optimistic paths (modeled cost %.2f → %.2f)",
			f, rc.Reads+rc.Writes, before, after),
	}, true
}

// Materialize turns a recommendation into the target representation for
// Registry.Migrate: the relation's current decomposition with upgraded
// container kinds, and its current placement rebased onto it (falling
// back to the fine-grain default if the rebased placement is illegal
// under the new kinds).
func Materialize(r *core.Relation, rec *Recommendation) (*decomp.Decomposition, *locks.Placement, error) {
	d := r.Decomposition()
	d2, err := d.WithContainers(func(e *decomp.Edge) container.Kind {
		up, _ := UpgradeKind(e.Container)
		return up
	})
	if err != nil {
		return nil, nil, fmt.Errorf("autotune: upgrade containers of %s: %w", rec.Relation, err)
	}
	p2, err := locks.Rebase(r.Placement(), d2)
	if err != nil {
		p2 = locks.FineGrained(d2)
		if verr := p2.Validate(); verr != nil {
			return nil, nil, fmt.Errorf("autotune: no legal placement for upgraded %s: %w", rec.Relation, verr)
		}
	}
	return d2, p2, nil
}

// Recommend applies the shared decision rule to a live relation and, on
// a hit, materializes the target representation.
func Recommend(r *core.Relation, rc core.RelationCounters, cfg Config) (*Recommendation, *decomp.Decomposition, *locks.Placement, bool) {
	rec, ok := RecommendKinds(rc, cfg)
	if !ok {
		return nil, nil, nil, false
	}
	d2, p2, err := Materialize(r, rec)
	if err != nil {
		return nil, nil, nil, false
	}
	return rec, d2, p2, true
}

// Advisor is the online representation advisor: a loop that periodically
// harvests a registry's counters, runs the shared decision rule on every
// relation, and triggers live migrations for the hits. cmd/crsd runs one
// behind -adapt.
type Advisor struct {
	// Registry is the registry being advised.
	Registry *core.Registry
	// Config bounds the decision rule; zero value means DefaultConfig.
	Config Config
	// Interval is the harvest period of Start's loop (default 1s).
	Interval time.Duration
	// Source overrides where Step harvests counters from — tests inject
	// deterministic snapshots here. Nil means Registry.Harvest.
	Source func() core.Counters
	// OnMigrate, when non-nil, observes every migration Step triggers
	// (with the error, if it failed).
	OnMigrate func(rec *Recommendation, ev *core.MigrationEvent, err error)

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// cfg returns the effective config (zero value → defaults).
func (a *Advisor) cfg() Config {
	c := a.Config
	if c == (Config{}) {
		c = DefaultConfig()
	}
	return c
}

// Step runs one advisor pass: harvest, decide, migrate. It returns the
// migration events it triggered (nil most passes). Concurrent Steps are
// safe — Registry.Migrate serializes — but pointless.
func (a *Advisor) Step() ([]*core.MigrationEvent, error) {
	cfg := a.cfg()
	var c core.Counters
	if a.Source != nil {
		c = a.Source()
	} else {
		c = a.Registry.Harvest()
	}
	var evs []*core.MigrationEvent
	var firstErr error
	for _, rc := range c.Relations {
		r := a.Registry.RelationByName(rc.Name)
		if r == nil {
			continue
		}
		rec, d2, p2, ok := Recommend(r, rc, cfg)
		if !ok {
			continue
		}
		ev, err := a.Registry.Migrate(rc.Name, core.WithDecomposition(d2), core.WithPlacement(p2))
		if a.OnMigrate != nil {
			a.OnMigrate(rec, ev, err)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		evs = append(evs, ev)
	}
	return evs, firstErr
}

// Start launches the advisor loop in a goroutine; Stop ends it. A
// started advisor must be stopped exactly once.
func (a *Advisor) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stop != nil {
		return
	}
	interval := a.Interval
	if interval <= 0 {
		interval = time.Second
	}
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	stop, done := a.stop, a.done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = a.Step()
			}
		}
	}()
}

// Stop ends a started advisor loop and waits for it to exit. Stopping a
// never-started advisor is a no-op.
func (a *Advisor) Stop() {
	a.mu.Lock()
	stop, done := a.stop, a.done
	a.stop, a.done = nil, nil
	a.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// PickGeneric returns a representation picker for core.WithPicker (the
// public crs.WithAutotune): enumerate adequate structures for the
// specification (§6.1's first phase, at most structLimit per sharing
// mode; ≤ 0 means the enumerator default), pair each with the coarse and
// fine placements, and statically prefer representations that keep the
// optimistic read path available with the fewest containers.
func PickGeneric(structLimit int) func(rel.Spec) (*decomp.Decomposition, *locks.Placement, error) {
	return func(spec rel.Spec) (*decomp.Decomposition, *locks.Placement, error) {
		var bestD *decomp.Decomposition
		var bestP *locks.Placement
		best := math.Inf(1)
		for _, share := range []bool{false, true} {
			ds, err := decomp.Enumerate(spec, decomp.EnumOptions{Share: share, Limit: structLimit})
			if err != nil {
				return nil, nil, err
			}
			for _, d := range ds {
				// Each structure competes twice: with the enumerator's
				// default containers and with their concurrent archetypes
				// (the same UpgradeKind mapping the online advisor applies).
				cands := []*decomp.Decomposition{d}
				if up, uerr := d.WithContainers(func(e *decomp.Edge) container.Kind {
					k, _ := UpgradeKind(e.Container)
					return k
				}); uerr == nil {
					cands = append(cands, up)
				}
				for _, dc := range cands {
					for _, p := range []*locks.Placement{locks.FineGrained(dc), locks.Coarse(dc)} {
						if p.Validate() != nil {
							continue
						}
						s := structScore(dc, p)
						if s < best {
							best, bestD, bestP = s, dc, p
						}
					}
				}
			}
		}
		if bestD == nil {
			return nil, nil, fmt.Errorf("autotune: no legal representation for %s", spec)
		}
		return bestD, bestP, nil
	}
}

// structScore statically ranks a (decomposition, placement) pair with no
// workload information: keeping the lock-free read path available
// dominates, then fewer edges (fewer container hops per operation), then
// fine- over coarse-grain placement (no serialization bottleneck).
func structScore(d *decomp.Decomposition, p *locks.Placement) float64 {
	s := float64(len(d.Edges))
	optimistic := true
	for _, e := range d.Edges {
		if !container.PropertiesOf(e.Container).ConcurrencySafe() {
			optimistic = false
		}
	}
	if !optimistic {
		s += 100
	}
	coarse := true
	for _, r := range p.Rules {
		if r.At != d.Root || r.Speculative {
			coarse = false
			break
		}
	}
	if coarse && len(d.Nodes) > 1 {
		s += 10
	}
	return s
}
