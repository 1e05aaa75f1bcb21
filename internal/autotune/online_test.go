package autotune

import (
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
	"repro/internal/workload"
)

func onlineSpec() rel.Spec {
	return rel.MustSpec([]string{"src", "dst", "weight"},
		rel.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
}

func onlineDecomp(t testing.TB, top, mid container.Kind) *decomp.Decomposition {
	t.Helper()
	d, err := decomp.NewBuilder(onlineSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, top).
		Edge("uv", "u", "v", []string{"dst"}, mid).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRecommendKinds pins the shared decision rule on snapshots alone:
// too little traffic → no; already optimistic → no; read-heavy
// non-concurrent → upgrade to the concurrent archetypes.
func TestRecommendKinds(t *testing.T) {
	cfg := DefaultConfig()
	base := core.RelationCounters{
		Name:       "edges",
		Containers: []string{"HashMap", "TreeMap", "Cell"},
		Reads:      9000,
		Writes:     1000,
	}
	if _, ok := RecommendKinds(base, cfg); !ok {
		t.Fatal("read-heavy non-concurrent relation not recommended for upgrade")
	}
	rec, _ := RecommendKinds(base, cfg)
	want := []string{"ConcurrentHashMap", "ConcurrentSkipListMap", "Cell"}
	for i, k := range want {
		if rec.To[i] != k {
			t.Fatalf("To = %v, want %v", rec.To, want)
		}
	}
	if rec.ReadFrac != 0.9 || rec.CostAfter >= rec.CostBefore {
		t.Fatalf("rec = %+v", rec)
	}

	cold := base
	cold.Reads, cold.Writes = 10, 1
	if _, ok := RecommendKinds(cold, cfg); ok {
		t.Fatal("recommended below MinOps")
	}
	done := base
	done.OptimisticCapable = true
	done.Containers = want
	if _, ok := RecommendKinds(done, cfg); ok {
		t.Fatal("recommended an already-optimistic relation")
	}
	writeHeavy := base
	writeHeavy.Reads, writeHeavy.Writes = 100, 9900
	if _, ok := RecommendKinds(writeHeavy, cfg); ok {
		t.Fatal("recommended a write-heavy relation (no modeled win)")
	}
}

// TestUpgradeKind pins the Figure 1 archetype mapping.
func TestUpgradeKind(t *testing.T) {
	cases := []struct {
		in, out container.Kind
		changed bool
	}{
		{container.HashMap, container.ConcurrentHashMap, true},
		{container.TreeMap, container.ConcurrentSkipListMap, true},
		{container.ConcurrentHashMap, container.ConcurrentHashMap, false},
		{container.Cell, container.Cell, false},
		{container.CopyOnWriteMap, container.CopyOnWriteMap, false},
	}
	for _, c := range cases {
		got, changed := UpgradeKind(c.in)
		if got != c.out || changed != c.changed {
			t.Fatalf("UpgradeKind(%s) = %s,%v; want %s,%v", c.in, got, changed, c.out, c.changed)
		}
	}
}

// TestAdvisorStepTriggersMigration is the deterministic advisor-trigger
// test: counters are injected through the Source hook (no real traffic
// needed), one Step migrates the relation to the concurrent family, and
// a second Step — now harvesting the real, migrated counters — is a
// no-op.
func TestAdvisorStepTriggersMigration(t *testing.T) {
	g := core.NewRegistry()
	d := onlineDecomp(t, container.HashMap, container.TreeMap)
	r, err := g.Synthesize("edges", d.Spec, core.WithDecomposition(d), core.WithPlacement(locks.FineGrained(d)))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if _, err := r.Insert(rel.T("src", i%4, "dst", i), rel.T("weight", i)); err != nil {
			t.Fatal(err)
		}
	}

	injected := true
	var migrated []*Recommendation
	adv := &Advisor{
		Registry: g,
		Source: func() core.Counters {
			c := g.Harvest()
			if injected {
				for i := range c.Relations {
					c.Relations[i].Reads = 9500
					c.Relations[i].Writes = 500
				}
			}
			return c
		},
		OnMigrate: func(rec *Recommendation, ev *core.MigrationEvent, err error) {
			if err != nil {
				t.Errorf("advisor migration failed: %v", err)
			}
			migrated = append(migrated, rec)
		},
	}
	evs, err := adv.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || len(migrated) != 1 {
		t.Fatalf("Step triggered %d migrations (%d observed)", len(evs), len(migrated))
	}
	if !evs[0].OptimisticAfter || evs[0].Backfilled != 20 {
		t.Fatalf("event = %+v", evs[0])
	}
	if !r.OptimisticCapable() {
		t.Fatal("advisor migration did not unlock the optimistic paths")
	}

	injected = false
	evs, err = adv.Step()
	if err != nil || len(evs) != 0 {
		t.Fatalf("second Step = %d migrations, err=%v", len(evs), err)
	}
	// Even with the hot profile re-injected, the relation is already
	// optimistic-capable — still a no-op.
	injected = true
	if evs, _ := adv.Step(); len(evs) != 0 {
		t.Fatal("advisor re-migrated an already-optimistic relation")
	}
}

// TestMaterializeRebase pins that a tuned placement (striped root)
// survives the container upgrade via locks.Rebase instead of collapsing
// to the fine-grain default.
func TestMaterializeRebase(t *testing.T) {
	g := core.NewRegistry()
	d := onlineDecomp(t, container.ConcurrentHashMap, container.TreeMap)
	p := locks.NewPlacement(d)
	p.SetStripes(d.Root, 64)
	p.Place(d.EdgeByName("ρu"), d.Root, "src")
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := g.Synthesize("edges", d.Spec, core.WithDecomposition(d), core.WithPlacement(p))
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recommendation{Relation: "edges"}
	d2, p2, err := Materialize(r, rec)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Edges[1].Container != container.ConcurrentSkipListMap {
		t.Fatalf("upgraded kinds = %s/%s", d2.Edges[0].Container, d2.Edges[1].Container)
	}
	if p2.StripeCount(d2.Root) != 64 {
		t.Fatalf("rebased stripe count = %d, want 64", p2.StripeCount(d2.Root))
	}
	if r := p2.RuleFor(d2.Edges[0]); r.At != d2.Root || len(r.StripeBy) != 1 || r.StripeBy[0] != "src" {
		t.Fatalf("rebased rule = %+v", r)
	}
	if _, err := g.Migrate("edges", core.WithDecomposition(d2), core.WithPlacement(p2)); err != nil {
		t.Fatalf("migrating to rebased placement: %v", err)
	}
}

// TestMigrateLockCounts pins what live migration buys, as exact
// single-threaded lock counts (seed 1, 3000 read-heavy social composites
// over 64 users): on the pessimistic boot representation (HashMap roots,
// TreeMap middles) every group locks, and no read-only group can run
// optimistically; after Materialize + Migrate upgrade every relation — the
// hop the online advisor makes — the identical workload on the same
// registry runs its read-only groups lock-free, two orders of magnitude
// fewer acquisitions. A failing count means the scheduler or the upgrade
// changed; the change that moves one updates the constant and says why.
func TestMigrateLockCounts(t *testing.T) {
	s, err := workload.NewSocialPessimistic()
	if err != nil {
		t.Fatal(err)
	}
	pass := func(name string, requested, acquired, roBatches int64) {
		t.Helper()
		c := &workload.LockCounts{}
		s.Counts = c
		workload.RunSocial(s, workload.Config{Threads: 1, OpsPerThread: 3000, KeySpace: 64, Seed: 1}, workload.ReadHeavySocialMix())
		if got := [3]int64{c.Requested.Load(), c.Acquired.Load(), c.ReadOnlyBatches.Load()}; got != [3]int64{requested, acquired, roBatches} {
			t.Errorf("%s: requested/acquired/read-only batches = %v, want %v", name, got, [3]int64{requested, acquired, roBatches})
		}
		if c.ReadOnlyAcquired.Load() != 0 || c.ValidationRetries.Load() != 0 || c.Fallbacks.Load() != 0 {
			t.Errorf("%s: read-only batches took %d locks, %d retries, %d fallbacks; want 0",
				name, c.ReadOnlyAcquired.Load(), c.ValidationRetries.Load(), c.Fallbacks.Load())
		}
	}
	pass("pre-migration", 11902, 11796, 0)
	for _, r := range []*core.Relation{s.Users, s.Posts, s.Follows} {
		d2, p2, err := Materialize(r, &Recommendation{Relation: r.Name()})
		if err != nil {
			t.Fatalf("materialize %s: %v", r.Name(), err)
		}
		if _, err := s.Reg.Migrate(r.Name(), core.WithDecomposition(d2), core.WithPlacement(p2)); err != nil {
			t.Fatalf("migrate %s: %v", r.Name(), err)
		}
	}
	pass("post-migration", 128, 120, 2852)
}

// TestPickGeneric pins the WithAutotune picker: from the bare graph
// specification it selects a legal representation that keeps the
// optimistic read path available, and the picker plugs into the
// options-based synthesis entry points.
func TestPickGeneric(t *testing.T) {
	pick := PickGeneric(16)
	d, p, err := pick(onlineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Edges {
		if !container.PropertiesOf(e.Container).ConcurrencySafe() {
			t.Fatalf("picker chose non-concurrent container %s for %s", e.Container, e.Name)
		}
	}
	r, err := core.SynthesizeSpec(onlineSpec(), core.WithPicker(pick))
	if err != nil {
		t.Fatal(err)
	}
	if !r.OptimisticCapable() {
		t.Fatal("picked representation is not optimistic-capable")
	}
	if ok, err := r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 3)); err != nil || !ok {
		t.Fatalf("picked relation insert: ok=%v err=%v", ok, err)
	}
	if n, err := r.Query(rel.T("src", 1), "dst"); err != nil || len(n) != 1 {
		t.Fatalf("picked relation query: %d rows err=%v", len(n), err)
	}
}
