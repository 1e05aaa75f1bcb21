package autotune

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestEnumerationCount(t *testing.T) {
	cands := EnumerateGraph()
	byFamily := map[string]int{}
	for _, c := range cands {
		byFamily[c.Family]++
	}
	// Per side: coarse(4) + fine(4) + striped1(4) + striped1024(4) = 16,
	// plus speculative(4) on diamond sides = 20.
	if byFamily["stick"] != 16 {
		t.Errorf("stick variants = %d, want 16", byFamily["stick"])
	}
	if byFamily["split"] != 256 {
		t.Errorf("split variants = %d, want 256", byFamily["split"])
	}
	if byFamily["diamond"] != 400 {
		t.Errorf("diamond variants = %d, want 400", byFamily["diamond"])
	}
	if len(cands) != 672 {
		t.Errorf("total = %d, want 672 (paper's enumeration: 448)", len(cands))
	}
	// Names unique.
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Name] {
			t.Fatalf("duplicate candidate name %s", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestAllCandidatesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range EnumerateGraph() {
		r, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if r == nil {
			t.Fatalf("%s: nil relation", c.Name)
		}
	}
}

func TestStaticCostOrdersPredecessorPlans(t *testing.T) {
	// For a predecessor-heavy mix, a stick must cost more than a split
	// statically (sticks scan the whole top level for predecessors).
	cands := EnumerateGraph()
	var stick, split *Candidate
	for i := range cands {
		if cands[i].Name == "stick[striped(1024)/ConcurrentHashMap-of-TreeMap]" {
			stick = &cands[i]
		}
		if cands[i].Name == "split[striped(1024)/ConcurrentHashMap-of-TreeMap|striped(1024)/ConcurrentHashMap-of-TreeMap]" {
			split = &cands[i]
		}
	}
	if stick == nil || split == nil {
		var names []string
		for _, c := range cands[:20] {
			names = append(names, c.Name)
		}
		t.Fatalf("expected candidates not found; sample names: %s", strings.Join(names, ", "))
	}
	mix := workload.Mix{Successors: 45, Predecessors: 45, Inserts: 9, Removes: 1}
	rs, err := stick.Build()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := StaticCost(rs, mix)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := split.Build()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := StaticCost(rp, mix)
	if err != nil {
		t.Fatal(err)
	}
	if cs <= cp {
		t.Fatalf("stick static cost %f should exceed split %f on predecessor-heavy mix", cs, cp)
	}
}

func TestTuneSmallSample(t *testing.T) {
	// Tune a handful of candidates with a tiny training run; ranking must
	// be well formed (sorted by throughput, all measured).
	cands := EnumerateGraph()[:6]
	cfg := workload.Config{Threads: 2, OpsPerThread: 300, KeySpace: 32, Seed: 1,
		Mix: workload.Figure5Mixes()[0]}
	scored, err := Tune(cands, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) != 6 {
		t.Fatalf("scored %d, want 6", len(scored))
	}
	for i := 1; i < len(scored); i++ {
		if scored[i].Result.Throughput > scored[i-1].Result.Throughput {
			t.Fatal("ranking not sorted")
		}
	}
	for _, s := range scored {
		if s.Result.Ops == 0 {
			t.Fatalf("%s not measured", s.Name)
		}
	}
}

// TestTuneMeasuresRepresentationsOnce: a candidate that builds the same
// decomposition and placement as an earlier one is not measured again,
// and the enumeration's 672 candidates are 412 representations.
func TestTuneMeasuresRepresentationsOnce(t *testing.T) {
	cands := EnumerateGraph()
	seen := map[string]bool{}
	for _, c := range cands {
		r, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		seen[representationKey(r)] = true
	}
	if len(seen) != 412 {
		t.Fatalf("%d candidates build %d representations, want 412", len(cands), len(seen))
	}
	dup := cands[0]
	dup.Name = "same representation, second name"
	cfg := workload.Config{Threads: 1, OpsPerThread: 200, KeySpace: 16, Seed: 1,
		Mix: workload.Figure5Mixes()[0]}
	scored, err := Tune([]Candidate{cands[0], dup, cands[1], cands[0]}, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range scored {
		names[s.Name] = true
	}
	if len(scored) != 2 || !names[cands[0].Name] || !names[cands[1].Name] {
		t.Fatalf("measured %v, want %s and %s once each", names, cands[0].Name, cands[1].Name)
	}
}

func TestTuneTopStaticFilter(t *testing.T) {
	cands := EnumerateGraph()[:10]
	cfg := workload.Config{Threads: 1, OpsPerThread: 200, KeySpace: 16, Seed: 1,
		Mix: workload.Figure5Mixes()[0]}
	scored, err := Tune(cands, cfg, Options{TopStatic: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) != 3 {
		t.Fatalf("TopStatic=3 but measured %d", len(scored))
	}
}
