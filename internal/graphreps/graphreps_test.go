package graphreps

import (
	"testing"

	"repro/internal/container"
	"repro/internal/query"
	"repro/internal/rel"
)

func TestFigure5VariantNames(t *testing.T) {
	vs := Figure5Variants()
	if len(vs) != 12 {
		t.Fatalf("Figure 5 has 12 decompositions, got %d", len(vs))
	}
	want := []string{"Stick 1", "Stick 2", "Stick 3", "Stick 4",
		"Split 1", "Split 2", "Split 3", "Split 4", "Split 5",
		"Diamond 0", "Diamond 1", "Diamond 2"}
	for i, v := range vs {
		if v.Name != want[i] {
			t.Errorf("variant %d = %s, want %s", i, v.Name, want[i])
		}
	}
}

func TestAllVariantsSynthesizeAndWork(t *testing.T) {
	vs := append(Figure5Variants(), extraVariants()...)
	for _, v := range vs {
		t.Run(v.Name, func(t *testing.T) {
			r, err := v.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			// Smoke the four benchmark operations.
			if ok, err := r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 3)); err != nil || !ok {
				t.Fatalf("insert: %v %v", ok, err)
			}
			if ok, err := r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 9)); err != nil || ok {
				t.Fatalf("dup insert: %v %v", ok, err)
			}
			succ, err := r.Query(rel.T("src", 1), "dst", "weight")
			if err != nil || len(succ) != 1 {
				t.Fatalf("succ: %v %v", succ, err)
			}
			pred, err := r.Query(rel.T("dst", 2), "src", "weight")
			if err != nil || len(pred) != 1 {
				t.Fatalf("pred: %v %v", pred, err)
			}
			if ok, err := r.Remove(rel.T("src", 1, "dst", 2)); err != nil || !ok {
				t.Fatalf("remove: %v %v", ok, err)
			}
			if _, err := r.VerifyWellFormed(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVariantByName(t *testing.T) {
	if _, err := VariantByName("Split 4"); err != nil {
		t.Fatal(err)
	}
	if _, err := VariantByName("Diamond Spec"); err != nil {
		t.Fatal(err)
	}
	if _, err := VariantByName("nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestFamilies(t *testing.T) {
	counts := map[string]int{}
	for _, v := range Figure5Variants() {
		counts[v.Family]++
	}
	if counts["stick"] != 4 || counts["split"] != 5 || counts["diamond"] != 3 {
		t.Fatalf("family counts = %v", counts)
	}
}

func TestPlacementSchemes(t *testing.T) {
	d, err := Stick(container.ConcurrentHashMap, container.TreeMap)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []PlacementScheme{Coarse, Fine, Striped} {
		if _, err := Place(d, s, 8); err != nil {
			t.Errorf("scheme %v: %v", s, err)
		}
	}
	// Speculative requires concurrency-safe tops: OK on CHM stick.
	if _, err := Place(d, Speculative, 8); err != nil {
		t.Errorf("speculative on CHM stick: %v", err)
	}
	// Speculative on a HashMap stick must fail validation.
	dh, err := Stick(container.HashMap, container.TreeMap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(dh, Speculative, 8); err == nil {
		t.Error("speculative over HashMap accepted")
	}
	// Striped over a HashMap top (entry-level striping) must also fail.
	if _, err := Place(dh, Striped, 8); err == nil {
		t.Error("entry striping over HashMap accepted")
	}
	if Coarse.String() == "" || PlacementScheme(99).String() == "" {
		t.Error("scheme names broken")
	}
}

func TestSplitAsymmetry(t *testing.T) {
	// Split allows different containers per side.
	d, err := Split(container.ConcurrentHashMap, container.HashMap, container.ConcurrentSkipListMap, container.TreeMap)
	if err != nil {
		t.Fatal(err)
	}
	if d.EdgeByName("ρu").Container != container.ConcurrentHashMap ||
		d.EdgeByName("ρv").Container != container.ConcurrentSkipListMap {
		t.Fatal("per-side containers not respected")
	}
}

// TestRemovePlansKeySelectRootStripes sweeps every named representation:
// a remove bound to the key locks only the root stripes its key selects
// (the root instance never dies, so no remove observes a root container's
// emptiness), and its plan carries no all-stripe cost anywhere.
func TestRemovePlansKeySelectRootStripes(t *testing.T) {
	for _, v := range append(Figure5Variants(), extraVariants()...) {
		t.Run(v.Name, func(t *testing.T) {
			r, err := v.Build()
			if err != nil {
				t.Fatal(err)
			}
			d := r.Decomposition()
			m, err := query.NewPlanner(d, r.Placement()).PlanMutation(query.OpRemove, []string{"dst", "src"})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range m.PerNode[d.Root.Index].Selectors {
				if s.All {
					t.Fatalf("remove takes every root stripe: %+v", m.PerNode[d.Root.Index].Selectors)
				}
			}
			if m.AllStripePortion != 0 {
				t.Fatalf("remove AllStripePortion = %.2f, want 0", m.AllStripePortion)
			}
		})
	}
}
