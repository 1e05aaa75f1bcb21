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
	for _, s := range []Scheme{Coarse, Fine, Striped1, Striped, Speculative} {
		if _, _, err := Representation("stick", Side{s, container.ConcurrentHashMap, container.TreeMap}); err != nil {
			t.Errorf("scheme %v on a ConcurrentHashMap stick: %v", s, err)
		}
	}
	// Speculative and entry striping need a concurrency-safe top.
	for _, s := range []Scheme{Speculative, Striped} {
		if _, _, err := Representation("stick", Side{s, container.HashMap, container.TreeMap}); err == nil {
			t.Errorf("%v over HashMap accepted", s)
		}
	}
	side := Side{Coarse, container.HashMap, container.TreeMap}
	if _, _, err := Representation("stick", side, side); err == nil {
		t.Error("two-sided stick accepted")
	}
	if _, _, err := Representation("ring", side); err == nil {
		t.Error("unknown family accepted")
	}
	if got := (Side{Striped, container.ConcurrentHashMap, container.TreeMap}).String(); got != "striped(1024)/ConcurrentHashMap-of-TreeMap" {
		t.Errorf("side name = %q", got)
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
// emptiness), and takes all stripes at no node.
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
			for _, nd := range m.PerNode {
				for _, s := range nd.Selectors {
					if s.All {
						t.Fatalf("remove takes every stripe at %s: %+v", nd.Node.Name, nd.Selectors)
					}
				}
			}
		})
	}
}
