package query

import (
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

func dirSpec() rel.Spec {
	return rel.MustSpec([]string{"parent", "name", "child"},
		rel.FD{From: []string{"parent", "name"}, To: []string{"child"}})
}

func graphSpec() rel.Spec {
	return rel.MustSpec([]string{"src", "dst", "weight"},
		rel.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
}

// dcache is the Figure 2(a) decomposition.
func dcache(t *testing.T) *decomp.Decomposition {
	t.Helper()
	d, err := decomp.NewBuilder(dirSpec(), "ρ").
		Edge("ρx", "ρ", "x", []string{"parent"}, container.TreeMap).
		Edge("xy", "x", "y", []string{"name"}, container.TreeMap).
		Edge("ρy", "ρ", "y", []string{"parent", "name"}, container.ConcurrentHashMap).
		Edge("yz", "y", "z", []string{"child"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func stick(t *testing.T) *decomp.Decomposition {
	t.Helper()
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, container.TreeMap).
		Edge("uv", "u", "v", []string{"dst"}, container.TreeMap).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func diamondSpec(t *testing.T) (*decomp.Decomposition, *locks.Placement) {
	t.Helper()
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρx", "ρ", "x", []string{"src"}, container.ConcurrentHashMap).
		Edge("ρy", "ρ", "y", []string{"dst"}, container.ConcurrentHashMap).
		Edge("xz", "x", "z", []string{"dst"}, container.TreeMap).
		Edge("yz", "y", "z", []string{"src"}, container.TreeMap).
		Edge("zw", "z", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := locks.NewPlacement(d)
	p.SetStripes(d.Root, 16)
	p.PlaceSpeculative(d.EdgeByName("ρx"), d.Root, "src")
	p.PlaceSpeculative(d.EdgeByName("ρy"), d.Root, "dst")
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, p
}

// TestPaperPlan2 reproduces §5.2 plan (2): full iteration over the dcache
// relation under a coarse placement should use the direct ρy + yz path
// and print in the paper's notation.
func TestPaperPlan2(t *testing.T) {
	d := dcache(t)
	p := locks.Coarse(d)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(d, p)
	plan, err := pl.PlanQuery(nil, []string{"parent", "name", "child"})
	if err != nil {
		t.Fatal(err)
	}
	got := plan.String()
	want := "" +
		"1: let _ = lock(a, ρ) in\n" +
		"2: let b = scan(scan(a, ρy), yz) in\n" +
		"3: let _ = unlock(a, ρ) in\n" +
		"4: b\n"
	if got != want {
		t.Fatalf("plan (2) mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPaperPlan3 reproduces §5.2 plan (3): the alternative path via
// ρx, xy, yz under the coarse placement must also be enumerated.
func TestPaperPlan3(t *testing.T) {
	d := dcache(t)
	p := locks.Coarse(d)
	pl := NewPlanner(d, p)
	plans, err := pl.EnumerateQueryPlans(nil, []string{"parent", "name", "child"})
	if err != nil {
		t.Fatal(err)
	}
	want := "" +
		"1: let _ = lock(a, ρ) in\n" +
		"2: let b = scan(scan(scan(a, ρx), xy), yz) in\n" +
		"3: let _ = unlock(a, ρ) in\n" +
		"4: b\n"
	for _, plan := range plans {
		if plan.String() == want {
			return
		}
	}
	t.Fatalf("plan (3) not among %d enumerated plans", len(plans))
}

// TestPaperPlan4 reproduces §5.2 plan (4): the same query under the
// fine-grain placement of Figure 2(a) locks each node along the path.
func TestPaperPlan4(t *testing.T) {
	d := dcache(t)
	p := locks.FineGrained(d)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(d, p)
	plans, err := pl.EnumerateQueryPlans(nil, []string{"parent", "name", "child"})
	if err != nil {
		t.Fatal(err)
	}
	want := "" +
		"1: let _ = lock(a, ρ) in\n" +
		"2: let b = scan(a, ρx) in\n" +
		"3: let _ = lock(b, x) in\n" +
		"4: let c = scan(b, xy) in\n" +
		"5: let _ = lock(c, y) in\n" +
		"6: let d = scan(c, yz) in\n" +
		"7: let _ = unlock(c, y) in\n" +
		"8: let _ = unlock(b, x) in\n" +
		"9: let _ = unlock(a, ρ) in\n" +
		"10: d\n"
	for _, plan := range plans {
		if plan.String() == want {
			return
		}
	}
	var all []string
	for _, plan := range plans {
		all = append(all, plan.String())
	}
	t.Fatalf("plan (4) not among enumerated plans:\n%s", strings.Join(all, "\n---\n"))
}

func TestPlannerPrefersLookupPath(t *testing.T) {
	// Directory lookup by (parent, name): the hashtable edge ρy should
	// beat the two-level TreeMap path on cost.
	d := dcache(t)
	pl := NewPlanner(d, locks.Coarse(d))
	plan, err := pl.PlanQuery([]string{"parent", "name"}, []string{"child"})
	if err != nil {
		t.Fatal(err)
	}
	edges := plan.AccessEdges()
	if len(edges) == 0 || edges[0].Name != "ρy" {
		t.Fatalf("expected plan via ρy, got %v", plan)
	}
	for _, s := range plan.Steps {
		if s.Kind == StepLookup && s.Edge.Name == "ρy" {
			return
		}
	}
	t.Fatalf("ρy should be a lookup: %v", plan)
}

func TestPlannerScanWhenUnbound(t *testing.T) {
	// Successors query on the stick: lookup ρu by src, then scan uv.
	d := stick(t)
	pl := NewPlanner(d, locks.FineGrained(d))
	plan, err := pl.PlanQuery([]string{"src"}, []string{"dst", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []StepKind
	for _, s := range plan.Steps {
		if s.Kind != StepLock {
			kinds = append(kinds, s.Kind)
		}
	}
	if len(kinds) != 3 || kinds[0] != StepLookup || kinds[1] != StepScan || kinds[2] != StepScan {
		t.Fatalf("unexpected access kinds %v in plan:\n%s", kinds, plan)
	}
}

func TestPlannerPredecessorsOnStickScansEverything(t *testing.T) {
	// Predecessors on a stick must scan ρu (unbound src) — the structural
	// reason sticks lose on predecessor-heavy workloads (§6.2).
	d := stick(t)
	pl := NewPlanner(d, locks.FineGrained(d))
	plan, err := pl.PlanQuery([]string{"dst"}, []string{"src", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	first := plan.AccessEdges()[0]
	if first.Name != "ρu" {
		t.Fatalf("expected scan from ρu, got %s", first.Name)
	}
	if plan.Steps[1].Kind != StepScan {
		t.Fatalf("ρu access should be a scan: %v", plan.Steps[1].Kind)
	}
	// And it must cost more than the successors query.
	succ, err := pl.PlanQuery([]string{"src"}, []string{"dst", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost <= succ.Cost {
		t.Fatalf("predecessor scan should cost more: %f vs %f", plan.Cost, succ.Cost)
	}
}

func TestSpeculativePlanUsesSpecLookup(t *testing.T) {
	d, p := diamondSpec(t)
	pl := NewPlanner(d, p)
	plan, err := pl.PlanQuery([]string{"src"}, []string{"dst", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range plan.Steps {
		if s.Kind == StepSpecLookup && s.Edge.Name == "ρx" {
			found = true
		}
	}
	if !found {
		t.Fatalf("speculative lookup missing from plan:\n%s", plan)
	}
	if err := plan.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculativeScanTakesAllFallbackStripes(t *testing.T) {
	d, p := diamondSpec(t)
	pl := NewPlanner(d, p)
	plan, err := pl.PlanQuery(nil, []string{"src", "dst", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	// The root lock step must include an All selector (scan over a
	// speculative edge needs every fallback stripe).
	for _, s := range plan.Steps {
		if s.Kind == StepLock && s.Node == d.Root {
			for _, sel := range s.Selectors {
				if sel.All {
					return
				}
			}
		}
	}
	t.Fatalf("expected an All fallback selector at the root:\n%s", plan)
}

func TestPreSortedDetection(t *testing.T) {
	// Fine placement, sorted TreeMap edges with sorted column order: the
	// lock step after the first scan must be pre-sorted (§5.2's elision).
	d := dcache(t)
	pl := NewPlanner(d, locks.FineGrained(d))
	plans, err := pl.EnumerateQueryPlans(nil, []string{"parent", "name", "child"})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range plans {
		if len(plan.AccessEdges()) == 3 { // the ρx,xy,yz path
			for _, s := range plan.Steps {
				if s.Kind == StepLock && s.Node.Name == "x" {
					if !s.PreSorted {
						t.Fatalf("lock(x) after sorted scan should be pre-sorted:\n%s", plan)
					}
					return
				}
			}
		}
	}
	t.Fatal("expected plan not found")
}

func TestPreSortedNotClaimedForHashScan(t *testing.T) {
	// Same shape but with a HashMap top edge: no sort elision.
	d, err := decomp.NewBuilder(dirSpec(), "ρ").
		Edge("ρx", "ρ", "x", []string{"parent"}, container.HashMap).
		Edge("xy", "x", "y", []string{"name"}, container.TreeMap).
		Edge("yz", "y", "z", []string{"child"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(d, locks.FineGrained(d))
	plan, err := pl.PlanQuery(nil, []string{"parent", "name", "child"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Steps {
		if s.Kind == StepLock && s.Node.Name == "x" && s.PreSorted {
			t.Fatalf("hash scan wrongly marked pre-sorted:\n%s", plan)
		}
	}
}

func TestPlanValidateCatchesViolations(t *testing.T) {
	d := dcache(t)
	p := locks.FineGrained(d)
	// Hand-build an invalid plan: access before lock.
	bad := &Plan{Steps: []Step{{Kind: StepScan, Edge: d.EdgeByName("ρx")}}}
	if err := bad.Validate(p); err == nil {
		t.Fatal("expected validation error for unlocked access")
	}
	// Lock steps out of node order.
	bad2 := &Plan{Steps: []Step{
		{Kind: StepLock, Node: d.NodeByName("x"), Mode: locks.Shared},
		{Kind: StepLock, Node: d.Root, Mode: locks.Shared},
	}}
	if err := bad2.Validate(p); err == nil {
		t.Fatal("expected validation error for lock order")
	}
	// Lookup with unbound key columns.
	bad3 := &Plan{Steps: []Step{
		{Kind: StepLock, Node: d.Root, Mode: locks.Shared},
		{Kind: StepLookup, Edge: d.EdgeByName("ρx")},
	}}
	if err := bad3.Validate(p); err == nil {
		t.Fatal("expected validation error for unbound lookup")
	}
}

func TestPlanUnknownColumn(t *testing.T) {
	d := dcache(t)
	pl := NewPlanner(d, locks.Coarse(d))
	if _, err := pl.PlanQuery([]string{"nope"}, nil); err == nil {
		t.Fatal("expected unknown column error")
	}
	if _, err := pl.PlanMutation(OpInsert, []string{"nope"}); err == nil {
		t.Fatal("expected unknown column error")
	}
}

func TestMutationPlanStructure(t *testing.T) {
	d := dcache(t)
	pl := NewPlanner(d, locks.FineGrained(d))
	m, err := pl.PlanMutation(OpInsert, []string{"name", "parent"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerNode) != len(d.Nodes) {
		t.Fatalf("directives for %d nodes, want %d", len(m.PerNode), len(d.Nodes))
	}
	for i, nd := range m.PerNode {
		if nd.Node != d.Nodes[i] {
			t.Fatalf("directive %d out of topo order", i)
		}
	}
	// Root has no access edge; every other node does (no speculative
	// edges here).
	if m.PerNode[0].AccessIn != nil {
		t.Fatal("root should have no access edge")
	}
	for _, nd := range m.PerNode[1:] {
		if nd.AccessIn == nil && len(nd.SpecIns) == 0 {
			t.Fatalf("node %s has no access path", nd.Node.Name)
		}
	}
	if !strings.Contains(m.String(), "insert plan") {
		t.Fatal("String() broken")
	}
}

func TestMutationRemoveRequiresKey(t *testing.T) {
	d := dcache(t)
	pl := NewPlanner(d, locks.Coarse(d))
	if _, err := pl.PlanMutation(OpRemove, []string{"parent"}); err == nil {
		t.Fatal("remove by non-key must be rejected")
	}
	if _, err := pl.PlanMutation(OpRemove, []string{"parent", "name"}); err != nil {
		t.Fatalf("remove by key should plan: %v", err)
	}
}

func TestMutationSpecEdgeCoverage(t *testing.T) {
	d, p := diamondSpec(t)
	pl := NewPlanner(d, p)
	m, err := pl.PlanMutation(OpInsert, []string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	// x and y are located via speculative in-edges.
	var xDir, yDir *NodeDirective
	for i := range m.PerNode {
		switch m.PerNode[i].Node.Name {
		case "x":
			xDir = &m.PerNode[i]
		case "y":
			yDir = &m.PerNode[i]
		}
	}
	if xDir == nil || len(xDir.SpecIns) != 1 || xDir.SpecIns[0].Name != "ρx" {
		t.Fatalf("x directive wrong: %+v", xDir)
	}
	if yDir == nil || len(yDir.SpecIns) != 1 {
		t.Fatalf("y directive wrong: %+v", yDir)
	}
	// Root directive carries the fallback selectors for both edges.
	if len(m.PerNode[0].Selectors) < 2 {
		t.Fatalf("root selectors missing: %+v", m.PerNode[0])
	}
}

func TestMutationRejectsSpecEdgeOutsideKey(t *testing.T) {
	// A speculative edge keyed by a column outside the mutation key is
	// unsupported (documented planner limitation).
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, container.ConcurrentHashMap).
		Edge("uv", "u", "v", []string{"dst"}, container.ConcurrentHashMap).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := locks.NewPlacement(d)
	p.SetStripes(d.Root, 4)
	p.PlaceSpeculative(d.EdgeByName("ρu"), d.Root, "src")
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(d, p)
	if _, err := pl.PlanMutation(OpInsert, []string{"dst", "weight"}); err == nil {
		t.Fatal("expected rejection: spec edge keyed outside bound columns")
	}
}

// TestRemoveSelectorConservatism pins where a remove may take the
// key-selected stripe of an entry-striped edge and where it must take all
// of them: the cascade cleanup observes the emptiness of every dying
// non-root container, never of a root one.
func TestRemoveSelectorConservatism(t *testing.T) {
	stick := func(t *testing.T) *decomp.Decomposition {
		d, err := decomp.NewBuilder(graphSpec(), "ρ").
			Edge("ρu", "ρ", "u", []string{"src"}, container.ConcurrentHashMap).
			Edge("uv", "u", "v", []string{"dst"}, container.ConcurrentHashMap).
			Edge("vw", "v", "w", []string{"weight"}, container.Cell).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	key := []string{"dst", "src"}
	plans := func(t *testing.T, p *locks.Placement) (ins, rem *MutationPlan) {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		pl := NewPlanner(p.D, p)
		ins, err := pl.PlanMutation(OpInsert, key)
		if err != nil {
			t.Fatal(err)
		}
		rem, err = pl.PlanMutation(OpRemove, key)
		if err != nil {
			t.Fatal(err)
		}
		return ins, rem
	}

	t.Run("root", func(t *testing.T) {
		// Entry-level striping at the root: the root never dies, so the
		// remove locks the entry's own stripe, exactly as the insert does.
		d := stick(t)
		p := locks.NewPlacement(d)
		p.SetStripes(d.Root, 8)
		p.Place(d.EdgeByName("ρu"), d.Root, "src")
		ins, rem := plans(t, p)
		sels := rem.PerNode[0].Selectors
		if len(sels) != 1 || sels[0].All || !rel.ColsEqual(sels[0].Cols, []string{"src"}) {
			t.Fatalf("remove over entry-striped root edge should take the src stripe: %+v", sels)
		}
		if rem.Cost != ins.Cost {
			t.Fatalf("remove cost %.2f, insert %.2f", rem.Cost, ins.Cost)
		}
		for _, nd := range rem.PerNode {
			for _, s := range nd.Selectors {
				if s.All {
					t.Fatalf("remove takes all stripes at %s: %+v", nd.Node.Name, nd.Selectors)
				}
			}
		}
	})

	t.Run("non-root", func(t *testing.T) {
		// Entry-level striping at u: a remove that empties u's container
		// observes every entry, so it must take all of u's stripes; the
		// insert still takes the bound one.
		d := stick(t)
		u := d.NodeByName("u")
		p := locks.NewPlacement(d)
		p.SetStripes(u, 4)
		p.Place(d.EdgeByName("uv"), u, "dst")
		ins, rem := plans(t, p)
		sels := rem.PerNode[u.Index].Selectors
		if len(sels) != 1 || !sels[0].All {
			t.Fatalf("remove over entry-striped non-root edge should take all stripes: %+v", sels)
		}
		// u's lock costs the remove all four stripes, the insert one.
		if want := ins.Cost + 3*DefaultCostModel().LockCost; rem.Cost != want {
			t.Fatalf("remove cost %.2f, want %.2f (insert %.2f plus three more of u's stripes)", rem.Cost, want, ins.Cost)
		}
		for _, s := range ins.PerNode[u.Index].Selectors {
			if s.All {
				t.Fatalf("insert should keep the bound selector: %+v", ins.PerNode[u.Index].Selectors)
			}
		}
	})
}

func TestCostModelRanksStripeScans(t *testing.T) {
	// A full scan under a heavily striped placement must cost more than
	// under a single-lock placement (iteration takes all k locks, §4.4).
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, container.ConcurrentHashMap).
		Edge("uv", "u", "v", []string{"dst"}, container.TreeMap).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	coarse := locks.Coarse(d)
	striped := locks.NewPlacement(d)
	striped.SetStripes(d.Root, 1024)
	striped.Place(d.EdgeByName("ρu"), d.Root, "src")
	if err := striped.Validate(); err != nil {
		t.Fatal(err)
	}
	full := []string{"dst", "src", "weight"}
	pc, err := NewPlanner(d, coarse).PlanQuery(nil, full)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanner(d, striped).PlanQuery(nil, full)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Cost <= pc.Cost {
		t.Fatalf("striped full scan should cost more: %f vs %f", ps.Cost, pc.Cost)
	}
}
