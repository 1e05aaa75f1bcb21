package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

func edgesSpec() rel.Spec {
	return rel.MustSpec([]string{"src", "dst", "weight"},
		rel.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
}

// edgesDecomp builds the canonical graph stick ρ→u→v→w with the given
// top and middle container kinds.
func edgesDecomp(t testing.TB, top, mid container.Kind) *decomp.Decomposition {
	t.Helper()
	d, err := decomp.NewBuilder(edgesSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, top).
		Edge("uv", "u", "v", []string{"dst"}, mid).
		Edge("vw", "v", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// migRegistry returns a registry holding one "edges" relation over
// non-concurrent containers — the starting point of every migration test.
func migRegistry(t testing.TB) (*Registry, *Relation) {
	t.Helper()
	g := NewRegistry()
	d := edgesDecomp(t, container.HashMap, container.TreeMap)
	r, err := g.Synthesize("edges", d.Spec, WithDecomposition(d), WithPlacement(locks.FineGrained(d)))
	if err != nil {
		t.Fatal(err)
	}
	return g, r
}

// sortedState renders the relation's full contents canonically.
func sortedState(t testing.TB, r *Relation) []string {
	t.Helper()
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(snap))
	for i, tu := range snap {
		out[i] = tu.String()
	}
	sort.Strings(out)
	return out
}

func statesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMigrateToDifferentShape migrates between decompositions with
// different node and edge counts and different lock layouts — a
// HashMap/TreeMap stick under fine placement to a split under coarse
// placement — then keeps mutating under the auditor. The relation must
// adopt the new representation's whole compiled layout: a lock table left
// from the old shape indexes the new shape's edges out of range on the
// first write.
func TestMigrateToDifferentShape(t *testing.T) {
	prev := AuditEnabled()
	SetAudit(true)
	defer SetAudit(prev)
	g, r := migRegistry(t)
	ref := NewReference(r.Spec())
	rng := rand.New(rand.NewSource(29))
	op := func(insert bool) {
		s := rel.T("src", int64(rng.Intn(6)), "dst", int64(rng.Intn(6)))
		var got, want bool
		var err error
		if insert {
			w := rel.T("weight", int64(rng.Intn(100)))
			got, err = r.Insert(s, w)
			want, _ = ref.Insert(s, w)
		} else {
			got, err = r.Remove(s)
			want, _ = ref.Remove(s)
		}
		if err != nil || got != want {
			t.Fatalf("insert=%v %v: got %v, %v; reference says %v", insert, s, got, err, want)
		}
	}
	for i := 0; i < 20; i++ {
		op(true)
	}

	d2, err := decomp.NewBuilder(edgesSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, container.HashMap).
		Edge("uw", "u", "w", []string{"dst"}, container.TreeMap).
		Edge("wx", "w", "x", []string{"weight"}, container.Cell).
		Edge("ρv", "ρ", "v", []string{"dst"}, container.HashMap).
		Edge("vy", "v", "y", []string{"src"}, container.TreeMap).
		Edge("yz", "y", "z", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Migrate("edges", WithDecomposition(d2), WithPlacement(locks.Coarse(d2))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		op(true)
		op(false)
	}
	got, err := r.VerifyWellFormed()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Snapshot()
	if !tuplesEqual(got, want) {
		t.Fatalf("contents after migration and mutation:\ngot  %v\nwant %v", got, want)
	}
}

// TestMigrateBasic pins the quiescent protocol end to end: data survives
// byte-for-byte, the optimistic capability flips with the containers, the
// event record is coherent, and the relation keeps serving (and keeps its
// lock-ID slot) afterwards.
func TestMigrateBasic(t *testing.T) {
	g, r := migRegistry(t)
	const n = 100
	for i := int64(0); i < n; i++ {
		if ok, err := r.Insert(rel.T("src", i%10, "dst", i), rel.T("weight", i*i)); err != nil || !ok {
			t.Fatalf("seed insert %d: ok=%v err=%v", i, ok, err)
		}
	}
	before := sortedState(t, r)
	if r.OptimisticCapable() {
		t.Fatal("HashMap/TreeMap relation claims optimistic capability")
	}

	d2 := edgesDecomp(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap)
	ev, err := g.Migrate("edges", WithDecomposition(d2), WithPlacement(locks.FineGrained(d2)))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Relation != "edges" || ev.Backfilled != n {
		t.Fatalf("event = %+v; want relation=edges backfilled=%d", ev, n)
	}
	if ev.From != "HashMap/TreeMap/Cell" || ev.To != "ConcurrentHashMap/ConcurrentSkipListMap/Cell" {
		t.Fatalf("event summaries = %q -> %q", ev.From, ev.To)
	}
	if ev.OptimisticBefore || !ev.OptimisticAfter {
		t.Fatalf("optimistic flags = %v -> %v", ev.OptimisticBefore, ev.OptimisticAfter)
	}
	if !r.OptimisticCapable() {
		t.Fatal("migrated relation is not optimistic-capable")
	}
	if after := sortedState(t, r); !statesEqual(before, after) {
		t.Fatalf("contents changed across migration:\nbefore %v\nafter  %v", before, after)
	}
	if id := r.root.lock(0).ID(); id.Rel != 1 {
		t.Fatalf("migrated root lock carries rel id %d, want 1", id.Rel)
	}
	// The relation still serves all four operations on the new rep.
	if ok, err := r.Insert(rel.T("src", 999, "dst", 999), rel.T("weight", 1)); err != nil || !ok {
		t.Fatalf("post-migration insert: ok=%v err=%v", ok, err)
	}
	if ok, err := r.Remove(rel.T("src", 999, "dst", 999)); err != nil || !ok {
		t.Fatalf("post-migration remove: ok=%v err=%v", ok, err)
	}
	if got, err := r.Query(rel.T("src", 1), "dst"); err != nil || len(got) != 10 {
		t.Fatalf("post-migration query: %d rows err=%v", len(got), err)
	}
	rc := r.Harvest()
	if rc.Migrations != 1 || rc.OptimisticCapable != true {
		t.Fatalf("harvest = %+v", rc)
	}
	c := g.Harvest()
	if len(c.Migrations) != 1 || c.Migrations[0].To != ev.To {
		t.Fatalf("registry harvest migrations = %+v", c.Migrations)
	}
}

// TestMigrateErrors pins the failure modes: unknown relation, a
// decomposition for the wrong spec, and no representation at all — each
// leaves the relation untouched and the tap uninstalled.
func TestMigrateErrors(t *testing.T) {
	g, r := migRegistry(t)
	if _, err := g.Migrate("nope", WithDecomposition(edgesDecomp(t, container.HashMap, container.TreeMap))); err == nil {
		t.Fatal("migrating an unknown relation succeeded")
	}
	other, err := decomp.NewBuilder(usersSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"user"}, container.HashMap).
		Edge("uc", "u", "c", []string{"posts"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Migrate("edges", WithDecomposition(other)); err == nil {
		t.Fatal("wrong-spec decomposition accepted")
	}
	if _, err := g.Migrate("edges"); err == nil {
		t.Fatal("optionless migrate accepted")
	}
	if g.tap.Load() != nil {
		t.Fatal("failed migration left the tap installed")
	}
	if ok, err := r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 3)); err != nil || !ok {
		t.Fatalf("relation broken after failed migrations: ok=%v err=%v", ok, err)
	}
}

// TestMigratePreparedHandles pins the versioned-handle contract: handles
// prepared against the old representation transparently recompile against
// the new one on first use after cutover.
func TestMigratePreparedHandles(t *testing.T) {
	g, r := migRegistry(t)
	q, err := r.PrepareQuery([]string{"src"}, []string{"dst", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := r.PrepareInsert([]string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := r.PrepareRemove([]string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	mkRow := func(src, dst, w int64, full bool) rel.Row {
		row := r.Schema().NewRow()
		row.Set(r.Schema().MustIndex("src"), src)
		row.Set(r.Schema().MustIndex("dst"), dst)
		if full {
			row.Set(r.Schema().MustIndex("weight"), w)
		}
		return row
	}
	if ok, err := ins.ExecRow(mkRow(1, 2, 30, true)); err != nil || !ok {
		t.Fatalf("pre-migration prepared insert: ok=%v err=%v", ok, err)
	}

	d2 := edgesDecomp(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap)
	if _, err := g.Migrate("edges", WithDecomposition(d2)); err != nil {
		t.Fatal(err)
	}

	srcRow := r.Schema().NewRow()
	srcRow.Set(r.Schema().MustIndex("src"), int64(1))
	if n, err := q.CountRow(srcRow); err != nil || n != 1 {
		t.Fatalf("prepared count after migration = %d, err=%v", n, err)
	}
	if ok, err := ins.ExecRow(mkRow(4, 5, 60, true)); err != nil || !ok {
		t.Fatalf("prepared insert after migration: ok=%v err=%v", ok, err)
	}
	if ok, err := rm.ExecRow(mkRow(1, 2, 0, false)); err != nil || !ok {
		t.Fatalf("prepared remove after migration: ok=%v err=%v", ok, err)
	}
	if state := sortedState(t, r); len(state) != 1 {
		t.Fatalf("final state = %v", state)
	}
}

// specPlacement stripes the stick's root by src and places its top edge
// speculatively there: the placement under which the planner refuses an
// insert keyed outside src (query.TestMutationRejectsSpecEdgeOutsideKey).
func specPlacement(d *decomp.Decomposition) *locks.Placement {
	p := locks.NewPlacement(d)
	p.SetStripes(d.Root, 4)
	p.PlaceSpeculative(d.EdgeByName("ρu"), d.Root, "src")
	return p
}

// TestMigrateDropsPlan migrates a relation to a representation whose
// planner refuses a prepared handle's shape, and back. In between, the
// handle must fail with the planner's error and change nothing, alone
// and in a batch; once the shape plans again, the same handle works.
func TestMigrateDropsPlan(t *testing.T) {
	g := NewRegistry()
	d := edgesDecomp(t, container.ConcurrentHashMap, container.ConcurrentHashMap)
	r, err := g.Synthesize("edges", d.Spec, WithDecomposition(d), WithPlacement(locks.Coarse(d)))
	if err != nil {
		t.Fatal(err)
	}
	key := []string{"dst", "weight"}
	ins, err := r.PrepareInsert(key)
	if err != nil {
		t.Fatalf("coarse placement refused the insert: %v", err)
	}
	row := func(src, dst, w int64) rel.Row {
		x := r.Schema().NewRow()
		x.Set(r.Schema().MustIndex("src"), src)
		x.Set(r.Schema().MustIndex("dst"), dst)
		x.Set(r.Schema().MustIndex("weight"), w)
		return x
	}
	if ok, err := ins.ExecRow(row(1, 2, 3)); err != nil || !ok {
		t.Fatalf("insert before migration: ok=%v err=%v", ok, err)
	}

	spec := edgesDecomp(t, container.ConcurrentHashMap, container.ConcurrentHashMap)
	if _, err := g.Migrate("edges", WithDecomposition(spec), WithPlacement(specPlacement(spec))); err != nil {
		t.Fatal(err)
	}
	_, refusal := r.PrepareInsert(key)
	if refusal == nil {
		t.Fatal("speculative placement plans the insert; the test needs a refusal")
	}
	if ok, err := ins.ExecRow(row(4, 5, 6)); err == nil || ok || err.Error() != refusal.Error() {
		t.Fatalf("dropped plan: ok=%v err=%v, want the planner's refusal %q", ok, err, refusal)
	}
	berr := g.Batch(func(tx *Txn) error {
		_, err := tx.ExecRow(ins, row(4, 5, 6))
		return err
	})
	if berr == nil || berr.Error() != refusal.Error() {
		t.Fatalf("dropped plan in a batch: err=%v, want %q", berr, refusal)
	}
	if state := sortedState(t, r); len(state) != 1 {
		t.Fatalf("a refused insert changed the state: %v", state)
	}

	back := edgesDecomp(t, container.ConcurrentHashMap, container.ConcurrentHashMap)
	if _, err := g.Migrate("edges", WithDecomposition(back), WithPlacement(locks.Coarse(back))); err != nil {
		t.Fatal(err)
	}
	if ok, err := ins.ExecRow(row(4, 5, 6)); err != nil || !ok {
		t.Fatalf("insert after migrating back: ok=%v err=%v", ok, err)
	}
	if state := sortedState(t, r); len(state) != 2 {
		t.Fatalf("final state = %v", state)
	}
}

// TestPlanTableFirstUse races first uses of shapes against cutovers:
// goroutines prepare and execute shapes that the representation they run
// under has not compiled yet while migrations swap the plan table. Every
// call must find a working plan, each goroutine's own rows must read back
// exactly, and callers racing on one cold shape must share one compiled
// plan.
func TestPlanTableFirstUse(t *testing.T) {
	g, r := migRegistry(t)
	const G = 4
	type queryShape struct{ bound, out []string }
	queries := []queryShape{
		{[]string{"src"}, []string{"dst"}},
		{[]string{"src"}, []string{"weight"}},
		{[]string{"src"}, []string{"dst", "weight"}},
		{[]string{"dst", "src"}, []string{"weight"}},
		{[]string{"dst", "src"}, []string{"dst", "src", "weight"}},
	}
	var stop atomic.Bool
	var rounds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		src := int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(0); !stop.Load(); n, _ = n+1, rounds.Add(1) {
				ins, err := r.PrepareInsert([]string{"dst", "src"})
				if err != nil {
					t.Errorf("prepare insert: %v", err)
					return
				}
				if ok, err := ins.Exec(rel.T("src", src, "dst", n), rel.T("weight", n)); err != nil || !ok {
					t.Errorf("insert: ok=%v err=%v", ok, err)
					return
				}
				for _, qs := range queries {
					q, err := r.PrepareQuery(qs.bound, qs.out)
					if err != nil {
						t.Errorf("prepare query %v: %v", qs, err)
						return
					}
					s := rel.T("src", src)
					if len(qs.bound) == 2 {
						s = rel.T("src", src, "dst", n)
					}
					rows, err := q.Exec(s)
					if err != nil || len(rows) == 0 {
						t.Errorf("query %v: %d rows, err=%v", qs, len(rows), err)
						return
					}
					if c, err := q.Count(s); err != nil || c != 1 {
						t.Errorf("count %v = %d, err=%v, want 1", qs, c, err)
						return
					}
				}
				rm, err := r.PrepareRemove([]string{"dst", "src"})
				if err != nil {
					t.Errorf("prepare remove: %v", err)
					return
				}
				if ok, err := rm.Exec(rel.T("src", src, "dst", n)); err != nil || !ok {
					t.Errorf("remove: ok=%v err=%v", ok, err)
					return
				}
			}
		}()
	}
	reps := []struct{ top, mid container.Kind }{
		{container.ConcurrentHashMap, container.ConcurrentSkipListMap},
		{container.HashMap, container.TreeMap},
	}
	for n := 0; n < 6 && !t.Failed(); n++ {
		// Let every goroutine run a round against the current
		// representation before the next cutover.
		for want := rounds.Load() + G; rounds.Load() < want && !t.Failed(); {
			runtime.Gosched()
		}
		d := edgesDecomp(t, reps[n%2].top, reps[n%2].mid)
		if _, err := g.Migrate("edges", WithDecomposition(d)); err != nil {
			t.Errorf("migration %d: %v", n, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if state := sortedState(t, r); len(state) != 0 {
		t.Fatalf("state after balanced traffic = %v", state)
	}

	// One cold shape, many first users: one compiled plan.
	cold := shape{kind: mQuery, bound: r.schema.Mask([]string{"weight"}), out: r.schema.Mask([]string{"src"})}
	plans := make([]*opPlan, G)
	start := make(chan struct{})
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r.lockRep()
			defer r.unlockRep()
			plans[i], _ = r.planFor(cold)
		}()
	}
	close(start)
	wg.Wait()
	for _, p := range plans {
		if p == nil || p != plans[0] {
			t.Fatalf("first users of one shape got different plans: %v", plans)
		}
	}
}

// TestMigrateMidTrafficDifferential is the deterministic cutover test:
// the stage hook freezes the migration after backfill, a burst of
// concurrent mutations (standalone ops AND batched transactions) lands in
// the tap, and after release the migrated relation must equal an oracle
// that saw every acknowledged mutation — i.e. catch-up replay loses
// nothing and duplicates nothing.
func TestMigrateMidTrafficDifferential(t *testing.T) {
	g, r := migRegistry(t)
	oracle := map[string]string{} // "src|dst" -> full tuple rendering
	key := func(src, dst int64) string { return fmt.Sprintf("%d|%d", src, dst) }
	ins := func(src, dst, w int64) {
		t.Helper()
		ok, err := r.Insert(rel.T("src", src, "dst", dst), rel.T("weight", w))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			oracle[key(src, dst)] = rel.T("src", src, "dst", dst, "weight", w).String()
		}
	}
	rm := func(src, dst int64) {
		t.Helper()
		ok, err := r.Remove(rel.T("src", src, "dst", dst))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			delete(oracle, key(src, dst))
		}
	}
	for i := int64(0); i < 50; i++ {
		ins(i%5, i, i)
	}

	paused := make(chan struct{})
	release := make(chan struct{})
	migrateStageHook = func(stage string) {
		if stage == "backfilled" {
			close(paused)
			<-release
		}
	}
	defer func() { migrateStageHook = nil }()

	d2 := edgesDecomp(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap)
	done := make(chan error, 1)
	go func() {
		_, err := g.Migrate("edges", WithDecomposition(d2))
		done <- err
	}()
	<-paused

	// Concurrent traffic while the migration is frozen mid-flight: the
	// backfill already ran, so every one of these must reach the new
	// representation via the tap. Overwrite half the snapshot (remove +
	// re-insert with a new weight), delete some, add fresh rows — via
	// standalone ops, single-relation batches and a registry batch.
	for i := int64(0); i < 20; i++ {
		rm(i%5, i)
		ins(i%5, i, 1000+i)
	}
	for i := int64(20); i < 30; i++ {
		rm(i%5, i)
	}
	err := r.Batch(func(tx *Txn) error {
		if _, err := tx.Insert(rel.T("src", 77, "dst", 1), rel.T("weight", 7)); err != nil {
			return err
		}
		_, err := tx.Remove(rel.T("src", 4, "dst", 49))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle[key(77, 1)] = rel.T("src", 77, "dst", 1, "weight", 7).String()
	delete(oracle, key(4, 49))
	err = g.Batch(func(tx *Txn) error {
		if _, err := tx.InsertInto(r, rel.T("src", 88, "dst", 2), rel.T("weight", 8)); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle[key(88, 2)] = rel.T("src", 88, "dst", 2, "weight", 8).String()
	// Reads during the frozen migration still serve from the old rep.
	if rows, err := r.Query(rel.T("src", 77), "dst"); err != nil || len(rows) != 1 {
		t.Fatalf("mid-migration query = %d rows err=%v", len(rows), err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	want := make([]string, 0, len(oracle))
	for _, s := range oracle {
		want = append(want, s)
	}
	sort.Strings(want)
	if got := sortedState(t, r); !statesEqual(got, want) {
		t.Fatalf("migrated state diverges from oracle:\ngot  %v\nwant %v", got, want)
	}
	if !r.OptimisticCapable() {
		t.Fatal("migration did not complete to the concurrent representation")
	}
}

// TestMigrateConcurrentStress hammers the relation from several mutator
// goroutines (disjoint key ownership: goroutine i owns dst ≡ i mod G)
// while the representation migrates back and forth between the
// non-concurrent and concurrent container families. Run under -race this
// is the latch/tap memory-safety proof; the final differential check
// proves zero acknowledged operations were lost or duplicated.
func TestMigrateConcurrentStress(t *testing.T) {
	g, r := migRegistry(t)
	const G = 4
	const rounds = 6

	var stop atomic.Bool
	var wg sync.WaitGroup
	type ownState struct {
		m map[int64]int64 // dst -> weight currently acked as present
	}
	owned := make([]ownState, G)
	for i := range owned {
		owned[i] = ownState{m: map[int64]int64{}}
	}
	for i := 0; i < G; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := owned[i]
			for n := int64(0); !stop.Load(); n++ {
				dst := int64(i) + G*(n%50)
				switch n % 3 {
				case 0:
					w := n
					if ok, err := r.Insert(rel.T("src", i, "dst", dst), rel.T("weight", w)); err != nil {
						t.Errorf("insert: %v", err)
						return
					} else if ok {
						st.m[dst] = w
					}
				case 1:
					if _, err := r.Query(rel.T("src", i), "dst", "weight"); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				case 2:
					if ok, err := r.Remove(rel.T("src", i, "dst", dst)); err != nil {
						t.Errorf("remove: %v", err)
						return
					} else if ok {
						delete(st.m, dst)
					}
				}
			}
		}()
	}

	reps := []struct{ top, mid container.Kind }{
		{container.ConcurrentHashMap, container.ConcurrentSkipListMap},
		{container.HashMap, container.TreeMap},
	}
	for n := 0; n < rounds; n++ {
		d := edgesDecomp(t, reps[n%2].top, reps[n%2].mid)
		if _, err := g.Migrate("edges", WithDecomposition(d)); err != nil {
			t.Errorf("migration %d: %v", n, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	want := make([]string, 0)
	for i := 0; i < G; i++ {
		for dst, w := range owned[i].m {
			want = append(want, rel.T("src", int64(i), "dst", dst, "weight", w).String())
		}
	}
	sort.Strings(want)
	if got := sortedState(t, r); !statesEqual(got, want) {
		t.Fatalf("state after %d migrations diverges (%d rows, want %d)", rounds, len(got), len(want))
	}
	if rc := r.Harvest(); rc.Migrations != rounds {
		t.Fatalf("harvested migrations = %d, want %d", rc.Migrations, rounds)
	}
}

// TestMigrateCountersHarvest pins the counter plumbing the advisor
// consumes: standalone ops, batches (pessimistic and read-only
// optimistic) and the registry aggregate all land in Harvest snapshots.
func TestMigrateCountersHarvest(t *testing.T) {
	g, r := migRegistry(t)
	for i := int64(0); i < 10; i++ {
		if _, err := r.Insert(rel.T("src", i, "dst", i), rel.T("weight", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Query(rel.T("src", 1), "dst"); err != nil {
		t.Fatal(err)
	}
	err := r.Batch(func(tx *Txn) error {
		if _, err := tx.Count(rel.T("src", 1)); err != nil {
			return err
		}
		_, err := tx.Insert(rel.T("src", 50, "dst", 50), rel.T("weight", 50))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := r.Harvest()
	if rc.Writes < 11 {
		t.Fatalf("writes = %d, want ≥ 11", rc.Writes)
	}
	if rc.Reads < 2 {
		t.Fatalf("reads = %d, want ≥ 2", rc.Reads)
	}
	if rc.Batches != 1 || rc.LocksAcquired == 0 {
		t.Fatalf("batches = %d locks = %d", rc.Batches, rc.LocksAcquired)
	}
	if rc.Name != "edges" || len(rc.Containers) != 3 || rc.OptimisticCapable {
		t.Fatalf("representation summary = %+v", rc)
	}

	// After migrating to concurrent containers, a read-only batch commits
	// lock-free and the counter says so.
	d2 := edgesDecomp(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap)
	if _, err := g.Migrate("edges", WithDecomposition(d2)); err != nil {
		t.Fatal(err)
	}
	err = r.BatchReadOnly(func(tx *Txn) error {
		_, err := tx.Count(rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rc = r.Harvest()
	if rc.ReadOnlyOptimistic != 1 {
		t.Fatalf("ro_optimistic = %d, want 1", rc.ReadOnlyOptimistic)
	}
	c := g.Harvest()
	if len(c.Relations) != 1 || c.Batches != rc.Batches {
		t.Fatalf("registry aggregate = %+v", c)
	}
}
