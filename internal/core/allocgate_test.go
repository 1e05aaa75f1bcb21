package core

import (
	"testing"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// TestSteadyStateBatchZeroAllocs is the CI alloc gate on the round-map
// growing phase: once the relation's pooled buffers are warm, a batch of
// prepared already-present inserts plus a prepared count — locks taken
// and released, round maps walked, members applied, results delivered —
// must not allocate. The prepared/row API is the measured surface because
// it is what the batched benchmark drives; the tuple convenience API
// unions tuples per call and is deliberately outside the gate. Slab
// refills (Txn and Pending handles are chunk-allocated, never reused)
// amortize to under one malloc per hundred batches and vanish in
// AllocsPerRun's integer division; anything that survives it is a real
// per-batch allocation creeping into the steady state.
func TestSteadyStateBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate measures the production build")
	}
	// The suite-wide well-lockedness auditor allocates its fresh-instance
	// map per batch by design; the gate measures the production
	// configuration, where auditing is off.
	SetAudit(false)
	defer SetAudit(true)
	r := stickRel(t, container.HashMap, container.TreeMap, locks.FineGrained)
	for i := 0; i < 64; i++ {
		if _, err := r.Insert(rel.T("src", i%8, "dst", i), rel.T("weight", i)); err != nil {
			t.Fatal(err)
		}
	}
	ins, err := r.PrepareInsert([]string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	cq, err := r.PrepareQuery([]string{"src"}, []string{"dst", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	schema := r.Schema()
	iSrc, _ := schema.IndexOf("src")
	iDst, _ := schema.IndexOf("dst")
	iWeight, _ := schema.IndexOf("weight")
	edge := func(buf []rel.Value, src, dst, w int64) rel.Row {
		row := rel.RowOver(buf, 0)
		row.Set(iSrc, src)
		row.Set(iDst, dst)
		row.Set(iWeight, w)
		return row
	}
	var b1, b2, b3 [3]rel.Value
	row1 := edge(b1[:], 1, 9, 9)   // already present: apply is a no-op
	row2 := edge(b2[:], 2, 10, 10) // already present
	cntRow := rel.RowOver(b3[:], 0)
	cntRow.Set(iSrc, 3)
	var pb1, pb2 *Pending[bool]
	var pi *Pending[int]
	fn := func(tx *Txn) error {
		var err error
		if pb1, err = tx.ExecRow(ins, row1); err != nil {
			return err
		}
		if pb2, err = tx.ExecRow(ins, row2); err != nil {
			return err
		}
		pi, err = tx.CountRow(cq, cntRow)
		return err
	}
	run := func() {
		if err := r.Batch(fn); err != nil {
			t.Fatal(err)
		}
		if pb1.Value() || pb2.Value() {
			t.Fatal("duplicate inserts reported success")
		}
		if pi.Value() != 8 {
			t.Fatalf("count = %d, want 8", pi.Value())
		}
	}
	// Warm the pooled buffer: state pool, arenas, member slots, slabs.
	for i := 0; i < 200; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("steady-state batch allocates %.0f objects per run, want 0", avg)
	}

	// The speculative diamond: every member registers §4.5 requests, and
	// the 36 counts put 36 of them on node x. The batch allocated 2
	// objects while the pooled resolution sorted more than 32 requests
	// with sort.Slice.
	d := diamondRel(t, true)
	for i := 0; i < 64; i++ {
		if _, err := d.Insert(rel.T("src", i%8, "dst", i), rel.T("weight", i)); err != nil {
			t.Fatal(err)
		}
	}
	dIns, err := d.PrepareInsert([]string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	dCount, err := d.PrepareQuery([]string{"src"}, []string{"dst", "weight"})
	if err != nil {
		t.Fatal(err)
	}
	var cb [36][3]rel.Value
	var cnt [36]rel.Row
	for i := range cnt {
		cnt[i] = rel.RowOver(cb[i][:], 0)
		cnt[i].Set(iSrc, int64(i%8))
	}
	var pis [36]*Pending[int]
	dfn := func(tx *Txn) error {
		var err error
		if pb1, err = tx.ExecRow(dIns, row1); err != nil {
			return err
		}
		if pb2, err = tx.ExecRow(dIns, row2); err != nil {
			return err
		}
		for i := range cnt {
			if pis[i], err = tx.CountRow(dCount, cnt[i]); err != nil {
				return err
			}
		}
		return nil
	}
	drun := func() {
		if err := d.Batch(dfn); err != nil {
			t.Fatal(err)
		}
		if pb1.Value() || pb2.Value() {
			t.Fatal("speculative diamond: duplicate inserts reported success")
		}
		for i := range pis {
			if pis[i].Value() != 8 {
				t.Fatalf("speculative diamond: count %d = %d, want 8", i, pis[i].Value())
			}
		}
	}
	for i := 0; i < 200; i++ {
		drun()
	}
	if avg := testing.AllocsPerRun(100, drun); avg != 0 {
		t.Fatalf("speculative diamond: steady-state batch allocates %.0f objects per run, want 0", avg)
	}
}

// TestSteadyStateRegistryBatchZeroAllocs is the same gate on the warm
// Registry.Batch path through prepared rows — the path the engine and
// wire workloads drive — on the users/posts registry with auditing off,
// once per pipeline row and batch shape: a two-relation write-only group
// (2PL), an insert+count group (OCC) and a lone count (read-only). The registry
// pool recycles the transaction's lock set, Txn slab and list backings,
// and each shard lives in its buffer, so a warm batch must not allocate.
func TestSteadyStateRegistryBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate measures the production build")
	}
	SetAudit(false)
	defer SetAudit(true)
	g, users, posts := testRegistry(t)
	if _, err := users.Insert(rel.T("user", 1), rel.T("posts", 0)); err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 2; p++ {
		if _, err := posts.Insert(rel.T("author", 1, "post", p), rel.T("ts", p)); err != nil {
			t.Fatal(err)
		}
	}
	userIns, err := users.PrepareInsert([]string{"user"})
	if err != nil {
		t.Fatal(err)
	}
	postIns, err := posts.PrepareInsert([]string{"author", "post"})
	if err != nil {
		t.Fatal(err)
	}
	userCount, err := users.PrepareQuery([]string{"user"}, []string{"posts"})
	if err != nil {
		t.Fatal(err)
	}
	us, ps := users.Schema(), posts.Schema()
	row := func(s *rel.Schema, kv ...any) rel.Row {
		r := s.NewRow()
		for i := 0; i < len(kv); i += 2 {
			r.Set(s.MustIndex(kv[i].(string)), rel.Value(kv[i+1]))
		}
		return r
	}
	// Already-present rows: every insert's put-if-absent check fails, so
	// the containers stay unchanged and the batch is repeatable.
	u1 := row(us, "user", int64(1), "posts", int64(0))
	p1 := row(ps, "author", int64(1), "post", int64(1), "ts", int64(1))
	p2 := row(ps, "author", int64(1), "post", int64(2), "ts", int64(2))
	uKey := row(us, "user", int64(1))
	cases := []struct {
		name    string
		occ, ro uint64 // the path counter one batch moves
		fn      func(tx *Txn) error
	}{
		{"two-relation 2PL", 0, 0, func(tx *Txn) error {
			if _, err := tx.ExecRow(userIns, u1); err != nil {
				return err
			}
			if _, err := tx.ExecRow(postIns, p1); err != nil {
				return err
			}
			_, err := tx.ExecRow(postIns, p2)
			return err
		}},
		{"insert+count OCC", 1, 0, func(tx *Txn) error {
			if _, err := tx.ExecRow(userIns, u1); err != nil {
				return err
			}
			_, err := tx.CountRow(userCount, uKey)
			return err
		}},
		{"count read-only", 0, 1, func(tx *Txn) error {
			_, err := tx.CountRow(userCount, uKey)
			return err
		}},
	}
	for _, c := range cases {
		run := func() {
			if err := g.Batch(c.fn); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			run()
		}
		before := g.Harvest()
		run()
		after := g.Harvest()
		if occ, ro := after.OCCCommits-before.OCCCommits, after.ReadOnlyOptimistic-before.ReadOnlyOptimistic; occ != c.occ || ro != c.ro {
			t.Fatalf("%s: committed with %d OCC / %d read-only, want %d / %d", c.name, occ, ro, c.occ, c.ro)
		}
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("%s: steady-state registry batch allocates %.0f objects per run, want 0", c.name, avg)
		}
	}
}

// TestSteadyStateSingleOpZeroAllocs is the alloc gate on the single-op
// path: a warm successor count, predecessor count, remove of an absent
// edge and insert of a present one, each through the prepared row API the
// graph benchmark drives, with auditing off, on three representations:
// Figure 5's Split 4 (a ConcurrentHashMap of TreeMaps, the root striped
// 1024 ways), the speculative diamond (§4.5 lookups and candidate sorts
// on every operation) and Split 1 (one coarse root lock, so every lock
// step gathers more selectors than the node has stripes). None of the
// operations changes the relation, so each call's allocations are its
// own. Operation rows are stack arrays, as in the workload adapters: a
// path that lets the caller's row escape to the heap fails the gate. The
// speculative diamond's operations allocated 1–2 objects each while the
// §4.5 candidate sorts used sort.Slice, and Split 1's insert and remove 1
// each while a lock step's stripe buffer could overflow.
func TestSteadyStateSingleOpZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate measures the production build")
	}
	SetAudit(false)
	defer SetAudit(true)
	reps := []struct {
		name string
		r    *Relation
	}{
		{"Split 4", splitRel(t, container.ConcurrentHashMap, container.TreeMap, split4Placement)},
		{"Diamond Spec", diamondRel(t, true)},
		{"Split 1", splitRel(t, container.HashMap, container.TreeMap, locks.Coarse)},
	}
	for _, rep := range reps {
		r := rep.r
		for src := 0; src < 16; src++ {
			for dst := 0; dst < 64; dst += 2 {
				if _, err := r.Insert(rel.T("src", src, "dst", dst), rel.T("weight", src+dst)); err != nil {
					t.Fatal(err)
				}
			}
		}
		succ, err := r.PrepareQuery([]string{"src"}, []string{"dst", "weight"})
		if err != nil {
			t.Fatal(err)
		}
		pred, err := r.PrepareQuery([]string{"dst"}, []string{"src", "weight"})
		if err != nil {
			t.Fatal(err)
		}
		ins, err := r.PrepareInsert([]string{"dst", "src"})
		if err != nil {
			t.Fatal(err)
		}
		rem, err := r.PrepareRemove([]string{"dst", "src"})
		if err != nil {
			t.Fatal(err)
		}
		s := r.Schema()
		iSrc, iDst, iW := s.MustIndex("src"), s.MustIndex("dst"), s.MustIndex("weight")
		cases := []struct {
			name string
			op   func() (int, error)
			want int
		}{
			{"successor count", func() (int, error) {
				var buf [3]rel.Value
				row := rel.RowOver(buf[:], 0)
				row.Set(iSrc, int64(3))
				return succ.CountRow(row)
			}, 32},
			{"predecessor count", func() (int, error) {
				var buf [3]rel.Value
				row := rel.RowOver(buf[:], 0)
				row.Set(iDst, int64(10))
				return pred.CountRow(row)
			}, 16},
			{"absent remove", func() (int, error) {
				var buf [3]rel.Value
				row := rel.RowOver(buf[:], 0)
				row.Set(iSrc, int64(3))
				row.Set(iDst, int64(11))
				ok, err := rem.ExecRow(row)
				return b2i(ok), err
			}, 0},
			{"present insert", func() (int, error) {
				var buf [3]rel.Value
				row := rel.RowOver(buf[:], 0)
				row.Set(iSrc, int64(3))
				row.Set(iDst, int64(10))
				row.Set(iW, int64(13))
				ok, err := ins.ExecRow(row)
				return b2i(ok), err
			}, 0},
		}
		for _, c := range cases {
			run := func() {
				if n, err := c.op(); err != nil || n != c.want {
					t.Fatalf("%s: %s = %d, %v; want %d", rep.name, c.name, n, err, c.want)
				}
			}
			for i := 0; i < 200; i++ {
				run()
			}
			if avg := testing.AllocsPerRun(100, run); avg != 0 {
				t.Errorf("%s: %s: steady-state single op allocates %.0f objects per run, want 0", rep.name, c.name, avg)
			}
		}
	}
}

// TestSteadyStateChurnAllocs is the alloc gate on the writes that change
// the relation: a warm insert-then-remove of one edge on Figure 5's Split
// 4 (a ConcurrentHashMap of TreeMaps, the root striped 1024 ways, every
// lower edge locked at its source), through the prepared row API with
// stack-array rows and auditing off. The edge joins either two nodes that
// already have other edges, so the pair creates and frees its u→w and v→y
// entries and their w and y instances, or two new nodes, so the u and v
// instances come and go as well. Each shape runs with keys below 256,
// whose boxed values the runtime shares, and with keys at 1<<20 and
// beyond, which box once per value. The ceilings are the measured
// counts. They were 2 higher per lock-bearing instance created (w and y,
// plus u and v for new nodes: 10, 14, 20 and 24) while every stripe array
// allocated its identity prefix; since the order word is exact for these
// keys, no identity allocates. A layout change that saves allocations
// tightens them.
func TestSteadyStateChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate measures the production build")
	}
	SetAudit(false)
	defer SetAudit(true)
	cases := []struct {
		name     string
		base     int64
		src, dst int64 // offsets from base
		max      float64
	}{
		{"existing nodes, keys < 256", 0, 3, 10, 8},
		{"existing nodes, keys ≥ 1<<20", 1 << 20, 3, 10, 12},
		{"new nodes, keys < 256", 0, 100, 101, 16},
		{"new nodes, keys ≥ 1<<20", 1 << 20, 100, 101, 20},
	}
	for _, c := range cases {
		r := splitRel(t, container.ConcurrentHashMap, container.TreeMap, split4Placement)
		for src := c.base; src < c.base+16; src++ {
			for dst := c.base; dst < c.base+64; dst++ {
				if src-c.base == c.src && dst-c.base == c.dst {
					continue // the churned edge starts absent
				}
				if _, err := r.Insert(rel.T("src", src, "dst", dst), rel.T("weight", src+dst)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ins, err := r.PrepareInsert([]string{"dst", "src"})
		if err != nil {
			t.Fatal(err)
		}
		rem, err := r.PrepareRemove([]string{"dst", "src"})
		if err != nil {
			t.Fatal(err)
		}
		s := r.Schema()
		iSrc, iDst, iW := s.MustIndex("src"), s.MustIndex("dst"), s.MustIndex("weight")
		src, dst := c.base+c.src, c.base+c.dst
		run := func() {
			var ib, rb [3]rel.Value
			row := rel.RowOver(ib[:], 0)
			row.Set(iSrc, src)
			row.Set(iDst, dst)
			row.Set(iW, int64(7))
			if ok, err := ins.ExecRow(row); err != nil || !ok {
				t.Fatalf("%s: insert = %v, %v; want true", c.name, ok, err)
			}
			key := rel.RowOver(rb[:], 0)
			key.Set(iSrc, src)
			key.Set(iDst, dst)
			if ok, err := rem.ExecRow(key); err != nil || !ok {
				t.Fatalf("%s: remove = %v, %v; want true", c.name, ok, err)
			}
		}
		for i := 0; i < 200; i++ {
			run()
		}
		avg := testing.AllocsPerRun(100, run)
		t.Logf("%s: %.0f allocations per insert-then-remove", c.name, avg)
		if avg > c.max {
			t.Errorf("%s: steady-state churn allocates %.0f objects per insert-then-remove, want ≤ %.0f", c.name, avg, c.max)
		}
	}
}

// split4Placement is Figure 5's Split 4 placement: the root striped 1024
// ways by each top edge's key column, every lower edge locked at its
// source.
func split4Placement(d *decomp.Decomposition) *locks.Placement {
	p := locks.NewPlacement(d).SetStripes(d.Root, 1024)
	for _, e := range d.Root.Out {
		p.Place(e, d.Root, e.Cols...)
	}
	return p
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
