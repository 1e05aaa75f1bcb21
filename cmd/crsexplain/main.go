// Command crsexplain dumps what the compiler synthesized for a named
// representation: the decomposition (with node types A ▷ B), the lock
// placement, and the query/mutation plans in the paper's let-notation
// (Figure 4). With -dot it also emits Graphviz for the decomposition,
// reproducing the diagrams of Figures 2 and 3. With -compiled it prints
// the schema-resolved form of each plan — the integer column offsets,
// filter positions and stripe-selector indices the executor actually
// runs on. With -batch it executes a sample batched transaction (an
// insert pair, a move, and grouped counts) with lock-schedule tracing
// and prints the coalesced lock set of every scheduler round, so the
// ARCHITECTURE.md worked example can be reproduced from the CLI.
// With -registry it builds a two-relation registry (users + posts),
// executes a cross-relation Registry.Batch with tracing, and prints the
// coalesced lock schedule in the registry-wide (relation id, node, inst,
// stripe) order, contrasted with the same members issued individually.
// With -occ it builds the same registry over concurrency-safe containers
// and runs the canonical MIXED group — insert a follows-style edge, count
// another relation — showing the Silo-style commit: exclusive locks on
// the written relation only, the read relation covered by validated
// epoch records instead of shared locks.
// With -rounds it prints each benchmark operation's compiled round map —
// the flat, pre-classified lock schedule (lock rounds, speculative
// rounds, step runs with their lock-order gates) that the batched
// growing phase walks instead of re-classifying plan steps per sweep.
// The lock order section lists every lock-bearing node's order-word
// layout; with -instance it also prints the share of each node's
// instances whose lock identity is an exact word, so the relations that
// still fall back to prefix strings show.
// With -migrate it narrates one live representation migration end to
// end: a pessimistic relation accumulates a read-heavy counter profile,
// the online advisor's decision rule recommends the concurrent container
// archetypes, Registry.Migrate re-synthesizes and cuts over, and the
// same read-only batch is traced before (locks) and after (lock-free).
//
// Usage:
//
//	crsexplain [-variant "Split 4"|dcache] [-dot] [-plans] [-compiled] [-rounds] [-batch] [-registry] [-occ] [-migrate]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	crs "repro"
	"repro/internal/autotune"
	"repro/internal/locks"
	"repro/internal/rel"
)

func main() {
	variant := flag.String("variant", "Split 4", `variant name ("Stick 1".."Diamond 2", "Diamond Spec"), or "dcache" for the Figure 2 directory tree`)
	dot := flag.Bool("dot", false, "emit Graphviz DOT for the decomposition")
	instance := flag.Bool("instance", false, "populate sample data and emit the instance diagram (Figure 2(b) style)")
	plans := flag.Bool("plans", true, "print the plans for the benchmark operations")
	compiled := flag.Bool("compiled", false, "print the schema-resolved (integer-offset) form of each plan")
	batch := flag.Bool("batch", false, "run a sample batched transaction and print its coalesced lock schedule")
	registry := flag.Bool("registry", false, "build a two-relation registry and print a cross-relation batch's coalesced lock schedule")
	occ := flag.Bool("occ", false, "run a mixed batch on optimistic-capable relations and print its Silo-style OCC trace (write locks + validated read epochs)")
	rounds := flag.Bool("rounds", false, "print each benchmark operation's compiled round map — the flat lock schedule the batched growing phase walks")
	migrate := flag.Bool("migrate", false, "narrate one live representation migration: counter harvest, advisor verdict, side synthesis, backfill, catch-up, cutover, and the before/after lock traces")
	flag.Parse()

	if *migrate {
		if err := printMigrate(); err != nil {
			fatal(err)
		}
		return
	}
	if *occ {
		if err := printOCC(); err != nil {
			fatal(err)
		}
		return
	}
	if *registry {
		if err := printRegistry(); err != nil {
			fatal(err)
		}
		return
	}

	r, err := buildRelation(*variant)
	if err != nil {
		fatal(err)
	}
	d := r.Decomposition()
	fmt.Printf("=== %s ===\n\n%s\n%s\n", *variant, d, r.Placement())
	fmt.Println("lock order: topological node order, then instance key, then stripe:")
	for _, n := range d.Nodes {
		fmt.Printf("  %d: %s (stripes: %d)\n", n.Index, n.Name, r.Placement().StripeCount(n))
	}
	printWordLayout(r)

	if *plans {
		if *variant == "dcache" {
			printPlan(r, "full iteration", nil, []string{"child", "name", "parent"})
			printPlan(r, "path lookup (parent,name)", []string{"name", "parent"}, []string{"child"})
			printPlan(r, "directory listing (parent)", []string{"parent"}, []string{"child", "name"})
			printMutations(r, []string{"name", "parent"})
		} else {
			printPlan(r, "find successors", []string{"src"}, []string{"dst", "weight"})
			printPlan(r, "find predecessors", []string{"dst"}, []string{"src", "weight"})
			printMutations(r, []string{"dst", "src"})
		}
	}
	if *compiled {
		if *variant == "dcache" {
			printCompiled(r, "path lookup (parent,name)", []string{"name", "parent"}, []string{"child"}, []string{"name", "parent"})
		} else {
			printCompiled(r, "find successors", []string{"src"}, []string{"dst", "weight"}, []string{"dst", "src"})
		}
	}
	if *rounds {
		if err := printRounds(r, *variant); err != nil {
			fatal(err)
		}
	}
	if *batch {
		if err := printBatch(r, *variant); err != nil {
			fatal(err)
		}
	}
	if *dot {
		fmt.Println("\n--- DOT ---")
		fmt.Println(d.ToDOT(*variant))
	}
	if *instance {
		if err := populateSample(r, *variant); err != nil {
			fatal(err)
		}
		fmt.Println("\n--- instance diagram (cf. Figure 2(b)) ---")
		fmt.Println(r.InstanceDOT(*variant + " instance"))
		printExactShare(r)
	}
}

// printWordLayout prints how the lock order word of each lock-bearing
// node lays out its identity: after the relation id, node and arity, one
// field per bound column, and the values each field holds exactly (see
// rel.FieldCode). An identity that is not exact — a float, a string or an
// integer out of range in some column, or seven or more columns — also
// keeps a prefix string, which orders the locks whose words tie.
func printWordLayout(r *crs.Relation) {
	d, lockNodes := r.Decomposition(), r.Placement().LockNodes()
	fmt.Println("lock order words (relation id, node, arity, then one field per bound column):")
	for _, n := range d.Nodes {
		if !lockNodes[n.Index] {
			continue
		}
		bits := locks.WordFieldBits(len(n.A))
		switch {
		case len(n.A) == 0:
			fmt.Printf("  %s: no bound column; always exact\n", n.Name)
		case bits == 0:
			fmt.Printf("  %s %v: %d bound columns, no field; never exact\n", n.Name, n.A, len(n.A))
		default:
			lim := rel.FieldIntLimit(uint(bits))
			fmt.Printf("  %s %v: %d × %d bits; exact for nil, bools and integers in [%d, %d]\n", n.Name, n.A, len(n.A), bits, -lim, lim)
		}
	}
}

// printExactShare prints, per lock-bearing node, the share of its
// instances whose lock identity is an exact order word; the rest fall
// back to prefix strings.
func printExactShare(r *crs.Relation) {
	exact, total := r.LockIdentityCounts()
	fmt.Println("exact lock identities (the rest keep a prefix string):")
	for _, n := range r.Decomposition().Nodes {
		if total[n.Index] > 0 {
			fmt.Printf("  %s: %d of %d (%.0f %%)\n", n.Name, exact[n.Index], total[n.Index], 100*float64(exact[n.Index])/float64(total[n.Index]))
		}
	}
}

// populateSample inserts the paper's running-example data: the Figure 2(b)
// directory entries for dcache, three §2-style edges otherwise.
func populateSample(r *crs.Relation, variant string) error {
	if variant == "dcache" {
		for _, e := range []struct {
			p int
			n string
			c int
		}{{1, "a", 2}, {2, "b", 3}, {2, "c", 4}} {
			if _, err := r.Insert(crs.T("parent", e.p, "name", e.n), crs.T("child", e.c)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range [][3]int{{1, 2, 42}, {1, 3, 7}, {2, 3, 9}} {
		if _, err := r.Insert(crs.T("src", e[0], "dst", e[1]), crs.T("weight", e[2])); err != nil {
			return err
		}
	}
	return nil
}

// printCompiled prints the schema-resolved query, count and mutation
// plans for one signature.
func printCompiled(r *crs.Relation, title string, bound, out, key []string) {
	fmt.Printf("--- compiled plans (schema: columns %v get indices 0..%d) ---\n",
		r.Schema().Columns(), r.Schema().Len()-1)
	if s, err := r.DescribeQuery(bound, out); err == nil {
		fmt.Printf("%s:\n%s", title, s)
	}
	if s, err := r.DescribeCount(bound); err == nil {
		fmt.Printf("count pushdown (%v):\n%s", bound, s)
	}
	if s, err := r.DescribeInsert(key); err == nil {
		fmt.Printf("insert (key %v):\n%s", key, s)
	}
	if s, err := r.DescribeRemove(key); err == nil {
		fmt.Printf("remove (key %v):\n%s", key, s)
	}
	fmt.Println()
}

// printRounds prints the compiled round map of every benchmark operation:
// the flat, pre-classified schedule (lock rounds, speculative rounds,
// step runs) the batched growing phase walks with an integer cursor
// instead of re-classifying plan steps per sweep — §5's
// synchronization-is-compiled thesis extended to batched transactions.
func printRounds(r *crs.Relation, variant string) error {
	fmt.Println("--- compiled round maps (batched growing-phase schedules) ---")
	type q struct {
		title      string
		bound, out []string
	}
	var queries []q
	var mutCols []string
	if variant == "dcache" {
		queries = []q{
			{"path lookup (parent,name)", []string{"name", "parent"}, []string{"child"}},
			{"directory listing (parent)", []string{"parent"}, []string{"child", "name"}},
		}
		mutCols = []string{"name", "parent"}
	} else {
		queries = []q{
			{"find successors", []string{"src"}, []string{"dst", "weight"}},
			{"find predecessors", []string{"dst"}, []string{"src", "weight"}},
		}
		mutCols = []string{"dst", "src"}
	}
	for _, query := range queries {
		s, err := r.DescribeQueryRounds(query.bound, query.out)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n%s", query.title, s)
	}
	if s, err := r.DescribeCountRounds(queries[0].bound); err == nil {
		fmt.Printf("count (%v):\n%s", queries[0].bound, s)
	}
	s, err := r.DescribeInsertRounds(mutCols)
	if err != nil {
		return err
	}
	fmt.Printf("insert (key %v):\n%s", mutCols, s)
	if s, err := r.DescribeRemoveRounds(mutCols); err == nil {
		fmt.Printf("remove (key %v):\n%s", mutCols, s)
	}
	fmt.Println()
	return nil
}

// printBatch runs a representative batched transaction with tracing and
// prints the coalesced per-round lock schedule, then contrasts it with
// the same operations as one-member batches.
func printBatch(r *crs.Relation, variant string) error {
	if variant == "dcache" {
		return fmt.Errorf("-batch demo uses the graph variants")
	}
	if err := populateSample(r, variant); err != nil {
		return err
	}
	fmt.Println("--- batched transaction: insert pair + move edge + grouped counts ---")
	ops := []func(tx *crs.Txn) error{
		func(tx *crs.Txn) error {
			_, err := tx.Insert(crs.T("src", 1, "dst", 9), crs.T("weight", 5))
			return err
		},
		func(tx *crs.Txn) error {
			_, err := tx.Insert(crs.T("src", 1, "dst", 8), crs.T("weight", 6))
			return err
		},
		func(tx *crs.Txn) error { _, err := tx.Remove(crs.T("src", 1, "dst", 2)); return err },
		func(tx *crs.Txn) error {
			_, err := tx.Insert(crs.T("src", 1, "dst", 7), crs.T("weight", 42))
			return err
		},
		func(tx *crs.Txn) error { _, err := tx.Count(crs.T("src", 1)); return err },
		func(tx *crs.Txn) error { _, err := tx.Count(crs.T("src", 2)); return err },
	}
	var tr *crs.BatchTrace
	err := r.Batch(func(tx *crs.Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		for _, op := range ops {
			if err := op(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Print(tr)
	// The non-coalesced baseline: the same operations, one per batch.
	// (The relation state differs slightly after the batch above; the
	// point is the acquisition count, not the results.)
	requested, acquired := 0, 0
	for _, op := range ops {
		var str *crs.BatchTrace
		err := r.Batch(func(tx *crs.Txn) error {
			tx.EnableTrace()
			str = tx.Trace()
			return op(tx)
		})
		if err != nil {
			return err
		}
		requested += str.Requested
		acquired += str.Acquired
	}
	fmt.Printf("same operations issued individually: %d requested -> %d acquired\n", requested, acquired)
	fmt.Printf("coalescing: %d acquisitions for the 6-op batch vs %d individually\n\n", tr.Acquired, acquired)
	return nil
}

// printRegistry builds the two-relation users/posts registry, runs the
// canonical cross-relation group — insert a post and bump the author's
// post counter, then read the author's post count — as ONE Registry.Batch
// with tracing, and prints the coalesced schedule: every acquisition in
// the registry-wide (relation id, node, inst, stripe) order, each
// physical lock at most once, users rounds strictly before posts rounds
// regardless of enqueue order.
func printRegistry() error {
	db := crs.NewRegistry()
	uspec := crs.MustSpec([]string{"user", "posts"},
		crs.FD{From: []string{"user"}, To: []string{"posts"}})
	ud, err := crs.NewBuilder(uspec, "ρ").
		Edge("ρu", "ρ", "u", []string{"user"}, crs.ConcurrentHashMap).
		Edge("uc", "u", "c", []string{"posts"}, crs.Cell).
		Build()
	if err != nil {
		return err
	}
	users, err := db.Synthesize("users", uspec, crs.WithDecomposition(ud))
	if err != nil {
		return err
	}
	pspec := crs.MustSpec([]string{"author", "post", "ts"},
		crs.FD{From: []string{"author", "post"}, To: []string{"ts"}})
	pd, err := crs.NewBuilder(pspec, "ρ").
		Edge("ρa", "ρ", "a", []string{"author"}, crs.ConcurrentHashMap).
		Edge("ap", "a", "p", []string{"post"}, crs.TreeMap).
		Edge("pt", "p", "t", []string{"ts"}, crs.Cell).
		Build()
	if err != nil {
		return err
	}
	posts, err := db.Synthesize("posts", pspec, crs.WithDecomposition(pd))
	if err != nil {
		return err
	}
	fmt.Println("=== registry: users + posts ===")
	for _, r := range db.Relations() {
		fmt.Printf("\nrelation %d: %s\n%s", r.RegistryID(), r.Name(), r.Decomposition())
	}
	fmt.Println("\nglobal lock order: (relation id, node, instance key, stripe) —")
	fmt.Println("every users lock precedes every posts lock; within a relation the")
	fmt.Println("§5.1 per-decomposition order applies unchanged.")

	if _, err := users.Insert(crs.T("user", 1), crs.T("posts", 1)); err != nil {
		return err
	}
	if _, err := posts.Insert(crs.T("author", 1, "post", 100), crs.T("ts", 5)); err != nil {
		return err
	}
	ops := []func(tx *crs.Txn) error{
		func(tx *crs.Txn) error {
			_, err := tx.InsertInto(posts, crs.T("author", 1, "post", 101), crs.T("ts", 6))
			return err
		},
		func(tx *crs.Txn) error { _, err := tx.RemoveFrom(users, crs.T("user", 1)); return err },
		func(tx *crs.Txn) error {
			_, err := tx.InsertInto(users, crs.T("user", 1), crs.T("posts", 2))
			return err
		},
		func(tx *crs.Txn) error { _, err := tx.CountIn(posts, crs.T("author", 1)); return err },
	}
	fmt.Println("\n--- cross-relation batch: insert post + bump author counter + count ---")
	fmt.Println("(enqueue order interleaves posts and users; acquisition order does not)")
	var tr *crs.BatchTrace
	err = db.Batch(func(tx *crs.Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		for _, op := range ops {
			if err := op(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Print(tr)
	requested, acquired := 0, 0
	for _, op := range ops {
		var str *crs.BatchTrace
		err := db.Batch(func(tx *crs.Txn) error {
			tx.EnableTrace()
			str = tx.Trace()
			return op(tx)
		})
		if err != nil {
			return err
		}
		requested += str.Requested
		acquired += str.Acquired
	}
	fmt.Printf("same members issued individually: %d requested -> %d acquired\n", requested, acquired)
	fmt.Printf("coalescing: %d acquisitions for the cross-relation batch vs %d individually\n\n", tr.Acquired, acquired)
	return nil
}

// printOCC builds a two-relation registry over concurrency-safe
// containers (both relations OptimisticCapable) and runs the canonical
// MIXED group — insert into follows, count posts — as one Registry.Batch
// with tracing: the printed schedule shows exclusive locks on the written
// relation only, while the read relation is covered by epoch records
// validated at commit (the Silo-style OCC protocol of mixed batches).
// The same members issued individually show what the reads would have
// cost under shared locks.
func printOCC() error {
	db := crs.NewRegistry()
	fspec := crs.MustSpec([]string{"src", "dst", "since"},
		crs.FD{From: []string{"src", "dst"}, To: []string{"since"}})
	fd, err := crs.NewBuilder(fspec, "ρ").
		Edge("ρs", "ρ", "s", []string{"src"}, crs.ConcurrentHashMap).
		Edge("sd", "s", "d", []string{"dst"}, crs.ConcurrentSkipListMap).
		Edge("dw", "d", "w", []string{"since"}, crs.Cell).
		Build()
	if err != nil {
		return err
	}
	follows, err := db.Synthesize("follows", fspec, crs.WithDecomposition(fd))
	if err != nil {
		return err
	}
	pspec := crs.MustSpec([]string{"author", "post", "ts"},
		crs.FD{From: []string{"author", "post"}, To: []string{"ts"}})
	pd, err := crs.NewBuilder(pspec, "ρ").
		Edge("ρa", "ρ", "a", []string{"author"}, crs.ConcurrentHashMap).
		Edge("ap", "a", "p", []string{"post"}, crs.ConcurrentSkipListMap).
		Edge("pt", "p", "t", []string{"ts"}, crs.Cell).
		Build()
	if err != nil {
		return err
	}
	posts, err := db.Synthesize("posts", pspec, crs.WithDecomposition(pd))
	if err != nil {
		return err
	}
	fmt.Println("=== mixed-batch OCC: follows + posts (all containers concurrency-safe) ===")
	for _, r := range db.Relations() {
		fmt.Printf("\nrelation %d: %s (OptimisticCapable=%v)\n%s", r.RegistryID(), r.Name(), r.OptimisticCapable(), r.Decomposition())
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := posts.Insert(crs.T("author", 7, "post", i), crs.T("ts", i)); err != nil {
			return err
		}
	}
	fmt.Println("\n--- mixed group: insert follows(1→7) + count posts(author=7) ---")
	fmt.Println("(a Follow: the write member locks exclusively, the count takes NO locks —")
	fmt.Println("its epochs are recorded and validated after the undo-logged apply)")
	var cnt *crs.Pending[int]
	var tr *crs.BatchTrace
	err = db.Batch(func(tx *crs.Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		if _, err := tx.InsertInto(follows, crs.T("src", 1, "dst", 7), crs.T("since", 99)); err != nil {
			return err
		}
		var err error
		cnt, err = tx.CountIn(posts, crs.T("author", 7))
		return err
	})
	if err != nil {
		return err
	}
	fmt.Print(tr)
	fmt.Printf("OCC=%v attempts=%d fellBack=%v: %d write locks (%d shared), read set %d epochs (%d distinct), count=%d\n",
		tr.OCC, tr.Attempts, tr.FellBack, tr.Acquired, tr.SharedAcquired, tr.EpochsRecorded, tr.EpochsDistinct, cnt.Value())

	// The same members issued individually: the count rides the read-only
	// lock-free path, so the comparison isolates what coalescing + OCC
	// save on the write side.
	requested, acquired := 0, 0
	ops := []func(tx *crs.Txn) error{
		func(tx *crs.Txn) error {
			_, err := tx.InsertInto(follows, crs.T("src", 2, "dst", 7), crs.T("since", 100))
			return err
		},
		func(tx *crs.Txn) error { _, err := tx.CountIn(posts, crs.T("author", 7)); return err },
	}
	for _, op := range ops {
		var str *crs.BatchTrace
		err := db.Batch(func(tx *crs.Txn) error {
			tx.EnableTrace()
			str = tx.Trace()
			return op(tx)
		})
		if err != nil {
			return err
		}
		requested += str.Requested
		acquired += str.Acquired
	}
	fmt.Printf("same members issued individually: %d requested -> %d acquired\n", requested, acquired)
	// CI runs this demo as a smoke gate: a mixed group acquiring more
	// locks than its sequential decomposition is the regression the OCC
	// commit exists to prevent, so fail loudly instead of printing a
	// self-contradictory claim.
	if tr.Acquired > acquired {
		return fmt.Errorf("mixed group acquired %d locks, its sequential decomposition %d — the OCC commit must never out-lock it", tr.Acquired, acquired)
	}
	fmt.Printf("the mixed group never out-locks its sequential decomposition: %d <= %d\n\n", tr.Acquired, acquired)
	return nil
}

// printMigrate narrates one live representation migration end to end on
// the §2 graph relation: boot pessimistic (HashMap/TreeMap — the 2PL-only
// representation), accumulate a read-heavy counter profile, show the
// online advisor's verdict (the same RecommendKinds rule crsd -adapt and
// crstune -live run), execute Registry.Migrate, and trace the identical
// read-only batch before (locks) and after (lock-free) the cutover.
func printMigrate() error {
	db := crs.NewRegistry()
	spec := crs.MustSpec([]string{"src", "dst", "weight"},
		crs.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
	d, err := crs.NewBuilder(spec, "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, crs.HashMap).
		Edge("uv", "u", "v", []string{"dst"}, crs.TreeMap).
		Edge("vw", "v", "w", []string{"weight"}, crs.Cell).
		Build()
	if err != nil {
		return err
	}
	edges, err := db.Synthesize("edges", spec, crs.WithDecomposition(d))
	if err != nil {
		return err
	}
	fmt.Println("=== live migration: edges, pessimistic boot representation ===")
	fmt.Printf("\nrelation %d: edges (OptimisticCapable=%v)\n%s", edges.RegistryID(), edges.OptimisticCapable(), edges.Decomposition())

	for i := int64(0); i < 32; i++ {
		if _, err := edges.Insert(crs.T("src", i%8, "dst", i), crs.T("weight", i)); err != nil {
			return err
		}
	}
	// A read-heavy warm-up: the always-on counters are the advisor's only
	// input, so the observed profile — not a config file — drives the
	// verdict below.
	for i := int64(0); i < 2000; i++ {
		if _, err := edges.Query(crs.T("src", i%8), "dst"); err != nil {
			return err
		}
	}

	rc := edges.Harvest()
	fmt.Printf("\n--- harvested counters ---\nreads %d, writes %d, read fraction %.2f, optimistic-capable %v\n",
		rc.Reads, rc.Writes, float64(rc.Reads)/float64(rc.Reads+rc.Writes), rc.OptimisticCapable)
	rec, ok := autotune.RecommendKinds(rc, autotune.DefaultConfig())
	if !ok {
		return fmt.Errorf("advisor declined to migrate the warmed-up relation")
	}
	fmt.Printf("advisor verdict (same rule as crsd -adapt / crstune -live):\n  MIGRATE %v -> %v\n  %s\n", rec.From, rec.To, rec.Reason)

	// The identical read-only batch, traced on each side of the cutover.
	traceRO := func() (*crs.BatchTrace, error) {
		var tr *crs.BatchTrace
		err := edges.BatchReadOnly(func(tx *crs.Txn) error {
			tx.EnableTrace()
			tr = tx.Trace()
			for s := int64(0); s < 4; s++ {
				if _, err := tx.Count(crs.T("src", s)); err != nil {
					return err
				}
			}
			return nil
		})
		return tr, err
	}
	before, err := traceRO()
	if err != nil {
		return err
	}
	fmt.Printf("\nread-only batch BEFORE: optimistic=%v, %d lock requests -> %d acquired\n",
		before.Optimistic, before.Requested, before.Acquired)

	d2, p2, err := autotune.Materialize(edges, rec)
	if err != nil {
		return err
	}
	fmt.Println("\n--- Registry.Migrate: side synthesis, backfill, catch-up, cutover ---")
	ev, err := db.Migrate("edges", crs.WithDecomposition(d2), crs.WithPlacement(p2))
	if err != nil {
		return err
	}
	fmt.Printf("  side synthesis: %s (same relation id %d, so the §5.1 global\n", ev.To, edges.RegistryID())
	fmt.Println("  lock order is preserved — new lock IDs re-base onto the old slot)")
	fmt.Printf("  backfill: %d rows replayed from the snapshot\n", ev.Backfilled)
	fmt.Printf("  catch-up: %d concurrent mutations drained from the commit tap\n", ev.CatchupOps)
	fmt.Printf("  cutover: exclusive latch held %s (total migration %s)\n",
		time.Duration(ev.PauseNS), time.Duration(ev.TotalNS))

	after, err := traceRO()
	if err != nil {
		return err
	}
	fmt.Printf("\nread-only batch AFTER: optimistic=%v, %d lock requests -> %d acquired (epochs validated: %d)\n",
		after.Optimistic, after.Requested, after.Acquired, after.EpochsDistinct)
	if !after.Optimistic || after.Acquired != 0 {
		return fmt.Errorf("post-migration read-only batch still locking (optimistic=%v, acquired %d)", after.Optimistic, after.Acquired)
	}
	fmt.Printf("\nmigration events now served under /v1/stats registry.migrations: %d\n\n", len(db.Harvest().Migrations))
	return nil
}

func printPlan(r *crs.Relation, title string, bound, out []string) {
	s, err := r.ExplainQuery(bound, out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("--- query plan: %s ---\n%s\n", title, s)
}

func printMutations(r *crs.Relation, key []string) {
	if s, err := r.ExplainInsert(key); err == nil {
		fmt.Printf("--- insert plan (key %v) ---\n%s\n", key, s)
	}
	if s, err := r.ExplainRemove(key); err == nil {
		fmt.Printf("--- remove plan (key %v) ---\n%s\n", key, s)
	}
}

func buildRelation(name string) (*crs.Relation, error) {
	if name == "dcache" {
		spec := crs.MustSpec([]string{"parent", "name", "child"},
			crs.FD{From: []string{"parent", "name"}, To: []string{"child"}})
		d, err := crs.NewBuilder(spec, "ρ").
			Edge("ρx", "ρ", "x", []string{"parent"}, crs.TreeMap).
			Edge("xy", "x", "y", []string{"name"}, crs.TreeMap).
			Edge("ρy", "ρ", "y", []string{"parent", "name"}, crs.ConcurrentHashMap).
			Edge("yz", "y", "z", []string{"child"}, crs.Cell).
			Build()
		if err != nil {
			return nil, err
		}
		return crs.Synthesize(spec, crs.WithDecomposition(d))
	}
	v, err := crs.GraphVariantByName(name)
	if err != nil {
		return nil, err
	}
	return v.Build()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crsexplain:", err)
	os.Exit(1)
}
