package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// stripeOf computes the root stripe a row binding src=k selects on a
// striped placement — the white-box helper the single-relation OCC
// conflict tests use to pick keys whose stripes differ, so a hook-driven
// conflicting insert never blocks on a stripe the batch already holds.
func stripeOf(r *Relation, src int64, k int) int {
	row := r.schema.NewRow()
	row.Set(r.schema.MustIndex("src"), src)
	return int(row.HashAt(r.schema.Indices([]string{"src"})) % uint64(k))
}

// pickDisjointKey returns a key whose root stripe differs from every key
// in held, so mutations on it conflict only through epoch cells, never
// through the batch's held stripe locks.
func pickDisjointKey(t *testing.T, r *Relation, stripes int, held ...int64) int64 {
	t.Helper()
	for k := int64(1); k < 1024; k++ {
		ok := true
		for _, h := range held {
			if stripeOf(r, k, stripes) == stripeOf(r, h, stripes) {
				ok = false
				break
			}
		}
		if ok {
			return k
		}
	}
	t.Fatal("no stripe-disjoint key found")
	return 0
}

// TestMixedBatchOCC is the mixed-batch acceptance test: on every capable
// variant a group holding both mutations and reads must take the OCC path
// — write locks only (zero shared acquisitions), read epochs recorded,
// one clean attempt on a quiescent relation — with sequential semantics
// (a count before the insert does not see it, a count after does) and the
// well-lockedness auditor on throughout.
func TestMixedBatchOCC(t *testing.T) {
	forEachCapableVariant(t, func(t *testing.T, r *Relation) {
		mustInsert(t, r, 1, 2, 10)
		mustInsert(t, r, 1, 3, 11)
		mustInsert(t, r, 4, 5, 12)

		var before, after *Pending[int]
		var other *Pending[[]rel.Tuple]
		var ins *Pending[bool]
		var tr *BatchTrace
		err := r.Batch(func(tx *Txn) error {
			tx.EnableTrace()
			tr = tx.Trace()
			var err error
			if before, err = tx.Count(rel.T("src", 1)); err != nil {
				return err
			}
			if ins, err = tx.Insert(rel.T("src", 1, "dst", 9), rel.T("weight", 90)); err != nil {
				return err
			}
			if after, err = tx.Count(rel.T("src", 1)); err != nil {
				return err
			}
			// A read whose scope no mutation touches: reuses its lock-free
			// traversal.
			other, err = tx.Query(rel.T("src", 4), "dst", "weight")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.OCC || tr.Optimistic {
			t.Fatalf("mixed batch: OCC=%v Optimistic=%v, want the OCC path", tr.OCC, tr.Optimistic)
		}
		if tr.Attempts != 1 || tr.FellBack {
			t.Fatalf("uncontended mixed batch: attempts=%d fellBack=%v, want one clean attempt", tr.Attempts, tr.FellBack)
		}
		if tr.Acquired == 0 {
			t.Fatal("OCC batch acquired no write locks")
		}
		if tr.SharedAcquired != 0 {
			t.Fatalf("OCC batch acquired %d shared locks, want 0 (reads divert into the read-set):\n%s",
				tr.SharedAcquired, tr)
		}
		if tr.EpochsRecorded == 0 || tr.EpochsDistinct == 0 {
			t.Fatal("OCC batch recorded no read epochs")
		}
		if !ins.Value() {
			t.Fatal("insert member reported existing tuple on a fresh key")
		}
		if before.Value() != 2 {
			t.Fatalf("count before insert = %d, want 2 (must not see the later insert)", before.Value())
		}
		if after.Value() != 3 {
			t.Fatalf("count after insert = %d, want 3 (sequential semantics)", after.Value())
		}
		if len(other.Value()) != 1 {
			t.Fatalf("untouched-scope query = %v, want the single (4,5) edge", other.Value())
		}
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatalf("relation ill-formed after OCC commit: %v", err)
		}
	})
}

// TestOCCSelfHoldValidation is the self-hold epoch test: a read member
// whose lock set the batch itself holds exclusively (count and insert
// share the src=1 path, so the insert's write begin-bumps the very cells
// the count recorded) must still validate on the FIRST attempt — the
// batch's own exclusive holds are excluded from validation.
func TestOCCSelfHoldValidation(t *testing.T) {
	r := lockFreeStick(t)
	mustInsert(t, r, 1, 2, 10)
	var before, after *Pending[int]
	var tr *BatchTrace
	err := r.Batch(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		var err error
		if before, err = tx.Count(rel.T("src", 1)); err != nil {
			return err
		}
		if _, err = tx.Insert(rel.T("src", 1, "dst", 7), rel.T("weight", 70)); err != nil {
			return err
		}
		after, err = tx.Count(rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.OCC {
		t.Fatal("mixed batch did not take the OCC path")
	}
	if tr.Attempts != 1 || tr.FellBack {
		t.Fatalf("self-conflicting batch: attempts=%d fellBack=%v — the batch's own exclusive holds failed its validation",
			tr.Attempts, tr.FellBack)
	}
	if before.Value() != 1 || after.Value() != 2 {
		t.Fatalf("counts = %d/%d, want 1/2", before.Value(), after.Value())
	}
}

// TestOCCValidationRetry forces exactly one validation failure: a
// conflicting insert lands — on a stripe the batch does not hold — between
// the batch's lock-free reads and its validation. The batch must roll its
// writes back, retry, observe the new state, and commit on the second
// attempt with its mutation applied exactly once.
func TestOCCValidationRetry(t *testing.T) {
	r := stickRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, func(d *decomp.Decomposition) *locks.Placement {
		p := locks.NewPlacement(d)
		p.SetStripes(d.Root, 16)
		for _, e := range d.Edges {
			if e.Src == d.Root {
				p.Place(e, d.Root, e.Cols...)
			}
		}
		return p
	})
	readSrc := pickDisjointKey(t, r, 16)           // the batch reads this source…
	writeSrc := pickDisjointKey(t, r, 16, readSrc) // …writes this one…
	mustInsert(t, r, int(readSrc), 2, 10)
	optimisticValidateHook = func(attempt int) {
		if attempt == 0 {
			mustInsert(t, r, int(readSrc), 50, 50) // …and the conflict hits the read set only
		}
	}
	defer func() { optimisticValidateHook = nil }()
	var cnt *Pending[int]
	var ins *Pending[bool]
	var tr *BatchTrace
	err := r.Batch(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		var err error
		if ins, err = tx.Insert(rel.T("src", writeSrc, "dst", 9), rel.T("weight", 9)); err != nil {
			return err
		}
		cnt, err = tx.Count(rel.T("src", readSrc))
		return err
	})
	optimisticValidateHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if !tr.OCC || tr.FellBack {
		t.Fatalf("OCC=%v fellBack=%v, want retried OCC success", tr.OCC, tr.FellBack)
	}
	if tr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one validation failure, one clean retry)", tr.Attempts)
	}
	if !ins.Value() {
		t.Fatal("insert member reported failure")
	}
	if cnt.Value() != 2 {
		t.Fatalf("count = %d, want 2 (the retry must observe the conflicting insert)", cnt.Value())
	}
	// The rollback-and-reapply must leave exactly one (writeSrc, 9) edge.
	rows, err := r.Query(rel.T("src", writeSrc), "dst", "weight")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].Equal(rel.T("dst", 9, "weight", 9)) {
		t.Fatalf("write applied %v, want exactly one (dst 9, weight 9)", rows)
	}
	if _, err := r.VerifyWellFormed(); err != nil {
		t.Fatalf("relation ill-formed after retried OCC commit: %v", err)
	}
}

// TestOCCFallbackAfterK conflicts with EVERY attempt: after
// optimisticMaxAttempts failed validations the mixed batch must release
// its write locks, re-run under full pessimistic 2PL — whose growing
// phase re-acquires the read members' shared locks from scratch — and
// still commit exactly once with correct results.
func TestOCCFallbackAfterK(t *testing.T) {
	r := stickRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, func(d *decomp.Decomposition) *locks.Placement {
		p := locks.NewPlacement(d)
		p.SetStripes(d.Root, 16)
		for _, e := range d.Edges {
			if e.Src == d.Root {
				p.Place(e, d.Root, e.Cols...)
			}
		}
		return p
	})
	readSrc := pickDisjointKey(t, r, 16)
	writeSrc := pickDisjointKey(t, r, 16, readSrc)
	mustInsert(t, r, int(readSrc), 2, 10)
	next := int64(100)
	optimisticValidateHook = func(attempt int) {
		mustInsert(t, r, int(readSrc), int(next), 7)
		next++
	}
	defer func() { optimisticValidateHook = nil }()
	var cnt *Pending[int]
	var ins *Pending[bool]
	var tr *BatchTrace
	err := r.Batch(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		var err error
		if ins, err = tx.Insert(rel.T("src", writeSrc, "dst", 9), rel.T("weight", 9)); err != nil {
			return err
		}
		cnt, err = tx.Count(rel.T("src", readSrc))
		return err
	})
	optimisticValidateHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if !tr.OCC || !tr.FellBack {
		t.Fatalf("OCC=%v fellBack=%v, want exhausted attempts and fallback", tr.OCC, tr.FellBack)
	}
	if tr.Attempts != optimisticMaxAttempts {
		t.Fatalf("attempts = %d, want %d", tr.Attempts, optimisticMaxAttempts)
	}
	if tr.Acquired == 0 || tr.SharedAcquired == 0 {
		t.Fatalf("fallback run acquired %d locks (%d shared): the 2PL rerun must lock the reads shared",
			tr.Acquired, tr.SharedAcquired)
	}
	if !ins.Value() {
		t.Fatal("insert member reported failure after fallback")
	}
	want := 1 + optimisticMaxAttempts // seed edge + one conflicting insert per attempt
	if cnt.Value() != want {
		t.Fatalf("count = %d, want %d", cnt.Value(), want)
	}
	rows, err := r.Query(rel.T("src", writeSrc), "dst")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("fallback applied the write %d times: %v", len(rows), rows)
	}
	if _, err := r.VerifyWellFormed(); err != nil {
		t.Fatalf("relation ill-formed after fallback: %v", err)
	}
}

// TestOCCDoomedAttemptAuditsCleanly pins the audit relaxation of doomed
// attempts: a re-executed read member (unbound query, overlapping the
// batch's own insert) discovers an instance a CONCURRENT insert created
// after the batch's read phase. With the auditor on (suite default) the
// access is covered by neither a held lock nor a phase-2 epoch record —
// the audit must record the discovered lock instead of panicking, the
// attempt must fail validation (the discovery container's epoch moved),
// and the retry must commit with the foreign row visible.
func TestOCCDoomedAttemptAuditsCleanly(t *testing.T) {
	r := stickRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, func(d *decomp.Decomposition) *locks.Placement {
		p := locks.NewPlacement(d)
		p.SetStripes(d.Root, 16)
		for _, e := range d.Edges {
			if e.Src == d.Root {
				p.Place(e, d.Root, e.Cols...)
			}
		}
		return p
	})
	writeSrc := pickDisjointKey(t, r, 16)
	newSrc := pickDisjointKey(t, r, 16, writeSrc)
	mustInsert(t, r, int(writeSrc), 1, 1)
	optimisticValidateHook = func(attempt int) {
		if attempt == 0 {
			// Creates a brand-new u(newSrc) instance the re-executed
			// unbound scan will discover at apply time.
			mustInsert(t, r, int(newSrc), 5, 5)
		}
	}
	defer func() { optimisticValidateHook = nil }()
	var all *Pending[[]rel.Tuple]
	var tr *BatchTrace
	err := r.Batch(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		if _, err := tx.Insert(rel.T("src", writeSrc, "dst", 9), rel.T("weight", 9)); err != nil {
			return err
		}
		var err error
		all, err = tx.Query(rel.T(), "src", "dst") // unbound: always re-executed after the insert
		return err
	})
	optimisticValidateHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if !tr.OCC || tr.FellBack {
		t.Fatalf("OCC=%v fellBack=%v, want a retried OCC success", tr.OCC, tr.FellBack)
	}
	if tr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (the doomed attempt must fail validation, not panic)", tr.Attempts)
	}
	if len(all.Value()) != 3 { // seed + batch insert + hook insert
		t.Fatalf("unbound query = %v, want 3 rows including the concurrent insert", all.Value())
	}
	if _, err := r.VerifyWellFormed(); err != nil {
		t.Fatalf("relation ill-formed: %v", err)
	}
}

// TestRegistryMixedOCC covers the cross-relation OCC path on the
// Follow-shaped group — insert into one relation, count another: the OCC
// commit must hold exclusive locks on the written relation only, record
// the read relation's epochs, and retry cleanly when a conflicting write
// lands in the READ relation (whose locks the batch never holds, so the
// hook-driven conflict cannot deadlock).
func TestRegistryMixedOCC(t *testing.T) {
	g := NewRegistry()
	build := func(name string) *Relation {
		d, err := decomp.NewBuilder(graphSpec(), "ρ").
			Edge("ρu", "ρ", "u", []string{"src"}, container.ConcurrentHashMap).
			Edge("uv", "u", "v", []string{"dst"}, container.ConcurrentSkipListMap).
			Edge("vw", "v", "w", []string{"weight"}, container.Cell).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := g.Synthesize(name, d.Spec, WithDecomposition(d), WithPlacement(locks.FineGrained(d)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	follows, posts := build("follows"), build("posts")
	mustInsert(t, posts, 7, 1, 10)
	mustInsert(t, posts, 7, 2, 11)

	// Clean OCC commit: locks only on follows, epochs on posts.
	var cnt *Pending[int]
	var tr *BatchTrace
	err := g.Batch(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		if _, err := tx.InsertInto(follows, rel.T("src", 1, "dst", 7), rel.T("weight", 0)); err != nil {
			return err
		}
		var err error
		cnt, err = tx.CountIn(posts, rel.T("src", 7))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.OCC || tr.Attempts != 1 || tr.FellBack {
		t.Fatalf("OCC=%v attempts=%d fellBack=%v, want one clean OCC attempt", tr.OCC, tr.Attempts, tr.FellBack)
	}
	if tr.SharedAcquired != 0 {
		t.Fatalf("cross-relation OCC acquired %d shared locks, want 0", tr.SharedAcquired)
	}
	for _, rd := range tr.Rounds {
		for _, id := range rd.IDs {
			if id.Rel != follows.RegistryID() {
				t.Fatalf("OCC batch locked relation %d (%v); only the written relation may be locked", id.Rel, id)
			}
		}
	}
	if cnt.Value() != 2 {
		t.Fatalf("count = %d, want 2", cnt.Value())
	}

	// Conflicted commit: a write lands in posts between read and validate.
	optimisticValidateHook = func(attempt int) {
		if attempt == 0 {
			mustInsert(t, posts, 7, 50, 50)
		}
	}
	defer func() { optimisticValidateHook = nil }()
	err = g.Batch(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		if _, err := tx.InsertInto(follows, rel.T("src", 2, "dst", 7), rel.T("weight", 0)); err != nil {
			return err
		}
		var err error
		cnt, err = tx.CountIn(posts, rel.T("src", 7))
		return err
	})
	optimisticValidateHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if !tr.OCC || tr.Attempts != 2 || tr.FellBack {
		t.Fatalf("conflicted OCC: attempts=%d fellBack=%v, want one retry then success", tr.Attempts, tr.FellBack)
	}
	if cnt.Value() != 3 {
		t.Fatalf("count = %d, want 3 (the retry must observe the conflicting insert)", cnt.Value())
	}
	for _, r := range []*Relation{follows, posts} {
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatalf("%s ill-formed: %v", r.Name(), err)
		}
	}
}

// occOp is one randomized operation for the mixed-batch differential
// quick-check.
type occOp struct {
	Kind     uint8 // 0 insert, 1 remove, 2 count, 3 query
	Src, Dst int64
}

// TestOCCDifferentialQuickCheck interleaves random MIXED batches with the
// sequential Reference oracle on every capable variant: each group's
// per-member results and the final contents must match the same sequence
// executed one operation at a time, whichever commit path ran.
func TestOCCDifferentialQuickCheck(t *testing.T) {
	forEachCapableVariant(t, func(t *testing.T, r *Relation) {
		ref := NewReference(r.Spec())
		rng := rand.New(rand.NewSource(11))
		const keys = 6
		for round := 0; round < 120; round++ {
			n := rng.Intn(5) + 2
			ops := make([]occOp, n)
			mixed := false
			for i := range ops {
				ops[i] = occOp{Kind: uint8(rng.Intn(4)), Src: rng.Int63n(keys), Dst: rng.Int63n(keys)}
			}
			var pb []*Pending[bool]
			var pi []*Pending[int]
			var pt []*Pending[[]rel.Tuple]
			var kindsB, kindsI, kindsT []int
			var tr *BatchTrace
			err := r.Batch(func(tx *Txn) error {
				tx.EnableTrace()
				tr = tx.Trace()
				for i, op := range ops {
					switch op.Kind {
					case 0:
						p, err := tx.Insert(rel.T("src", op.Src, "dst", op.Dst), rel.T("weight", op.Src*10+op.Dst))
						if err != nil {
							return err
						}
						pb, kindsB = append(pb, p), append(kindsB, i)
					case 1:
						p, err := tx.Remove(rel.T("src", op.Src, "dst", op.Dst))
						if err != nil {
							return err
						}
						pb, kindsB = append(pb, p), append(kindsB, i)
					case 2:
						p, err := tx.Count(rel.T("src", op.Src))
						if err != nil {
							return err
						}
						pi, kindsI = append(pi, p), append(kindsI, i)
					case 3:
						p, err := tx.Query(rel.T("src", op.Src), "dst", "weight")
						if err != nil {
							return err
						}
						pt, kindsT = append(pt, p), append(kindsT, i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			hasW, hasR := false, false
			for _, op := range ops {
				if op.Kind <= 1 {
					hasW = true
				} else {
					hasR = true
				}
			}
			mixed = hasW && hasR
			if mixed && !tr.OCC {
				t.Fatalf("round %d: mixed batch on capable variant skipped the OCC path", round)
			}
			// Replay sequentially against the oracle and compare.
			bi, ii, ti := 0, 0, 0
			for i, op := range ops {
				switch op.Kind {
				case 0:
					want, _ := ref.Insert(rel.T("src", op.Src, "dst", op.Dst), rel.T("weight", op.Src*10+op.Dst))
					if got := pb[bi].Value(); got != want {
						t.Fatalf("round %d member %d: insert = %v, want %v", round, i, got, want)
					}
					bi++
				case 1:
					want, _ := ref.Remove(rel.T("src", op.Src, "dst", op.Dst))
					if got := pb[bi].Value(); got != want {
						t.Fatalf("round %d member %d: remove = %v, want %v", round, i, got, want)
					}
					bi++
				case 2:
					want, _ := ref.Query(rel.T("src", op.Src), "dst")
					if got := pi[ii].Value(); got != len(want) {
						t.Fatalf("round %d member %d: count = %d, want %d", round, i, got, len(want))
					}
					ii++
				case 3:
					want, _ := ref.Query(rel.T("src", op.Src), "dst", "weight")
					if !tuplesEqual(pt[ti].Value(), want) {
						t.Fatalf("round %d member %d: query = %v, want %v", round, i, pt[ti].Value(), want)
					}
					ti++
				}
			}
			if round%10 == 9 {
				got, err := r.VerifyWellFormed()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ref.Query(rel.T(), r.Spec().Columns...)
				if !tuplesEqual(got, want) {
					t.Fatalf("round %d: contents diverged from oracle", round)
				}
			}
		}
	})
}

// TestOCCConcurrentStress races mixed OCC batches against each other and
// against lock-free read-only batches (run under -race in CI). Every
// writer batch keeps the invariant "src 1 and src 2 have identical
// successor sets" by mutating (1,k) and (2,k) together and counting both
// AFTER the mutations in the same group — sequential semantics plus OCC
// atomicity mean the two in-batch counts must always be equal, and so
// must any read-only batch's counts.
func TestOCCConcurrentStress(t *testing.T) {
	for _, name := range []string{"stick/striped/chm+csl", "diamond/speculative/chm+csl"} {
		t.Run(name, func(t *testing.T) {
			var r *Relation
			for _, v := range capableVariants() {
				if v.name == name {
					r = v.build(t)
				}
			}
			const (
				writers = 2
				readers = 2
				iters   = 250
				keys    = 12
			)
			var wwg, rwg sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan error, writers+readers)
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(seed int64) {
					defer wwg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < iters; i++ {
						k := rng.Int63n(keys)
						ins := rng.Intn(2) == 0
						var c1, c2 *Pending[int]
						err := r.Batch(func(tx *Txn) error {
							var err error
							if ins {
								if _, err = tx.Insert(rel.T("src", 1, "dst", k), rel.T("weight", k)); err != nil {
									return err
								}
								if _, err = tx.Insert(rel.T("src", 2, "dst", k), rel.T("weight", k)); err != nil {
									return err
								}
							} else {
								if _, err = tx.Remove(rel.T("src", 1, "dst", k)); err != nil {
									return err
								}
								if _, err = tx.Remove(rel.T("src", 2, "dst", k)); err != nil {
									return err
								}
							}
							if c1, err = tx.Count(rel.T("src", 1)); err != nil {
								return err
							}
							c2, err = tx.Count(rel.T("src", 2))
							return err
						})
						if err != nil {
							errs <- err
							return
						}
						if c1.Value() != c2.Value() {
							errs <- fmt.Errorf("mixed-batch atomicity broken: in-batch counts %d != %d", c1.Value(), c2.Value())
							return
						}
					}
				}(int64(w) + 1)
			}
			for rd := 0; rd < readers; rd++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						var c1, c2 *Pending[int]
						err := r.BatchReadOnly(func(tx *Txn) error {
							var err error
							if c1, err = tx.Count(rel.T("src", 1)); err != nil {
								return err
							}
							c2, err = tx.Count(rel.T("src", 2))
							return err
						})
						if err != nil {
							errs <- err
							return
						}
						if c1.Value() != c2.Value() {
							errs <- fmt.Errorf("reader atomicity broken: %d != %d", c1.Value(), c2.Value())
							return
						}
					}
				}()
			}
			wwg.Wait()
			close(stop)
			rwg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			if _, err := r.VerifyWellFormed(); err != nil {
				t.Fatalf("relation ill-formed after OCC stress: %v", err)
			}
		})
	}
}

// TestStandaloneReadsLockFree pins the "optimistic single operations"
// ROADMAP item with a white-box zero-lock trace: the standalone optimistic
// helpers must validate on a quiescent relation while the buffer's
// transaction holds ZERO physical locks, and the public Query/Count
// surfaces must return the same results the locking path returns.
func TestStandaloneReadsLockFree(t *testing.T) {
	forEachCapableVariant(t, func(t *testing.T, r *Relation) {
		for d := 1; d <= 3; d++ {
			mustInsert(t, r, 1, d*3, d)
		}
		src := r.schema.Mask([]string{"src"})
		qp, err := r.planFor(shape{kind: mQuery, bound: src, out: r.schema.Mask([]string{"dst", "weight"})})
		if err != nil {
			t.Fatal(err)
		}
		qplan := qp.q
		row, err := r.rowForTuple(rel.T("src", 1), qplan.BoundMask)
		if err != nil {
			t.Fatal(err)
		}
		b := r.getBuf()
		n, ok := r.runOptimistic(b, qplan, row)
		if !ok {
			t.Fatal("quiescent standalone query failed optimistic validation")
		}
		if held := b.txn.HeldCount(); held != 0 {
			t.Fatalf("lock-free standalone query held %d locks, want 0", held)
		}
		if b.reads.Len() == 0 {
			t.Fatal("standalone query recorded no epochs")
		}
		if n != 3 || len(b.pipe) != 3 {
			t.Fatalf("optimistic query found %d states (%d in the pipe), want 3", n, len(b.pipe))
		}
		r.putBuf(b)

		cp, err := r.planFor(shape{kind: mCount, bound: src})
		if err != nil {
			t.Fatal(err)
		}
		cplan := cp.q
		crow, err := r.rowForTuple(rel.T("src", 1), cplan.BoundMask)
		if err != nil {
			t.Fatal(err)
		}
		b = r.getBuf()
		n, ok = r.runOptimistic(b, cplan, crow)
		if !ok {
			t.Fatal("quiescent standalone count failed optimistic validation")
		}
		if held := b.txn.HeldCount(); held != 0 {
			t.Fatalf("lock-free standalone count held %d locks, want 0", held)
		}
		if n != 3 {
			t.Fatalf("optimistic count = %d, want 3", n)
		}
		r.putBuf(b)

		// The public surfaces agree with the (audited) results.
		rows, err := r.Query(rel.T("src", 1), "dst", "weight")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("Query returned %d rows, want 3", len(rows))
		}
		q, err := r.PrepareQuery([]string{"src"}, []string{"dst"})
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Count(rel.T("src", 1))
		if err != nil {
			t.Fatal(err)
		}
		if got != 3 {
			t.Fatalf("prepared Count = %d, want 3", got)
		}
	})
}

// TestStandaloneReadRetryAndFallback drives the standalone optimistic
// read through its retry and fallback arms with the validate hook: one
// conflict means one retry (still lock-free), a conflict on every attempt
// means the pessimistic fallback — and in every case the result reflects
// the state including the conflicting writes.
func TestStandaloneReadRetryAndFallback(t *testing.T) {
	r := lockFreeStick(t)
	mustInsert(t, r, 1, 2, 10)
	q, err := r.PrepareQuery([]string{"src"}, []string{"dst"})
	if err != nil {
		t.Fatal(err)
	}

	// One conflict: the retry observes the new row.
	optimisticValidateHook = func(attempt int) {
		if attempt == 0 {
			mustInsert(t, r, 1, 50, 50)
		}
	}
	n, err := q.Count(rel.T("src", 1))
	optimisticValidateHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count after one conflict = %d, want 2", n)
	}

	// A conflict per attempt: the fallback (locking) path runs and counts
	// everything inserted by then.
	next := int64(100)
	fired := 0
	optimisticValidateHook = func(attempt int) {
		fired++
		mustInsert(t, r, 1, int(next), 7)
		next++
	}
	n, err = q.Count(rel.T("src", 1))
	optimisticValidateHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if fired != optimisticMaxAttempts {
		t.Fatalf("hook fired %d times, want %d attempts", fired, optimisticMaxAttempts)
	}
	if n != 2+optimisticMaxAttempts {
		t.Fatalf("fallback count = %d, want %d", n, 2+optimisticMaxAttempts)
	}
}
