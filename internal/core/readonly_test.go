package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// capableVariants lists representations whose containers are all
// concurrency-safe, i.e. OptimisticCapable: the optimistic suite runs
// over plain, striped and speculative placements to cover every read-set
// recording path (lock steps, spec lookups, spec scans).
func capableVariants() []variant {
	striped := func(k int) func(*decomp.Decomposition) *locks.Placement {
		return func(d *decomp.Decomposition) *locks.Placement {
			p := locks.NewPlacement(d)
			p.SetStripes(d.Root, k)
			for _, e := range d.Edges {
				if e.Src == d.Root {
					p.Place(e, d.Root, e.Cols...)
				}
			}
			return p
		}
	}
	return []variant{
		{"stick/fine/chm+csl", func(t *testing.T) *Relation {
			return stickRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, locks.FineGrained)
		}},
		{"stick/striped/chm+csl", func(t *testing.T) *Relation {
			return stickRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, striped(16))
		}},
		{"stick/fine/cow+cow", func(t *testing.T) *Relation {
			return stickRel(t, container.CopyOnWriteMap, container.CopyOnWriteMap, locks.FineGrained)
		}},
		{"split/striped/chm+csl", func(t *testing.T) *Relation {
			return splitRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, striped(16))
		}},
		{"stick/mid-striped/chm+chm", func(t *testing.T) *Relation {
			return stickRel(t, container.ConcurrentHashMap, container.ConcurrentHashMap, midStriped(4))
		}},
		{"diamond/speculative/chm+csl", func(t *testing.T) *Relation {
			return specDiamondCapable(t)
		}},
	}
}

// specDiamondCapable builds the §4.5 speculative diamond over concurrent
// containers only, so the optimistic path must mirror spec lookups and
// spec scans with epoch records instead of target-lock acquisitions.
func specDiamondCapable(t *testing.T) *Relation {
	t.Helper()
	d, err := decomp.NewBuilder(graphSpec(), "ρ").
		Edge("ρx", "ρ", "x", []string{"src"}, container.ConcurrentHashMap).
		Edge("ρy", "ρ", "y", []string{"dst"}, container.ConcurrentHashMap).
		Edge("xz", "x", "z", []string{"dst"}, container.ConcurrentSkipListMap).
		Edge("yz", "y", "z", []string{"src"}, container.ConcurrentSkipListMap).
		Edge("zw", "z", "w", []string{"weight"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := locks.NewPlacement(d)
	p.SetStripes(d.Root, 16)
	p.PlaceSpeculative(d.EdgeByName("ρx"), d.Root, "src")
	p.PlaceSpeculative(d.EdgeByName("ρy"), d.Root, "dst")
	r, err := Synthesize(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func forEachCapableVariant(t *testing.T, f func(t *testing.T, r *Relation)) {
	for _, v := range capableVariants() {
		t.Run(v.name, func(t *testing.T) {
			r := v.build(t)
			if !r.OptimisticCapable() {
				t.Fatalf("variant %s should be optimistic-capable", v.name)
			}
			f(t, r)
		})
	}
}

// TestReadOnlyBatchLockFree is the zero-lock acceptance test: on a
// quiescent relation, a read-only batch must run optimistically, validate
// on its first attempt, acquire zero physical locks — with the
// well-lockedness auditor on, so every lock-free access was covered by a
// recorded epoch — and return exactly what the pessimistic operations
// return.
func TestReadOnlyBatchLockFree(t *testing.T) {
	forEachCapableVariant(t, func(t *testing.T, r *Relation) {
		for s := 1; s <= 4; s++ {
			for d := 1; d <= 3; d++ {
				mustInsert(t, r, s, d*7, s*10+d)
			}
		}
		wantCnt, err := r.Query(rel.T("src", 2), "dst")
		if err != nil {
			t.Fatal(err)
		}
		wantRows, err := r.Query(rel.T("src", 3), "dst", "weight")
		if err != nil {
			t.Fatal(err)
		}
		wantAll, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		var cnt *Pending[int]
		var rows, all *Pending[[]rel.Tuple]
		var tr *BatchTrace
		err = r.Batch(func(tx *Txn) error {
			tx.EnableTrace()
			tr = tx.Trace()
			var err error
			if cnt, err = tx.Count(rel.T("src", 2)); err != nil {
				return err
			}
			if rows, err = tx.Query(rel.T("src", 3), "dst", "weight"); err != nil {
				return err
			}
			// The unbound member scans every edge — on the speculative
			// diamond this exercises the optimistic spec-scan recording.
			all, err = tx.Query(rel.T(), "src", "dst", "weight")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Optimistic {
			t.Fatal("read-only batch did not take the optimistic path")
		}
		if tr.Attempts != 1 || tr.FellBack {
			t.Fatalf("uncontended batch: attempts=%d fellBack=%v, want one clean attempt", tr.Attempts, tr.FellBack)
		}
		if tr.Acquired != 0 || tr.Requested != 0 {
			t.Fatalf("read-only batch acquired %d locks (%d requested), want 0", tr.Acquired, tr.Requested)
		}
		if tr.EpochsRecorded == 0 || tr.EpochsDistinct == 0 {
			t.Fatal("optimistic batch recorded no epochs")
		}
		if cnt.Value() != len(wantCnt) {
			t.Fatalf("count = %d, want %d", cnt.Value(), len(wantCnt))
		}
		if !tuplesEqual(rows.Value(), wantRows) {
			t.Fatalf("query = %v, want %v", rows.Value(), wantRows)
		}
		if !tuplesEqual(all.Value(), wantAll) {
			t.Fatalf("unbound query = %v, want %v", all.Value(), wantAll)
		}
	})
}

// TestBatchReadOnlyRejectsMutations pins the BatchReadOnly contract: every
// mutation enqueue surface errors, and nothing executes.
func TestBatchReadOnlyRejectsMutations(t *testing.T) {
	r := lockFreeStick(t)
	ins, err := r.PrepareInsert([]string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	rem, err := r.PrepareRemove([]string{"dst", "src"})
	if err != nil {
		t.Fatal(err)
	}
	row := r.Schema().NewRow()
	row.Set(r.Schema().MustIndex("src"), int64(1))
	row.Set(r.Schema().MustIndex("dst"), int64(2))
	row.Set(r.Schema().MustIndex("weight"), int64(3))
	krow := r.Schema().NewRow()
	krow.Set(r.Schema().MustIndex("src"), int64(1))
	krow.Set(r.Schema().MustIndex("dst"), int64(2))
	err = r.BatchReadOnly(func(tx *Txn) error {
		if _, err := tx.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 3)); err == nil {
			t.Error("tuple insert accepted by read-only batch")
		}
		if _, err := tx.Remove(rel.T("src", 1, "dst", 2)); err == nil {
			t.Error("tuple remove accepted by read-only batch")
		}
		if _, err := tx.ExecRow(ins, row); err == nil {
			t.Error("prepared insert accepted by read-only batch")
		}
		if _, err := tx.ExecRow(rem, krow); err == nil {
			t.Error("prepared remove accepted by read-only batch")
		}
		_, err := tx.Count(rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("rejected mutations executed anyway: %v", snap)
	}
}

// TestReadOnlyBatchPessimisticWhenIncapable: relations with any
// concurrency-unsafe container must keep the 2PL path (a lock-free read
// racing a TreeMap writer is a data race), with identical results.
func TestReadOnlyBatchPessimisticWhenIncapable(t *testing.T) {
	r := stickRel(t, container.ConcurrentHashMap, container.TreeMap, locks.FineGrained)
	if r.OptimisticCapable() {
		t.Fatal("TreeMap stick should not be optimistic-capable")
	}
	mustInsert(t, r, 1, 2, 10)
	mustInsert(t, r, 1, 3, 11)
	var cnt *Pending[int]
	var tr *BatchTrace
	err := r.BatchReadOnly(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		var err error
		cnt, err = tx.Count(rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Optimistic {
		t.Fatal("incapable relation attempted the lock-free path")
	}
	if tr.Acquired == 0 {
		t.Fatal("pessimistic read-only batch acquired no locks")
	}
	if cnt.Value() != 2 {
		t.Fatalf("count = %d, want 2", cnt.Value())
	}
}

// TestOptimisticValidationRetry forces exactly one validation failure: a
// conflicting insert lands between the batch's lock-free reads and its
// validation. The batch must retry, observe the new state, and validate
// the second attempt with still zero locks acquired.
func TestOptimisticValidationRetry(t *testing.T) {
	r := lockFreeStick(t)
	mustInsert(t, r, 1, 2, 10)
	mustInsert(t, r, 1, 3, 11)
	optimisticValidateHook = func(attempt int) {
		if attempt == 0 {
			mustInsert(t, r, 1, 50, 50)
		}
	}
	defer func() { optimisticValidateHook = nil }()
	var cnt *Pending[int]
	var tr *BatchTrace
	err := r.BatchReadOnly(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		var err error
		cnt, err = tx.Count(rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Optimistic || tr.FellBack {
		t.Fatalf("optimistic=%v fellBack=%v, want retried optimistic success", tr.Optimistic, tr.FellBack)
	}
	if tr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one validation failure, one clean retry)", tr.Attempts)
	}
	if tr.Acquired != 0 {
		t.Fatalf("retried batch acquired %d locks, want 0", tr.Acquired)
	}
	if cnt.Value() != 3 {
		t.Fatalf("count = %d, want 3 (the retry must observe the conflicting insert)", cnt.Value())
	}
}

// TestOptimisticFallbackAfterK conflicts with EVERY optimistic attempt:
// after optimisticMaxAttempts failed validations the batch must fall back
// to pessimistic 2PL, acquire real locks, and return the correct result.
func TestOptimisticFallbackAfterK(t *testing.T) {
	r := lockFreeStick(t)
	mustInsert(t, r, 1, 2, 10)
	next := int64(100)
	optimisticValidateHook = func(attempt int) {
		mustInsert(t, r, 1, int(next), 7)
		next++
	}
	defer func() { optimisticValidateHook = nil }()
	var cnt *Pending[int]
	var tr *BatchTrace
	err := r.BatchReadOnly(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		var err error
		cnt, err = tx.Count(rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Optimistic || !tr.FellBack {
		t.Fatalf("optimistic=%v fellBack=%v, want exhausted attempts and fallback", tr.Optimistic, tr.FellBack)
	}
	if tr.Attempts != optimisticMaxAttempts {
		t.Fatalf("attempts = %d, want %d", tr.Attempts, optimisticMaxAttempts)
	}
	if tr.Acquired == 0 {
		t.Fatal("fallback run acquired no locks")
	}
	want := 1 + optimisticMaxAttempts // seed edge + one conflicting insert per attempt
	if cnt.Value() != want {
		t.Fatalf("count = %d, want %d", cnt.Value(), want)
	}
}

// TestOptimisticDifferentialQuickCheck interleaves random mutations with
// read-only batches on every capable variant and requires the batch
// results to match the sequential Reference oracle at each step.
func TestOptimisticDifferentialQuickCheck(t *testing.T) {
	forEachCapableVariant(t, func(t *testing.T, r *Relation) {
		ref := NewReference(r.Spec())
		rng := rand.New(rand.NewSource(7))
		const keys = 8
		for i := 0; i < 400; i++ {
			src, dst, w := rng.Int63n(keys), rng.Int63n(keys), rng.Int63n(64)
			if rng.Intn(3) == 0 {
				okR, _ := ref.Remove(rel.T("src", src, "dst", dst))
				okC, err := r.Remove(rel.T("src", src, "dst", dst))
				if err != nil {
					t.Fatal(err)
				}
				if okR != okC {
					t.Fatalf("step %d: remove diverged (ref %v, rel %v)", i, okR, okC)
				}
			} else {
				okR, _ := ref.Insert(rel.T("src", src, "dst", dst), rel.T("weight", w))
				okC, err := r.Insert(rel.T("src", src, "dst", dst), rel.T("weight", w))
				if err != nil {
					t.Fatal(err)
				}
				if okR != okC {
					t.Fatalf("step %d: insert diverged (ref %v, rel %v)", i, okR, okC)
				}
			}
			if i%5 != 4 {
				continue
			}
			qs := rng.Int63n(keys)
			wantRows, err := ref.Query(rel.T("src", qs), "dst", "weight")
			if err != nil {
				t.Fatal(err)
			}
			var cnt *Pending[int]
			var rows *Pending[[]rel.Tuple]
			var tr *BatchTrace
			err = r.BatchReadOnly(func(tx *Txn) error {
				tx.EnableTrace()
				tr = tx.Trace()
				var err error
				if cnt, err = tx.Count(rel.T("src", qs)); err != nil {
					return err
				}
				rows, err = tx.Query(rel.T("src", qs), "dst", "weight")
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Optimistic || tr.Acquired != 0 {
				t.Fatalf("step %d: uncontended read-only batch took locks (optimistic=%v acquired=%d)", i, tr.Optimistic, tr.Acquired)
			}
			if cnt.Value() != len(wantRows) {
				t.Fatalf("step %d: count(src=%d) = %d, want %d", i, qs, cnt.Value(), len(wantRows))
			}
			if !tuplesEqual(rows.Value(), wantRows) {
				t.Fatalf("step %d: query(src=%d) = %v, want %v", i, qs, rows.Value(), wantRows)
			}
		}
	})
}

// TestOptimisticConcurrentStress races mutating batches against lock-free
// read-only batches (run under -race in CI). Writers keep the invariant
// "src 1 and src 2 have identical successor sets" by always inserting and
// removing (1,k)/(2,k) pairs in one atomic batch; every read-only batch
// therefore must observe equal counts — a torn (unvalidated) read would
// break the equality. The stress also checks convergence: every batch
// terminates, either validating within optimisticMaxAttempts or falling
// back to 2PL.
func TestOptimisticConcurrentStress(t *testing.T) {
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
				iters   = 300
				keys    = 16
			)
			var wwg, rwg sync.WaitGroup
			var retries, fallbacks atomic.Int64
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(seed int64) {
					defer wwg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < iters; i++ {
						k := rng.Int63n(keys)
						if rng.Intn(2) == 0 {
							err := r.Batch(func(tx *Txn) error {
								if _, err := tx.Insert(rel.T("src", 1, "dst", k), rel.T("weight", k)); err != nil {
									return err
								}
								_, err := tx.Insert(rel.T("src", 2, "dst", k), rel.T("weight", k))
								return err
							})
							if err != nil {
								panic(err)
							}
						} else {
							err := r.Batch(func(tx *Txn) error {
								if _, err := tx.Remove(rel.T("src", 1, "dst", k)); err != nil {
									return err
								}
								_, err := tx.Remove(rel.T("src", 2, "dst", k))
								return err
							})
							if err != nil {
								panic(err)
							}
						}
					}
				}(int64(w) + 1)
			}
			errs := make(chan error, readers)
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
						var tr *BatchTrace
						err := r.BatchReadOnly(func(tx *Txn) error {
							tx.EnableTrace()
							tr = tx.Trace()
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
						if tr.Attempts > optimisticMaxAttempts {
							errs <- fmt.Errorf("batch ran %d attempts, limit %d", tr.Attempts, optimisticMaxAttempts)
							return
						}
						retries.Add(int64(tr.Attempts - 1))
						if tr.FellBack {
							fallbacks.Add(1)
						}
						if c1.Value() != c2.Value() {
							errs <- fmt.Errorf("atomicity broken: count(src=1)=%d, count(src=2)=%d", c1.Value(), c2.Value())
							return
						}
					}
				}()
			}
			// Writers finish, then readers are stopped and drained; any
			// reader error fails the test.
			wwg.Wait()
			close(stop)
			rwg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			if _, err := r.VerifyWellFormed(); err != nil {
				t.Fatalf("relation ill-formed after stress: %v", err)
			}
			t.Logf("stress: %d validation retries, %d fallbacks", retries.Load(), fallbacks.Load())
		})
	}
}

// TestRegistryReadOnlyLockFree covers the cross-relation optimistic path:
// a read-only registry batch over two capable relations acquires zero
// locks and matches per-relation reads; a mixed batch keeps 2PL.
func TestRegistryReadOnlyLockFree(t *testing.T) {
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
	a, b := build("a"), build("b")
	mustInsert(t, a, 1, 2, 10)
	mustInsert(t, a, 1, 3, 11)
	mustInsert(t, b, 1, 9, 90)

	var ca, cb *Pending[int]
	var tr *BatchTrace
	err := g.BatchReadOnly(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		var err error
		if ca, err = tx.CountIn(a, rel.T("src", 1)); err != nil {
			return err
		}
		cb, err = tx.CountIn(b, rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Optimistic || tr.Acquired != 0 || tr.Attempts != 1 {
		t.Fatalf("cross-relation read-only batch: optimistic=%v acquired=%d attempts=%d, want lock-free single attempt",
			tr.Optimistic, tr.Acquired, tr.Attempts)
	}
	if ca.Value() != 2 || cb.Value() != 1 {
		t.Fatalf("counts = %d/%d, want 2/1", ca.Value(), cb.Value())
	}

	// Mutation enqueues are rejected on the read-only surface.
	err = g.BatchReadOnly(func(tx *Txn) error {
		if _, err := tx.InsertInto(a, rel.T("src", 4, "dst", 4), rel.T("weight", 4)); err == nil {
			t.Error("InsertInto accepted by read-only registry batch")
		}
		if _, err := tx.RemoveFrom(a, rel.T("src", 1, "dst", 2)); err == nil {
			t.Error("RemoveFrom accepted by read-only registry batch")
		}
		_, err := tx.CountIn(a, rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// A mixed batch is not read-only: it must skip the zero-lock path and
	// commit Silo-style instead (OCC: write locks only, read epochs).
	err = g.Batch(func(tx *Txn) error {
		tx.EnableTrace()
		tr = tx.Trace()
		if _, err := tx.InsertInto(a, rel.T("src", 5, "dst", 5), rel.T("weight", 5)); err != nil {
			return err
		}
		_, err := tx.CountIn(b, rel.T("src", 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Optimistic {
		t.Fatal("mixed registry batch attempted the read-only lock-free path")
	}
	if !tr.OCC {
		t.Fatal("mixed registry batch on capable relations skipped the OCC path")
	}
	if tr.Acquired == 0 {
		t.Fatal("mixed registry batch acquired no write locks")
	}
}

// TestRegistryOptimisticConcurrentStress is the cross-relation analog of
// TestOptimisticConcurrentStress: writers insert/remove the same key in
// two relations atomically; read-only registry batches must always see
// equal totals.
func TestRegistryOptimisticConcurrentStress(t *testing.T) {
	g := NewRegistry()
	build := func(name string) *Relation {
		d, err := decomp.NewBuilder(rel.MustSpec([]string{"k", "v"}, rel.FD{From: []string{"k"}, To: []string{"v"}}), "ρ").
			Edge("ρu", "ρ", "u", []string{"k"}, container.ConcurrentHashMap).
			Edge("uv", "u", "v", []string{"v"}, container.Cell).
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
	a, b := build("a"), build("b")
	const iters = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < iters; i++ {
			k := rng.Int63n(12)
			if rng.Intn(2) == 0 {
				err := g.Batch(func(tx *Txn) error {
					if _, err := tx.InsertInto(a, rel.T("k", k), rel.T("v", k)); err != nil {
						return err
					}
					_, err := tx.InsertInto(b, rel.T("k", k), rel.T("v", k))
					return err
				})
				if err != nil {
					panic(err)
				}
			} else {
				err := g.Batch(func(tx *Txn) error {
					if _, err := tx.RemoveFrom(a, rel.T("k", k)); err != nil {
						return err
					}
					_, err := tx.RemoveFrom(b, rel.T("k", k))
					return err
				})
				if err != nil {
					panic(err)
				}
			}
		}
	}()
	stop := make(chan struct{})
	var readerErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var ca, cb *Pending[int]
			err := g.BatchReadOnly(func(tx *Txn) error {
				var err error
				if ca, err = tx.CountIn(a, rel.T()); err != nil {
					return err
				}
				cb, err = tx.CountIn(b, rel.T())
				return err
			})
			if err != nil {
				readerErr = err
				return
			}
			if ca.Value() != cb.Value() {
				readerErr = fmt.Errorf("atomicity broken: |a|=%d |b|=%d", ca.Value(), cb.Value())
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	for _, r := range []*Relation{a, b} {
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatalf("%s ill-formed after stress: %v", r.Name(), err)
		}
	}
}
