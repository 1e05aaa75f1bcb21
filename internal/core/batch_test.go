package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/container"
	"repro/internal/rel"
)

// TestBatchMatchesSequential runs the same operation sequence once as
// individual operations and once as a single batch, on every variant, and
// requires identical per-operation results and final contents — the batch
// semantics contract: a batch behaves like its members run sequentially,
// atomically.
func TestBatchMatchesSequential(t *testing.T) {
	ops := []struct {
		kind             string
		src, dst, weight int
	}{
		{"ins", 1, 2, 10},
		{"ins", 1, 3, 11},
		{"ins", 1, 2, 99}, // duplicate key: put-if-absent fails
		{"cnt", 1, 0, 0},
		{"rem", 1, 2, 0},
		{"ins", 1, 2, 12}, // re-insert after remove in the same batch
		{"cnt", 1, 0, 0},
		{"rem", 9, 9, 0}, // absent key
	}
	forEachVariant(t, func(t *testing.T, r *Relation) {
		ref := NewReference(r.Spec())
		var want []any
		for _, op := range ops {
			switch op.kind {
			case "ins":
				ok, err := ref.Insert(rel.T("src", op.src, "dst", op.dst), rel.T("weight", op.weight))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, ok)
			case "rem":
				ok, err := ref.Remove(rel.T("src", op.src, "dst", op.dst))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, ok)
			case "cnt":
				res, err := ref.Query(rel.T("src", op.src), "dst")
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, len(res))
			}
		}
		var bools []*Pending[bool]
		var ints []*Pending[int]
		var order []string
		err := r.Batch(func(tx *Txn) error {
			for _, op := range ops {
				switch op.kind {
				case "ins":
					p, err := tx.Insert(rel.T("src", op.src, "dst", op.dst), rel.T("weight", op.weight))
					if err != nil {
						return err
					}
					bools = append(bools, p)
					order = append(order, "b")
				case "rem":
					p, err := tx.Remove(rel.T("src", op.src, "dst", op.dst))
					if err != nil {
						return err
					}
					bools = append(bools, p)
					order = append(order, "b")
				case "cnt":
					p, err := tx.Count(rel.T("src", op.src))
					if err != nil {
						return err
					}
					ints = append(ints, p)
					order = append(order, "i")
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		bi, ii := 0, 0
		for i, tag := range order {
			var got any
			if tag == "b" {
				got = bools[bi].Value()
				bi++
			} else {
				got = ints[ii].Value()
				ii++
			}
			if got != want[i] {
				t.Fatalf("op %d (%s): batch got %v, sequential reference got %v", i, ops[i].kind, got, want[i])
			}
		}
		assertSameTuples(t, r, ref)
	})
}

// assertSameTuples checks that the relation's contents match the
// reference's, and that the instance graph is well formed.
func assertSameTuples(t *testing.T, r *Relation, ref *Reference) {
	t.Helper()
	got, err := r.VerifyWellFormed()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("contents diverge: synthesized has %d tuples, reference %d\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestBatchReadSnapshot pins the read-members contract: queries and
// counts enqueued before the first mutation see the pre-batch state, and
// ones enqueued after it see the effects of the mutations before them.
func TestBatchReadSnapshot(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		mustInsert(t, r, 1, 2, 40)
		var before, after *Pending[int]
		err := r.Batch(func(tx *Txn) error {
			var err error
			if before, err = tx.Count(rel.T("src", 1)); err != nil {
				return err
			}
			if _, err = tx.Insert(rel.T("src", 1, "dst", 7), rel.T("weight", 1)); err != nil {
				return err
			}
			after, err = tx.Count(rel.T("src", 1))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if before.Value() != 1 {
			t.Fatalf("pre-mutation count = %d, want 1", before.Value())
		}
		if after.Value() != 2 {
			t.Fatalf("post-mutation count = %d, want 2 (read-your-writes)", after.Value())
		}
	})
}

// TestBatchExecRows exercises the prepared-row batch surface end to end:
// ExecRow mutations and an ExecRows read delivering rows at commit.
func TestBatchExecRows(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		ins, err := r.PrepareInsert([]string{"dst", "src"})
		if err != nil {
			t.Fatal(err)
		}
		rem, err := r.PrepareRemove([]string{"dst", "src"})
		if err != nil {
			t.Fatal(err)
		}
		q, err := r.PrepareQuery([]string{"src"}, []string{"dst", "weight"})
		if err != nil {
			t.Fatal(err)
		}
		schema := r.Schema()
		iSrc, iDst, iW := schema.MustIndex("src"), schema.MustIndex("dst"), schema.MustIndex("weight")
		row := func(src, dst, w int64, full bool) rel.Row {
			rw := schema.NewRow()
			rw.Set(iSrc, src)
			rw.Set(iDst, dst)
			if full {
				rw.Set(iW, w)
			}
			return rw
		}
		mustInsert(t, r, 5, 1, 100)
		var okIns, okRem *Pending[bool]
		seen := 0
		err = r.Batch(func(tx *Txn) error {
			var err error
			if okIns, err = tx.ExecRow(ins, row(5, 2, 7, true)); err != nil {
				return err
			}
			if okRem, err = tx.ExecRow(rem, row(5, 1, 0, false)); err != nil {
				return err
			}
			qr := schema.NewRow()
			qr.Set(iSrc, int64(5))
			return tx.ExecRows(q, qr, func(rel.Row) bool { seen++; return true })
		})
		if err != nil {
			t.Fatal(err)
		}
		if !okIns.Value() || !okRem.Value() {
			t.Fatalf("ExecRow results: insert %v remove %v, want true true", okIns.Value(), okRem.Value())
		}
		// The query was enqueued after the mutations: it must observe them.
		if seen != 1 {
			t.Fatalf("ExecRows yielded %d rows, want 1 (post-mutation view)", seen)
		}
	})
}

// TestBatchAbort checks all-or-nothing on callback error: nothing runs.
func TestBatchAbort(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		mustInsert(t, r, 1, 2, 3)
		errBoom := fmt.Errorf("boom")
		err := r.Batch(func(tx *Txn) error {
			if _, err := tx.Insert(rel.T("src", 8, "dst", 8), rel.T("weight", 8)); err != nil {
				return err
			}
			if _, err := tx.Remove(rel.T("src", 1, "dst", 2)); err != nil {
				return err
			}
			return errBoom
		})
		if err != errBoom {
			t.Fatalf("Batch returned %v, want the callback error", err)
		}
		tuples, err := r.VerifyWellFormed()
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != 1 {
			t.Fatalf("aborted batch changed the relation: %v", tuples)
		}
	})
}

// TestBatchLockAudit is the coalescing acceptance test: an N-operation
// batch acquires each physical lock AT MOST ONCE (no lock identity
// repeats anywhere in the batch's acquisition trace), and acquires no
// more locks than the same operations issued as N one-member batches.
func TestBatchLockAudit(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		// Overlapping ops: two inserts under one source, a remove of one of
		// them, and reads of the same source — heavy lock overlap.
		run := func(grouped bool) (acquired, requested int) {
			ops := func(tx *Txn) error {
				if _, err := tx.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 10)); err != nil {
					return err
				}
				if _, err := tx.Insert(rel.T("src", 1, "dst", 3), rel.T("weight", 11)); err != nil {
					return err
				}
				if _, err := tx.Count(rel.T("src", 1)); err != nil {
					return err
				}
				if _, err := tx.Remove(rel.T("src", 1, "dst", 2)); err != nil {
					return err
				}
				return nil
			}
			if grouped {
				var tr *BatchTrace
				err := r.Batch(func(tx *Txn) error {
					tx.EnableTrace()
					tr = tx.Trace()
					return ops(tx)
				})
				if err != nil {
					t.Fatal(err)
				}
				seen := map[string]bool{}
				for _, rd := range tr.Rounds {
					for _, id := range rd.IDs {
						if seen[id.String()] {
							t.Fatalf("batch acquired lock %v more than once:\n%s", id, tr)
						}
						seen[id.String()] = true
					}
				}
				return tr.Acquired, tr.Requested
			}
			// One-member batches: the non-coalesced baseline.
			singles := []func(tx *Txn) error{
				func(tx *Txn) error { _, err := tx.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 10)); return err },
				func(tx *Txn) error { _, err := tx.Insert(rel.T("src", 1, "dst", 3), rel.T("weight", 11)); return err },
				func(tx *Txn) error { _, err := tx.Count(rel.T("src", 1)); return err },
				func(tx *Txn) error { _, err := tx.Remove(rel.T("src", 1, "dst", 2)); return err },
			}
			for _, s := range singles {
				var tr *BatchTrace
				err := r.Batch(func(tx *Txn) error {
					tx.EnableTrace()
					tr = tx.Trace()
					return s(tx)
				})
				if err != nil {
					t.Fatal(err)
				}
				acquired += tr.Acquired
				requested += tr.Requested
			}
			return acquired, requested
		}
		groupedAcq, _ := run(true)
		// Reset contents for the sequential run.
		r.Remove(rel.T("src", 1, "dst", 3))
		seqAcq, _ := run(false)
		if groupedAcq > seqAcq {
			t.Fatalf("coalesced batch acquired %d locks, sequential acquired %d", groupedAcq, seqAcq)
		}
		if groupedAcq == 0 {
			t.Fatal("trace recorded no acquisitions")
		}
	})
}

// TestBatchDifferentialQuick is the batched-vs-sequential differential
// quick-check: any random operation group executed as one batch yields
// the same per-operation results and final contents as the same sequence
// executed one operation at a time against the §2 reference, on every
// graph variant — the one batch scheduler must carry every placement.
func TestBatchDifferentialQuick(t *testing.T) {
	for _, v := range graphVariants() {
		t.Run(v.name, func(t *testing.T) {
			f := func(pre, group graphOps) bool {
				r := v.build(t)
				ref := NewReference(r.Spec())
				// Pre-populate both sides identically.
				for _, op := range pre {
					if op.Kind%5 >= 2 {
						continue
					}
					s := rel.T("src", int(op.Src), "dst", int(op.Dst))
					w := rel.T("weight", int(op.Weight))
					if _, err := r.Insert(s, w); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.Insert(s, w); err != nil {
						t.Fatal(err)
					}
				}
				// Sequential reference results.
				var want []any
				for _, op := range group {
					s := rel.T("src", int(op.Src), "dst", int(op.Dst))
					switch op.Kind % 5 {
					case 0, 1:
						ok, _ := ref.Insert(s, rel.T("weight", int(op.Weight)))
						want = append(want, ok)
					case 2:
						ok, _ := ref.Remove(s)
						want = append(want, ok)
					case 3:
						res, _ := ref.Query(rel.T("src", int(op.Src)), "dst")
						want = append(want, len(res))
					default:
						res, _ := ref.Query(rel.T("src", int(op.Src), "dst", int(op.Dst)), "weight")
						want = append(want, len(res))
					}
				}
				// The same group as one batch.
				var got []func() any
				err := r.Batch(func(tx *Txn) error {
					for _, op := range group {
						s := rel.T("src", int(op.Src), "dst", int(op.Dst))
						switch op.Kind % 5 {
						case 0, 1:
							p, err := tx.Insert(s, rel.T("weight", int(op.Weight)))
							if err != nil {
								return err
							}
							got = append(got, func() any { return p.Value() })
						case 2:
							p, err := tx.Remove(s)
							if err != nil {
								return err
							}
							got = append(got, func() any { return p.Value() })
						case 3:
							p, err := tx.Count(rel.T("src", int(op.Src)))
							if err != nil {
								return err
							}
							got = append(got, func() any { return p.Value() })
						default:
							p, err := tx.Count(s)
							if err != nil {
								return err
							}
							got = append(got, func() any { return p.Value() })
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i]() != want[i] {
						t.Errorf("group op %d: batch %v, sequential %v", i, got[i](), want[i])
						return false
					}
				}
				assertSameTuples(t, r, ref)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchSpecScanDifferential sends the two query shapes that reach a
// speculative scan of the diamond's ρx edge — nothing bound, and only
// weight bound — through every batch member kind (prepared ExecRows
// queries and CountRow counts, beside inserts and removes) and compares
// each result with the same group run sequentially on the reference. On
// the speculative diamond the read members cross the growing phase's
// registered spec-scan requests and, after a mutation, the apply phase's
// re-execution; on its all-concurrent twin they cross the optimistic
// read-only and OCC reads.
func TestBatchSpecScanDifferential(t *testing.T) {
	variants := []variant{
		{"diamond/speculative", func(t *testing.T) *Relation { return diamondRel(t, true) }},
		{"diamond/speculative/chm+csl", specDiamondCapable},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			f := func(pre, group graphOps) bool {
				r := v.build(t)
				ref := NewReference(r.Spec())
				all := r.Schema().Columns()
				qAll, err := r.PrepareQuery(nil, all)
				if err != nil {
					t.Fatal(err)
				}
				qW, err := r.PrepareQuery([]string{"weight"}, all)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range pre {
					s, w := rel.T("src", int(op.Src), "dst", int(op.Dst)), rel.T("weight", int(op.Weight%4))
					if _, err := r.Insert(s, w); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.Insert(s, w); err != nil {
						t.Fatal(err)
					}
				}
				group = group[:1+len(group)%8] // short groups: read-only ones are common
				render := func(ts []rel.Tuple) string {
					ss := make([]string, len(ts))
					for i, tup := range ts {
						ss[i] = fmt.Sprint(tup.MustGet("src"), "/", tup.MustGet("dst"), "/", tup.MustGet("weight"))
					}
					sort.Strings(ss)
					return strings.Join(ss, " ")
				}
				var want []string
				for _, op := range group {
					s, w := rel.T("src", int(op.Src), "dst", int(op.Dst)), rel.T("weight", int(op.Weight%4))
					bound := rel.T()
					if op.Kind%5 == 4 {
						bound = w
					}
					switch op.Kind % 5 {
					case 0:
						ok, _ := ref.Insert(s, w)
						want = append(want, fmt.Sprint(ok))
					case 1:
						ok, _ := ref.Remove(s)
						want = append(want, fmt.Sprint(ok))
					default:
						res, _ := ref.Query(bound, all...)
						if op.Kind%5 == 3 || op.Weight%2 == 1 {
							want = append(want, fmt.Sprint(len(res)))
						} else {
							want = append(want, render(res))
						}
					}
				}
				schema := r.Schema()
				var got []func() string
				err = r.Batch(func(tx *Txn) error {
					for _, op := range group {
						s, w := rel.T("src", int(op.Src), "dst", int(op.Dst)), rel.T("weight", int(op.Weight%4))
						q, row := qAll, schema.NewRow()
						if op.Kind%5 == 4 {
							q = qW
							row.Set(schema.MustIndex("weight"), int64(op.Weight%4))
						}
						switch {
						case op.Kind%5 == 0:
							p, err := tx.Insert(s, w)
							if err != nil {
								return err
							}
							got = append(got, func() string { return fmt.Sprint(p.Value()) })
						case op.Kind%5 == 1:
							p, err := tx.Remove(s)
							if err != nil {
								return err
							}
							got = append(got, func() string { return fmt.Sprint(p.Value()) })
						case op.Kind%5 == 3 || op.Weight%2 == 1:
							p, err := tx.CountRow(q, row)
							if err != nil {
								return err
							}
							got = append(got, func() string { return fmt.Sprint(p.Value()) })
						default:
							var rows []rel.Tuple
							if err := tx.ExecRows(q, row, func(x rel.Row) bool {
								rows = append(rows, schema.TupleOfRow(x))
								return true
							}); err != nil {
								return err
							}
							got = append(got, func() string { return render(rows) })
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if g := got[i](); g != want[i] {
						t.Errorf("group op %d (%+v): batch %q, sequential %q", i, group[i], g, want[i])
						return false
					}
				}
				assertSameTuples(t, r, ref)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchConcurrentStress drives overlapping batches from many
// goroutines on every variant — insert pairs, move-edges (remove+insert),
// grouped counts — and checks deadlock freedom (timeout) and quiescent
// coherence. Run under -race.
func TestBatchConcurrentStress(t *testing.T) {
	forEachVariant(t, func(t *testing.T, r *Relation) {
		const workers = 8
		const batchesPerWorker = 120
		const keys = 8
		done := make(chan struct{})
		go func() {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < batchesPerWorker; i++ {
						a, b, c := rng.Intn(keys), rng.Intn(keys), rng.Intn(keys)
						var err error
						switch rng.Intn(4) {
						case 0: // insert pair
							err = r.Batch(func(tx *Txn) error {
								if _, e := tx.Insert(rel.T("src", a, "dst", b), rel.T("weight", i)); e != nil {
									return e
								}
								_, e := tx.Insert(rel.T("src", a, "dst", c), rel.T("weight", i+1))
								return e
							})
						case 1: // move edge
							err = r.Batch(func(tx *Txn) error {
								if _, e := tx.Remove(rel.T("src", a, "dst", b)); e != nil {
									return e
								}
								_, e := tx.Insert(rel.T("src", a, "dst", c), rel.T("weight", i))
								return e
							})
						case 2: // grouped counts (both directions)
							err = r.Batch(func(tx *Txn) error {
								if _, e := tx.Count(rel.T("src", a)); e != nil {
									return e
								}
								_, e := tx.Count(rel.T("dst", b))
								return e
							})
						default: // mixed read-write
							err = r.Batch(func(tx *Txn) error {
								if _, e := tx.Count(rel.T("src", a)); e != nil {
									return e
								}
								if _, e := tx.Insert(rel.T("src", b, "dst", c), rel.T("weight", i)); e != nil {
									return e
								}
								_, e := tx.Remove(rel.T("src", c, "dst", a))
								return e
							})
						}
						if err != nil {
							t.Errorf("batch: %v", err)
							return
						}
					}
				}(int64(w*7919 + 13))
			}
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(90 * time.Second):
			t.Fatal("deadlock: concurrent batch stress did not finish")
		}
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchPendingBeforeCommit pins the future contract: reading a
// Pending inside the callback panics, Get reports not-done.
func TestBatchPendingBeforeCommit(t *testing.T) {
	r := graphVariants()[0].build(t)
	err := r.Batch(func(tx *Txn) error {
		p, err := tx.Insert(rel.T("src", 1, "dst", 1), rel.T("weight", 1))
		if err != nil {
			return err
		}
		if _, done := p.Get(); done {
			t.Error("Pending done inside callback")
		}
		defer func() {
			if recover() == nil {
				t.Error("Pending.Value inside callback did not panic")
			}
		}()
		p.Value()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUndoLogRollback checks the all-or-nothing substrate directly:
// recorded writes are reversed exactly, in reverse order, restoring
// previously present and previously absent keys alike.
func TestUndoLogRollback(t *testing.T) {
	c := container.New(container.TreeMap, 1)
	c.Write(rel.NewKey(int64(1)), "a")
	c.Write(rel.NewKey(int64(2)), "b")
	var u undoLog
	// Overwrite 1, delete 2, create 3 — recording each displaced binding.
	record := func(k rel.Key, v any) {
		old, had := c.Lookup(k)
		u.record(c, k, old, had)
		c.Write(k, v)
	}
	record(rel.NewKey(int64(1)), "A")
	record(rel.NewKey(int64(2)), nil)
	record(rel.NewKey(int64(3)), "c")
	u.rollback()
	if v, ok := c.Lookup(rel.NewKey(int64(1))); !ok || v != "a" {
		t.Fatalf("key 1 not restored: %v %v", v, ok)
	}
	if v, ok := c.Lookup(rel.NewKey(int64(2))); !ok || v != "b" {
		t.Fatalf("key 2 not restored: %v %v", v, ok)
	}
	if _, ok := c.Lookup(rel.NewKey(int64(3))); ok {
		t.Fatal("key 3 not rolled back")
	}
	if c.Len() != 2 {
		t.Fatalf("container has %d entries after rollback, want 2", c.Len())
	}
}

// mustInsert is a test helper for a single tuple insert.
func mustInsert(t *testing.T, r *Relation, src, dst, w int) {
	t.Helper()
	ok, err := r.Insert(rel.T("src", src, "dst", dst), rel.T("weight", w))
	if err != nil || !ok {
		t.Fatalf("insert (%d,%d,%d): ok=%v err=%v", src, dst, w, ok, err)
	}
}
