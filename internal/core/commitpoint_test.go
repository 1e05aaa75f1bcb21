package core

import (
	"errors"
	"testing"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// Commit-point tests: both rows of the commit pipeline — 2PL and
// optimistic — keep one order at the commit point. Everything that can
// fail (compute, validation, query yields, the commit logger) happens
// before any Pending resolves, and the batch rolls back if anything fails
// before the logger accepted its record.

// recLogger is a CommitLogger that counts the records it received and
// fails each call with err (nil: accept).
type recLogger struct {
	err     error
	records int
}

func (l *recLogger) LogCommit([]RedoOp) error {
	l.records++
	return l.err
}

// commitPointRow is one pipeline row's fixture.
type commitPointRow struct {
	name       string
	g          *Registry
	posts      *Relation
	optimistic bool
}

// commitPointRows builds one registry per pipeline row, each holding a
// posts relation with post (1, 100) preloaded: the TreeMap posts of
// testRegistry runs the 2PL row, a ConcurrentSkipListMap middle edge the
// optimistic one.
func commitPointRows(t *testing.T) []commitPointRow {
	t.Helper()
	g2pl, _, p2pl := testRegistry(t)
	gOpt := NewRegistry()
	d, err := decomp.NewBuilder(postsSpec(), "ρ").
		Edge("ρa", "ρ", "a", []string{"author"}, container.ConcurrentHashMap).
		Edge("ap", "a", "p", []string{"post"}, container.ConcurrentSkipListMap).
		Edge("pt", "p", "t", []string{"ts"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pOpt, err := gOpt.Synthesize("posts", d.Spec, WithDecomposition(d), WithPlacement(locks.FineGrained(d)))
	if err != nil {
		t.Fatal(err)
	}
	if p2pl.OptimisticCapable() || !pOpt.OptimisticCapable() {
		t.Fatal("commit-point fixtures do not cover both rows")
	}
	rows := []commitPointRow{{"2PL", g2pl, p2pl, false}, {"optimistic", gOpt, pOpt, true}}
	for _, row := range rows {
		if _, err := row.posts.Insert(rel.T("author", 1, "post", 100), rel.T("ts", 5)); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// postsOf lists author 1's posts.
func postsOf(t *testing.T, posts *Relation) []rel.Tuple {
	t.Helper()
	got, err := posts.Query(rel.T("author", 1), "post")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkRow asserts the batch ran on the intended pipeline row.
func checkRow(t *testing.T, tr *BatchTrace, optimistic bool) {
	t.Helper()
	if tr.OCC != optimistic || (tr.Attempts == 1) != optimistic {
		t.Fatalf("trace OCC=%v attempts=%d, want optimistic=%v", tr.OCC, tr.Attempts, optimistic)
	}
}

// TestCommitPointLoggerFailure: a batch whose commit logger fails
// returns the error, resolves no Pending and leaves the relation as it
// was — on both rows.
func TestCommitPointLoggerFailure(t *testing.T) {
	for _, row := range commitPointRows(t) {
		t.Run(row.name, func(t *testing.T) {
			errDisk := errors.New("disk full")
			lg := &recLogger{err: errDisk}
			row.g.SetCommitLogger(lg)
			defer row.g.SetCommitLogger(nil)
			var ins *Pending[bool]
			var cnt *Pending[int]
			var q *Pending[[]rel.Tuple]
			var tr *BatchTrace
			err := row.g.Batch(func(tx *Txn) error {
				tx.EnableTrace()
				tr = tx.Trace()
				var err error
				if ins, err = tx.InsertInto(row.posts, rel.T("author", 1, "post", 101), rel.T("ts", 6)); err != nil {
					return err
				}
				if cnt, err = tx.CountIn(row.posts, rel.T("author", 1)); err != nil {
					return err
				}
				q, err = tx.QueryIn(row.posts, rel.T("author", 1), "post")
				return err
			})
			if !errors.Is(err, errDisk) {
				t.Fatalf("Batch returned %v, want the logger's error", err)
			}
			checkRow(t, tr, row.optimistic)
			if lg.records != 1 {
				t.Fatalf("logger received %d records, want 1", lg.records)
			}
			if _, done := ins.Get(); done {
				t.Error("insert pending resolved by a batch the logger rejected")
			}
			if n, done := cnt.Get(); done {
				t.Errorf("count pending resolved (%d) by a batch the logger rejected", n)
			}
			if rows, done := q.Get(); done {
				t.Errorf("query pending resolved (%v) by a batch the logger rejected", rows)
			}
			if got := postsOf(t, row.posts); len(got) != 1 {
				t.Fatalf("posts after the rejected batch = %v, want only post 100", got)
			}
		})
	}
}

// TestCommitPointYieldPanic: a query yield that panics rolls the batch
// back before anything reaches the commit logger — on both rows.
func TestCommitPointYieldPanic(t *testing.T) {
	for _, row := range commitPointRows(t) {
		t.Run(row.name, func(t *testing.T) {
			lg := &recLogger{}
			row.g.SetCommitLogger(lg)
			defer row.g.SetCommitLogger(nil)
			q := mustPrepareQuery(t, row.posts, []string{"author"}, []string{"post"})
			var tr *BatchTrace
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("batch did not panic")
					}
				}()
				row.g.Batch(func(tx *Txn) error {
					tx.EnableTrace()
					tr = tx.Trace()
					if _, err := tx.InsertInto(row.posts, rel.T("author", 1, "post", 101), rel.T("ts", 6)); err != nil {
						return err
					}
					return tx.ExecRows(q, mustRow(row.posts, map[string]int64{"author": 1}), func(rel.Row) bool {
						panic("commit-point test: yield failure")
					})
				})
			}()
			checkRow(t, tr, row.optimistic)
			if lg.records != 0 {
				t.Fatalf("logger received %d records from a batch that rolled back", lg.records)
			}
			if got := postsOf(t, row.posts); len(got) != 1 {
				t.Fatalf("posts after the rolled-back batch = %v, want only post 100", got)
			}
		})
	}
}
