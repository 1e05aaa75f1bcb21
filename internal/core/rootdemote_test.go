package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// The demotable-root protocol (query.Planner.KeyNode): a batch's write
// members hold a single-lock root Shared on the 2PL row and record its
// epoch on the optimistic row, escalate it in the growing phase when a
// key-node instance is missing or a remove will surely empty one, leave
// an emptied key-node instance linked — and hidden from later reads —
// until the end of the apply phase, and escalate late — roll back and
// regrow — when that sweep must unlink it.

// demotableUsers synthesizes a users relation (user → posts) whose root
// is demotable: a hash-map root edge of the given kind under fine-grained
// placement.
func demotableUsers(t *testing.T, g *Registry, root container.Kind) *Relation {
	t.Helper()
	d, err := decomp.NewBuilder(rel.MustSpec([]string{"user", "posts"},
		rel.FD{From: []string{"user"}, To: []string{"posts"}}), "ρ").
		Edge("ρu", "ρ", "u", []string{"user"}, root).
		Edge("uc", "u", "c", []string{"posts"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Synthesize("users", d.Spec, WithDecomposition(d), WithPlacement(locks.FineGrained(d)))
	if err != nil {
		t.Fatal(err)
	}
	if r.keyNode < 0 {
		t.Fatal("users root is not demotable")
	}
	return r
}

// demotablePosts synthesizes the posts relation of the social schema
// over the given root and middle container kinds.
func demotablePosts(t *testing.T, g *Registry, root, mid container.Kind) *Relation {
	t.Helper()
	d, err := decomp.NewBuilder(postsSpec(), "ρ").
		Edge("ρa", "ρ", "a", []string{"author"}, root).
		Edge("ap", "a", "p", []string{"post"}, mid).
		Edge("pt", "p", "t", []string{"ts"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Synthesize("posts", d.Spec, WithDecomposition(d), WithPlacement(locks.FineGrained(d)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// keyInst returns the key-node instance the root container links for
// key k, nil when there is none.
func keyInst(r *Relation, k any) *Instance {
	v, ok := r.container(r.root, r.decomp.Root.Out[0]).Lookup(rel.NewKey(k))
	if !ok {
		return nil
	}
	return v.(*Instance)
}

// rootEpoch returns the epoch of r's root lock.
func rootEpoch(r *Relation) uint64 { return r.root.lock(0).Epoch() }

// wellFormed runs VerifyWellFormed and returns the sorted contents.
func wellFormed(t *testing.T, r *Relation) []rel.Tuple {
	t.Helper()
	got, err := r.VerifyWellFormed()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// demotionRows runs body on both rows of the commit pipeline: on a plain
// hash-map root, where every batch commits under 2PL, and on a
// concurrent one with mixed set, where the batch gains a count member
// and commits on the optimistic row.
func demotionRows(t *testing.T, body func(t *testing.T, root container.Kind, mixed bool)) {
	for _, row := range []struct {
		name  string
		root  container.Kind
		mixed bool
	}{{"2PL", container.HashMap, false}, {"optimistic", container.ConcurrentHashMap, true}} {
		t.Run(row.name, func(t *testing.T) { body(t, row.root, row.mixed) })
	}
}

// TestRemoveInsertKeepsInstance: a batch that removes a user and inserts
// it again — the counter bump of the social composites — refills the
// same key-node instance and writes nothing at the root: the root's
// epoch does not move and no escalation happens.
func TestRemoveInsertKeepsInstance(t *testing.T) {
	demotionRows(t, func(t *testing.T, root container.Kind, mixed bool) {
		g := NewRegistry()
		users := demotableUsers(t, g, root)
		mustInsertTuple(t, users, rel.T("user", 1), rel.T("posts", 5))
		inst, epoch := keyInst(users, 1), rootEpoch(users)
		var tr *BatchTrace
		var rem, ins *Pending[bool]
		err := g.Batch(func(tx *Txn) error {
			tx.EnableTrace()
			tr = tx.Trace()
			var err error
			if rem, err = tx.RemoveFrom(users, rel.T("user", 1)); err != nil {
				return err
			}
			if ins, err = tx.InsertInto(users, rel.T("user", 1), rel.T("posts", 6)); err != nil {
				return err
			}
			if mixed {
				_, err = tx.CountIn(users, rel.T("user", 2))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rem.Value() || !ins.Value() {
			t.Fatalf("remove %v insert %v, want true true", rem.Value(), ins.Value())
		}
		if tr.OCC != mixed || tr.Escalations != 0 {
			t.Fatalf("trace OCC=%v escalations=%d, want OCC=%v and no escalation", tr.OCC, tr.Escalations, mixed)
		}
		if got := keyInst(users, 1); got != inst {
			t.Fatal("the counter bump replaced the key-node instance")
		}
		if got := rootEpoch(users); got != epoch {
			t.Fatalf("root epoch moved %d -> %d; the batch wrote the root", epoch, got)
		}
		if got := wellFormed(t, users); len(got) != 1 || !got[0].Equal(rel.T("user", 1, "posts", 6)) {
			t.Fatalf("users = %v", got)
		}
	})
}

// TestDeferredUnlink: an emptied key-node instance is unlinked by the end
// of the apply phase — after a lone remove, whose batch escalates in the
// growing phase because user is a key of users, and after remove +
// insert + remove of the same key, whose batch escalates late and applies
// twice — and a yield panic after a deferred unlink rolls everything
// back.
func TestDeferredUnlink(t *testing.T) {
	demotionRows(t, func(t *testing.T, root container.Kind, mixed bool) {
		run := func(t *testing.T, name string, wantApplies int, ops func(tx *Txn, users *Relation) error) {
			t.Run(name, func(t *testing.T) {
				g := NewRegistry()
				users := demotableUsers(t, g, root)
				mustInsertTuple(t, users, rel.T("user", 1), rel.T("posts", 5))
				mustInsertTuple(t, users, rel.T("user", 2), rel.T("posts", 7))
				applies := 0
				registryApplyHook = func(_ string, pos int) {
					if pos == 0 {
						applies++
					}
				}
				defer func() { registryApplyHook = nil }()
				var tr *BatchTrace
				err := g.Batch(func(tx *Txn) error {
					tx.EnableTrace()
					tr = tx.Trace()
					if err := ops(tx, users); err != nil {
						return err
					}
					if mixed {
						_, err := tx.CountIn(users, rel.T("user", 2))
						return err
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				// One escalation: in the growing phase (one apply), or at
				// the end of the apply phase, which rolls back and applies
				// again.
				if tr.OCC != mixed || tr.Escalations != 1 || tr.FellBack || applies != wantApplies {
					t.Fatalf("trace OCC=%v escalations=%d fellback=%v applies=%d, want OCC=%v, 1, false, %d",
						tr.OCC, tr.Escalations, tr.FellBack, applies, mixed, wantApplies)
				}
				if keyInst(users, 1) != nil {
					t.Fatal("user 1 is still linked")
				}
				if got := wellFormed(t, users); len(got) != 1 || !got[0].Equal(rel.T("user", 2, "posts", 7)) {
					t.Fatalf("users = %v", got)
				}
			})
		}
		run(t, "remove", 1, func(tx *Txn, users *Relation) error {
			_, err := tx.RemoveFrom(users, rel.T("user", 1))
			return err
		})
		run(t, "remove insert remove", 2, func(tx *Txn, users *Relation) error {
			if _, err := tx.RemoveFrom(users, rel.T("user", 1)); err != nil {
				return err
			}
			if _, err := tx.InsertInto(users, rel.T("user", 1), rel.T("posts", 6)); err != nil {
				return err
			}
			_, err := tx.RemoveFrom(users, rel.T("user", 1))
			return err
		})

		t.Run("yield panic", func(t *testing.T) {
			g := NewRegistry()
			users := demotableUsers(t, g, root)
			mustInsertTuple(t, users, rel.T("user", 1), rel.T("posts", 5))
			mustInsertTuple(t, users, rel.T("user", 2), rel.T("posts", 9))
			inst, epoch := keyInst(users, 2), rootEpoch(users)
			q := mustPrepareQuery(t, users, []string{"user"}, []string{"posts"})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("batch did not panic")
					}
				}()
				// The remove empties u(2) under the escalated root; the
				// sweep unlinks it; the yield runs after the sweep.
				g.Batch(func(tx *Txn) error {
					if _, err := tx.RemoveFrom(users, rel.T("user", 2)); err != nil {
						return err
					}
					return tx.ExecRows(q, mustRow(users, map[string]int64{"user": 1}), func(rel.Row) bool {
						panic("root demotion test: yield failure")
					})
				})
			}()
			if keyInst(users, 2) != inst {
				t.Fatal("the rollback did not relink user 2's instance")
			}
			if rootEpoch(users) == epoch {
				t.Fatal("root epoch unchanged across a rolled-back unlink — a torn read could validate")
			}
			if got := wellFormed(t, users); len(got) != 2 {
				t.Fatalf("users after the rolled-back batch = %v", got)
			}
			for id, e := range collectEpochs(users) {
				if e&1 == 1 {
					t.Errorf("lock %s: odd epoch %d after rollback", id, e)
				}
			}
		})
	})
}

// raceOp is one mutation of a race batch: an insert of s ∪ t, or a
// remove of s.
type raceOp struct {
	s, t   rel.Tuple
	remove bool
}

// raceBatch is one batch of a deterministic race: its mutations, plus a
// count member when mixed, and after it ran its commit stamp and results.
type raceBatch struct {
	ops   []raceOp
	mixed bool
	stamp uint64
	got   []bool
	tr    *BatchTrace
}

func (rb *raceBatch) run(t *testing.T, g *Registry, r *Relation) {
	var txp *Txn
	var pbs []*Pending[bool]
	err := g.Batch(func(tx *Txn) error {
		txp = tx
		tx.EnableTrace()
		for _, op := range rb.ops {
			var pb *Pending[bool]
			var err error
			if op.remove {
				pb, err = tx.RemoveFrom(r, op.s)
			} else {
				pb, err = tx.InsertInto(r, op.s, op.t)
			}
			if err != nil {
				return err
			}
			pbs = append(pbs, pb)
		}
		if rb.mixed {
			_, err := tx.CountIn(r, rel.T("author", 7))
			return err
		}
		return nil
	})
	if err != nil {
		t.Error(err)
		return
	}
	rb.stamp, rb.tr = txp.Stamp(), txp.Trace()
	for _, pb := range pbs {
		rb.got = append(rb.got, pb.Value())
	}
}

// checkRace replays pre and the batches in commit-stamp order on a
// Reference and compares every batch result and r's final contents.
func checkRace(t *testing.T, r *Relation, pre []raceOp, bs ...*raceBatch) {
	t.Helper()
	ref := NewReference(r.Spec())
	apply := func(op raceOp) bool {
		var ok bool
		var err error
		if op.remove {
			ok, err = ref.Remove(op.s)
		} else {
			ok, err = ref.Insert(op.s, op.t)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	for _, op := range pre {
		apply(op)
	}
	if bs[0].stamp > bs[1].stamp {
		bs[0], bs[1] = bs[1], bs[0]
	}
	for _, b := range bs {
		for i, op := range b.ops {
			if want := apply(op); i >= len(b.got) || b.got[i] != want {
				t.Fatalf("batch at stamp %d: results %v, reference op %d gives %v", b.stamp, b.got, i, want)
			}
		}
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := wellFormed(t, r)
	sortTuples(want)
	sortTuples(got)
	if len(got) != len(want) {
		t.Fatalf("contents %v, reference %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("contents %v, reference %v", got, want)
		}
	}
}

// TestRootEscalationRaces drives the two races of the demotable root
// deterministically, on both rows: a batch inserting under a new author 7
// while another batch creates author 7 in the window of its escalation,
// and the same insert under an existing author 7 while another batch
// removes author 7's last post, which escalates late.
func TestRootEscalationRaces(t *testing.T) {
	for _, row := range []struct {
		name      string
		root, mid container.Kind
		mixed     bool
	}{
		{"2PL", container.HashMap, container.TreeMap, false},
		{"optimistic", container.ConcurrentHashMap, container.ConcurrentSkipListMap, true},
	} {
		t.Run(row.name+"/author created during escalation", func(t *testing.T) {
			g := NewRegistry()
			posts := demotablePosts(t, g, row.root, row.mid)
			pre := []raceOp{{s: rel.T("author", 3, "post", 1), t: rel.T("ts", 1)}}
			for _, op := range pre {
				mustInsertTuple(t, posts, op.s, op.t)
			}
			a := &raceBatch{ops: []raceOp{{s: rel.T("author", 7, "post", 1), t: rel.T("ts", 10)}}, mixed: row.mixed}
			b := &raceBatch{ops: []raceOp{{s: rel.T("author", 7, "post", 2), t: rel.T("ts", 20)}}, mixed: row.mixed}
			fired := false
			rootEscalateHook = func(string) {
				if !fired {
					fired = true
					b.run(t, g, posts) // a holds nothing of posts here
				}
			}
			defer func() { rootEscalateHook = nil }()
			a.run(t, g, posts)
			if !fired || a.tr.Escalations != 1 || b.tr.Escalations != 1 {
				t.Fatalf("hook fired %v, escalations %d and %d, want true, 1, 1", fired, a.tr.Escalations, b.tr.Escalations)
			}
			checkRace(t, posts, pre, a, b)
		})
		t.Run(row.name+"/last post removed", func(t *testing.T) {
			g := NewRegistry()
			posts := demotablePosts(t, g, row.root, row.mid)
			pre := []raceOp{{s: rel.T("author", 7, "post", 1), t: rel.T("ts", 1)}}
			for _, op := range pre {
				mustInsertTuple(t, posts, op.s, op.t)
			}
			a := &raceBatch{ops: []raceOp{{s: rel.T("author", 7, "post", 2), t: rel.T("ts", 20)}}, mixed: row.mixed}
			b := &raceBatch{ops: []raceOp{{s: rel.T("author", 7, "post", 1), remove: true}}, mixed: row.mixed}
			var wg sync.WaitGroup
			var once sync.Once
			registryApplyHook = func(string, int) {
				once.Do(func() {
					// b holds author 7 exclusively: a grows up to it and
					// waits while b escalates late and regrows.
					wg.Add(1)
					go func() {
						defer wg.Done()
						a.run(t, g, posts)
					}()
					time.Sleep(20 * time.Millisecond)
				})
			}
			defer func() { registryApplyHook = nil }()
			b.run(t, g, posts)
			wg.Wait()
			if b.tr.Escalations < 1 {
				t.Fatalf("the last-post remove escalated %d times, want at least 1", b.tr.Escalations)
			}
			checkRace(t, posts, pre, a, b)
		})
	}
}

// seqOp is one member of a sequential-semantics batch: an insert of
// s ∪ t, a remove of s, a query of s projected on out, or a count of s.
type seqOp struct {
	kind string // "insert", "remove", "query", "count"
	s, t rel.Tuple
	out  []string
}

// distinctSorted returns ts without duplicates, sorted: a projection's
// result as a set.
func distinctSorted(ts []rel.Tuple) []rel.Tuple {
	sortTuples(ts)
	out := []rel.Tuple{}
	for _, u := range ts {
		if len(out) == 0 || !out[len(out)-1].Equal(u) {
			out = append(out, u)
		}
	}
	return out
}

// TestBatchReadsSeeDeferredUnlinks: a read member that follows a remove
// emptying a key-node instance observes the batch's sequential state even
// though the instance stays linked until the end of the apply phase — a
// key-only query does not return the removed key and a root count does
// not count it — on both rows, checked member by member against a
// Reference.
func TestBatchReadsSeeDeferredUnlinks(t *testing.T) {
	q := func(s rel.Tuple, out ...string) seqOp { return seqOp{kind: "query", s: s, out: out} }
	cnt := func(s rel.Tuple) seqOp { return seqOp{kind: "count", s: s} }
	rem := func(s rel.Tuple) seqOp { return seqOp{kind: "remove", s: s} }
	ins := func(s, tup rel.Tuple) seqOp { return seqOp{kind: "insert", s: s, t: tup} }
	u := func(id int) rel.Tuple { return rel.T("user", id) }
	p := func(a, id int) rel.Tuple { return rel.T("author", a, "post", id) }
	cases := []struct {
		name  string
		posts bool
		ops   []seqOp
	}{
		{"users/remove then key query", false, []seqOp{rem(u(1)), q(u(1), "user")}},
		{"users/remove then scan", false, []seqOp{rem(u(1)), q(rel.T(), "user")}},
		{"users/remove then count", false, []seqOp{rem(u(1)), cnt(rel.T())}},
		{"users/remove count insert", false, []seqOp{rem(u(1)), cnt(rel.T()), ins(u(1), rel.T("posts", 6)), cnt(rel.T())}},
		{"users/remove insert scan", false, []seqOp{rem(u(1)), ins(u(1), rel.T("posts", 6)), q(rel.T(), "user", "posts")}},
		{"users/remove both then count", false, []seqOp{rem(u(1)), rem(u(2)), cnt(rel.T()), q(rel.T(), "user")}},
		{"users/remove insert remove then count", false, []seqOp{rem(u(1)), ins(u(1), rel.T("posts", 6)), rem(u(1)), cnt(rel.T()), q(u(1), "user")}},
		{"posts/last post then author scan", true, []seqOp{rem(p(7, 1)), q(rel.T(), "author"), cnt(rel.T("author", 7))}},
		{"posts/last post then author query", true, []seqOp{rem(p(7, 1)), q(rel.T("author", 7), "author"), ins(p(7, 2), rel.T("ts", 3)), q(rel.T(), "author")}},
	}
	demotionRows(t, func(t *testing.T, root container.Kind, occ bool) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				g := NewRegistry()
				var r *Relation
				var pre []seqOp
				if tc.posts {
					mid := container.TreeMap
					if occ {
						mid = container.ConcurrentSkipListMap
					}
					r = demotablePosts(t, g, root, mid)
					pre = []seqOp{ins(p(7, 1), rel.T("ts", 1)), ins(p(3, 1), rel.T("ts", 2)), ins(p(3, 2), rel.T("ts", 4))}
				} else {
					r = demotableUsers(t, g, root)
					pre = []seqOp{ins(u(1), rel.T("posts", 5)), ins(u(2), rel.T("posts", 7))}
				}
				ref := NewReference(r.Spec())
				for _, op := range pre {
					mustInsertTuple(t, r, op.s, op.t)
					ref.Insert(op.s, op.t)
				}
				var tr *BatchTrace
				got := make([]any, len(tc.ops))
				err := g.Batch(func(tx *Txn) error {
					tx.EnableTrace()
					tr = tx.Trace()
					for i, op := range tc.ops {
						var err error
						switch op.kind {
						case "insert":
							got[i], err = tx.InsertInto(r, op.s, op.t)
						case "remove":
							got[i], err = tx.RemoveFrom(r, op.s)
						case "query":
							got[i], err = tx.QueryIn(r, op.s, op.out...)
						case "count":
							got[i], err = tx.CountIn(r, op.s)
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if tr.OCC != occ {
					t.Fatalf("trace OCC=%v, want %v", tr.OCC, occ)
				}
				for i, op := range tc.ops {
					var gotV, want any
					switch op.kind {
					case "insert":
						gotV = got[i].(*Pending[bool]).Value()
						want, _ = ref.Insert(op.s, op.t)
					case "remove":
						gotV = got[i].(*Pending[bool]).Value()
						want, _ = ref.Remove(op.s)
					case "query":
						res, _ := ref.Query(op.s, op.out...)
						gotV = distinctSorted(got[i].(*Pending[[]rel.Tuple]).Value())
						want = distinctSorted(res)
					case "count":
						res, _ := ref.Query(op.s, r.Spec().Columns...)
						gotV, want = got[i].(*Pending[int]).Value(), len(res)
					}
					if !reflect.DeepEqual(gotV, want) {
						t.Fatalf("member %d (%s %v): got %v, reference %v", i, op.kind, op.s, gotV, want)
					}
				}
				want, _ := ref.Snapshot()
				if got := wellFormed(t, r); !tuplesEqual(got, want) {
					t.Fatalf("contents %v, reference %v", got, want)
				}
			})
		}
	})
}
