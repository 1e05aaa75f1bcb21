package crs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestBatchScheduleGolden freezes the batch scheduler's lock schedule.
// Fixed scripts of composite batches run against fresh builds and render
// one record per batch — the BatchTrace (rounds, coalesced IDs, modes,
// request counts) followed by every member result — plus a final sorted
// snapshot. The records must match testdata/batch_schedules/ exactly.
//
// The files were first generated while two growing-phase schedulers
// still existed (the compiled round-map walkers and the per-member cursor
// machine they replaced), both asserted to produce them byte-for-byte.
// A planner rule that changes what a plan locks rewrites their lock
// lines and the counts derived from them (the header's request and
// acquisition totals, the path line's shared= and epochs=), never a
// result, a commit path or a snapshot line. There is
// deliberately no regeneration flag: a change that means to alter a
// schedule rewrites the affected file and says why in CHANGES.md.
func TestBatchScheduleGolden(t *testing.T) {
	for _, sc := range scheduleScripts() {
		t.Run(sc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "batch_schedules", sc.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := splitScheduleRecords(string(data))
			got := sc.run(t)
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("%s: record %d diverges:\ngot:\n%s\nwant:\n%s", path, i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: got %d records, want %d", path, len(got), len(want))
			}
		})
	}
}

// scheduleScript is one frozen script and the golden file it renders to.
type scheduleScript struct {
	name, file string
	run        func(t *testing.T) []string
}

// scheduleScripts lists the frozen scripts: the composite graph script on
// three benchmark variants (speculative, striped and plain placements),
// the registry script on a users/posts pair whose posts relation is
// either plain (TreeMap: every batch touching it commits under 2PL) or
// optimistic-capable (skip list: lock-free read-only and Silo OCC
// commits), and the social composites on the social schema's concurrent
// and plain containers.
func scheduleScripts() []scheduleScript {
	var out []scheduleScript
	for _, v := range []string{"Stick 1", "Split 4", "Diamond Spec"} {
		out = append(out, scheduleScript{
			name: v,
			file: strings.ToLower(strings.ReplaceAll(v, " ", "_")) + ".txt",
			run:  func(t *testing.T) []string { return graphScheduleScript(t, v) },
		})
	}
	out = append(out,
		scheduleScript{name: "Registry 2PL", file: "registry_2pl.txt",
			run: func(t *testing.T) []string { return registryScheduleScript(t, TreeMap) }},
		scheduleScript{name: "Registry OCC", file: "registry_occ.txt",
			run: func(t *testing.T) []string { return registryScheduleScript(t, ConcurrentSkipListMap) }},
		scheduleScript{name: "Social OCC", file: "social_occ.txt",
			run: func(t *testing.T) []string { return socialScheduleScript(t, workload.NewSocial) }},
		scheduleScript{name: "Social 2PL", file: "social_2pl.txt",
			run: func(t *testing.T) []string { return socialScheduleScript(t, workload.NewSocialPessimistic) }},
	)
	return out
}

// splitScheduleRecords parses a golden file: records separated by one
// blank line (a rendered record never contains one).
func splitScheduleRecords(data string) []string {
	return strings.Split(strings.TrimSuffix(data, "\n"), "\n\n")
}

// graphScheduleScript executes a fixed script of composite batches
// against a fresh build of the named graph variant and returns one
// rendered record per batch plus a final sorted-snapshot record.
func graphScheduleScript(t *testing.T, variant string) []string {
	t.Helper()
	v, err := GraphVariantByName(variant)
	if err != nil {
		t.Fatal(err)
	}
	r, err := v.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	state := uint64(0xC0FFEE)
	for n := 0; n < 200; n++ {
		u := splitmixDiff(&state)
		a := int64(u % 64)
		b := int64((u >> 16) % 64)
		c := int64((u >> 32) % 64)
		w := int64(u >> 48)
		var tr *core.BatchTrace
		var pb1, pb2 *Pending[bool]
		var pi1, pi2 *Pending[int]
		var pq *Pending[[]Tuple]
		err := r.Batch(func(tx *Txn) error {
			tx.EnableTrace()
			tr = tx.Trace()
			var err error
			switch u % 4 {
			case 0: // insert pair
				if pb1, err = tx.Insert(T("src", a, "dst", b), T("weight", w)); err != nil {
					return err
				}
				pb2, err = tx.Insert(T("src", a, "dst", c), T("weight", w+1))
			case 1: // move
				if pb1, err = tx.Remove(T("src", a, "dst", b)); err != nil {
					return err
				}
				pb2, err = tx.Insert(T("src", a, "dst", c), T("weight", w))
			case 2: // count pair
				if pi1, err = tx.Count(T("src", a)); err != nil {
					return err
				}
				pi2, err = tx.Count(T("src", b))
			default: // successor query
				pq, err = tx.Query(T("src", a), "dst", "weight")
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		var res string
		switch u % 4 {
		case 0, 1:
			res = fmt.Sprintf("bool %v %v", pb1.Value(), pb2.Value())
		case 2:
			res = fmt.Sprintf("count %d %d", pi1.Value(), pi2.Value())
		default:
			rows := pq.Value()
			sortTupleList(rows)
			res = fmt.Sprintf("query %v", rows)
		}
		out = append(out, tr.String()+res)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sortTupleList(snap)
	out = append(out, fmt.Sprintf("snapshot %d rows: %v", len(snap), snap))
	return out
}

// registryScheduleScript executes a fixed script of cross-relation
// batches against a fresh users/posts registry — users keyed by user
// carrying a posts counter (hash map + cell), posts keyed by (author,
// post) with the per-author container of the given kind and four root
// stripes chosen by author — and returns one
// rendered record per batch, the commit path taken included, plus a final
// snapshot of both relations.
func registryScheduleScript(t *testing.T, postsKind ContainerKind) []string {
	t.Helper()
	g := NewRegistry()
	ud, err := NewBuilder(MustSpec([]string{"user", "posts"},
		FD{From: []string{"user"}, To: []string{"posts"}}), "ρ").
		Edge("ρu", "ρ", "u", []string{"user"}, ConcurrentHashMap).
		Edge("uc", "u", "c", []string{"posts"}, Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	users, err := g.Synthesize("users", ud.Spec, WithDecomposition(ud), WithPlacement(FineGrainedPlacement(ud)))
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewBuilder(MustSpec([]string{"author", "post", "ts"},
		FD{From: []string{"author", "post"}, To: []string{"ts"}}), "ρ").
		Edge("ρa", "ρ", "a", []string{"author"}, ConcurrentHashMap).
		Edge("ap", "a", "p", []string{"post"}, postsKind).
		Edge("pt", "p", "t", []string{"ts"}, Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Striping the author edge puts stripe numbers into the frozen IDs.
	pp := FineGrainedPlacement(pd).Place(pd.EdgeByName("ρa"), pd.Root, "author").SetStripes(pd.Root, 4)
	posts, err := g.Synthesize("posts", pd.Spec, WithDecomposition(pd), WithPlacement(pp))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	state := uint64(0x5EED)
	for n := 0; n < 200; n++ {
		u := splitmixDiff(&state)
		a := int64((u >> 8) % 16)
		b := int64((u >> 16) % 16)
		p := int64((u >> 24) % 8)
		w := int64(u >> 48)
		var tr *core.BatchTrace
		var res []func() string
		pbool := func(pb *Pending[bool]) { res = append(res, func() string { return fmt.Sprint(pb.Value()) }) }
		pint := func(pi *Pending[int]) { res = append(res, func() string { return fmt.Sprint(pi.Value()) }) }
		prows := func(pq *Pending[[]Tuple]) {
			res = append(res, func() string {
				rows := pq.Value()
				sortTupleList(rows)
				return fmt.Sprint(rows)
			})
		}
		err := g.Batch(func(tx *Txn) error {
			tx.EnableTrace()
			tr = tx.Trace()
			switch u % 5 {
			case 0: // publish: two relations, writes only
				pb, err := tx.InsertInto(posts, T("author", a, "post", p), T("ts", w))
				if err != nil {
					return err
				}
				pbool(pb)
				if pb, err = tx.InsertInto(users, T("user", a), T("posts", w)); err != nil {
					return err
				}
				pbool(pb)
			case 1: // retract and recount: one relation, mixed
				pb, err := tx.RemoveFrom(posts, T("author", a, "post", p))
				if err != nil {
					return err
				}
				pbool(pb)
				pi, err := tx.CountIn(posts, T("author", a))
				if err != nil {
					return err
				}
				pint(pi)
			case 2: // timeline read: two relations, read-only
				pi, err := tx.CountIn(posts, T("author", a))
				if err != nil {
					return err
				}
				pint(pi)
				pq, err := tx.QueryIn(users, T("user", b), "posts")
				if err != nil {
					return err
				}
				prows(pq)
			case 3: // profile swap: users only, mixed
				pq, err := tx.QueryIn(users, T("user", a), "posts")
				if err != nil {
					return err
				}
				prows(pq)
				pb, err := tx.RemoveFrom(users, T("user", b))
				if err != nil {
					return err
				}
				pbool(pb)
				if pb, err = tx.InsertInto(users, T("user", b), T("posts", w)); err != nil {
					return err
				}
				pbool(pb)
			default: // repost: posts only, mixed
				pq, err := tx.QueryIn(posts, T("author", a, "post", p), "ts")
				if err != nil {
					return err
				}
				prows(pq)
				pb, err := tx.InsertInto(posts, T("author", b, "post", p), T("ts", w))
				if err != nil {
					return err
				}
				pbool(pb)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := tr.String() + fmt.Sprintf("path optimistic=%v occ=%v attempts=%d fellback=%v epochs=%d/%d shared=%d\nresults",
			tr.Optimistic, tr.OCC, tr.Attempts, tr.FellBack, tr.EpochsRecorded, tr.EpochsDistinct, tr.SharedAcquired)
		for _, f := range res {
			rec += " " + f()
		}
		out = append(out, rec)
	}
	for _, r := range []*Relation{users, posts} {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sortTupleList(snap)
		out = append(out, fmt.Sprintf("snapshot %s %d rows: %v", r.Name(), len(snap), snap))
	}
	return out
}

// socialScheduleScript runs the members of workload.Social's composite
// operations, one Registry.Batch each, in the six cases whose root locks
// differ: AddPost with an existing and with a new author, RemovePost that
// leaves posts and RemovePost of the author's last post, Follow from an
// existing and from a new src. The preload gives user 1 two posts, user 2
// one post and one follows edge 1 → 2. It returns one rendered record per
// composite, the commit path and every member result included, plus a
// final snapshot of the three relations.
func socialScheduleScript(t *testing.T, build func() (*workload.Social, error)) []string {
	t.Helper()
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int64{{1, 10}, {1, 11}, {2, 20}} {
		if _, err := s.Posts.Insert(T("author", p[0], "post", p[1]), T("ts", p[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range [][2]int64{{1, 2}, {2, 1}} {
		if _, err := s.Users.Insert(T("user", u[0]), T("posts", u[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Follows.Insert(T("src", int64(1), "dst", int64(2)), T("since", int64(1))); err != nil {
		t.Fatal(err)
	}
	type op struct {
		name string
		run  func(tx *Txn, res *[]func() string) error
	}
	pbool := func(res *[]func() string, pb *Pending[bool], err error) error {
		*res = append(*res, func() string { return fmt.Sprint(pb.Value()) })
		return err
	}
	// counterBump is the counter rewrite of AddPost and RemovePost.
	counterBump := func(tx *Txn, res *[]func() string, user, n int64) error {
		pb, err := tx.RemoveFrom(s.Users, T("user", user))
		if err := pbool(res, pb, err); err != nil {
			return err
		}
		pb, err = tx.InsertInto(s.Users, T("user", user), T("posts", n))
		return pbool(res, pb, err)
	}
	addPost := func(author, post, n int64) func(tx *Txn, res *[]func() string) error {
		return func(tx *Txn, res *[]func() string) error {
			pb, err := tx.InsertInto(s.Posts, T("author", author, "post", post), T("ts", post))
			if err := pbool(res, pb, err); err != nil {
				return err
			}
			return counterBump(tx, res, author, n)
		}
	}
	removePost := func(author, post, n int64) func(tx *Txn, res *[]func() string) error {
		return func(tx *Txn, res *[]func() string) error {
			pb, err := tx.RemoveFrom(s.Posts, T("author", author, "post", post))
			if err := pbool(res, pb, err); err != nil {
				return err
			}
			return counterBump(tx, res, author, n)
		}
	}
	follow := func(src, dst int64) func(tx *Txn, res *[]func() string) error {
		return func(tx *Txn, res *[]func() string) error {
			pb, err := tx.InsertInto(s.Follows, T("src", src, "dst", dst), T("since", src+dst))
			if err := pbool(res, pb, err); err != nil {
				return err
			}
			pi, err := tx.CountIn(s.Posts, T("author", dst))
			*res = append(*res, func() string { return fmt.Sprint(pi.Value()) })
			return err
		}
	}
	ops := []op{
		{"AddPost, existing author", addPost(1, 12, 3)},
		{"AddPost, new author", addPost(3, 30, 1)},
		{"RemovePost, posts left", removePost(1, 10, 2)},
		{"RemovePost, last post", removePost(2, 20, 0)},
		{"Follow, existing src", follow(1, 3)},
		{"Follow, new src", follow(4, 1)},
	}
	var out []string
	for _, o := range ops {
		var tr *core.BatchTrace
		var res []func() string
		err := s.Reg.Batch(func(tx *Txn) error {
			tx.EnableTrace()
			tr = tx.Trace()
			return o.run(tx, &res)
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := o.name + "\n" + tr.String() + fmt.Sprintf("path optimistic=%v occ=%v attempts=%d fellback=%v epochs=%d/%d shared=%d\nresults",
			tr.Optimistic, tr.OCC, tr.Attempts, tr.FellBack, tr.EpochsRecorded, tr.EpochsDistinct, tr.SharedAcquired)
		for _, f := range res {
			rec += " " + f()
		}
		out = append(out, rec)
	}
	for _, r := range []*Relation{s.Users, s.Posts, s.Follows} {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sortTupleList(snap)
		out = append(out, fmt.Sprintf("snapshot %s %d rows: %v", r.Name(), len(snap), snap))
	}
	return out
}

func sortTupleList(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// splitmixDiff is the usual splitmix64 draw, local to this test so the
// scripts stay frozen even if shared helpers change.
func splitmixDiff(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
