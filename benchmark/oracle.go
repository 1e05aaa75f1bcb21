package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graphreps"
	"repro/internal/rel"
	"repro/internal/server"
	"repro/internal/workload"
)

// The correctness gate. Before anything is timed, a prefix of each
// workload's own stream runs against the same representation on a fresh
// instance and every result is compared with an oracle: core.Reference
// (the executable specification of §2) for the engine workloads, a
// sequential MaxBatch-1 dispatcher for the wire workloads. The Reference
// scans all its tuples on every operation, so the engine gates draw keys
// from a small key space (gateKeyspace) to keep it quick; the small
// space also makes inserts collide and removes hit, which the measured
// key spaces rarely do.

const gateKeyspace = 24

// faultAt is the compared result that -inject-fault corrupts.
const faultAt = 7

// sameRelation compares a synthesized relation's contents, as its
// well-formedness walk reads them, with the reference's.
func sameRelation(r *core.Relation, ref *core.Reference) error {
	got, err := r.VerifyWellFormed()
	if err != nil {
		return err
	}
	want, err := ref.Snapshot()
	if err != nil {
		return err
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 })
	if len(got) != len(want) {
		return fmt.Errorf("relation %q holds %d tuples, reference %d", r.Name(), len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("relation %q tuple %d is %v, reference has %v", r.Name(), i, got[i], want[i])
		}
	}
	return nil
}

// gateGraph replays n single operations of the graph mix, one by one,
// against a fresh "Split 4" relation and a Reference.
func gateGraph(seed uint64, mix workload.Mix, n int, inject bool) error {
	env, _, err := newGraphEnv(seed, gateKeyspace, 0)
	if err != nil {
		return err
	}
	ref := core.NewReference(graphreps.Spec())
	state := seed
	for i := 0; i < n; i++ {
		r := workload.SplitMix64(&state)
		choice := int(r % 100)
		a := int64((r >> 32) % gateKeyspace)
		b := int64((r >> 16) % gateKeyspace)
		var got, want int
		switch {
		case choice < mix.Successors:
			got = env.graph.FindSuccessors(a)
			rows, err := ref.Query(rel.T("src", a), "dst", "weight")
			if err != nil {
				return err
			}
			want = len(rows)
		case choice < mix.Successors+mix.Predecessors:
			got = env.graph.FindPredecessors(a)
			rows, err := ref.Query(rel.T("dst", a), "src", "weight")
			if err != nil {
				return err
			}
			want = len(rows)
		case choice < mix.Successors+mix.Predecessors+mix.Inserts:
			w := int64(r >> 40)
			got = btoi(env.graph.InsertEdge(a, b, w))
			ok, err := ref.Insert(rel.T("src", a, "dst", b), rel.T("weight", w))
			if err != nil {
				return err
			}
			want = btoi(ok)
		default:
			got = btoi(env.graph.RemoveEdge(a, b))
			ok, err := ref.Remove(rel.T("src", a, "dst", b))
			if err != nil {
				return err
			}
			want = btoi(ok)
		}
		if inject && i == faultAt {
			got++
		}
		if got != want {
			return fmt.Errorf("graph gate: operation %d returned %d, reference %d", i, got, want)
		}
	}
	return sameRelation(env.rel, ref)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// refSocial is workload.Social's composite operations written against
// three References, following the same read-then-write-group shape
// (social.go): the dependent reads come first, the writes follow.
type refSocial struct {
	users, posts, follows *core.Reference
}

func newRefSocial() *refSocial {
	return &refSocial{
		users:   core.NewReference(workload.UsersSpec()),
		posts:   core.NewReference(workload.PostsSpec()),
		follows: core.NewReference(workload.FollowsSpec()),
	}
}

func (s *refSocial) count(r *core.Reference, bound rel.Tuple, out ...string) int {
	rows, err := r.Query(bound, out...)
	if err != nil {
		panic(err) // a Reference query fails only on a malformed tuple
	}
	return len(rows)
}

func (s *refSocial) counter(user int64) int64 {
	rows, err := s.users.Query(rel.T("user", user), "posts")
	if err != nil {
		panic(err)
	}
	if len(rows) == 0 {
		return 0
	}
	return rows[0].MustGet("posts").(int64)
}

func (s *refSocial) setCounter(user, n int64) {
	s.users.Remove(rel.T("user", user))
	s.users.Insert(rel.T("user", user), rel.T("posts", n))
}

// op mirrors workload.SocialOp draw for draw and returns the same
// checksum contribution.
func (s *refSocial) op(state *uint64, mix workload.SocialMix, keyspace int64) uint64 {
	r := workload.SplitMix64(state)
	choice := int(r % 100)
	a := int64((r >> 32) % uint64(keyspace))
	b := int64((r >> 16) % uint64(keyspace))
	ts := int64(r >> 40)
	key := rel.T("author", a, "post", b)
	switch {
	case choice < mix.AddPosts:
		if s.count(s.posts, key, "ts") > 0 {
			return 0
		}
		n := s.counter(a)
		s.posts.Insert(key, rel.T("ts", ts))
		s.setCounter(a, n+1)
		return 1
	case choice < mix.AddPosts+mix.RemovePosts:
		if s.count(s.posts, key, "ts") == 0 {
			return 0
		}
		n := s.counter(a)
		if n < 1 {
			n = 1
		}
		s.posts.Remove(key)
		s.setCounter(a, n-1)
		return 1
	case choice < mix.AddPosts+mix.RemovePosts+mix.Follows:
		s.follows.Insert(rel.T("src", a, "dst", b), rel.T("since", ts))
		return uint64(s.count(s.posts, rel.T("author", b), "post", "ts"))
	default:
		return uint64(s.counter(a)) +
			uint64(s.count(s.posts, rel.T("author", a), "post", "ts")) +
			uint64(s.count(s.follows, rel.T("src", a), "dst", "since"))
	}
}

// gateSocial replays n composite operations, one by one, against a fresh
// social registry (grouped discipline) and the three References.
func gateSocial(seed uint64, mix workload.SocialMix, n int, inject bool) error {
	soc, err := workload.NewSocial()
	if err != nil {
		return err
	}
	ref := newRefSocial()
	s1, s2 := seed, seed
	for i := 0; i < n; i++ {
		got := workload.SocialOp(soc, &s1, mix, gateKeyspace)
		want := ref.op(&s2, mix, gateKeyspace)
		if inject && i == faultAt {
			got++
		}
		if got != want {
			return fmt.Errorf("social gate: operation %d returned %d, reference %d", i, got, want)
		}
	}
	for _, pair := range []struct {
		r   *core.Relation
		ref *core.Reference
	}{{soc.Users, ref.users}, {soc.Posts, ref.posts}, {soc.Follows, ref.follows}} {
		if err := sameRelation(pair.r, pair.ref); err != nil {
			return fmt.Errorf("social gate: %w", err)
		}
	}
	return nil
}

// gateWire sends each logical client's first perClient requests through
// the real path — client.Do, HTTP, JSON, the dispatcher at its default
// window, with every client running at once so windows really coalesce —
// and compares every reply's results, byte for byte, with those of a
// sequential oracle: the same requests submitted one at a time to a
// MaxBatch-1 dispatcher over an identically preloaded registry. The
// clients' key partitions are disjoint, so each client's replies are
// independent of how the others interleave and the oracle may replay
// client after client.
func gateWire(served *wireEnv, oracle *socialEnv, reqs []*server.Request, clients, perClient int, inject bool) error {
	if clients*perClient > len(reqs) {
		perClient = len(reqs) / clients
	}
	got := make([][][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				req := reqs[c+k*clients]
				resp, err := served.cl.Do(context.Background(), req)
				if err != nil {
					errs[c] = fmt.Errorf("wire gate: client %d request %d: %w", c, k, err)
					return
				}
				if len(resp.Results) != len(req.Ops) {
					errs[c] = fmt.Errorf("wire gate: client %d request %d: %d results for %d ops", c, k, len(resp.Results), len(req.Ops))
					return
				}
				b, err := json.Marshal(resp.Results)
				if err != nil {
					errs[c] = err
					return
				}
				got[c] = append(got[c], b)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	disp := server.NewDispatcher(oracle.soc.Reg, server.Config{MaxBatch: 1})
	defer disp.Close()
	compared := 0
	for c := 0; c < clients; c++ {
		for k := 0; k < perClient; k++ {
			resp, err := disp.Submit(reqs[c+k*clients])
			if err != nil {
				return fmt.Errorf("wire gate: oracle: %w", err)
			}
			want, err := json.Marshal(resp.Results)
			if err != nil {
				return err
			}
			have := got[c][k]
			if inject && compared == faultAt {
				have = append([]byte{' '}, have...)
			}
			compared++
			if !bytes.Equal(have, want) {
				return fmt.Errorf("wire gate: client %d request %d replied %s, sequential oracle %s", c, k, have, want)
			}
		}
	}
	liveSum, err := server.RegistryChecksum(served.soc.Reg)
	if err != nil {
		return err
	}
	oracleSum, err := server.RegistryChecksum(oracle.soc.Reg)
	if err != nil {
		return err
	}
	if liveSum != oracleSum {
		return fmt.Errorf("wire gate: served registry checksum %x, sequential oracle %x", liveSum, oracleSum)
	}
	return nil
}

// wellFormed runs VerifyWellFormed on every relation of a registry, all
// at once: after a window the walks take seconds, and the registry is
// quiescent.
func wellFormed(reg *core.Registry) error {
	rels := reg.Relations()
	errs := make([]error, len(rels))
	var wg sync.WaitGroup
	for i, r := range rels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.VerifyWellFormed(); err != nil {
				errs[i] = fmt.Errorf("relation %q: %w", r.Name(), err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
