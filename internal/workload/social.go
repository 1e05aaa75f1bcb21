package workload

import (
	"fmt"
	"sync/atomic"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// This file is the multi-relation benchmark scenario the registry makes
// possible: a small social schema — users, posts, follows — whose
// composite operations maintain CROSS-TABLE invariants ("insert a post
// and bump the author's post counter") and therefore need one transaction
// to span relations. Each composite runs either as ONE Registry.Batch
// (coalesced registry-wide lock schedule) or as one single-member batch
// per relational operation (the sequential baseline), so the benchmark
// compares the two lock disciplines over identical member executions.
//
// What a grouped composite locks: each relation's root is one lock, and
// it is demotable (core's KeyNode), so a write member holds it
// exclusively only when its batch writes the root container. AddPost and
// RemovePost hold users.ρ and posts.ρ Shared and the author's user and
// posts instances exclusively; the counter bump (remove u + insert u)
// refills u's instance in place and writes nothing at users.ρ. Follow
// commits on the optimistic row: it records follows.ρ's epoch, locks the
// src's instance exclusively and counts the followee's posts lock-free.
// A new author, user or src, and a lone remove of a user, escalates its
// root to Exclusive in the growing phase, and a RemovePost of an
// author's last post escalates posts.ρ after its apply phase, which
// rolls back and regrows. Profile snapshots take no lock on the
// conflict-free path.
//
// Scope note: the counter's NEW value is computed from reads issued
// BEFORE the transaction (batch members cannot consume each other's
// results mid-flight), so the counter==posts invariant is exact only
// under single-threaded drivers — which is what the invariant test and
// the deterministic lock-counting pass run. The grouped discipline still
// guarantees the cross-relation WRITES land atomically (no reader ever
// observes the post without its counter bump); closing the
// read-modify-write race needs in-batch read→write dependencies (the
// OCC commit validates a group's reads, but members still cannot
// consume each other's results mid-flight).

// SocialMix is an operation distribution over the composite social
// operations, in percent.
type SocialMix struct {
	AddPosts, RemovePosts, Follows, Snapshots int
}

// String renders the mix as a-r-f-s.
func (m SocialMix) String() string {
	return fmt.Sprintf("%d-%d-%d-%d", m.AddPosts, m.RemovePosts, m.Follows, m.Snapshots)
}

func (m SocialMix) valid() bool {
	return m.AddPosts+m.RemovePosts+m.Follows+m.Snapshots == 100
}

// DefaultSocialMix returns the mixed read-write distribution the
// cross-relation benchmark reports: 30% post inserts, 10% post removals,
// 20% follows, 40% profile snapshots.
func DefaultSocialMix() SocialMix {
	return SocialMix{AddPosts: 30, RemovePosts: 10, Follows: 20, Snapshots: 40}
}

// ReadHeavySocialMix returns the 95/5 read-dominated distribution of the
// optimistic benchmark: 95% profile snapshots (pure read-only
// cross-relation groups, which the optimistic path runs lock-free) with a
// trickle of writes keeping the epochs moving.
func ReadHeavySocialMix() SocialMix {
	return SocialMix{AddPosts: 3, RemovePosts: 1, Follows: 1, Snapshots: 95}
}

// MixedSocialMix returns the Follow-heavy distribution of the mixed-batch
// OCC benchmark: 60% Follows — the canonical MIXED group (insert a
// follows edge + count the followee's posts), which the grouped
// discipline commits Silo-style with write locks only — plus enough
// writes and snapshots to keep every path exercised.
func MixedSocialMix() SocialMix {
	return SocialMix{AddPosts: 15, RemovePosts: 5, Follows: 60, Snapshots: 20}
}

// LockCounts accumulates a run's lock-schedule statistics: how many lock
// acquisitions the members requested before coalescing, how many physical
// locks were actually taken, and the optimistic read-only batch counters.
// Counter updates are atomic so the throughput harness can share one
// across threads; the deterministic counting pass runs single-threaded.
type LockCounts struct {
	Requested atomic.Int64
	Acquired  atomic.Int64

	// Members counts the relational operations (batch members) the
	// composites issued. Both disciplines count identically (the
	// sequential baseline issues the same relational operations, one
	// transaction each), so per-member figures are directly comparable.
	Members atomic.Int64

	// ReadOnlyBatches counts batches that attempted the lock-free
	// optimistic path; ReadOnlyAcquired the physical locks those batches
	// ended up taking (zero unless validation failures forced the
	// pessimistic fallback), ValidationRetries the optimistic attempts
	// beyond each batch's first, and Fallbacks the batches that exhausted
	// their attempts and re-ran under two-phase locking.
	ReadOnlyBatches   atomic.Int64
	ReadOnlyAcquired  atomic.Int64
	ValidationRetries atomic.Int64
	Fallbacks         atomic.Int64

	// The mixed-batch OCC counters (the optimistic row of core's
	// commit.go): OCCBatches counts mixed groups that took the Silo-style
	// path; OCCWriteLocks the exclusive
	// locks those batches' write members acquired (on successful commits —
	// the "strictly fewer than sequential" rule of
	// TestDeterministicLockCounts rides on the plain Acquired totals, which
	// include these); OCCSharedLocks the Shared-mode acquisitions of
	// successful OCC commits, structurally zero (reads divert into the
	// read-set) and pinned at zero by that test; OCCReadSet the distinct
	// epoch cells validated;
	// OCCRetries the attempts beyond each batch's first; OCCFallbacks the
	// batches that exhausted their attempts and re-ran under full 2PL.
	OCCBatches     atomic.Int64
	OCCWriteLocks  atomic.Int64
	OCCSharedLocks atomic.Int64
	OCCReadSet     atomic.Int64
	OCCRetries     atomic.Int64
	OCCFallbacks   atomic.Int64

	// RootEscalations counts the batches' escalations of a relation's
	// demotable root to Exclusive (core.BatchTrace.Escalations): a write
	// member that creates a key-node instance (a new author or src), or
	// an apply phase that leaves one empty. It is neither a validation
	// retry nor a fallback.
	RootEscalations atomic.Int64
}

// Harvest folds one batch's trace into the counters.
func (c *LockCounts) Harvest(tr *core.BatchTrace) {
	c.Requested.Add(int64(tr.Requested))
	c.Acquired.Add(int64(tr.Acquired))
	c.RootEscalations.Add(int64(tr.Escalations))
	if tr.Optimistic {
		c.ReadOnlyBatches.Add(1)
		c.ReadOnlyAcquired.Add(int64(tr.Acquired))
		if tr.Attempts > 1 {
			c.ValidationRetries.Add(int64(tr.Attempts - 1))
		}
		if tr.FellBack {
			c.Fallbacks.Add(1)
		}
	}
	if tr.OCC {
		c.OCCBatches.Add(1)
		if tr.FellBack {
			c.OCCFallbacks.Add(1)
		} else {
			c.OCCWriteLocks.Add(int64(tr.Acquired))
			c.OCCSharedLocks.Add(int64(tr.SharedAcquired))
			c.OCCReadSet.Add(int64(tr.EpochsDistinct))
		}
		if tr.Attempts > 1 {
			c.OCCRetries.Add(int64(tr.Attempts - 1))
		}
	}
}

// Social is the three-relation social scenario over one core.Registry,
// with every relational operation prepared at construction time.
type Social struct {
	Reg                   *core.Registry
	Users, Posts, Follows *core.Relation

	// Grouped selects the execution discipline: one Registry.Batch per
	// composite operation (true) or one single-member batch per relational
	// operation (false, the sequential baseline).
	Grouped bool

	// Counts, when non-nil, turns on per-batch lock-schedule tracing and
	// accumulates the requested/acquired totals.
	Counts *LockCounts

	insUser   *core.PreparedInsert
	remUser   *core.PreparedRemove
	userRow   *core.PreparedQuery // bound user, out posts
	insPost   *core.PreparedInsert
	remPost   *core.PreparedRemove
	postsOf   *core.PreparedQuery // bound author, out post+ts
	postAt    *core.PreparedQuery // bound (author, post), out ts
	insFollow *core.PreparedInsert
	followsOf *core.PreparedQuery // bound src, out dst+since

	iUser, iPosts         int
	iAuthor, iPost, iTs   int
	iSrc, iDst, iSince    int
	wUsers, wPosts, wFlws int
}

// UsersSpec returns the users relation specification: a per-user post
// counter maintained by the composite operations.
func UsersSpec() rel.Spec {
	return rel.MustSpec([]string{"user", "posts"},
		rel.FD{From: []string{"user"}, To: []string{"posts"}})
}

// PostsSpec returns the posts relation specification.
func PostsSpec() rel.Spec {
	return rel.MustSpec([]string{"author", "post", "ts"},
		rel.FD{From: []string{"author", "post"}, To: []string{"ts"}})
}

// FollowsSpec returns the follows relation specification.
func FollowsSpec() rel.Spec {
	return rel.MustSpec([]string{"src", "dst", "since"},
		rel.FD{From: []string{"src", "dst"}, To: []string{"since"}})
}

// NewSocial synthesizes the three relations into one registry and
// prepares every operation. The decompositions are concurrent sticks —
// ConcurrentHashMap at the root edge, ConcurrentSkipListMap below (sorted
// iteration like the TreeMap it replaced, but concurrency-safe, which
// makes all three relations OptimisticCapable: read-only groups run
// lock-free), Cell leaves — under fine-grained placement.
func NewSocial() (*Social, error) {
	return NewSocialWith(container.ConcurrentHashMap, container.ConcurrentSkipListMap)
}

// NewSocialPessimistic is NewSocial built on non-concurrency-safe
// containers (HashMap roots, TreeMap middles): every operation takes the
// pessimistic 2PL paths. Functionally identical to NewSocial — it exists
// as the starting point for live-migration scenarios (crsd -adapt), where
// the advisor upgrades these containers to unlock the optimistic paths.
func NewSocialPessimistic() (*Social, error) {
	return NewSocialWith(container.HashMap, container.TreeMap)
}

// NewSocialWith is NewSocial parameterized by the container kinds of the
// map edges: root for the top-level point lookups (user/author/src), mid
// for the sorted scans below (post/dst). Leaves stay Cells.
func NewSocialWith(root, mid container.Kind) (*Social, error) {
	g := core.NewRegistry()
	ud, err := decomp.NewBuilder(UsersSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"user"}, root).
		Edge("uc", "u", "c", []string{"posts"}, container.Cell).
		Build()
	if err != nil {
		return nil, err
	}
	users, err := g.Synthesize("users", UsersSpec(),
		core.WithDecomposition(ud), core.WithPlacement(locks.FineGrained(ud)))
	if err != nil {
		return nil, err
	}
	pd, err := decomp.NewBuilder(PostsSpec(), "ρ").
		Edge("ρa", "ρ", "a", []string{"author"}, root).
		Edge("ap", "a", "p", []string{"post"}, mid).
		Edge("pt", "p", "t", []string{"ts"}, container.Cell).
		Build()
	if err != nil {
		return nil, err
	}
	posts, err := g.Synthesize("posts", PostsSpec(),
		core.WithDecomposition(pd), core.WithPlacement(locks.FineGrained(pd)))
	if err != nil {
		return nil, err
	}
	fd, err := decomp.NewBuilder(FollowsSpec(), "ρ").
		Edge("ρs", "ρ", "s", []string{"src"}, root).
		Edge("sd", "s", "d", []string{"dst"}, mid).
		Edge("dw", "d", "w", []string{"since"}, container.Cell).
		Build()
	if err != nil {
		return nil, err
	}
	follows, err := g.Synthesize("follows", FollowsSpec(),
		core.WithDecomposition(fd), core.WithPlacement(locks.FineGrained(fd)))
	if err != nil {
		return nil, err
	}
	s := &Social{Reg: g, Users: users, Posts: posts, Follows: follows, Grouped: true}
	if s.insUser, err = users.PrepareInsert([]string{"user"}); err != nil {
		return nil, err
	}
	if s.remUser, err = users.PrepareRemove([]string{"user"}); err != nil {
		return nil, err
	}
	if s.userRow, err = users.PrepareQuery([]string{"user"}, []string{"posts"}); err != nil {
		return nil, err
	}
	if s.insPost, err = posts.PrepareInsert([]string{"author", "post"}); err != nil {
		return nil, err
	}
	if s.remPost, err = posts.PrepareRemove([]string{"author", "post"}); err != nil {
		return nil, err
	}
	if s.postsOf, err = posts.PrepareQuery([]string{"author"}, []string{"post", "ts"}); err != nil {
		return nil, err
	}
	if s.postAt, err = posts.PrepareQuery([]string{"author", "post"}, []string{"ts"}); err != nil {
		return nil, err
	}
	if s.insFollow, err = follows.PrepareInsert([]string{"dst", "src"}); err != nil {
		return nil, err
	}
	if s.followsOf, err = follows.PrepareQuery([]string{"src"}, []string{"dst", "since"}); err != nil {
		return nil, err
	}
	us, ps, fs := users.Schema(), posts.Schema(), follows.Schema()
	s.iUser, s.iPosts = us.MustIndex("user"), us.MustIndex("posts")
	s.iAuthor, s.iPost, s.iTs = ps.MustIndex("author"), ps.MustIndex("post"), ps.MustIndex("ts")
	s.iSrc, s.iDst, s.iSince = fs.MustIndex("src"), fs.MustIndex("dst"), fs.MustIndex("since")
	s.wUsers, s.wPosts, s.wFlws = us.Len(), ps.Len(), fs.Len()
	return s, nil
}

// MustSocial is NewSocial panicking on error.
func MustSocial() *Social {
	s, err := NewSocial()
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return s
}

// batch runs one Registry.Batch with lock counting when enabled. The
// trace totals are filled at commit, so they are read only after Batch
// returns.
func (s *Social) batch(fn func(tx *core.Txn) error) {
	var tr *core.BatchTrace
	err := s.Reg.Batch(func(tx *core.Txn) error {
		if s.Counts != nil {
			tx.EnableTrace()
			tr = tx.Trace()
		}
		return fn(tx)
	})
	if err != nil {
		panic(fmt.Sprintf("workload: social batch: %v", err))
	}
	if tr != nil {
		s.Counts.Harvest(tr)
	}
}

// userRowBuf fills a stack buffer with a users row.
func (s *Social) userRowBuf(buf []rel.Value, user int64, posts int64, full bool) rel.Row {
	row := rel.RowOver(buf[:s.wUsers], 0)
	row.Set(s.iUser, user)
	if full {
		row.Set(s.iPosts, posts)
	}
	return row
}

// postRowBuf fills a stack buffer with a posts row.
func (s *Social) postRowBuf(buf []rel.Value, author, post, ts int64, full bool) rel.Row {
	row := rel.RowOver(buf[:s.wPosts], 0)
	row.Set(s.iAuthor, author)
	row.Set(s.iPost, post)
	if full {
		row.Set(s.iTs, ts)
	}
	return row
}

// PostCount returns the stored post counter of user (0 when absent).
func (s *Social) PostCount(user int64) int64 {
	var buf [2]rel.Value
	row := s.userRowBuf(buf[:], user, 0, false)
	var n int64
	if err := s.userRow.ExecRows(row, func(r rel.Row) bool {
		n = r.At(s.iPosts).(int64)
		return false
	}); err != nil {
		panic(fmt.Sprintf("workload: post count: %v", err))
	}
	return n
}

// PostsOf counts the actual posts stored for author — the ground truth
// the counter must match under single-threaded composite operations.
func (s *Social) PostsOf(author int64) int {
	var buf [3]rel.Value
	row := rel.RowOver(buf[:s.wPosts], 0)
	row.Set(s.iAuthor, author)
	n, err := s.postsOf.CountRow(row)
	if err != nil {
		panic(fmt.Sprintf("workload: posts of: %v", err))
	}
	return n
}

// AddPost inserts (author, post, ts) and bumps the author's post counter
// in the SAME transaction (Grouped) or as three separate transactions
// (the baseline). Returns whether the post was new. The existence check
// and the counter read happen before the transaction (see the file
// comment), so concurrent AddPosts for one author may lose counter
// updates; the write group itself is atomic either way.
func (s *Social) AddPost(author, post, ts int64) bool {
	var ebuf [3]rel.Value
	erow := s.postRowBuf(ebuf[:], author, post, 0, false)
	if n, err := s.postAt.CountRow(erow); err != nil {
		panic(fmt.Sprintf("workload: post exists: %v", err))
	} else if n > 0 {
		return false
	}
	n := s.PostCount(author)
	var pbuf, rbuf, ubuf [3]rel.Value
	prow := s.postRowBuf(pbuf[:], author, post, ts, true)
	rrow := s.userRowBuf(rbuf[:], author, 0, false)
	urow := s.userRowBuf(ubuf[:], author, n+1, true)
	if s.Grouped {
		s.batch(func(tx *core.Txn) error {
			if _, err := tx.ExecRow(s.insPost, prow); err != nil {
				return err
			}
			if _, err := tx.ExecRow(s.remUser, rrow); err != nil {
				return err
			}
			_, err := tx.ExecRow(s.insUser, urow)
			return err
		})
		return true
	}
	s.batch(func(tx *core.Txn) error { _, err := tx.ExecRow(s.insPost, prow); return err })
	s.batch(func(tx *core.Txn) error { _, err := tx.ExecRow(s.remUser, rrow); return err })
	s.batch(func(tx *core.Txn) error { _, err := tx.ExecRow(s.insUser, urow); return err })
	return true
}

// RemovePost deletes (author, post) and decrements the author's counter,
// atomically when Grouped. Returns whether the post existed. Like
// AddPost, the dependent reads precede the transaction.
func (s *Social) RemovePost(author, post int64) bool {
	var ebuf [3]rel.Value
	erow := s.postRowBuf(ebuf[:], author, post, 0, false)
	if n, err := s.postAt.CountRow(erow); err != nil {
		panic(fmt.Sprintf("workload: post exists: %v", err))
	} else if n == 0 {
		return false
	}
	n := s.PostCount(author)
	if n < 1 {
		n = 1
	}
	var pbuf, rbuf, ubuf [3]rel.Value
	prow := s.postRowBuf(pbuf[:], author, post, 0, false)
	rrow := s.userRowBuf(rbuf[:], author, 0, false)
	urow := s.userRowBuf(ubuf[:], author, n-1, true)
	if s.Grouped {
		s.batch(func(tx *core.Txn) error {
			if _, err := tx.ExecRow(s.remPost, prow); err != nil {
				return err
			}
			if _, err := tx.ExecRow(s.remUser, rrow); err != nil {
				return err
			}
			_, err := tx.ExecRow(s.insUser, urow)
			return err
		})
		return true
	}
	s.batch(func(tx *core.Txn) error { _, err := tx.ExecRow(s.remPost, prow); return err })
	s.batch(func(tx *core.Txn) error { _, err := tx.ExecRow(s.remUser, rrow); return err })
	s.batch(func(tx *core.Txn) error { _, err := tx.ExecRow(s.insUser, urow); return err })
	return true
}

// Follow inserts a follows edge and reads the followee's post count in
// one consistent group (a follower wants the profile as of the follow).
// Returns the followee's post count observed by the group.
func (s *Social) Follow(src, dst, since int64) int {
	var fbuf [3]rel.Value
	frow := rel.RowOver(fbuf[:s.wFlws], 0)
	frow.Set(s.iSrc, src)
	frow.Set(s.iDst, dst)
	frow.Set(s.iSince, since)
	var pbuf [3]rel.Value
	prow := rel.RowOver(pbuf[:s.wPosts], 0)
	prow.Set(s.iAuthor, dst)
	var cnt *core.Pending[int]
	if s.Grouped {
		s.batch(func(tx *core.Txn) error {
			if _, err := tx.ExecRow(s.insFollow, frow); err != nil {
				return err
			}
			var err error
			cnt, err = tx.CountRow(s.postsOf, prow)
			return err
		})
		return cnt.Value()
	}
	s.batch(func(tx *core.Txn) error { _, err := tx.ExecRow(s.insFollow, frow); return err })
	s.batch(func(tx *core.Txn) error { var err error; cnt, err = tx.CountRow(s.postsOf, prow); return err })
	return cnt.Value()
}

// ProfileSnapshot reads one user's profile — stored post counter, actual
// post count, follow count — in a single consistent cross-relation group.
func (s *Social) ProfileSnapshot(user int64) int {
	var ubuf, pbuf, fbuf [3]rel.Value
	urow := s.userRowBuf(ubuf[:], user, 0, false)
	prow := rel.RowOver(pbuf[:s.wPosts], 0)
	prow.Set(s.iAuthor, user)
	frow := rel.RowOver(fbuf[:s.wFlws], 0)
	frow.Set(s.iSrc, user)
	var posts, follows *core.Pending[int]
	counter := 0
	if s.Grouped {
		s.batch(func(tx *core.Txn) error {
			if err := tx.ExecRows(s.userRow, urow, func(r rel.Row) bool {
				counter = int(r.At(s.iPosts).(int64))
				return false
			}); err != nil {
				return err
			}
			var err error
			if posts, err = tx.CountRow(s.postsOf, prow); err != nil {
				return err
			}
			follows, err = tx.CountRow(s.followsOf, frow)
			return err
		})
		return counter + posts.Value() + follows.Value()
	}
	s.batch(func(tx *core.Txn) error {
		return tx.ExecRows(s.userRow, urow, func(r rel.Row) bool {
			counter = int(r.At(s.iPosts).(int64))
			return false
		})
	})
	s.batch(func(tx *core.Txn) error { var err error; posts, err = tx.CountRow(s.postsOf, prow); return err })
	s.batch(func(tx *core.Txn) error { var err error; follows, err = tx.CountRow(s.followsOf, frow); return err })
	return counter + posts.Value() + follows.Value()
}

// SocialOp draws and executes ONE composite social operation against s:
// it advances the SplitMix64 state, picks the composite per mix, derives
// operands from the draw, and returns the checksum contribution. It is
// the single dispatch shared by RunSocial and the repo benchmark's social
// workloads, so both measure exactly this workload.
func SocialOp(s *Social, state *uint64, mix SocialMix, keySpace int64) uint64 {
	r := splitmix64(state)
	choice := int(r % 100)
	a := int64((r >> 32) % uint64(keySpace))
	b := int64((r >> 16) % uint64(keySpace))
	var sum uint64
	switch {
	case choice < mix.AddPosts:
		if s.AddPost(a, b, int64(r>>40)) {
			sum++
		}
	case choice < mix.AddPosts+mix.RemovePosts:
		if s.RemovePost(a, b) {
			sum++
		}
	case choice < mix.AddPosts+mix.RemovePosts+mix.Follows:
		sum += uint64(s.Follow(a, b, int64(r>>40)))
	default:
		sum += uint64(s.ProfileSnapshot(a))
	}
	return sum
}

// RunSocial executes the cross-relation benchmark: cfg.Threads workers
// each perform cfg.OpsPerThread composite operations drawn from mix.
// Throughput is composite operations per second (each composite is ≥ 2
// relational operations, across up to three relations).
func RunSocial(s *Social, cfg Config, mix SocialMix) Result {
	if !mix.valid() {
		panic(fmt.Sprintf("workload: social mix %s does not sum to 100", mix))
	}
	return runWorkers(cfg, func(state *uint64) uint64 {
		return SocialOp(s, state, mix, cfg.KeySpace)
	})
}
