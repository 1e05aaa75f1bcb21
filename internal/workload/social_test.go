package workload

import (
	"testing"

	"repro/internal/core"
)

// TestSocialCounterInvariant drives the composite mix single-threaded and
// checks the cross-table invariant the grouped transactions maintain: the
// stored per-user post counter equals the actual number of posts by that
// author, for every author touched.
func TestSocialCounterInvariant(t *testing.T) {
	core.SetAudit(true)
	defer core.SetAudit(false)
	s := MustSocial()
	state := uint64(42)
	const keys = 8
	for i := 0; i < 2000; i++ {
		SocialOp(s, &state, DefaultSocialMix(), keys)
	}
	for a := int64(0); a < keys; a++ {
		if got, want := s.PostCount(a), int64(s.PostsOf(a)); got != want {
			t.Fatalf("author %d: stored counter %d, actual posts %d", a, got, want)
		}
	}
	for _, r := range []*core.Relation{s.Users, s.Posts, s.Follows} {
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatalf("%s ill-formed: %v", r.Name(), err)
		}
	}
}

// TestSocialGroupedMatchesSequential runs the identical deterministic
// workload in both disciplines and requires identical checksums (the
// member executions are the same; only the transaction grouping differs).
// Read-only groups run lock-free in both disciplines, so the
// cross-discipline lock-count comparison is meaningful only on the
// write side: TestSocialWriteCoalescing asserts it on a write-only mix.
func TestSocialGroupedMatchesSequential(t *testing.T) {
	run := func(grouped bool) (uint64, *LockCounts) {
		s := MustSocial()
		s.Grouped = grouped
		s.Counts = &LockCounts{}
		state := uint64(7)
		var sum uint64
		for i := 0; i < 1500; i++ {
			sum += SocialOp(s, &state, DefaultSocialMix(), 6)
		}
		return sum, s.Counts
	}
	gSum, gCounts := run(true)
	sSum, sCounts := run(false)
	if gSum != sSum {
		t.Fatalf("checksums diverge: grouped %d, sequential %d", gSum, sSum)
	}
	if gCounts.Requested.Load() == 0 || gCounts.Acquired.Load() == 0 {
		t.Fatal("lock counting recorded nothing")
	}
	// The uncontended single-threaded pass must never fail a validation:
	// every read-only group (40% snapshots, plus the sequential
	// discipline's standalone reads) runs lock-free with zero retries.
	for name, c := range map[string]*LockCounts{"grouped": gCounts, "sequential": sCounts} {
		if c.ReadOnlyBatches.Load() == 0 {
			t.Fatalf("%s run attempted no optimistic read-only batches", name)
		}
		if got := c.ReadOnlyAcquired.Load(); got != 0 {
			t.Fatalf("%s run: read-only batches acquired %d locks, want 0", name, got)
		}
		if got := c.ValidationRetries.Load(); got != 0 {
			t.Fatalf("%s run: %d validation retries on an uncontended pass", name, got)
		}
		if got := c.Fallbacks.Load(); got != 0 {
			t.Fatalf("%s run: %d pessimistic fallbacks on an uncontended pass", name, got)
		}
	}
}

// TestSocialWriteCoalescing pins the coalescing property on a write-only
// mix, where lock counts still measure it cleanly: the grouped discipline
// (one transaction per composite, several writes coalesced) must acquire
// strictly fewer physical locks than one transaction per member. Read
// mixes no longer discriminate — read-only groups acquire zero locks in
// both disciplines via the optimistic path.
func TestSocialWriteCoalescing(t *testing.T) {
	mix := SocialMix{AddPosts: 60, RemovePosts: 40}
	run := func(grouped bool) (uint64, *LockCounts) {
		s := MustSocial()
		s.Grouped = grouped
		s.Counts = &LockCounts{}
		state := uint64(11)
		var sum uint64
		for i := 0; i < 1500; i++ {
			sum += SocialOp(s, &state, mix, 16)
		}
		return sum, s.Counts
	}
	gSum, gCounts := run(true)
	sSum, sCounts := run(false)
	if gSum != sSum {
		t.Fatalf("checksums diverge: grouped %d, sequential %d", gSum, sSum)
	}
	if gCounts.Acquired.Load() >= sCounts.Acquired.Load() {
		t.Fatalf("grouped write run acquired %d locks, sequential %d — coalescing must win",
			gCounts.Acquired.Load(), sCounts.Acquired.Load())
	}
}

// TestSocialMixedOCC pins the coalescing invariant: with mixed groups
// committing Silo-style (write locks + validated lock-free reads), the
// grouped discipline acquires STRICTLY FEWER physical locks than its
// sequential decomposition on the Follow-heavy mixed mix — and the OCC
// path itself takes zero shared locks, zero retries and zero fallbacks on
// the uncontended deterministic pass.
func TestSocialMixedOCC(t *testing.T) {
	core.SetAudit(true)
	defer core.SetAudit(false)
	run := func(grouped bool) (uint64, *LockCounts) {
		s := MustSocial()
		s.Grouped = grouped
		s.Counts = &LockCounts{}
		state := uint64(23)
		var sum uint64
		for i := 0; i < 1500; i++ {
			sum += SocialOp(s, &state, MixedSocialMix(), 16)
		}
		return sum, s.Counts
	}
	gSum, gCounts := run(true)
	sSum, sCounts := run(false)
	if gSum != sSum {
		t.Fatalf("checksums diverge: grouped %d, sequential %d", gSum, sSum)
	}
	if gCounts.OCCBatches.Load() == 0 {
		t.Fatal("grouped mixed run committed no batches via the OCC path")
	}
	if sCounts.OCCBatches.Load() != 0 {
		t.Fatalf("sequential run reported %d OCC batches; single-member groups are never mixed",
			sCounts.OCCBatches.Load())
	}
	if got := gCounts.OCCSharedLocks.Load(); got != 0 {
		t.Fatalf("OCC commits acquired %d shared locks, want 0", got)
	}
	if got := gCounts.OCCRetries.Load(); got != 0 {
		t.Fatalf("%d validation retries on an uncontended single-threaded pass", got)
	}
	if got := gCounts.OCCFallbacks.Load(); got != 0 {
		t.Fatalf("%d OCC fallbacks on an uncontended single-threaded pass", got)
	}
	if gCounts.OCCReadSet.Load() == 0 || gCounts.OCCWriteLocks.Load() == 0 {
		t.Fatalf("OCC counters empty: writeLocks=%d readSet=%d",
			gCounts.OCCWriteLocks.Load(), gCounts.OCCReadSet.Load())
	}
	// The restored invariant: a batch never out-locks its sequential
	// decomposition, mixed groups included.
	if gCounts.Acquired.Load() >= sCounts.Acquired.Load() {
		t.Fatalf("grouped mixed run acquired %d locks, sequential %d — OCC must restore batched < sequential",
			gCounts.Acquired.Load(), sCounts.Acquired.Load())
	}
}

// TestSocialMixedConcurrent stresses the Follow-heavy mixed mix across
// threads (run with -race in CI): every mixed group must converge —
// validate within its attempt budget or fall back to 2PL — and leave all
// three relations well-formed.
func TestSocialMixedConcurrent(t *testing.T) {
	s := MustSocial()
	cfg := Config{Threads: 4, OpsPerThread: 200, KeySpace: 6, Seed: 9}
	res := RunSocial(s, cfg, MixedSocialMix())
	if res.Ops != 800 {
		t.Fatalf("ran %d ops", res.Ops)
	}
	for _, r := range []*core.Relation{s.Users, s.Posts, s.Follows} {
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatalf("%s ill-formed: %v", r.Name(), err)
		}
	}
}

// TestSocialConcurrent smokes the registry under concurrent composite
// operations (run with -race in CI).
func TestSocialConcurrent(t *testing.T) {
	s := MustSocial()
	cfg := Config{Threads: 4, OpsPerThread: 200, KeySpace: 6, Seed: 3}
	res := RunSocial(s, cfg, DefaultSocialMix())
	if res.Ops != 800 {
		t.Fatalf("ran %d ops", res.Ops)
	}
	for _, r := range []*core.Relation{s.Users, s.Posts, s.Follows} {
		if _, err := r.VerifyWellFormed(); err != nil {
			t.Fatalf("%s ill-formed: %v", r.Name(), err)
		}
	}
}
