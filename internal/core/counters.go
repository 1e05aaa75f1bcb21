package core

import "sync/atomic"

// This file is the advisor's input contract: one always-on counter
// surface unifying what used to be scattered across trace-fed
// workload.LockCounts, the OCC trace fields and hand-rolled server
// fields. Every relation carries a set of atomic cells incremented at
// the existing commit points (one atomic add per cell per batch — no
// allocations, so the steady-state zero-alloc guarantee of the batch
// path holds with the counters always attached), and Harvest snapshots
// them into plain JSON-serializable structs. The online advisor
// (internal/autotune), crstune -live and /v1/stats all consume exactly
// this snapshot.

// relCounters are one relation's live counter cells. They live on the
// Relation (not the representation), so they survive a migration swap.
type relCounters struct {
	reads           atomic.Uint64 // read operations: standalone queries/counts + batch read members
	writes          atomic.Uint64 // mutations: standalone inserts/removes + batch write members
	batchCounters                 // the relation's Relation.Batch groups
	migrations      atomic.Uint64 // completed representation migrations
	rootEscalations atomic.Uint64 // batches' escalations of the demotable root to Exclusive
}

// batchCounters are the batch-level cells: a relation's carry its
// Relation.Batch groups, the registry's its Registry.Batch groups (whose
// per-relation member counts still land on the relations).
type batchCounters struct {
	batches       atomic.Uint64 // committed groups
	locksAcquired atomic.Uint64 // physical locks held at commit points
	roOptimistic  atomic.Uint64 // read-only groups that committed lock-free
	occCommits    atomic.Uint64 // mixed groups that committed Silo-style
	occRetries    atomic.Uint64 // optimistic attempts beyond the first, of mixed groups only
	occFallbacks  atomic.Uint64 // mixed groups that exhausted attempts and re-ran under 2PL
	backoffSleeps atomic.Uint64 // sleeps between failed optimistic attempts; a relation's include its standalone reads'
}

// noteMembers folds a committed batch's member kinds into the cells.
func (c *relCounters) noteMembers(members []member) {
	var rd, wr uint64
	for i := range members {
		if k := members[i].kind; k == mInsert || k == mRemove {
			wr++
		} else {
			rd++
		}
	}
	c.reads.Add(rd)
	c.writes.Add(wr)
}

// RelationCounters is one relation's harvested counter snapshot — the
// advisor's per-relation input: the representation summary (containers,
// optimistic capability) next to the live read/write shape.
type RelationCounters struct {
	// Name is the registration name ("" for standalone relations).
	Name string `json:"name"`
	// Containers lists the container kind of every decomposition edge,
	// in edge-index order.
	Containers []string `json:"containers"`
	// OptimisticCapable reports whether the current representation lets
	// read-only groups run lock-free (every container concurrency-safe).
	OptimisticCapable bool `json:"optimistic_capable"`
	// Reads counts read operations (standalone queries/counts plus batch
	// read members) against the relation.
	Reads uint64 `json:"reads"`
	// Writes counts mutations (standalone plus batch write members).
	Writes uint64 `json:"writes"`
	// Batches counts committed Relation.Batch groups.
	Batches uint64 `json:"batches"`
	// LocksAcquired totals the physical locks held at Relation.Batch
	// commit points.
	LocksAcquired uint64 `json:"locks_acquired"`
	// ReadOnlyOptimistic counts read-only groups committed lock-free.
	ReadOnlyOptimistic uint64 `json:"ro_optimistic"`
	// OCCCommits counts mixed groups committed Silo-style.
	OCCCommits uint64 `json:"occ_commits"`
	// OCCRetries counts the optimistic attempts of mixed groups beyond
	// each one's first; read-only groups' retries are not counted.
	OCCRetries uint64 `json:"occ_retries"`
	// OCCFallbacks counts mixed groups that exhausted their optimistic
	// attempts and re-ran under full two-phase locking; read-only groups'
	// fallbacks are not counted.
	OCCFallbacks uint64 `json:"occ_fallbacks"`
	// Migrations counts completed representation migrations.
	Migrations uint64 `json:"migrations"`
	// RootEscalations counts the batches' escalations of the relation's
	// demotable root from Shared (or a recorded epoch) to Exclusive.
	RootEscalations uint64 `json:"root_escalations"`
	// BackoffSleeps counts the sleeps between failed optimistic attempts
	// of the relation's standalone reads and Relation.Batch groups.
	BackoffSleeps uint64 `json:"backoff_sleeps"`
}

// Counters is a registry-wide harvested snapshot: aggregate totals, the
// per-relation breakdown, and the migration event history. It is the
// single counter document the advisor loop, crstune -live and the
// server's /v1/stats all share.
type Counters struct {
	// Batches counts every committed batch: registry-wide groups plus
	// each relation's single-relation groups.
	Batches uint64 `json:"batches"`
	// LocksAcquired totals physical locks held at commit points.
	LocksAcquired uint64 `json:"locks_acquired"`
	// ReadOnlyOptimistic counts read-only groups committed lock-free.
	ReadOnlyOptimistic uint64 `json:"ro_optimistic"`
	// OCCCommits counts mixed groups committed Silo-style.
	OCCCommits uint64 `json:"occ_commits"`
	// OCCRetries counts the optimistic attempts of mixed groups beyond
	// each one's first; read-only groups' retries are not counted.
	OCCRetries uint64 `json:"occ_retries"`
	// OCCFallbacks counts mixed groups that fell back to full 2PL;
	// read-only groups' fallbacks are not counted.
	OCCFallbacks uint64 `json:"occ_fallbacks"`
	// RootEscalations counts every relation's root escalations.
	RootEscalations uint64 `json:"root_escalations"`
	// BackoffSleeps counts the sleeps between failed optimistic attempts,
	// of registry-wide groups and of every relation's.
	BackoffSleeps uint64 `json:"backoff_sleeps"`
	// Relations is the per-relation breakdown, in registration order.
	Relations []RelationCounters `json:"relations"`
	// Migrations is the completed migration event history, oldest first.
	Migrations []MigrationEvent `json:"migrations,omitempty"`
}

// Harvest snapshots the relation's counters. Safe to call concurrently
// with traffic; the representation summary is read under the migration
// latch so it never observes a half-migrated relation.
func (r *Relation) Harvest() RelationCounters {
	r.lockRep()
	kinds := make([]string, len(r.decomp.Edges))
	for _, e := range r.decomp.Edges {
		kinds[e.Index] = e.Container.String()
	}
	optimistic := r.optimisticOK
	r.unlockRep()
	return RelationCounters{
		Name:               r.name,
		Containers:         kinds,
		OptimisticCapable:  optimistic,
		Reads:              r.ctr.reads.Load(),
		Writes:             r.ctr.writes.Load(),
		Batches:            r.ctr.batches.Load(),
		LocksAcquired:      r.ctr.locksAcquired.Load(),
		ReadOnlyOptimistic: r.ctr.roOptimistic.Load(),
		OCCCommits:         r.ctr.occCommits.Load(),
		OCCRetries:         r.ctr.occRetries.Load(),
		OCCFallbacks:       r.ctr.occFallbacks.Load(),
		Migrations:         r.ctr.migrations.Load(),
		RootEscalations:    r.ctr.rootEscalations.Load(),
		BackoffSleeps:      r.ctr.backoffSleeps.Load(),
	}
}

// Harvest snapshots the registry's counters: the aggregate totals (the
// registry's own cross-relation batches plus every relation's), each
// relation's breakdown, and the migration history.
func (g *Registry) Harvest() Counters {
	c := Counters{
		Batches:            g.ctr.batches.Load(),
		LocksAcquired:      g.ctr.locksAcquired.Load(),
		ReadOnlyOptimistic: g.ctr.roOptimistic.Load(),
		OCCCommits:         g.ctr.occCommits.Load(),
		OCCRetries:         g.ctr.occRetries.Load(),
		OCCFallbacks:       g.ctr.occFallbacks.Load(),
		BackoffSleeps:      g.ctr.backoffSleeps.Load(),
	}
	for _, r := range g.Relations() {
		rc := r.Harvest()
		c.Batches += rc.Batches
		c.LocksAcquired += rc.LocksAcquired
		c.ReadOnlyOptimistic += rc.ReadOnlyOptimistic
		c.OCCCommits += rc.OCCCommits
		c.OCCRetries += rc.OCCRetries
		c.OCCFallbacks += rc.OCCFallbacks
		c.RootEscalations += rc.RootEscalations
		c.BackoffSleeps += rc.BackoffSleeps
		c.Relations = append(c.Relations, rc)
	}
	g.evMu.Lock()
	if len(g.events) > 0 {
		c.Migrations = append([]MigrationEvent(nil), g.events...)
	}
	g.evMu.Unlock()
	return c
}

// noteBatch folds one committed batch into the counters: the batch-level
// totals into t.ctr, plus each shard's member kinds onto its relation.
// opt reports the optimistic row, mut a batch holding mutations. Called
// at the commit while the transaction's locks are still held (HeldCount
// is meaningful).
func (t *Txn) noteBatch(opt, mut bool) {
	t.ctr.batches.Add(1)
	if opt && !mut {
		t.ctr.roOptimistic.Add(1)
	} else {
		t.ctr.locksAcquired.Add(uint64(t.ltxn.HeldCount()))
	}
	if opt && mut {
		t.ctr.occCommits.Add(1)
	}
	for _, sh := range t.shards {
		sh.r.ctr.noteMembers(sh.b.members)
	}
}
