package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/locks"
	"repro/internal/rel"
)

// Registry is a set of synthesized relations sharing one transactional
// domain — the library's database handle. Relations register at
// Synthesize time and receive a stable relation id that becomes the
// leading component of every lock ID they mint, extending the §5.1 total
// lock order registry-wide to (relation id, node, instance key, stripe).
// Registry.Batch therefore runs one two-phase-locking transaction over
// members against ANY registered relations: the growing phase acquires
// the pooled, coalesced lock sets of all member relations in the global
// order (deadlock-free by the same ordered-acquisition argument as a
// single relation, cf. Locksynth's globally ordered discipline), and the
// apply phase replays members in enqueue order under one undo log, so a
// cross-relation group commits atomically.
//
// A Registry is safe for concurrent use; relations remain individually
// usable (Relation.Batch, plain operations) alongside registry batches.
type Registry struct {
	mu   sync.Mutex
	rels []*Relation

	// txnPool recycles the transaction-wide locks.Txn of registry batches
	// (per-relation operation buffers are pooled on their relations).
	txnPool sync.Pool

	// logger, when non-nil, persists every committed mutating batch at its
	// commit point (redo.go). Set via SetCommitLogger before traffic.
	logger CommitLogger

	// migrMu is the representation latch (migrate.go): every operation
	// entry point holds it shared for the operation's full duration;
	// Migrate's cutover holds it exclusive, so exclusivity means no
	// operation is in flight and none can start. It precedes every data
	// lock in the acquisition order and so cannot close a deadlock cycle.
	migrMu sync.RWMutex
	// migrateMu serializes whole migrations (one at a time per registry).
	migrateMu sync.Mutex
	// tap, when non-nil, records committed mutations against the relation
	// under migration; checked (one atomic load) beside the commit logger
	// at every commit point (migrate.go).
	tap atomic.Pointer[migrationTap]

	// ctr holds the registry-level live counter cells (counters.go).
	ctr regCounters
	// evMu guards events, the completed-migration history Harvest copies.
	evMu   sync.Mutex
	events []MigrationEvent
}

// registryApplyHook, when non-nil, runs before each member of a registry
// batch's apply phase (arguments: relation name, member's global enqueue
// position). Tests use it to force a mid-apply panic and exercise the
// cross-relation undo log.
var registryApplyHook func(relName string, pos int)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Synthesize compiles a representation for spec and registers it under
// name — the multi-relation analog of the package-level Synthesize. The
// representation comes from the options: an explicit decomposition
// (WithDecomposition, optionally WithPlacement) or a picker
// (WithPicker); a missing placement defaults to the fine-grain ψ2. The
// same option vocabulary drives Migrate, so creating a relation and
// re-synthesizing a live one read identically. The returned relation's
// id is its registration order (first relation gets 1; id 0 is reserved
// for standalone relations), fixed before any lock array exists so every
// lock ID carries it. Names must be unique and non-empty.
func (g *Registry) Synthesize(name string, spec rel.Spec, opts ...SynthOption) (*Relation, error) {
	d, p, err := resolveSynth(spec, opts)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, fmt.Errorf("core: registry relations need a name")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.rels {
		if r.name == name {
			return nil, fmt.Errorf("core: relation %q already registered", name)
		}
	}
	r, err := synthesize(g, len(g.rels)+1, name, d, p)
	if err != nil {
		return nil, err
	}
	g.rels = append(g.rels, r)
	return r, nil
}

// Relations returns the registered relations in registration (= lock
// order) order.
func (g *Registry) Relations() []*Relation {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Relation(nil), g.rels...)
}

// RelationByName returns the registered relation with the given name, or
// nil.
func (g *Registry) RelationByName(name string) *Relation {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.rels {
		if r.name == name {
			return r
		}
	}
	return nil
}

// getTxn checks a transaction-wide locks.Txn out of the pool.
func (g *Registry) getTxn() *locks.Txn {
	lt, _ := g.txnPool.Get().(*locks.Txn)
	if lt == nil {
		lt = locks.NewTxn()
	}
	lt.Reset()
	return lt
}

// Batch runs fn to assemble a group of operations against any registered
// relations, then executes the whole group as ONE two-phase-locking
// transaction: per relation, member lock requirements are merged exactly
// as in Relation.Batch; across relations, acquisition follows the
// registry-wide (relation id, node, inst, stripe) order, each physical
// lock taken at most once per batch. The group is atomic across relations
// (all-or-nothing under a shared undo log) and its members behave as if
// executed sequentially in enqueue order. If fn returns an error, nothing
// executes and the error is returned.
//
// A group whose members are all queries and counts is detected
// automatically and — when every touched relation is OptimisticCapable —
// executed lock-free under the optimistic epoch-validation protocol
// (readonly.go), acquiring zero physical locks on the conflict-free path.
// A MIXED group (mutations plus reads) over capable relations
// auto-upgrades to the Silo-style OCC commit (occ.go): exclusive locks
// for the write members only, lock-free epoch-validated reads for the
// rest, validated in the registry-wide lock order.
func (g *Registry) Batch(fn func(tx *Txn) error) error {
	return g.batch(fn, false)
}

// BatchReadOnly is Batch restricted to read-only groups: enqueueing a
// mutation fails with an error, making the zero-lock optimistic intent
// explicit. Execution is identical to what Batch auto-detects for
// read-only groups, so results never depend on which path ran.
func (g *Registry) BatchReadOnly(fn func(tx *Txn) error) error {
	return g.batch(fn, true)
}

// batch is the shared body of Batch and BatchReadOnly.
func (g *Registry) batch(fn func(tx *Txn) error, roOnly bool) error {
	// Representation latch, held shared across the whole batch — assembly,
	// commit AND the deferred shrink below (registered after the RUnlock,
	// so it runs before it) — keeping a migration cutover strictly ordered
	// against every in-flight batch (migrate.go).
	g.migrMu.RLock()
	defer g.migrMu.RUnlock()
	lt := g.getTxn()
	t := &Txn{reg: g, ltxn: lt, roOnly: roOnly, multi: &txnReg{}}
	defer func() {
		// Shrinking phase: end-bump every shard's begin-bumped epoch cells
		// while the locks are still held (optimistic readers must see the
		// odd window span all writes, rolled-back ones included), then
		// release the whole transaction's locks, restore each buffer's own
		// locks.Txn, and return the buffers to their relations' pools.
		// Runs on panic too (after commitTxn's rollback).
		for _, sh := range t.multi.shards {
			sh.b.finishEpochs()
		}
		lt.ReleaseAll()
		for _, sh := range t.multi.shards {
			sh.b.txn = sh.own
			sh.r.putBuf(sh.b)
		}
		g.txnPool.Put(lt)
	}()
	if err := fn(t); err != nil {
		t.sealed = true
		return err
	}
	t.sealed = true
	if len(t.multi.order) == 0 {
		return nil
	}
	// Every commit path — the lock-free read-only validation, the OCC
	// growing/validation phases and the pessimistic growing phase — walks
	// the shards in the registry-wide lock order, so sort them by relation
	// id once here; this is the ONLY sort (commitTxn and commitOCC rely
	// on it and never reorder the shards).
	sort.Slice(t.multi.shards, func(i, j int) bool { return t.multi.shards[i].r.regID < t.multi.shards[j].r.regID })
	if t.readOnly() {
		if g.commitReadOnly(t) {
			g.noteBatch(t, true, false)
			return nil
		}
	} else if ok, err := g.commitOCC(t); ok || err != nil {
		if ok && err == nil {
			g.noteBatch(t, false, true)
		}
		return err
	}
	if err := g.commitTxn(t); err != nil {
		return err
	}
	g.noteBatch(t, false, false)
	return nil
}

// commitTxn executes an assembled registry transaction: shard growing
// phases in relation-id order on the shared locks.Txn (Registry.batch
// sorted the shards before dispatching, and no commit path reorders
// them), then one apply phase replaying every member in global enqueue
// order under a shared undo log. With a commit logger attached the
// batch's redo record is appended after the apply phase completes, still
// under every held lock; a logging failure rolls the whole batch back
// and is returned from Batch.
func (g *Registry) commitTxn(t *Txn) error {
	for _, sh := range t.multi.shards {
		sh.r.initBatchMembers(sh.b)
	}
	for _, sh := range t.multi.shards {
		sh.r.growBatch(t, sh.b)
	}

	// Apply phase: one undo log spans all shards, so a panic in any
	// member's apply unwinds the writes of EVERY relation before the
	// locks are released — cross-relation all-or-nothing.
	undo := t.armUndo()
	defer func() {
		for _, sh := range t.multi.shards {
			sh.b.undo = nil
		}
		if p := recover(); p != nil {
			undo.rollback()
			panic(p)
		}
		clear(undo.recs)
		undo.recs = undo.recs[:0]
	}()
	for pos, ref := range t.multi.order {
		if registryApplyHook != nil {
			registryApplyHook(ref.sh.r.name, pos)
		}
		ref.sh.r.applyMember(ref.sh.b, &ref.sh.b.members[ref.idx], ref.idx, ref.sh.firstMut)
	}
	// Commit point: the batch is fully applied, its locks are still held.
	// Append the redo record now, so the log order of conflicting batches
	// is their serialization order; failure unwinds through the same undo
	// log a mid-apply panic would use.
	if lg, tp := g.logger, g.tap.Load(); lg != nil || tp != nil {
		if ops := t.registryRedo(); ops != nil {
			if lg != nil {
				if err := lg.LogCommit(ops); err != nil {
					undo.rollback()
					for _, sh := range t.multi.shards {
						sh.b.apply = false
					}
					return err
				}
			}
			// The migration tap records only durable commits, after the
			// logger accepted the batch and still under every held lock
			// (migrate.go).
			if tp != nil {
				tp.record(ops)
			}
		}
	}
	for _, sh := range t.multi.shards {
		sh.b.apply = false
	}
	return nil
}

// armUndo enters every shard's apply phase under one shared undo log: the
// first shard's buffer-resident undoPool, emptied (a stack undoLog would
// escape through b.undo and regrow its records every batch). Callers
// clear its records on every exit.
func (t *Txn) armUndo() *undoLog {
	undo := &t.multi.shards[0].b.undoPool
	undo.recs = undo.recs[:0]
	for _, sh := range t.multi.shards {
		sh.b.apply = true
		sh.b.undo = undo
	}
	return undo
}
