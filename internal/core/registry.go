package core

import (
	"fmt"
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

	// txnPool recycles Registry.Batch's regTxn: the transaction-wide
	// locks.Txn, Txn slab and list backings (per-relation operation
	// buffers are pooled on their relations).
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

	// ctr holds the cells of Registry.Batch's batch-level counts
	// (counters.go).
	ctr batchCounters
	// stamps issues the commit stamps of every batch of the registry
	// (Txn.Stamp).
	stamps atomic.Uint64
	// evMu guards events, the completed-migration history Harvest copies.
	evMu   sync.Mutex
	events []MigrationEvent
}

// registryApplyHook, when non-nil, runs before each member of a batch's
// apply phase (arguments: relation name, member's global enqueue
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

// regTxn is what a Registry.Batch checks out of the registry pool: the
// transaction-wide locks.Txn and the Txn slab and list backings.
type regTxn struct {
	lt  *locks.Txn
	res txnRes
}

// getTxn checks a regTxn out of the pool, its locks.Txn reset.
func (g *Registry) getTxn() *regTxn {
	rt, _ := g.txnPool.Get().(*regTxn)
	if rt == nil {
		rt = &regTxn{lt: locks.NewTxn()}
	}
	rt.lt.Reset()
	return rt
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
// When every touched relation is OptimisticCapable, a group holding
// reads commits on the optimistic row of the commit pipeline (commit.go):
// exclusive locks for the write members only, lock-free epoch-validated
// reads for the rest, validated in the registry-wide lock order — so a
// read-only group acquires zero physical locks on the conflict-free path.
func (g *Registry) Batch(fn func(tx *Txn) error) error {
	return runBatch(g, nil, fn, false)
}

// BatchReadOnly is Batch restricted to read-only groups: enqueueing a
// mutation fails with an error, making the zero-lock optimistic intent
// explicit. Execution is identical to what Batch auto-detects for
// read-only groups, so results never depend on which path ran.
func (g *Registry) BatchReadOnly(fn func(tx *Txn) error) error {
	return runBatch(g, nil, fn, true)
}
