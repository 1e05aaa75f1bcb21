// Package crs — Concurrent Representation Synthesis — is a Go
// implementation of "Concurrent Data Representation Synthesis" (Hawkins,
// Aiken, Fisher, Rinard, Sagiv; PLDI 2012).
//
// Programs describe data as concurrent relations: a set of columns, a set
// of functional dependencies, and four atomic operations (insert, remove,
// query, plus construction). The library synthesizes the representation:
// a decomposition of the relation into cooperating container data
// structures (hash maps, B-trees, concurrent hash maps, lazy concurrent
// skip lists, copy-on-write maps, singleton cells), a lock
// placement (coarse, fine, striped, or speculative) mapping every logical
// lock onto physical locks, and query/mutation plans whose two-phase,
// globally ordered lock acquisition makes every operation serializable
// and deadlock-free by construction.
//
// # Quick start
//
//	spec := crs.MustSpec([]string{"src", "dst", "weight"},
//	    crs.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
//	d, _ := crs.NewBuilder(spec, "ρ").
//	    Edge("ρu", "ρ", "u", []string{"src"}, crs.ConcurrentHashMap).
//	    Edge("uv", "u", "v", []string{"dst"}, crs.TreeMap).
//	    Edge("vw", "v", "w", []string{"weight"}, crs.Cell).
//	    Build()
//	p := crs.NewPlacement(d)
//	p.SetStripes(d.Root, 1024)
//	p.Place(d.EdgeByName("ρu"), d.Root, "src")
//	r, _ := crs.Synthesize(spec, crs.WithDecomposition(d), crs.WithPlacement(p))
//	r.Insert(crs.T("src", 1, "dst", 2), crs.T("weight", 42))
//	succs, _ := r.Query(crs.T("src", 1), "dst", "weight")
//
// Omitting WithPlacement defaults to the fine-grain placement ψ2, and
// crs.WithAutotune lets the §6.1 enumerator pick the representation from
// the specification alone.
//
// # Prepared row execution
//
// Synthesize assigns every column a dense index (a Schema) and compiles
// all plans down to integer offsets. The Tuple API above converts at the
// boundary; hot paths can skip even that by preparing an operation once
// and executing it over schema-indexed Row values — no column names are
// touched at run time:
//
//	q, _ := r.PrepareQuery([]string{"src"}, []string{"dst", "weight"})
//	row := r.Schema().NewRow()
//	row.Set(r.Schema().MustIndex("src"), int64(1))
//	n, _ := q.CountRow(row)
//
// PreparedInsert.ExecRow and PreparedRemove.ExecRow are the mutation
// analogs; PreparedQuery.ExecRows streams result rows under the query's
// locks. The §6.2 benchmark adapters run on this path.
// PrepareQueryMask, PrepareInsertMask and PrepareRemoveMask prepare from
// schema masks instead of names and return the handle by value, for
// callers that already hold an operation's shape as masks (crsd's request
// compiler).
//
// # Batched transactions
//
// Several operations can run as ONE two-phase-locking transaction: the
// callback enqueues members (nothing executes yet), then the commit
// merges every member plan's lock requirements — deduplicated, shared
// upgraded to exclusive where any member writes — and acquires the
// coalesced set once in the global order, so an N-op batch takes each
// physical lock at most once. The group is atomic and behaves like its
// members ran sequentially (later members observe earlier members'
// writes):
//
//	ins, _ := r.PrepareInsert([]string{"dst", "src"})
//	var moved, placed *crs.Pending[bool]
//	r.Batch(func(tx *crs.Txn) error {
//	    moved, _ = tx.Remove(crs.T("src", 1, "dst", 2)) // tuple API…
//	    placed, _ = tx.ExecRow(ins, row)                // …or prepared rows
//	    return nil                                      // error ⇒ nothing runs
//	})
//	_ = moved.Value() // results resolve when Batch returns
//
// # Read-only batches
//
// A batch whose members are all queries and counts runs OPTIMISTICALLY
// when every container of the touched relations is concurrency-safe
// (Relation.OptimisticCapable): instead of acquiring its plans' locks
// shared, it records each lock's epoch cell, reads lock-free, validates
// the recorded epochs in the global lock order at commit, and retries on
// conflict — falling back to ordinary two-phase locking after a few
// failed attempts, so results never depend on the path taken. The happy
// path acquires zero physical locks. Batch detects read-only groups
// automatically; BatchReadOnly (on Relation and Registry) makes the
// intent explicit and rejects mutation enqueues:
//
//	var n *crs.Pending[int]
//	r.BatchReadOnly(func(tx *crs.Txn) error {
//	    n, _ = tx.Count(crs.T("src", 1))
//	    return nil
//	})
//
// Standalone Query/Count/ExecRows on capable relations ride the same
// lock-free path as one-member read-only batches, so the zero-lock read
// story covers the whole read API.
//
// # Mixed batches: Silo-style OCC
//
// A MIXED group — mutations plus reads — on OptimisticCapable relations
// auto-upgrades to an OCC commit: exclusive locks are acquired for the
// write members only (coalesced, in the global order), read members run
// lock-free recording epochs, results are staged under an undo log, and
// the read-set is validated (excluding locks the batch itself holds
// exclusively) before delivery, with retry and full-2PL fallback exactly
// like the read-only path. On the OCC path a batch therefore never
// acquires more locks than its sequential decomposition (the rare
// contention-forced 2PL fallback pays the pessimistic schedule instead).
//
// # Durability
//
// A Registry can log every committed batch to a write-ahead redo log
// (internal/wal) through the Registry.SetCommitLogger seam: the record
// is appended at the commit point — after the locks are held and the
// writes validated, before any result is delivered — so replaying the
// log through Registry.Batch reproduces exactly the committed history.
// The wal.Manager adds CRC-checked framing, group-commit fsync
// batching, periodic snapshots with log truncation, and crash recovery
// that tolerates a torn tail; cmd/crsd wires it up behind -wal-dir so
// an acknowledged request survives kill -9 and (under the default
// fsync policy) power loss. With no logger attached the commit path is
// untouched — the steady-state batch loop still allocates nothing.
//
// Or let the autotuner pick the representation for your workload:
//
//	best, _ := crs.Tune(crs.EnumerateGraphCandidates(), cfg, crs.TuneOptions{TopStatic: 32})
//
// The packages under internal/ implement the paper's subsystems; this
// package re-exports the stable public surface.
package crs

import (
	"repro/internal/autotune"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/graphreps"
	"repro/internal/locks"
	"repro/internal/rel"
	"repro/internal/workload"
)

// Relational substrate (§2).
type (
	// Value is a dynamically typed relational value (bool, int, int64,
	// uint64, float64 or string).
	Value = rel.Value
	// Tuple is an immutable column→value mapping.
	Tuple = rel.Tuple
	// Spec is a relational specification: columns plus functional
	// dependencies.
	Spec = rel.Spec
	// FD is a functional dependency From → To.
	FD = rel.FD
	// Schema assigns every spec column a dense index, fixed at
	// Synthesize time; see Relation.Schema.
	Schema = rel.Schema
	// Row is a dense tuple: one value slot per schema column plus a
	// bitmask of bound columns — the prepared-execution input type.
	Row = rel.Row
)

// RowOver wraps a value slice (one slot per schema column) and bound mask
// as a Row without copying.
func RowOver(vals []Value, mask uint64) Row { return rel.RowOver(vals, mask) }

// T builds a tuple from alternating column/value pairs; it panics on
// malformed input (use NewTuple for checked construction).
func T(pairs ...any) Tuple { return rel.T(pairs...) }

// NewTuple builds a tuple from alternating column/value pairs.
func NewTuple(pairs ...any) (Tuple, error) { return rel.NewTuple(pairs...) }

// NewSpec builds and validates a relational specification.
func NewSpec(columns []string, fds ...FD) (Spec, error) { return rel.NewSpec(columns, fds...) }

// MustSpec is NewSpec panicking on error.
func MustSpec(columns []string, fds ...FD) Spec { return rel.MustSpec(columns, fds...) }

// Containers (§3, Figure 1).
type (
	// ContainerKind identifies a container implementation.
	ContainerKind = container.Kind
	// ContainerProperties is a container's Figure 1 row.
	ContainerProperties = container.Properties
)

// The container kinds (named after their JDK archetypes).
const (
	HashMap               = container.HashMap
	TreeMap               = container.TreeMap
	ConcurrentHashMap     = container.ConcurrentHashMap
	ConcurrentSkipListMap = container.ConcurrentSkipListMap
	CopyOnWriteMap        = container.CopyOnWriteMap
	Cell                  = container.Cell
)

// ContainerPropertiesOf returns the concurrency-safety and consistency
// properties of a container kind (the paper's Figure 1).
func ContainerPropertiesOf(k ContainerKind) ContainerProperties { return container.PropertiesOf(k) }

// FormatTaxonomy renders the Figure 1 table.
func FormatTaxonomy() string { return container.FormatTaxonomy() }

// Decompositions (§4.1).
type (
	// Decomposition is a rooted DAG describing a representation.
	Decomposition = decomp.Decomposition
	// DecompositionBuilder assembles decompositions edge by edge.
	DecompositionBuilder = decomp.Builder
	// Node is a decomposition vertex with type A ▷ B.
	Node = decomp.Node
	// Edge is a decomposition edge carrying key columns and a container.
	Edge = decomp.Edge
)

// NewBuilder starts a decomposition for spec rooted at the named node.
func NewBuilder(spec Spec, root string) *DecompositionBuilder { return decomp.NewBuilder(spec, root) }

// StructureOptions bounds generic structure enumeration (§6.1).
type StructureOptions = decomp.EnumOptions

// EnumerateStructures returns adequate decomposition structures for spec
// within the given bounds — the §6.1 autotuner's first phase. With
// Share set, diamonds emerge from hash-consing shared suffixes.
func EnumerateStructures(spec Spec, opts StructureOptions) ([]*Decomposition, error) {
	return decomp.Enumerate(spec, opts)
}

// Lock placements (§4.3–4.5).
type (
	// Placement maps every edge's logical locks onto physical locks.
	Placement = locks.Placement
	// PlacementRule is one edge's rule.
	PlacementRule = locks.Rule
)

// NewPlacement returns the fine-grain default placement (ψ2); customize
// with Place / PlaceSpeculative / SetStripes.
func NewPlacement(d *Decomposition) *Placement { return locks.NewPlacement(d) }

// CoarsePlacement returns ψ1: a single root lock protects everything.
func CoarsePlacement(d *Decomposition) *Placement { return locks.Coarse(d) }

// FineGrainedPlacement returns ψ2: one lock per node instance.
func FineGrainedPlacement(d *Decomposition) *Placement { return locks.FineGrained(d) }

// Synthesis (§5).
type (
	// Relation is a synthesized concurrent relation.
	Relation = core.Relation
	// Reference is the executable sequential specification.
	Reference = core.Reference
	// PreparedQuery, PreparedInsert and PreparedRemove are compiled
	// operation handles: prepare once, execute many times over tuples or
	// schema-indexed rows with zero per-call plan work.
	PreparedQuery  = core.PreparedQuery
	PreparedInsert = core.PreparedInsert
	PreparedRemove = core.PreparedRemove
)

// Batched transactions.
type (
	// Txn is a batched multi-operation transaction under construction;
	// see Relation.Batch and Registry.Batch (and their BatchReadOnly
	// variants, which reject mutations and run lock-free when the
	// relations are OptimisticCapable). Enqueue operations with
	// Txn.Insert / Remove / Count / Query (tuples, single-relation
	// batches), Txn.InsertInto / RemoveFrom / CountIn / QueryIn (tuples,
	// naming the relation) or Txn.ExecRow / CountRow / ExecRows (prepared
	// rows, routed by the prepared handle's relation); each returns a
	// Pending resolved at commit.
	Txn = core.Txn
	// BatchMutation is the common interface of PreparedInsert and
	// PreparedRemove accepted by Txn.ExecRow.
	BatchMutation = core.BatchMutation
	// BatchTrace records a batch's coalesced lock schedule (Txn.EnableTrace).
	BatchTrace = core.BatchTrace
	// BatchRound is one coalesced acquisition in a BatchTrace.
	BatchRound = core.BatchRound
)

// Pending is a batch result future: resolved when Relation.Batch returns.
type Pending[T any] = core.Pending[T]

// Registry is a set of relations sharing one transactional domain — the
// library's database handle. Relations register at Synthesize time and
// receive a stable relation id that leads every lock ID they mint, so the
// §5.1 total lock order extends registry-wide to (relation id, node,
// instance key, stripe) and Registry.Batch can run one atomic,
// deadlock-free transaction over members against any registered
// relations:
//
//	db := crs.NewRegistry()
//	users, _ := db.Synthesize("users", uspec, crs.WithDecomposition(ud))
//	posts, _ := db.Synthesize("posts", pspec, crs.WithDecomposition(pd))
//	db.Batch(func(tx *crs.Txn) error {
//	    tx.InsertInto(posts, crs.T("author", 1, "post", 9), crs.T("ts", 4))
//	    tx.RemoveFrom(users, crs.T("user", 1))        // bump the counter:
//	    tx.InsertInto(users, crs.T("user", 1), crs.T("posts", 2))
//	    return nil
//	})
type Registry = core.Registry

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return core.NewRegistry() }

// SynthOption configures a Synthesize, Registry.Synthesize or
// Registry.Migrate call: pass an explicit representation with
// WithDecomposition / WithPlacement, or let a picker derive one from the
// specification (WithAutotune, WithPicker).
type SynthOption = core.SynthOption

// WithDecomposition selects an explicit decomposition.
func WithDecomposition(d *Decomposition) SynthOption { return core.WithDecomposition(d) }

// WithPlacement selects an explicit lock placement; omitted, the
// fine-grain default placement ψ2 of the resolved decomposition is used.
func WithPlacement(p *Placement) SynthOption { return core.WithPlacement(p) }

// WithPicker installs a custom representation picker deriving the
// decomposition (and optionally the placement) from the specification.
// Explicit WithDecomposition / WithPlacement options take precedence.
func WithPicker(pick func(Spec) (*Decomposition, *Placement, error)) SynthOption {
	return core.WithPicker(pick)
}

// WithAutotune lets the §6.1 enumerator pick the representation: adequate
// structures are enumerated from the specification (at most structLimit
// per sharing mode; ≤ 0 means the default bound) and scored statically,
// preferring representations whose containers keep the lock-free
// optimistic read path available. Explicit options still win.
func WithAutotune(structLimit int) SynthOption {
	return core.WithPicker(autotune.PickGeneric(structLimit))
}

// Synthesize compiles a representation of spec into a concurrent relation
// — the paper's compiler entry point. The representation comes from the
// options: an explicit decomposition and placement, or a picker such as
// WithAutotune. Use Registry.Synthesize instead when transactions must
// span several relations.
func Synthesize(spec Spec, opts ...SynthOption) (*Relation, error) {
	return core.SynthesizeSpec(spec, opts...)
}

// Counters and migration (adaptive operation).
type (
	// Counters is a registry-wide harvested counter snapshot — aggregate
	// totals, per-relation breakdowns and the migration event history;
	// see Registry.Harvest and Relation.Harvest.
	Counters = core.Counters
	// RelationCounters is one relation's harvested counter snapshot.
	RelationCounters = core.RelationCounters
	// MigrationEvent describes one completed live representation
	// migration; see Registry.Migrate.
	MigrationEvent = core.MigrationEvent
)

// NewReference returns the coarsely locked reference implementation of the
// relational operations, for differential testing.
func NewReference(spec Spec) *Reference { return core.NewReference(spec) }

// Benchmarking (§6.2).
type (
	// Mix is an operation distribution (x-y-z-w in the paper).
	Mix = workload.Mix
	// BenchConfig parameterizes a benchmark run.
	BenchConfig = workload.Config
	// BenchResult reports aggregate throughput.
	BenchResult = workload.Result
	// GraphOps is the §6.2 benchmark operation interface.
	GraphOps = workload.GraphOps
	// RelationGraph adapts a synthesized graph relation to GraphOps.
	RelationGraph = workload.RelationGraph
)

// Batched benchmarking.
type (
	// BatchGraphOps is the composite-operation interface of the batched
	// benchmark: insert pairs, edge moves, grouped counts.
	BatchGraphOps = workload.BatchGraphOps
	// RelationBatchGraph adapts a synthesized relation to BatchGraphOps
	// with one batched transaction per composite operation.
	RelationBatchGraph = workload.RelationBatchGraph
	// SequentialRelationBatchGraph is the per-operation baseline.
	SequentialRelationBatchGraph = workload.SequentialRelationBatchGraph
	// BatchOpsMix is an operation distribution over composite batched ops.
	BatchOpsMix = workload.BatchMix
)

// NewRelationBatchGraph prepares the batched benchmark operations.
func NewRelationBatchGraph(r *Relation) (*RelationBatchGraph, error) {
	return workload.NewRelationBatchGraph(r)
}

// MustRelationBatchGraph is NewRelationBatchGraph panicking on error.
func MustRelationBatchGraph(r *Relation) *RelationBatchGraph {
	return workload.MustRelationBatchGraph(r)
}

// NewSequentialBatchGraph prepares the sequential (non-coalesced)
// baseline over the same prepared operations.
func NewSequentialBatchGraph(r *Relation) (*SequentialRelationBatchGraph, error) {
	return workload.NewSequentialRelationBatchGraph(r)
}

// DefaultBatchMix returns the batched benchmark's mixed read-write
// distribution.
func DefaultBatchMix() BatchOpsMix { return workload.DefaultBatchMix() }

// BatchCompositeOp draws and executes one composite batched operation —
// the single dispatch shared by workload.RunBatched and external harnesses
// (the in-repo benchmark), so both measure the same workload.
func BatchCompositeOp(g BatchGraphOps, state *uint64, mix BatchOpsMix, keySpace int64) uint64 {
	return workload.CompositeOp(g, state, mix, keySpace)
}

// Figure5Mixes lists the four operation distributions of Figure 5.
func Figure5Mixes() []Mix { return workload.Figure5Mixes() }

// NewRelationGraph prepares the four benchmark operations against a
// synthesized graph relation.
func NewRelationGraph(r *Relation) (*RelationGraph, error) { return workload.NewRelationGraph(r) }

// MustRelationGraph is NewRelationGraph panicking on error.
func MustRelationGraph(r *Relation) *RelationGraph { return workload.MustRelationGraph(r) }

// RunBench executes one benchmark run.
func RunBench(g GraphOps, cfg BenchConfig) BenchResult { return workload.Run(g, cfg) }

// GraphSpec returns the directed-graph specification of §2.
func GraphSpec() Spec { return workload.GraphSpec() }

// Named representations (§4.3, §6.2).
type GraphVariant = graphreps.Variant

// Figure5Variants returns the twelve named decompositions of Figure 5.
func Figure5Variants() []GraphVariant { return graphreps.Figure5Variants() }

// GraphVariantByName returns a named Figure 5 variant (or "Diamond Spec").
func GraphVariantByName(name string) (GraphVariant, error) { return graphreps.VariantByName(name) }

// Autotuning (§6.1).
type (
	// TuneCandidate is one representation the autotuner can measure.
	TuneCandidate = autotune.Candidate
	// TuneOptions tunes the search.
	TuneOptions = autotune.Options
	// TuneScored is a candidate with its measurements.
	TuneScored = autotune.Scored
)

// EnumerateGraphCandidates enumerates every legal representation of the
// graph relation over the three Figure 3 structures.
func EnumerateGraphCandidates() []TuneCandidate { return autotune.EnumerateGraph() }

// EnumerateGenericCandidates runs the full §6.1 pipeline from a bare
// specification: enumerate adequate structures, then placements, then
// containers the placements permit.
func EnumerateGenericCandidates(spec Spec, structLimit int) ([]TuneCandidate, error) {
	return autotune.EnumerateGeneric(spec, structLimit)
}

// Tune measures candidates under a training workload and ranks them by
// throughput.
func Tune(cands []TuneCandidate, cfg BenchConfig, opts TuneOptions) ([]TuneScored, error) {
	return autotune.Tune(cands, cfg, opts)
}
