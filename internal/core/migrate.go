package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/decomp"
	"repro/internal/rel"
)

// This file implements live representation migration: Registry.Migrate
// re-synthesizes a registered relation — new decomposition and/or lock
// placement — while the relation keeps serving traffic, and cuts over
// atomically. The protocol (ARCHITECTURE §14):
//
//  1. SIDE SYNTHESIS: the target representation is compiled as a
//     detached relation (tmp) with the SAME stable relation id, so every
//     lock array it mints bakes the identical leading component into its
//     lock IDs and the §5.1 registry-wide total order survives the swap
//     unchanged. tmp is private to the migration: unlogged, untapped,
//     invisible to every other goroutine.
//
//  2. TAP: a migrationTap is installed beside the commit logger. Every
//     commit path that mutates relations — pessimistic single-relation
//     and registry batches, both OCC commits, and standalone
//     insert/remove — already builds (or can build) the batch's logical
//     redo ops at its commit point, under its held locks; the tap
//     records the ops targeting the migrating relation there. Because
//     recording happens before any lock is released, the tap order of
//     two CONFLICTING mutations is exactly their serialization order.
//     After the store, Migrate takes the representation latch exclusive
//     and releases it immediately: every operation that entered before
//     the tap was visible has drained, so from here on each committed
//     mutation is either already applied (and visible to the snapshot
//     below) or recorded in the tap — possibly both, which replay
//     tolerates.
//
//  3. SNAPSHOT + BACKFILL: a consistent full read of the live relation
//     (the optimistic or 2PL read path, either way validated) is taken
//     as insert redo ops that bind every column and are keyed on the
//     full row, and replayed onto tmp by the catch-up rule (applyRedo):
//     backfill is catch-up from an empty relation.
//
//  4. CATCH-UP: tapped ops are drained and replayed onto tmp in tap
//     order, in rounds, until a round drains below a small threshold.
//     Replay re-executes each op's original decision procedure
//     (put-if-absent insert, blind remove), so re-applying ops the
//     snapshot already reflects is harmless: after the full tapped
//     stream is replayed in order, tmp's final state equals the live
//     relation's regardless of snapshot/tap overlap.
//
//  5. CUTOVER: the representation latch is taken exclusive — every
//     operation entry point holds it shared for its full duration, so
//     exclusivity means no operation is in flight and none can start.
//     The residue of the tap is replayed (nothing new can arrive), the
//     tap is removed, and the relation adopts tmp's representation in
//     place: decomposition, placement, root instance, compiled tables
//     (the plan table among them) and buffer pool swap under the latch;
//     prepared handles, which hold only their shapes, look their plans
//     up in the adopted table on next use. In-flight batches therefore
//     never observe a half-migrated relation: they either completed
//     against the old representation before the latch or start against
//     the new one.
//
// Crash contract: the representation choice is NOT persisted. The WAL
// stays a purely logical redo log, so a crash at ANY point of a
// migration recovers by replaying logical ops into the boot-time
// representation — the store is never part-old, part-new on disk
// because the disk never knew about representations in the first place.
//
// Deadlock argument: Migrate holds migrateMu (one migration at a time)
// throughout; it acquires the latch shared only via the snapshot read
// and exclusive only at the barrier and cutover, never while holding
// any data lock; operations acquire the latch before any data lock and
// release it after all of them (latch ≺ every lock in the acquisition
// order). The latch is therefore a root of the lock order and cannot
// close a cycle.

// catchupThreshold is the drain size under which Migrate stops catch-up
// rounds and proceeds to cutover — the residue is small enough to replay
// inside the exclusive-latch pause.
const catchupThreshold = 32

// maxCatchupRounds bounds the catch-up phase: if mutators outrun replay
// this long, the remaining backlog is replayed under the latch (a longer
// pause, never incorrectness).
const maxCatchupRounds = 8

// migrateStageHook, when non-nil, runs at each named stage boundary of a
// migration ("synthesized", "tapped", "snapshot", "backfilled",
// "cutover"). Tests use it to freeze a migration mid-flight and drive
// concurrent traffic deterministically. The hook runs outside the
// exclusive latch, so traffic flows while it blocks.
var migrateStageHook func(stage string)

func migrateStage(stage string) {
	if h := migrateStageHook; h != nil {
		h(stage)
	}
}

// migrationTap records the logical redo ops of committed mutations
// against one relation while a migration is in flight. record runs at
// commit points under the committing batch's locks, so the recorded
// order of conflicting ops is their serialization order; RedoOp.Vals are
// freshly allocated per op (redo.go), so retaining them is safe.
type migrationTap struct {
	rel string
	mu  sync.Mutex
	ops []RedoOp
}

// record appends the ops targeting the tapped relation.
func (tp *migrationTap) record(ops []RedoOp) {
	tp.mu.Lock()
	for i := range ops {
		if ops[i].Rel == tp.rel {
			tp.ops = append(tp.ops, ops[i])
		}
	}
	tp.mu.Unlock()
}

// drain takes the recorded ops, leaving the tap empty.
func (tp *migrationTap) drain() []RedoOp {
	tp.mu.Lock()
	ops := tp.ops
	tp.ops = nil
	tp.mu.Unlock()
	return ops
}

// commitTap returns the migration tap charged with this relation's
// commits: the owning registry's, or nil. One atomic load; nil whenever
// no migration is in flight.
func (r *Relation) commitTap() *migrationTap {
	if g := r.registry; g != nil {
		return g.tap.Load()
	}
	return nil
}

// tapDirect records a standalone (non-batch) mutation into the live
// migration tap, if one is installed and targets this relation. Called
// from runInsert/runRemove while the operation's locks are still held —
// the buffer release (and with it the shrinking phase) is deferred — so
// the serialization-order guarantee of batch commit points extends to
// the direct paths.
func (r *Relation) tapDirect(insert bool, boundMask uint64, row rel.Row) {
	tp := r.commitTap()
	if tp == nil || tp.rel != r.name {
		return
	}
	op := RedoOp{Rel: r.name, Insert: insert, Vals: redoVals(row), RowMask: row.Mask(), BoundMask: boundMask}
	tp.mu.Lock()
	tp.ops = append(tp.ops, op)
	tp.mu.Unlock()
}

// lockRep acquires the owning registry's representation latch shared —
// every operation entry point holds it for the operation's full
// duration, so Migrate's exclusive acquisition at cutover means "no
// operation in flight". Standalone relations have no registry and no
// migrations, so the latch degenerates to nothing.
func (r *Relation) lockRep() {
	if g := r.registry; g != nil {
		g.migrMu.RLock()
	}
}

// unlockRep releases lockRep.
func (r *Relation) unlockRep() {
	if g := r.registry; g != nil {
		g.migrMu.RUnlock()
	}
}

// MigrationEvent describes one completed live migration — the record
// Registry.Harvest exposes (and /v1/stats serves) so operators can see
// what the advisor did and what it cost.
type MigrationEvent struct {
	// Relation is the migrated relation's registered name.
	Relation string `json:"relation"`
	// From and To summarize the representations as their container kinds
	// in edge-index order, "/"-joined.
	From string `json:"from"`
	To   string `json:"to"`
	// OptimisticBefore/After report OptimisticCapable on each side — the
	// headline unlock of a TreeMap → ConcurrentSkipListMap migration.
	OptimisticBefore bool `json:"optimistic_before"`
	OptimisticAfter  bool `json:"optimistic_after"`
	// Backfilled counts the rows copied from the snapshot.
	Backfilled int `json:"backfilled"`
	// CatchupOps counts the tapped mutations replayed (catch-up rounds
	// plus the final under-latch residue).
	CatchupOps int `json:"catchup_ops"`
	// PauseNS is the exclusive-latch cutover pause; TotalNS the whole
	// migration, side synthesis through cutover.
	PauseNS int64 `json:"pause_ns"`
	TotalNS int64 `json:"total_ns"`
}

// containerSummary renders a decomposition's container kinds in
// edge-index order, "/"-joined — the From/To fields of MigrationEvent.
func containerSummary(d *decomp.Decomposition) string {
	kinds := make([]string, len(d.Edges))
	for _, e := range d.Edges {
		kinds[e.Index] = e.Container.String()
	}
	return strings.Join(kinds, "/")
}

// Migrate re-synthesizes the named relation to the representation the
// options select (the same option vocabulary as Synthesize) while the
// relation serves traffic, and cuts over atomically; see the protocol
// comment above. It returns the completed migration's event record.
// Migrations are serialized: a second Migrate blocks until the first
// finishes. On any error the relation is untouched — the old
// representation keeps serving.
func (g *Registry) Migrate(name string, opts ...SynthOption) (*MigrationEvent, error) {
	g.migrateMu.Lock()
	defer g.migrateMu.Unlock()

	r := g.RelationByName(name)
	if r == nil {
		return nil, fmt.Errorf("core: no relation %q registered", name)
	}
	d, p, err := resolveSynth(r.spec, opts)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	ev := MigrationEvent{
		Relation:         name,
		From:             containerSummary(r.decomp),
		OptimisticBefore: r.optimisticOK,
	}

	// 1. Side synthesis: detached (nil registry — unlogged, untapped)
	// but with the live relation's stable id, so the new representation's
	// lock IDs occupy exactly the old one's slot in the global order.
	tmp, err := synthesize(nil, r.regID, name, d, p)
	if err != nil {
		return nil, err
	}
	ev.To = containerSummary(tmp.decomp)
	ev.OptimisticAfter = tmp.optimisticOK
	migrateStage("synthesized")

	// 2. Install the tap, then drain in-flight operations: after this
	// Lock/Unlock pulse every running operation either finished (its
	// effects are visible to the snapshot) or started after the store
	// (its commit point sees the tap).
	tp := &migrationTap{rel: name}
	g.tap.Store(tp)
	g.migrMu.Lock()
	//lint:ignore SA2001 empty critical section is the point: a reader
	// barrier — entering excludes all pre-store operations, and any
	// operation entering afterwards observes the tap store.
	g.migrMu.Unlock()
	migrateStage("tapped")

	abort := func(err error) (*MigrationEvent, error) {
		g.tap.Store(nil)
		return nil, err
	}

	// 3. Consistent full read of the live relation, collected as insert
	// redo ops keyed on the full row and backfilled into tmp by the
	// catch-up rule: backfill is catch-up from an empty relation.
	scan, err := r.PrepareQueryMask(0, r.fullMask)
	if err != nil {
		return abort(err)
	}
	var snap []RedoOp
	err = scan.ExecRows(r.schema.NewRow(), func(row rel.Row) bool {
		snap = append(snap, RedoOp{Rel: name, Insert: true, Vals: redoVals(row), RowMask: r.fullMask, BoundMask: r.fullMask})
		return true
	})
	if err != nil {
		return abort(err)
	}
	migrateStage("snapshot")
	for i := range snap {
		if aerr := tmp.applyRedo(&snap[i]); aerr != nil {
			return abort(aerr)
		}
	}
	ev.Backfilled = len(snap)
	migrateStage("backfilled")

	// 4. Catch-up: replay tapped mutations in tap (= serialization)
	// order until a round's drain is small enough to finish under the
	// latch.
	for round := 0; round < maxCatchupRounds; round++ {
		ops := tp.drain()
		ev.CatchupOps += len(ops)
		for i := range ops {
			if aerr := tmp.applyRedo(&ops[i]); aerr != nil {
				return abort(aerr)
			}
		}
		if len(ops) <= catchupThreshold {
			break
		}
	}
	migrateStage("cutover")

	// 5. Cutover: exclusive latch — no operation in flight, none can
	// start. Replay the residue, remove the tap, adopt in place.
	pauseStart := time.Now()
	g.migrMu.Lock()
	residue := tp.drain()
	ev.CatchupOps += len(residue)
	for i := range residue {
		if aerr := tmp.applyRedo(&residue[i]); aerr != nil {
			g.migrMu.Unlock()
			return abort(aerr)
		}
	}
	g.tap.Store(nil)
	r.adoptRep(tmp)
	r.ctr.migrations.Add(1)
	g.migrMu.Unlock()
	ev.PauseNS = time.Since(pauseStart).Nanoseconds()
	ev.TotalNS = time.Since(start).Nanoseconds()

	g.evMu.Lock()
	g.events = append(g.events, ev)
	g.evMu.Unlock()
	return &ev, nil
}

// applyRedo replays one logical redo op against the relation through its
// ordinary mutation plans — the rule recovery uses (redoShape), here
// serving migration backfill and catch-up. Failed inserts (key present)
// and empty removes are fine: re-applying ops the snapshot already
// reflects must be a no-op.
func (r *Relation) applyRedo(op *RedoOp) error {
	sh, row, err := r.redoShape(op)
	if err != nil {
		return err
	}
	p, err := r.planFor(sh)
	if err != nil {
		return err
	}
	if op.Insert {
		r.runInsert(p, row)
	} else {
		r.runRemove(p.mut, row)
	}
	return nil
}

// adoptRep swaps tmp's representation into r in place. Caller holds the
// representation latch exclusive (no operation in flight) — everything
// compiled against the old representation goes at once: decomposition,
// placement, root instance, the whole compiled layout (execution tables,
// lock layout, shared leaves, container constructors, the optimistic
// capability, the planner and its plan table, which backfill and catch-up
// already warmed) and the buffer pool (pooled buffers hold old-shape
// state slabs; tmp's pool is shaped right). The identity fields — spec,
// schema, registry coordinates, counters — stay: the relation is the same
// relation, represented differently. Prepared handles hold only shapes,
// so their next execution finds its plan in the adopted table.
func (r *Relation) adoptRep(tmp *Relation) {
	r.decomp = tmp.decomp
	r.placement = tmp.placement
	r.root = tmp.root
	r.layout = tmp.layout
	r.bufPool = tmp.bufPool
}
