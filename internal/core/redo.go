package core

// This file is the durability seam of the commit path: the registry can
// carry a CommitLogger (internal/wal's Manager in production), and the
// commit pipeline (commit.go) hands the logger one logical redo record
// per committed mutating batch at its commit point (logCommit), on both
// rows, for Relation.Batch and Registry.Batch alike. The point comes
// after every member computed, the stamp was drawn, the read-sets
// validated and the query yields ran, and before any Pending resolves —
// crucially while every lock the batch holds is still held. Holding the
// locks across the append means the log order of two CONFLICTING batches
// is exactly their serialization order (the second cannot reach its
// commit point before the first releases), so a replayed log prefix is
// always a serializable prefix of committed batches. If the logger fails,
// the batch rolls back through the same undo log that serves panics and
// the error surfaces from Batch with no Pending resolved — a batch is
// either durable and delivered, or neither. A yield that panics rolls the
// batch back before the logger sees anything.
//
// Read-only batches never log (there is nothing to redo), and a nil
// logger costs the hot path one pointer test — the steady-state
// zero-allocation guarantee of the batch path is unchanged when
// durability is off.

import (
	"fmt"

	"repro/internal/rel"
)

// RedoOp is one logical mutation of a committed batch, in enqueue order:
// the unit of the write-ahead redo log. Vals holds the operation row's
// values in schema column-index order (entries outside RowMask are nil);
// for an insert RowMask covers every column and BoundMask is the s-side
// of the insert's s/t split (the put-if-absent key columns; a restored
// snapshot row or a backfilled row is keyed on every column), for a remove
// RowMask == BoundMask covers the bound search columns. Replaying the
// op (Registry.Replay, redoShape) with the same split re-executes the
// original decision procedure, so replay is idempotent: re-applying a
// suffix of already-applied ops is a no-op.
type RedoOp struct {
	// Rel is the registered name of the relation the op targets.
	Rel string
	// Insert discriminates insert (true) from remove (false).
	Insert bool
	// Vals are the operation row's values, indexed by schema column.
	Vals []rel.Value
	// RowMask marks the columns Vals binds.
	RowMask uint64
	// BoundMask is the insert's s-column split (RowMask for removes).
	BoundMask uint64
}

// CommitLogger is the hook a durability layer implements to persist
// committed batches. LogCommit is called once per committed mutating
// batch, at the commit point, with the batch's mutations in enqueue
// order; the ops slice and the Vals it references are only valid for the
// duration of the call (rows are arena-backed and recycled). The call
// comes after the batch's query yields ran and before any of its Pending
// results resolves. A non-nil error aborts the commit: the batch rolls
// back, Batch returns the error and no Pending resolves, so delivery and
// durability cannot disagree. Rows a yield saw belong to the batch only
// if Batch returns nil.
//
// LogCommit runs with the batch's locks held — implementations must not
// re-enter the registry (no Batch calls) and should append quickly;
// fsync policy is the implementation's business (see internal/wal).
type CommitLogger interface {
	LogCommit(ops []RedoOp) error
}

// Replay re-executes one logged batch — the ops one LogCommit call
// received — as one batch, the recovery half of the CommitLogger
// contract. Mutation outcomes are discarded: replayed from the same
// prefix state, each op makes its original decision again. The ops may
// have been read back from storage, so each is checked against its
// relation's schema before anything executes (redoShape); a failing op
// aborts the batch untouched.
func (g *Registry) Replay(ops []RedoOp) error {
	return g.Batch(func(t *Txn) error {
		for i := range ops {
			op := &ops[i]
			r := g.RelationByName(op.Rel)
			if r == nil {
				return fmt.Errorf("core: unknown relation %q", op.Rel)
			}
			sh, err := t.shardFor(r)
			if err != nil {
				return err
			}
			shp, row, err := r.redoShape(op)
			if err != nil {
				return err
			}
			p, err := r.planFor(shp)
			if err != nil {
				return err
			}
			t.enqueueMut(sh, shp.kind, p, row)
		}
		return nil
	})
}

// redoShape is the one redo rule, shared by every state transfer: log
// replay and snapshot restore (Replay), migration backfill and catch-up
// (applyRedo). It maps a redo op to the shape and the row that
// re-execute it. An insert binds every column and keys its
// put-if-absent check on BoundMask; a remove is keyed on the columns its
// row binds. Vals must span the schema: a logged op comes from disk, so
// a short or long one is an error, not a panic.
func (r *Relation) redoShape(op *RedoOp) (shape, rel.Row, error) {
	if op.RowMask&^r.fullMask != 0 {
		return shape{}, rel.Row{}, fmt.Errorf("core: relation %q: row mask %#x exceeds schema", r.name, op.RowMask)
	}
	if op.BoundMask&^op.RowMask != 0 {
		return shape{}, rel.Row{}, fmt.Errorf("core: relation %q: inconsistent op masks %#x/%#x", r.name, op.RowMask, op.BoundMask)
	}
	sh := shape{kind: mRemove, bound: op.RowMask}
	if op.Insert {
		if op.RowMask != r.fullMask {
			return shape{}, rel.Row{}, fmt.Errorf("core: relation %q: insert binds %v, want all of %v",
				r.name, r.maskCols(op.RowMask), r.schema.Columns())
		}
		sh.kind, sh.bound = mInsert, op.BoundMask
	}
	if w := r.schema.Len(); len(op.Vals) != w {
		return shape{}, rel.Row{}, fmt.Errorf("core: relation %q: op carries %d values, want %d", r.name, len(op.Vals), w)
	}
	return sh, rel.RowOver(op.Vals, op.RowMask), nil
}

// SetCommitLogger attaches (or, with nil, detaches) the registry's
// commit logger. Attach before the registry serves traffic: the field is
// read on every commit without synchronization, so mutating it
// concurrently with batches is a race. Recovery (internal/wal's Open)
// replays into the registry BEFORE attaching the logger, so replayed
// batches are never re-logged.
func (g *Registry) SetCommitLogger(l CommitLogger) { g.logger = l }

// redoVals copies row's bound values into a fresh slice of the row's
// width (unbound columns stay nil), so a redo op built from it does not
// alias pooled row storage and stays valid after the buffers recycle.
func redoVals(row rel.Row) []rel.Value {
	vals := make([]rel.Value, row.Width())
	for i := range vals {
		if row.Has(i) {
			vals[i] = row.At(i)
		}
	}
	return vals
}

// appendMemberRedo appends m's redo op to ops; the caller filtered m to
// mutation kinds.
func appendMemberRedo(ops []RedoOp, relName string, m *member) []RedoOp {
	return append(ops, RedoOp{
		Rel:       relName,
		Insert:    m.kind == mInsert,
		Vals:      redoVals(m.row),
		RowMask:   m.row.Mask(),
		BoundMask: m.mut.BoundMask,
	})
}

// logCommit is the commit point's durability step: it builds the batch's
// redo record and hands it to the registry's commit logger, then — only
// once the logger accepted it — to the migration tap (migrate.go). The
// caller holds every lock of the batch and rolls the batch back on error.
// Standalone relations, which have neither, and batches without
// mutations log nothing.
func (t *Txn) logCommit() error {
	if t.reg == nil {
		return nil
	}
	lg, tp := t.reg.logger, t.reg.tap.Load()
	if lg == nil && tp == nil {
		return nil
	}
	ops := t.redoOps()
	if ops == nil {
		return nil
	}
	if lg != nil {
		if err := lg.LogCommit(ops); err != nil {
			return err
		}
	}
	if tp != nil {
		tp.record(ops)
	}
	return nil
}

// redoOps builds the batch's redo ops in global enqueue order (t.order,
// spanning all shards); nil when the batch holds no mutations.
func (t *Txn) redoOps() []RedoOp {
	n := 0
	for _, ref := range t.order {
		if k := ref.member().kind; k == mInsert || k == mRemove {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	ops := make([]RedoOp, 0, n)
	for _, ref := range t.order {
		m := ref.member()
		if m.kind != mInsert && m.kind != mRemove {
			continue
		}
		ops = appendMemberRedo(ops, ref.sh.r.name, m)
	}
	return ops
}
