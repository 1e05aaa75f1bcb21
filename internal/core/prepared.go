package core

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/rel"
)

// Prepared operations are the library analog of the paper's static
// compilation: the Scala plugin compiled each syntactic relational
// operation once; here a client prepares an operation signature once and
// executes it many times with no column-name resolution or validation
// per call. Two surfaces are offered:
//
//   - the Tuple API (Exec/Count), which converts between tuples and dense
//     rows exactly once at this boundary; and
//   - the Row API (ExecRow/ExecRows/CountRow), which accepts
//     schema-indexed rel.Row values directly and performs no column-name
//     work at all — the §6.2 benchmark adapters use it.
//
// A handle is its relation and its shape (relation.go), nothing more.
// Every execution, under the shared representation latch, looks the shape
// up in the current representation's plan table — one atomic load and a
// map probe — so a live migration (migrate.go), which swaps the table with
// the rest of the layout, needs nothing from the handles. A shape the new
// representation cannot plan fails with the planner's error and executes
// nothing; migrating back makes the handle work again.

// PreparedQuery is a compiled query handle for one (bound columns, output
// columns) signature.
type PreparedQuery struct {
	r          *Relation
	bound, out uint64
}

// PrepareQuery compiles the query signature once. The tuple or row passed
// to Exec/Count must bind exactly the prepared bound columns. The handle
// stays valid across live migrations.
func (r *Relation) PrepareQuery(bound, out []string) (*PreparedQuery, error) {
	bm, err := r.colMask(bound)
	if err != nil {
		return nil, err
	}
	om, err := r.colMask(out)
	if err != nil {
		return nil, err
	}
	q, err := r.PrepareQueryMask(bm, om)
	if err != nil {
		return nil, err
	}
	return &q, nil
}

// PrepareQueryMask is PrepareQuery for a signature given as schema masks
// (bit i is schema column i), the form rows carry; it resolves no column
// names and allocates nothing once the signature has been compiled.
func (r *Relation) PrepareQueryMask(bound, out uint64) (PreparedQuery, error) {
	if err := r.prepare(shape{kind: mQuery, bound: bound, out: out}); err != nil {
		return PreparedQuery{}, err
	}
	return PreparedQuery{r: r, bound: bound, out: out}, nil
}

// prepare checks that sh names schema columns only and that the current
// representation plans it.
func (r *Relation) prepare(sh shape) error {
	if (sh.bound|sh.out)&^r.fullMask != 0 {
		return fmt.Errorf("core: column mask %#x exceeds the schema %v", sh.bound|sh.out, r.schema.Columns())
	}
	r.lockRep()
	defer r.unlockRep()
	_, err := r.planFor(sh)
	return err
}

// plan returns the query's plan in the current representation. Callers
// hold the representation latch.
func (q *PreparedQuery) plan() (*query.Plan, error) {
	p, err := q.r.planFor(shape{kind: mQuery, bound: q.bound, out: q.out})
	if err != nil {
		return nil, err
	}
	return p.q, nil
}

// countPlan returns the count-pushdown plan (internal/query/count.go) for
// the query's bound columns in the current representation, falling back
// to the query's own plan. Callers hold the representation latch.
func (q *PreparedQuery) countPlan() (*query.Plan, error) {
	if p, err := q.r.planFor(shape{kind: mCount, bound: q.bound}); err == nil {
		return p.q, nil
	}
	return q.plan()
}

// Exec runs the prepared query for the bound tuple s.
func (q *PreparedQuery) Exec(s rel.Tuple) ([]rel.Tuple, error) {
	q.r.lockRep()
	defer q.r.unlockRep()
	plan, err := q.plan()
	if err != nil {
		return nil, err
	}
	row, err := q.r.rowForTuple(s, q.bound)
	if err != nil {
		return nil, err
	}
	return q.r.runQueryTuples(plan, row), nil
}

// ExecRows runs the prepared query for the bound row s and yields each
// matching state's row until yield returns false. Yielded rows bind (at
// least) the prepared output columns; they are only valid during the
// callback — the backing storage is pooled. On an OptimisticCapable
// relation the traversal runs lock-free and yields only after its epoch
// records validated (no locks are held during the iteration); otherwise
// the query's shared locks are held for the duration of the iteration.
// Either way the yielded rows are a validated consistent snapshot.
func (q *PreparedQuery) ExecRows(s rel.Row, yield func(rel.Row) bool) error {
	q.r.lockRep()
	defer q.r.unlockRep()
	plan, err := q.plan()
	if err != nil {
		return err
	}
	if err := q.r.checkRow(s, q.bound); err != nil {
		return err
	}
	b := q.r.getBuf()
	defer q.r.putBuf(b)
	q.r.runRead(b, plan, s)
	for _, st := range b.pipe {
		if !yield(st.row) {
			break
		}
	}
	return nil
}

// Count returns the number of tuples extending s, using the count-
// pushdown plan: once the bound columns are consumed, subtrees whose
// entries are keyed tuples are counted by container size under the
// already-required locks instead of being traversed.
func (q *PreparedQuery) Count(s rel.Tuple) (int, error) {
	row, err := q.r.rowForTuple(s, q.bound)
	if err != nil {
		return 0, err
	}
	return q.CountRow(row)
}

// CountRow is Count over a schema-indexed row, the zero-name-resolution
// fast path.
func (q *PreparedQuery) CountRow(s rel.Row) (int, error) {
	q.r.lockRep()
	defer q.r.unlockRep()
	plan, err := q.countPlan()
	if err != nil {
		return 0, err
	}
	if err := q.r.checkRow(s, q.bound); err != nil {
		return 0, err
	}
	b := q.r.getBuf()
	defer q.r.putBuf(b)
	return q.r.runRead(b, plan, s), nil
}

// runQueryTuples executes a compiled plan (runRead) and materializes the
// results as tuples — the single row→tuple conversion point of the query
// path, reached only after an optimistic walk validated.
func (r *Relation) runQueryTuples(plan *query.Plan, op rel.Row) []rel.Tuple {
	b := r.getBuf()
	defer r.putBuf(b)
	r.runRead(b, plan, op)
	results := make([]rel.Tuple, 0, len(b.pipe))
	for _, st := range b.pipe {
		vals := make([]rel.Value, len(plan.OutIdx))
		for j, ci := range plan.OutIdx {
			vals[j] = st.row.At(ci)
		}
		results = append(results, rel.TupleFromSorted(plan.OutCols, vals))
	}
	return results
}

// rowForTuple converts an operation tuple to a fresh row and checks that
// it binds exactly the plan's bound columns.
func (r *Relation) rowForTuple(s rel.Tuple, want uint64) (rel.Row, error) {
	row, err := r.schema.RowFromTuple(s, nil)
	if err != nil {
		return rel.Row{}, err
	}
	if row.Mask() != want {
		return rel.Row{}, fmt.Errorf("core: tuple %v does not bind the prepared columns", s)
	}
	return row, nil
}

// checkRow validates a caller-provided row against the schema width and a
// required bound mask.
func (r *Relation) checkRow(s rel.Row, want uint64) error {
	if s.Width() != r.schema.Len() {
		return fmt.Errorf("core: row width %d does not match schema width %d", s.Width(), r.schema.Len())
	}
	if s.Mask() != want {
		return fmt.Errorf("core: row binds %v, prepared operation wants %v",
			r.maskCols(s.Mask()), r.maskCols(want))
	}
	return nil
}

// maskCols renders a bound mask as its column names (error messages, and
// the planner's input when a shape is compiled).
func (r *Relation) maskCols(mask uint64) []string {
	cols := make([]string, 0, r.schema.Len())
	for i := 0; i < r.schema.Len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			cols = append(cols, r.schema.Column(i))
		}
	}
	return cols
}

// PreparedInsert is a compiled insert handle for one key-column split.
type PreparedInsert struct {
	r     *Relation
	bound uint64
}

// PrepareInsert compiles insert r s t for dom(s) = sCols. The handle
// stays valid across live migrations.
func (r *Relation) PrepareInsert(sCols []string) (*PreparedInsert, error) {
	bound, err := r.colMask(sCols)
	if err != nil {
		return nil, err
	}
	p, err := r.PrepareInsertMask(bound)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// PrepareInsertMask is PrepareInsert for key columns given as a schema
// mask; see PrepareQueryMask.
func (r *Relation) PrepareInsertMask(bound uint64) (PreparedInsert, error) {
	if err := r.prepare(shape{kind: mInsert, bound: bound}); err != nil {
		return PreparedInsert{}, err
	}
	return PreparedInsert{r: r, bound: bound}, nil
}

// Exec runs the prepared insert; s must bind the prepared key columns and
// s ∪ t must bind every column.
func (p *PreparedInsert) Exec(s, t rel.Tuple) (bool, error) {
	x, err := s.Union(t)
	if err != nil {
		return false, err
	}
	row, err := p.r.rowForTuple(x, p.r.fullMask)
	if err != nil {
		return false, err
	}
	return p.ExecRow(row)
}

// ExecRow runs the prepared insert for a fully bound row x; the key
// columns s of the put-if-absent check are the prepared subset of x.
func (p *PreparedInsert) ExecRow(x rel.Row) (bool, error) {
	p.r.lockRep()
	defer p.r.unlockRep()
	plan, err := p.r.planFor(shape{kind: mInsert, bound: p.bound})
	if err != nil {
		return false, err
	}
	if err := p.r.checkRow(x, p.r.fullMask); err != nil {
		return false, err
	}
	return p.r.runInsert(plan, x), nil
}

// PreparedRemove is a compiled remove handle for one key signature.
type PreparedRemove struct {
	r     *Relation
	bound uint64
}

// PrepareRemove compiles remove r s for dom(s) = sCols (a key). The
// handle stays valid across live migrations.
func (r *Relation) PrepareRemove(sCols []string) (*PreparedRemove, error) {
	bound, err := r.colMask(sCols)
	if err != nil {
		return nil, err
	}
	p, err := r.PrepareRemoveMask(bound)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// PrepareRemoveMask is PrepareRemove for key columns given as a schema
// mask; see PrepareQueryMask.
func (r *Relation) PrepareRemoveMask(bound uint64) (PreparedRemove, error) {
	if err := r.prepare(shape{kind: mRemove, bound: bound}); err != nil {
		return PreparedRemove{}, err
	}
	return PreparedRemove{r: r, bound: bound}, nil
}

// Exec runs the prepared remove; s must bind the prepared key columns.
func (p *PreparedRemove) Exec(s rel.Tuple) (bool, error) {
	row, err := p.r.rowForTuple(s, p.bound)
	if err != nil {
		return false, err
	}
	return p.ExecRow(row)
}

// ExecRow runs the prepared remove for a row binding exactly the prepared
// key columns.
func (p *PreparedRemove) ExecRow(s rel.Row) (bool, error) {
	p.r.lockRep()
	defer p.r.unlockRep()
	plan, err := p.r.planFor(shape{kind: mRemove, bound: p.bound})
	if err != nil {
		return false, err
	}
	if err := p.r.checkRow(s, p.bound); err != nil {
		return false, err
	}
	return p.r.runRemove(plan.mut, s), nil
}
