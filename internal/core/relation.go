package core

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/query"
	"repro/internal/rel"
)

// Relation is a synthesized concurrent relation (§2): a set of tuples over
// the specification's columns, represented by a decomposition instance and
// manipulated through the four atomic operations empty / insert / remove /
// query. All operations are linearizable (serializable) and deadlock-free
// by construction (§4–§5). A Relation is safe for concurrent use by any
// number of goroutines.
type Relation struct {
	spec      rel.Spec
	decomp    *decomp.Decomposition
	placement *locks.Placement
	root      *Instance

	// Registry membership, fixed at Synthesize time: the owning registry
	// (nil for standalone relations), the registry-assigned relation id —
	// the leading component of every lock ID, so locks of distinct
	// registered relations are totally ordered (§5.1 extended
	// registry-wide) — and the registration name (for traces and lookup).
	registry *Registry
	regID    int
	name     string

	// The dense column schema and its full-binding mask, fixed at
	// Synthesize time; a migration keeps both (the columns do not change).
	schema   *rel.Schema
	fullMask uint64

	// layout holds every table compiled from the decomposition and the
	// placement; a migration adopts the new representation's layout whole.
	layout

	// bufPool recycles operation buffers (transaction, query states, key
	// arena) across operations; see opBuf. A pointer so a migration can
	// adopt the replacement representation's pool wholesale (buffers are
	// shaped by the decomposition; migrate.go).
	bufPool *sync.Pool

	// ctr holds the relation's live counter cells (counters.go). On the
	// Relation, not the representation: counts survive migrations.
	ctr relCounters
}

// layout gathers the tables synthesize compiles from a decomposition, its
// placement and the schema, so that a migration adopts them in one
// assignment (adoptRep) and cannot leave one behind:
//
//   - edgeCols and edgeSlot give per edge the schema indices of its key
//     columns (edge order) and its container's slot in the source node's
//     Out list; nodeKey and nodeKeyMask give per node the schema indices
//     (and bitmask) of its bound columns A;
//   - lockNode marks the nodes whose instances carry a stripe array
//     (Placement.LockNodes; every other node's instances carry none), and
//     edgeLockAt gives per edge the node whose instance holds the lock a
//     write to the edge's container is made under — the rule's At, or
//     FallbackAt for a speculative rule, whose membership changes the
//     fallback covers;
//   - leaf holds per node the one shared instance of a stateless leaf — a
//     node with no out-edge and no lock, whose instances carry no state —
//     and nil for every other node; newContainer holds per edge the
//     constructor of its containers, resolved from the container kind and
//     the key width (container.Constructor);
//   - optimisticOK reports that every container in the decomposition is
//     concurrency-safe (Figure 1), so read-only batches may run lock-free
//     under the optimistic epoch-validation protocol (readonly.go).
//     Relations with any unsafe container (HashMap, TreeMap) always take
//     the pessimistic 2PL path — an unlocked read racing a writer would be
//     a data race on those containers;
//   - keyNode is the index of the key node of a demotable root
//     (query.Planner.KeyNode), whose instances a batch's write members
//     link or unlink exactly when they write the root container, and -1
//     when the root is not demotable;
//   - planner and plans compile and hold the representation's plans, one
//     per operation shape (planFor).
type layout struct {
	edgeCols     [][]int
	edgeSlot     []int
	nodeKey      [][]int
	nodeKeyMask  []uint64
	lockNode     []bool
	edgeLockAt   []int
	leaf         []*Instance
	newContainer []func() container.Map
	optimisticOK bool
	keyNode      int
	planner      *query.Planner
	plans        *planTable
}

// compileLayout builds the layout of decomposition d under placement p
// over schema.
func compileLayout(d *decomp.Decomposition, p *locks.Placement, schema *rel.Schema) layout {
	l := layout{
		edgeCols:     make([][]int, len(d.Edges)),
		edgeSlot:     make([]int, len(d.Edges)),
		nodeKey:      make([][]int, len(d.Nodes)),
		nodeKeyMask:  make([]uint64, len(d.Nodes)),
		lockNode:     p.LockNodes(),
		edgeLockAt:   make([]int, len(d.Edges)),
		leaf:         make([]*Instance, len(d.Nodes)),
		newContainer: make([]func() container.Map, len(d.Edges)),
		optimisticOK: true,
		planner:      query.NewPlanner(d, p),
		plans:        &planTable{},
	}
	l.plans.m.Store(&map[shape]*opPlan{})
	l.keyNode = -1
	if k := l.planner.KeyNode(); k != nil {
		l.keyNode = k.Index
	}
	for _, e := range d.Edges {
		l.edgeCols[e.Index] = schema.Indices(e.Cols)
		if rule := p.RuleFor(e); rule.Speculative {
			l.edgeLockAt[e.Index] = rule.FallbackAt.Index
		} else {
			l.edgeLockAt[e.Index] = rule.At.Index
		}
		for i, oe := range e.Src.Out {
			if oe == e {
				l.edgeSlot[e.Index] = i
			}
		}
		l.newContainer[e.Index] = container.Constructor(e.Container, len(e.Cols))
		if !container.PropertiesOf(e.Container).ConcurrencySafe() {
			l.optimisticOK = false
		}
	}
	for _, n := range d.Nodes {
		l.nodeKey[n.Index] = schema.Indices(n.A)
		l.nodeKeyMask[n.Index] = schema.Mask(n.A)
		if len(n.Out) == 0 && !l.lockNode[n.Index] {
			l.leaf[n.Index] = &Instance{node: n}
		}
	}
	return l
}

// shape identifies one syntactic operation on a relation (§5 compiles each
// once): its kind and the schema masks of its bound columns and, for a
// query, of its output columns.
type shape struct {
	kind       memberKind
	bound, out uint64
}

// opPlan is a plan table's entry for one shape: the compiled operation,
// or the planner's refusal of it in err.
type opPlan struct {
	// q is a query's or a count's plan, or an insert's put-if-absent
	// existence query (§2), whose access step for node index i is
	// existAt[i].
	q       *query.Plan
	existAt []*query.Step
	// mut holds an insert's or a remove's growing-phase directives.
	mut *query.MutationPlan
	err error
}

// planTable is one representation's compiled plans, keyed by shape. It is
// filled on first use under mu and read lock-free: m points to an
// immutable map, which each fill replaces with a copy.
type planTable struct {
	mu sync.Mutex
	m  atomic.Pointer[map[shape]*opPlan]
}

// Synthesize compiles a validated decomposition and lock placement into a
// standalone concurrent relation. It is the paper's compiler entry point;
// use Registry.Synthesize instead when transactions must span several
// relations.
func Synthesize(d *decomp.Decomposition, p *locks.Placement) (*Relation, error) {
	return synthesize(nil, 0, "", d, p)
}

// synthesize is the shared compiler body: regID and name are the registry
// coordinates (zero values for standalone relations). The relation id must
// be fixed before the root instance exists, because every lock array bakes
// it into its lock IDs.
func synthesize(g *Registry, regID int, name string, d *decomp.Decomposition, p *locks.Placement) (*Relation, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if p.D != d {
		return nil, fmt.Errorf("core: placement was built for a different decomposition")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	schema, err := rel.NewSchema(d.Spec.Columns)
	if err != nil {
		return nil, err
	}
	r := &Relation{
		spec:      d.Spec,
		decomp:    d,
		placement: p,
		registry:  g,
		regID:     regID,
		name:      name,
		schema:    schema,
		fullMask:  schema.FullMask(),
		layout:    compileLayout(d, p, schema),
		bufPool:   &sync.Pool{},
	}
	r.root = r.newInstance(d.Root, rel.RowOver(make([]rel.Value, schema.Len()), 0))
	return r, nil
}

// Spec returns the relational specification this relation implements.
func (r *Relation) Spec() rel.Spec { return r.spec }

// Name returns the registration name ("" for standalone relations).
func (r *Relation) Name() string { return r.name }

// RegistryID returns the relation id the registry assigned at Synthesize
// time — the leading component of the relation's lock IDs (0 for
// standalone relations).
func (r *Relation) RegistryID() int { return r.regID }

// Schema returns the dense column schema fixed at synthesis time; use it
// to build rel.Row values for the prepared row API.
func (r *Relation) Schema() *rel.Schema { return r.schema }

// Decomposition returns the decomposition currently backing the
// relation (a migration may replace it; migrate.go).
func (r *Relation) Decomposition() *decomp.Decomposition {
	r.lockRep()
	defer r.unlockRep()
	return r.decomp
}

// Placement returns the lock placement currently backing the relation
// (a migration may replace it; migrate.go).
func (r *Relation) Placement() *locks.Placement {
	r.lockRep()
	defer r.unlockRep()
	return r.placement
}

// OptimisticCapable reports whether read-only batches against this
// relation may run lock-free under the optimistic epoch-validation
// protocol: true iff every container in the decomposition is
// concurrency-safe (Figure 1). Batch and BatchReadOnly fall back to
// pessimistic two-phase locking — with identical results — when this is
// false. A migration can change the answer (that unlock is the point of
// a TreeMap → ConcurrentSkipListMap migration).
func (r *Relation) OptimisticCapable() bool {
	r.lockRep()
	defer r.unlockRep()
	return r.optimisticOK
}

// planFor returns the current representation's plan for sh, compiling it
// on first use; a planner refusal is the returned error. The caller holds
// the representation latch, so the table is the one of the layout it runs
// under. A warm lookup takes no lock and allocates nothing.
func (r *Relation) planFor(sh shape) (*opPlan, error) {
	if p := (*r.plans.m.Load())[sh]; p != nil {
		return p, p.err
	}
	t := r.plans
	t.mu.Lock()
	defer t.mu.Unlock()
	p := (*t.m.Load())[sh]
	if p == nil {
		p = r.compile(sh)
		next := maps.Clone(*t.m.Load())
		next[sh] = p
		t.m.Store(&next)
	}
	return p, p.err
}

// compile runs the planner for sh.
func (r *Relation) compile(sh shape) *opPlan {
	bound := r.maskCols(sh.bound)
	var p opPlan
	switch sh.kind {
	case mQuery:
		p.q, p.err = r.planner.PlanQuery(bound, r.maskCols(sh.out))
	case mCount:
		// The count-pushdown plan, or the full query plan where no
		// counting frontier exists.
		if p.q, p.err = r.planner.PlanCount(bound); p.err != nil {
			p.q, p.err = r.planner.PlanQuery(bound, r.spec.Columns)
		}
	case mInsert:
		if p.mut, p.err = r.planner.PlanMutation(query.OpInsert, bound); p.err != nil {
			break
		}
		if p.q, p.err = r.planner.PlanQuery(bound, r.spec.Columns); p.err != nil {
			break
		}
		p.existAt = make([]*query.Step, len(r.decomp.Nodes))
		for i := range p.q.Steps {
			if s := &p.q.Steps[i]; s.Kind != query.StepLock {
				p.existAt[s.Edge.Dst.Index] = s
			}
		}
	case mRemove:
		p.mut, p.err = r.planner.PlanMutation(query.OpRemove, bound)
	}
	if p.err != nil {
		return &opPlan{err: p.err}
	}
	return &p
}

// planNamed resolves an operation named by its columns to its shape and
// returns the shape's plan in the current representation. The caller
// holds the representation latch.
func (r *Relation) planNamed(kind memberKind, bound, out []string) (*opPlan, error) {
	bm, err := r.colMask(bound)
	if err != nil {
		return nil, err
	}
	om, err := r.colMask(out)
	if err != nil {
		return nil, err
	}
	return r.planFor(shape{kind: kind, bound: bm, out: om})
}

// describe is planNamed under the representation latch (Explain*,
// Describe*).
func (r *Relation) describe(kind memberKind, bound, out []string) (*opPlan, error) {
	r.lockRep()
	defer r.unlockRep()
	return r.planNamed(kind, bound, out)
}

// Query implements query r s C (§2): it returns the projection onto out of
// every tuple in the relation extending s. The result order is
// unspecified.
func (r *Relation) Query(s rel.Tuple, out ...string) ([]rel.Tuple, error) {
	r.lockRep()
	defer r.unlockRep()
	p, row, err := r.planTuple(mQuery, s, out)
	if err != nil {
		return nil, err
	}
	return r.runQueryTuples(p.q, row), nil
}

// Insert implements insert r s t (§2): it inserts the tuple s ∪ t provided
// no existing tuple matches s, reporting whether the insertion happened.
// The domains of s and t must partition the relation's columns; this
// generalizes put-if-absent (§2). Maintaining the specification's
// functional dependencies is the client's obligation, which the s/t split
// makes checkable: bind the FD's left-hand side in s.
func (r *Relation) Insert(s, t rel.Tuple) (bool, error) {
	r.lockRep()
	defer r.unlockRep()
	sh, row, err := r.insertRow(s, t)
	if err != nil {
		return false, err
	}
	p, err := r.planFor(sh)
	if err != nil {
		return false, err
	}
	return r.runInsert(p, row), nil
}

// insertRow checks an insert's s/t split and resolves it to its shape and
// its fully bound row.
func (r *Relation) insertRow(s, t rel.Tuple) (shape, rel.Row, error) {
	x, err := s.Union(t)
	if err != nil {
		return shape{}, rel.Row{}, err
	}
	if both := rel.ColsIntersect(s.Dom(), t.Dom()); len(both) > 0 {
		return shape{}, rel.Row{}, fmt.Errorf("core: insert requires disjoint s and t, both bind %v", both)
	}
	if !rel.ColsEqual(x.Dom(), r.spec.Columns) {
		return shape{}, rel.Row{}, fmt.Errorf("core: insert tuple binds %v, want all of %v", x.Dom(), r.spec.Columns)
	}
	row, err := r.schema.RowFromTuple(x, nil)
	if err != nil {
		return shape{}, rel.Row{}, err
	}
	return shape{kind: mInsert, bound: r.schema.Mask(s.Dom())}, row, nil
}

// Remove implements remove r s (§2): it removes every tuple extending s
// and reports whether any tuple was removed. As in the paper's
// implementation, s must be a key for the relation.
func (r *Relation) Remove(s rel.Tuple) (bool, error) {
	r.lockRep()
	defer r.unlockRep()
	p, row, err := r.planTuple(mRemove, s, nil)
	if err != nil {
		return false, err
	}
	return r.runRemove(p.mut, row), nil
}

// Snapshot returns every tuple currently in the relation (a full query).
// Intended for tests and tools; it takes whole-relation locks.
func (r *Relation) Snapshot() ([]rel.Tuple, error) {
	return r.Query(rel.T(), r.spec.Columns...)
}

// ExplainQuery renders the chosen plan for a query signature in the
// paper's let-notation (Figure 4 / §5.2).
func (r *Relation) ExplainQuery(bound []string, out []string) (string, error) {
	p, err := r.describe(mQuery, bound, out)
	if err != nil {
		return "", err
	}
	return p.q.String(), nil
}

// ExplainInsert renders the growing-phase directives for an insert keyed
// by sCols.
func (r *Relation) ExplainInsert(sCols []string) (string, error) {
	p, err := r.describe(mInsert, sCols, nil)
	if err != nil {
		return "", err
	}
	return p.mut.String() + "existence check:\n" + p.q.String(), nil
}

// ExplainRemove renders the growing-phase directives for a remove keyed by
// sCols.
func (r *Relation) ExplainRemove(sCols []string) (string, error) {
	p, err := r.describe(mRemove, sCols, nil)
	if err != nil {
		return "", err
	}
	return p.mut.String(), nil
}

// DescribeQuery renders the compiled (schema-resolved) form of a query
// plan: the integer offsets the executor runs on. Pair with ExplainQuery
// (the paper's let-notation) to see both views of the same plan.
func (r *Relation) DescribeQuery(bound, out []string) (string, error) {
	p, err := r.describe(mQuery, bound, out)
	if err != nil {
		return "", err
	}
	return p.q.Describe(), nil
}

// DescribeCount renders the compiled count-pushdown plan for a
// cardinality query binding the given columns.
func (r *Relation) DescribeCount(bound []string) (string, error) {
	p, err := r.describe(mCount, bound, nil)
	if err != nil {
		return "", err
	}
	return p.q.Describe(), nil
}

// DescribeInsert renders the compiled growing-phase directives of an
// insert keyed by sCols.
func (r *Relation) DescribeInsert(sCols []string) (string, error) {
	p, err := r.describe(mInsert, sCols, nil)
	if err != nil {
		return "", err
	}
	return p.mut.Describe() + "existence check:\n" + p.q.Describe(), nil
}

// DescribeRemove renders the compiled growing-phase directives of a
// remove keyed by sCols.
func (r *Relation) DescribeRemove(sCols []string) (string, error) {
	p, err := r.describe(mRemove, sCols, nil)
	if err != nil {
		return "", err
	}
	return p.mut.Describe(), nil
}

// DescribeQueryRounds renders the compiled round map of a query plan —
// the flat lock schedule the batched growing phase walks (§5's
// synchronization-is-compiled thesis applied to batches).
func (r *Relation) DescribeQueryRounds(bound, out []string) (string, error) {
	p, err := r.describe(mQuery, bound, out)
	if err != nil {
		return "", err
	}
	return p.q.DescribeRounds(), nil
}

// DescribeCountRounds renders the compiled round map of the
// count-pushdown plan binding the given columns.
func (r *Relation) DescribeCountRounds(bound []string) (string, error) {
	p, err := r.describe(mCount, bound, nil)
	if err != nil {
		return "", err
	}
	return p.q.DescribeRounds(), nil
}

// DescribeInsertRounds renders the compiled round map of an insert's
// growing phase (existence-check probes appear as their own rounds).
func (r *Relation) DescribeInsertRounds(sCols []string) (string, error) {
	p, err := r.describe(mInsert, sCols, nil)
	if err != nil {
		return "", err
	}
	return p.mut.DescribeRounds(), nil
}

// DescribeRemoveRounds renders the compiled round map of a remove's
// growing phase.
func (r *Relation) DescribeRemoveRounds(sCols []string) (string, error) {
	p, err := r.describe(mRemove, sCols, nil)
	if err != nil {
		return "", err
	}
	return p.mut.DescribeRounds(), nil
}

// colMask resolves column names to their schema mask; an unknown column
// is an error.
func (r *Relation) colMask(cols []string) (uint64, error) {
	var m uint64
	for _, c := range cols {
		i, ok := r.schema.IndexOf(c)
		if !ok {
			return 0, fmt.Errorf("core: unknown column %q (spec %s)", c, r.spec)
		}
		m |= 1 << uint(i)
	}
	return m, nil
}

// instKey identifies a node instance by its node and its valuation of the
// node's bound columns, rendered. Walks over the representation use it
// instead of the instance pointer, which a stateless leaf shares across
// every valuation of its node.
type instKey struct {
	node int
	val  string
}

// VerifyWellFormed walks the decomposition instance and checks the
// structural invariants the executor relies on, returning the represented
// relation. It takes no locks and must only be called on a quiescent
// relation (tests and tools):
//
//   - every non-root, non-unit instance has at least one entry in every
//     container (cascade cleanup held);
//   - a valuation of a node's bound columns has one instance, whichever
//     in-edges reach it, and an instance other than a shared stateless
//     leaf stands for one valuation only;
//   - unit-edge containers hold at most one entry;
//   - the tuples read along every root-to-leaf path agree (abstraction
//     function is well defined).
func (r *Relation) VerifyWellFormed() ([]rel.Tuple, error) {
	var tuples []rel.Tuple
	// The bound columns along any path to an instance are exactly its
	// node's A columns, so bound is the instance's valuation.
	seen := map[instKey]*Instance{}
	owner := map[*Instance]rel.Tuple{}
	var walk func(inst *Instance, bound rel.Tuple) error
	walk = func(inst *Instance, bound rel.Tuple) error {
		id := instKey{inst.node.Index, bound.String()}
		if prev, ok := seen[id]; ok {
			if prev != inst {
				return fmt.Errorf("core: valuation %v of %s has two instances", bound, inst.node.Name)
			}
			return nil // already verified below this instance
		}
		seen[id] = inst
		if inst != r.leaf[inst.node.Index] {
			if prev, ok := owner[inst]; ok {
				return fmt.Errorf("core: instance of %s reached with %v and %v", inst.node.Name, prev, bound)
			}
			owner[inst] = bound
		}
		if inst.node.IsUnit() {
			tuples = append(tuples, bound)
			return nil
		}
		for i, e := range inst.node.Out {
			c := inst.containers[i]
			if c.Len() == 0 && inst.node != r.decomp.Root {
				return fmt.Errorf("core: empty container for %s on live instance of %s (cleanup invariant)", e.Name, inst.node.Name)
			}
			if e.IsUnitEdge() && c.Len() > 1 {
				return fmt.Errorf("core: unit edge %s has %d entries", e.Name, c.Len())
			}
			var err error
			c.Scan(func(k rel.Key, v any) bool {
				child := v.(*Instance)
				kt := k.Tuple(e.Cols)
				if !kt.Matches(bound) {
					err = fmt.Errorf("core: edge %s entry %v conflicts with path %v", e.Name, kt, bound)
					return false
				}
				err = walk(child, bound.MustUnion(kt))
				return err == nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(r.root, rel.T()); err != nil {
		return nil, err
	}
	// The abstraction function yields a set: decompositions with multiple
	// disjoint subtrees (e.g. the split of Figure 3(b)) represent each
	// tuple once per subtree.
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Compare(tuples[j]) < 0 })
	dedup := tuples[:0]
	for i, t := range tuples {
		if i == 0 || !t.Equal(tuples[i-1]) {
			dedup = append(dedup, t)
		}
	}
	return dedup, nil
}
