package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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
	planner   *query.Planner
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

	// repVer counts representation adoptions (migrate.go): bumped under
	// the exclusive representation latch at each cutover, read under the
	// shared latch by prepared handles to re-resolve their plans.
	repVer uint64

	// ctr holds the relation's live counter cells (counters.go). On the
	// Relation, not the representation: counts survive migrations.
	ctr relCounters

	// Plan caches: the paper compiles each syntactic operation once; the
	// library equivalent compiles per operation signature on first use.
	mu          sync.RWMutex
	queryPlans  map[string]*query.Plan
	countPlans  map[string]*query.Plan
	insertPlans map[string]*insertPlan
	removePlans map[string]*removePlan
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
//     a data race on those containers.
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

// insertPlan bundles the growing-phase directives with the embedded
// put-if-absent existence query (§2's insert semantics).
type insertPlan struct {
	mut *query.MutationPlan
	// exist is the query plan whose access steps implement the existence
	// check for tuples matching s; its access step for node index i is
	// existAt[i].
	exist   *query.Plan
	existAt []*query.Step
}

// removePlan wraps the growing-phase directives of a remove; the per-node
// access routes live in the directives themselves (NodeDirective).
type removePlan struct {
	mut *query.MutationPlan
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
		spec:        d.Spec,
		decomp:      d,
		placement:   p,
		planner:     query.NewPlanner(d, p),
		registry:    g,
		regID:       regID,
		name:        name,
		schema:      schema,
		fullMask:    schema.FullMask(),
		layout:      compileLayout(d, p, schema),
		bufPool:     &sync.Pool{},
		queryPlans:  map[string]*query.Plan{},
		countPlans:  map[string]*query.Plan{},
		insertPlans: map[string]*insertPlan{},
		removePlans: map[string]*removePlan{},
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

func planKey(bound, out []string) string {
	return strings.Join(bound, ",") + "|" + strings.Join(out, ",")
}

// queryPlanFor returns (compiling and caching on first use) the plan for a
// query binding the given columns and returning out.
func (r *Relation) queryPlanFor(bound, out []string) (*query.Plan, error) {
	k := planKey(bound, out)
	r.mu.RLock()
	p, ok := r.queryPlans[k]
	r.mu.RUnlock()
	if ok {
		return p, nil
	}
	p, err := r.planner.PlanQuery(bound, out)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.queryPlans[k] = p
	r.mu.Unlock()
	return p, nil
}

// countPlanFor returns (compiling and caching on first use) the
// count-pushdown plan for a cardinality query binding the given columns,
// falling back to the full query plan when no counting frontier exists.
func (r *Relation) countPlanFor(bound []string) (*query.Plan, error) {
	k := planKey(bound, nil)
	r.mu.RLock()
	p, ok := r.countPlans[k]
	r.mu.RUnlock()
	if ok {
		return p, nil
	}
	p, err := r.planner.PlanCount(bound)
	if err != nil {
		p, err = r.planner.PlanQuery(bound, r.spec.Columns)
		if err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	r.countPlans[k] = p
	r.mu.Unlock()
	return p, nil
}

func (r *Relation) insertPlanFor(sCols []string) (*insertPlan, error) {
	k := planKey(sCols, nil)
	r.mu.RLock()
	p, ok := r.insertPlans[k]
	r.mu.RUnlock()
	if ok {
		return p, nil
	}
	mut, err := r.planner.PlanMutation(query.OpInsert, sCols)
	if err != nil {
		return nil, err
	}
	exist, err := r.planner.PlanQuery(sCols, r.spec.Columns)
	if err != nil {
		return nil, err
	}
	ip := &insertPlan{mut: mut, exist: exist, existAt: make([]*query.Step, len(r.decomp.Nodes))}
	for i := range exist.Steps {
		s := &exist.Steps[i]
		if s.Kind != query.StepLock {
			ip.existAt[s.Edge.Dst.Index] = s
		}
	}
	r.mu.Lock()
	r.insertPlans[k] = ip
	r.mu.Unlock()
	return ip, nil
}

func (r *Relation) removePlanFor(sCols []string) (*removePlan, error) {
	k := planKey(sCols, nil)
	r.mu.RLock()
	p, ok := r.removePlans[k]
	r.mu.RUnlock()
	if ok {
		return p, nil
	}
	mut, err := r.planner.PlanMutation(query.OpRemove, sCols)
	if err != nil {
		return nil, err
	}
	rp := &removePlan{mut: mut}
	r.mu.Lock()
	r.removePlans[k] = rp
	r.mu.Unlock()
	return rp, nil
}

// Query implements query r s C (§2): it returns the projection onto out of
// every tuple in the relation extending s. The result order is
// unspecified.
func (r *Relation) Query(s rel.Tuple, out ...string) ([]rel.Tuple, error) {
	r.lockRep()
	defer r.unlockRep()
	if err := r.checkCols(s.Dom()); err != nil {
		return nil, err
	}
	if err := r.checkCols(out); err != nil {
		return nil, err
	}
	plan, err := r.queryPlanFor(s.Dom(), out)
	if err != nil {
		return nil, err
	}
	row, err := r.schema.RowFromTuple(s, nil)
	if err != nil {
		return nil, err
	}
	return r.runQueryTuples(plan, row), nil
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
	x, err := s.Union(t)
	if err != nil {
		return false, err
	}
	if len(rel.ColsIntersect(s.Dom(), t.Dom())) > 0 {
		return false, fmt.Errorf("core: insert requires disjoint s and t, both bind %v", rel.ColsIntersect(s.Dom(), t.Dom()))
	}
	if !rel.ColsEqual(x.Dom(), r.spec.Columns) {
		return false, fmt.Errorf("core: insert tuple binds %v, want all of %v", x.Dom(), r.spec.Columns)
	}
	plan, err := r.insertPlanFor(s.Dom())
	if err != nil {
		return false, err
	}
	row, err := r.schema.RowFromTuple(x, nil)
	if err != nil {
		return false, err
	}
	return r.runInsert(plan, row), nil
}

// Remove implements remove r s (§2): it removes every tuple extending s
// and reports whether any tuple was removed. As in the paper's
// implementation, s must be a key for the relation.
func (r *Relation) Remove(s rel.Tuple) (bool, error) {
	r.lockRep()
	defer r.unlockRep()
	if err := r.checkCols(s.Dom()); err != nil {
		return false, err
	}
	plan, err := r.removePlanFor(s.Dom())
	if err != nil {
		return false, err
	}
	row, err := r.schema.RowFromTuple(s, nil)
	if err != nil {
		return false, err
	}
	return r.runRemove(plan, row), nil
}

// Snapshot returns every tuple currently in the relation (a full query).
// Intended for tests and tools; it takes whole-relation locks.
func (r *Relation) Snapshot() ([]rel.Tuple, error) {
	return r.Query(rel.T(), r.spec.Columns...)
}

// ExplainQuery renders the chosen plan for a query signature in the
// paper's let-notation (Figure 4 / §5.2).
func (r *Relation) ExplainQuery(bound []string, out []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	plan, err := r.queryPlanFor(bound, out)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// ExplainInsert renders the growing-phase directives for an insert keyed
// by sCols.
func (r *Relation) ExplainInsert(sCols []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	p, err := r.insertPlanFor(sCols)
	if err != nil {
		return "", err
	}
	return p.mut.String() + "existence check:\n" + p.exist.String(), nil
}

// ExplainRemove renders the growing-phase directives for a remove keyed by
// sCols.
func (r *Relation) ExplainRemove(sCols []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	p, err := r.removePlanFor(sCols)
	if err != nil {
		return "", err
	}
	return p.mut.String(), nil
}

// DescribeQuery renders the compiled (schema-resolved) form of a query
// plan: the integer offsets the executor runs on. Pair with ExplainQuery
// (the paper's let-notation) to see both views of the same plan.
func (r *Relation) DescribeQuery(bound, out []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	plan, err := r.queryPlanFor(bound, out)
	if err != nil {
		return "", err
	}
	return plan.Describe(), nil
}

// DescribeCount renders the compiled count-pushdown plan for a
// cardinality query binding the given columns.
func (r *Relation) DescribeCount(bound []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	plan, err := r.countPlanFor(bound)
	if err != nil {
		return "", err
	}
	return plan.Describe(), nil
}

// DescribeInsert renders the compiled growing-phase directives of an
// insert keyed by sCols.
func (r *Relation) DescribeInsert(sCols []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	p, err := r.insertPlanFor(sCols)
	if err != nil {
		return "", err
	}
	return p.mut.Describe() + "existence check:\n" + p.exist.Describe(), nil
}

// DescribeRemove renders the compiled growing-phase directives of a
// remove keyed by sCols.
func (r *Relation) DescribeRemove(sCols []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	p, err := r.removePlanFor(sCols)
	if err != nil {
		return "", err
	}
	return p.mut.Describe(), nil
}

// DescribeQueryRounds renders the compiled round map of a query plan —
// the flat lock schedule the batched growing phase walks (§5's
// synchronization-is-compiled thesis applied to batches).
func (r *Relation) DescribeQueryRounds(bound, out []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	plan, err := r.queryPlanFor(bound, out)
	if err != nil {
		return "", err
	}
	return plan.DescribeRounds(), nil
}

// DescribeCountRounds renders the compiled round map of the
// count-pushdown plan binding the given columns.
func (r *Relation) DescribeCountRounds(bound []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	plan, err := r.countPlanFor(bound)
	if err != nil {
		return "", err
	}
	return plan.DescribeRounds(), nil
}

// DescribeInsertRounds renders the compiled round map of an insert's
// growing phase (existence-check probes appear as their own rounds).
func (r *Relation) DescribeInsertRounds(sCols []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	p, err := r.insertPlanFor(sCols)
	if err != nil {
		return "", err
	}
	return p.mut.DescribeRounds(), nil
}

// DescribeRemoveRounds renders the compiled round map of a remove's
// growing phase.
func (r *Relation) DescribeRemoveRounds(sCols []string) (string, error) {
	r.lockRep()
	defer r.unlockRep()
	p, err := r.removePlanFor(sCols)
	if err != nil {
		return "", err
	}
	return p.mut.DescribeRounds(), nil
}

func (r *Relation) checkCols(cols []string) error {
	for _, c := range cols {
		if !r.spec.HasColumn(c) {
			return fmt.Errorf("core: unknown column %q (spec %s)", c, r.spec)
		}
	}
	return nil
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
