package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/query"
	"repro/internal/rel"
)

// This file implements batched multi-operation transactions: several
// queries and mutations executed as ONE two-phase-locking transaction.
// The paper's §4.2/§5.1 substrate gives every single operation a
// deadlock-free sorted lock schedule; batching generalizes the unit of
// atomicity from the operation to a user-defined group, the framing of
// the synchronization-synthesis line of work (Samanta et al., Locksynth),
// where the atomic region — not the individual access — is what gets a
// synthesized locking protocol.
//
// Execution has two phases, both inside one locks.Txn:
//
//   - The GROWING phase walks every member's compiled plan in lockstep
//     over the decomposition's topological node order. At each node the
//     scheduler (a) resolves all members' pending speculative accesses
//     together, sorted by target key across members so §4.5 acquisitions
//     respect the global order, and (b) merges all members' regular lock
//     requests into one locks.LockSet — deduplicated by lock identity,
//     shared requests upgraded to exclusive where any member writes — and
//     acquires the coalesced set once. An N-operation batch therefore
//     takes each physical lock at most once, instead of up to N times.
//
//   - The APPLY phase re-executes members in batch order under the held
//     locks: queries traverse, inserts run their put-if-absent check and
//     write, removes locate and delete. No further locks are taken
//     (execStep's b.apply mode): every pre-existing instance a member can
//     reach was locked during the growing phase (container contents only
//     change through this batch's own writes), and instances created by
//     earlier members are private to the transaction. Re-execution gives
//     the batch sequential semantics — each member observes the effects
//     of the members before it — and an undo log makes the mutation
//     suffix all-or-nothing if an invariant violation panics mid-apply.
//
// Members whose results cannot be affected by the batch's own writes
// (every member up to and including the first mutation) skip the apply
// re-execution and reuse their growing-phase traversal, so a read-only
// batch traverses exactly once.

// Pending is a batch result delivered at commit: enqueueing an operation
// on a Txn returns a *Pending resolved when Relation.Batch returns.
type Pending[T any] struct {
	v    T
	done bool
}

func (p *Pending[T]) set(v T) { p.v, p.done = v, true }

// Get returns the result and whether the batch has committed.
func (p *Pending[T]) Get() (T, bool) { return p.v, p.done }

// Value returns the committed result; it panics if the batch has not
// committed (reading a result inside the Batch callback is an error —
// operations execute only after the callback returns).
func (p *Pending[T]) Value() T {
	if !p.done {
		panic("core: batch result read before commit")
	}
	return p.v
}

// Txn is a batched transaction under construction. The Batch callback
// enqueues operations on it; none execute until the callback returns,
// when the whole group runs as one two-phase-locking transaction with a
// coalesced lock schedule. A Txn is valid only inside its callback and is
// not safe for concurrent use.
//
// A Txn built by Relation.Batch accepts members against that relation
// only; one built by Registry.Batch accepts members against any relation
// registered in the registry, grouped into per-relation shards that share
// a single locks.Txn — the growing phase walks shards in relation-id
// order, so all acquisitions follow the registry-wide
// (relation, node, inst, stripe) lock order.
type Txn struct {
	reg  *Registry  // owning registry for cross-relation batches, nil for Relation.Batch
	ltxn *locks.Txn // the lock transaction every shard's buffer shares
	// single is the Relation.Batch fast path's only shard (shards stays
	// empty). It points into the buffer (opBuf.shard), not the Txn: the
	// Txn handle comes from a never-reused slab so a leaked *Txn stays
	// sealed forever, and keeping the 6-field shard out of it roughly
	// halves the bytes that discipline retires per batch. A leaked handle
	// can never reach the recycled shard — every path to t.single is
	// behind the sealed check.
	single *txnShard
	multi  *txnReg // registry mode only (nil for Relation.Batch): shards + global order
	sealed bool
	roOnly bool // BatchReadOnly: mutation enqueues are rejected
	trace  *BatchTrace
}

// txnReg is the registry-mode state of a cross-relation transaction: the
// per-relation shards (first-touch order, sorted by relation id before
// commit) and the global enqueue order the apply phase replays. It hangs
// off the Txn behind a pointer so the Relation.Batch fast path — whose
// Txn handles are slab-retired once per batch, never reused — pays for
// two words of registry machinery instead of six.
type txnReg struct {
	shards []*txnShard
	order  []memberRef
}

// pendingSlabSize is the chunk size of the buffer's Pending slabs.
const pendingSlabSize = 64

// newPB hands out one Pending[bool] from the buffer's slab. Slabs
// persist across batches — handed-out entries are never reused (the slab
// only ever advances), so a full slab is abandoned to its holders and
// replaced. Enqueuing N mutations costs ~N/pendingSlabSize allocations
// instead of N.
func (b *opBuf) newPB() *Pending[bool] {
	if len(b.pbSlab) == cap(b.pbSlab) {
		b.pbSlab = make([]Pending[bool], 0, pendingSlabSize)
	}
	b.pbSlab = b.pbSlab[:len(b.pbSlab)+1]
	return &b.pbSlab[len(b.pbSlab)-1]
}

// newPI hands out one Pending[int] from the buffer's slab; see newPB.
func (b *opBuf) newPI() *Pending[int] {
	if len(b.piSlab) == cap(b.piSlab) {
		b.piSlab = make([]Pending[int], 0, pendingSlabSize)
	}
	b.piSlab = b.piSlab[:len(b.piSlab)+1]
	return &b.piSlab[len(b.piSlab)-1]
}

// newTxn hands out one Txn from the buffer's slab, under the same
// never-reuse discipline as the Pending slabs: the slab only advances,
// a full one is abandoned to its holders and replaced. This keeps the
// sealed guard airtight — a caller that leaks the *Txn past Batch holds
// a slot no later batch ever touches, so it stays sealed forever, exactly
// as an individually heap-allocated Txn would — while costing one
// allocation per txnSlabSize batches instead of one per batch.
func (b *opBuf) newTxn() *Txn {
	if len(b.txnSlab) == cap(b.txnSlab) {
		b.txnSlab = make([]Txn, 0, txnSlabSize)
	}
	b.txnSlab = b.txnSlab[:len(b.txnSlab)+1]
	return &b.txnSlab[len(b.txnSlab)-1]
}

// txnSlabSize is the chunk size of the buffer's Txn slab.
const txnSlabSize = 64

// txnShard is one relation's slice of a batched transaction: its pooled
// operation buffer (whose locks.Txn is displaced by the transaction-wide
// one in registry mode) and the index of the shard's first mutation, the
// pivot of the apply phase's growing-result reuse rule. Mutations in
// OTHER relations never invalidate reuse — relations are disjoint object
// graphs, so a write in one cannot change what a member of another
// observes.
type txnShard struct {
	r        *Relation
	b        *opBuf
	own      *locks.Txn // the buffer's own txn, restored before putBuf (registry mode)
	firstMut int        // index into b.members of the first mutation, -1 if none
	hasRead  bool       // the shard holds at least one query/count member (OCC eligibility)
	mark     int        // OCC state-pool floor: write members' retained states end here (occ.go)
}

// memberRef addresses one member across shards, preserving the global
// enqueue order the apply phase replays for sequential semantics.
type memberRef struct {
	sh  *txnShard
	idx int
}

// shardFor resolves (creating on first use, in registry mode) the shard
// holding members against relation r. A sealed transaction resolves
// nothing — in registry mode a late resolution would check out a buffer
// nobody releases.
func (t *Txn) shardFor(r *Relation) (*txnShard, error) {
	if err := t.checkOpen(); err != nil {
		return nil, err
	}
	if t.reg == nil {
		if r != t.single.r {
			return nil, fmt.Errorf("core: operation targets a relation outside this transaction (use Registry.Batch for cross-relation groups)")
		}
		return t.single, nil
	}
	if r.registry != t.reg {
		return nil, fmt.Errorf("core: relation %q is not registered in this transaction's registry", r.name)
	}
	for _, sh := range t.multi.shards {
		if sh.r == r {
			return sh, nil
		}
	}
	b := r.getBuf()
	sh := &txnShard{r: r, b: b, own: b.txn, firstMut: -1}
	b.txn = t.ltxn
	t.multi.shards = append(t.multi.shards, sh)
	return sh, nil
}

// defaultShard returns the Relation.Batch shard; registry transactions
// have no default and must name the relation (InsertInto etc. or the
// prepared-handle API).
func (t *Txn) defaultShard() (*txnShard, error) {
	if err := t.checkOpen(); err != nil {
		return nil, err
	}
	if t.reg != nil {
		return nil, fmt.Errorf("core: registry transaction needs an explicit relation (use InsertInto/RemoveFrom/CountIn/QueryIn or prepared handles)")
	}
	return t.single, nil
}

// memberKind discriminates the operation kinds a batch can hold.
type memberKind uint8

const (
	mQuery memberKind = iota
	mCount
	mInsert
	mRemove
)

// waitKind is what a member's growing-phase cursor is blocked on.
type waitKind uint8

const (
	wNone waitKind = iota // runnable
	wSpec                 // registered speculative requests, awaiting resolution
	wLock                 // contributed to the round's lock set, awaiting acquisition
	wDone                 // growing phase complete
)

// member is one enqueued operation and its growing-phase execution state.
type member struct {
	kind memberKind

	// Compiled plans: steps for queries and counts, ins/rem (+ the shared
	// mut) for mutations.
	steps     []query.Step
	boundMask uint64
	outIdx    []int
	outCols   []string
	ins       *insertPlan
	rem       *removePlan
	mut       *query.MutationPlan
	// qprog is the compiled round map of a query/count member's plan; its
	// pointer doubles as the plan-identity key of the round-map scheduler's
	// memoized grouping (mutations use mut.Prog instead).
	qprog *query.RoundProgram

	// row is the member-owned dense operation row (arena-backed copy).
	row rel.Row

	// Result sinks; exactly one is non-nil per kind.
	pb    *Pending[bool]
	pi    *Pending[int]
	pt    *Pending[[]rel.Tuple]
	yield func(rel.Row) bool

	// Growing-phase cursor: step index for queries/counts, directive
	// index for mutations (plus the intra-directive stage).
	cursor int
	stage  uint8
	wait   waitKind

	states  []*qstate   // query pipeline / remove victims / insert existence states
	xinst   []*Instance // insert's located instances per node
	specOut []*qstate   // survivors delivered by speculative resolution

	specReg      bool      // requests registered, resolution pending
	specResolved bool      // resolution delivered, cursor may consume it
	specFound    *Instance // locate-kind resolution result (inserts)

	count   int  // StepCount accumulator
	counted bool // count delivered by a StepCount terminal

	// Apply-phase staging (computeMember/deliverMember): ok is a
	// mutation's staged outcome, recomputed marks a query whose apply-time
	// re-execution (not the growing/read-phase traversal) produced
	// m.states. Staging lets the OCC commit (occ.go) compute every
	// member's result under undo logging and deliver — resolve pendings,
	// run yields — only after the read-set validates.
	ok         bool
	recomputed bool
}

// reset clears a member slab entry for reuse, retaining slice capacity.
func (m *member) reset() {
	*m = member{states: m.states[:0], specOut: m.specOut[:0], xinst: m.xinst[:0]}
}

// batchSpecReq is one pending speculative access: a member waiting to run
// the §4.5 protocol for one target. Requests are pooled per scheduler
// round and resolved in (node, target key) order across all members, so
// the interleaved acquisitions respect the global lock order; requests
// for the same target are resolved in the strongest requested mode.
type batchSpecReq struct {
	m      *member
	st     *qstate // per-state request (queries, removes, existence checks); nil for locate requests
	edge   *decomp.Edge
	colIdx []int
	row    rel.Row
	src    *Instance
	key    rel.Key
	node   int
	mode   locks.Mode
}

// BatchTrace records the coalesced lock schedule of one batch, for the
// lock-audit tests and cmd/crsexplain's worked example. Enable with
// Txn.EnableTrace before enqueueing.
type BatchTrace struct {
	// Rounds lists each coalesced acquisition: one entry per
	// decomposition node that contributed locks, plus speculative waves.
	Rounds []BatchRound
	// Requested counts every pre-coalescing lock request — what a
	// non-batched execution of the same members would have asked for.
	Requested int
	// Acquired counts the distinct physical locks actually taken.
	Acquired int
	// Speculative counts the locks taken by the §4.5 protocol (a subset
	// of Acquired).
	Speculative int
	// SharedAcquired counts the locks taken in Shared mode (a subset of
	// Acquired). On a successful OCC commit of a mixed batch it is
	// structurally zero for plain placements — read members divert into
	// the read-set and write members lock exclusively — which the mixed
	// pass of workload.TestDeterministicLockCounts pins.
	SharedAcquired int

	// Optimistic reports that the batch was detected read-only and
	// attempted the lock-free epoch-validation path (readonly.go). When
	// the final attempt validated, Requested and Acquired stay zero — the
	// batch took no locks at all.
	Optimistic bool
	// Attempts counts the optimistic attempts executed (1 on the
	// conflict-free happy path); Attempts-1 is the validation-retry count,
	// unless FellBack adds one more failed attempt.
	Attempts int
	// EpochsRecorded counts the read-set observations of the last
	// optimistic attempt (the analog of Requested), and EpochsDistinct the
	// distinct epoch cells validated (the analog of Acquired).
	EpochsRecorded int
	EpochsDistinct int
	// FellBack reports that every optimistic attempt failed validation and
	// the batch re-ran under pessimistic two-phase locking (whose lock
	// schedule then fills Rounds/Requested/Acquired as usual).
	FellBack bool

	// OCC reports that the batch was MIXED (mutations plus reads) on
	// OptimisticCapable relations and ran the Silo-style commit of occ.go:
	// write members' lock sets acquired exclusively in the global order
	// (filling Rounds/Requested/Acquired), read members lock-free with
	// their epochs in the read-set (filling EpochsRecorded/EpochsDistinct
	// on success), validation after the undo-logged apply. Attempts,
	// FellBack and the epoch counters mean the same as on the read-only
	// path; when FellBack is set the lock-schedule fields describe the
	// pessimistic rerun instead.
	OCC bool
}

// BatchRound is one coalesced acquisition in a batch's growing phase.
type BatchRound struct {
	// Node names the decomposition node whose round this was;
	// speculative waves are suffixed "(speculative)".
	Node string
	// Requested is the number of pre-dedup requests merged into this round.
	Requested int
	// IDs lists the lock identities actually acquired, in global order,
	// and Modes the (upgraded) mode of each.
	IDs   []locks.ID
	Modes []locks.Mode
}

// String renders the trace as the per-round coalesced lock sets. Long
// rounds (all-stripe acquisitions) are elided after the first few IDs.
func (tr *BatchTrace) String() string {
	s := fmt.Sprintf("batch lock schedule: %d requested -> %d acquired (%d speculative)\n",
		tr.Requested, tr.Acquired, tr.Speculative)
	for _, rd := range tr.Rounds {
		s += fmt.Sprintf("  %s: %d requests -> %d locks:", rd.Node, rd.Requested, len(rd.IDs))
		for i, id := range rd.IDs {
			if i == 8 {
				s += fmt.Sprintf(" … (%d more)", len(rd.IDs)-i)
				break
			}
			s += fmt.Sprintf(" %v/%v", id, rd.Modes[i])
		}
		s += "\n"
	}
	return s
}

// EnableTrace turns on lock-schedule tracing for this batch.
func (t *Txn) EnableTrace() { t.trace = &BatchTrace{} }

// Trace returns the recorded lock schedule (nil unless EnableTrace was
// called); valid after Batch returns.
func (t *Txn) Trace() *BatchTrace { return t.trace }

// Batch runs fn to assemble a group of operations, then executes the
// whole group as one two-phase-locking transaction: the lock requirements
// of every member plan are merged — deduplicated and upgraded to
// exclusive where any member writes — and acquired once, in the §5.1
// global order, so the batch takes each physical lock at most once. The
// group is atomic (serializable as a unit, all-or-nothing) and its
// members behave as if executed sequentially: each mutation observes the
// effects of the members enqueued before it. If fn returns an error,
// nothing executes and the error is returned.
//
// A group whose members are all queries and counts is detected
// automatically and — when the relation is OptimisticCapable — executed
// lock-free under the optimistic epoch-validation protocol (readonly.go),
// acquiring zero physical locks on the conflict-free path. A MIXED group
// (mutations plus reads) on an OptimisticCapable relation auto-upgrades
// to the Silo-style OCC commit (occ.go): exclusive locks for the write
// members only, lock-free epoch-validated reads for the rest, so a batch
// never acquires more locks than its sequential decomposition.
func (r *Relation) Batch(fn func(tx *Txn) error) error {
	return r.batch(fn, false)
}

// BatchReadOnly is Batch restricted to read-only groups: enqueueing a
// mutation fails with an error, making the zero-lock optimistic intent
// explicit in the API. Execution is identical to what Batch auto-detects
// for read-only groups — optimistic with pessimistic fallback when the
// relation is OptimisticCapable, plain pessimistic 2PL otherwise — so the
// results never depend on which path ran.
func (r *Relation) BatchReadOnly(fn func(tx *Txn) error) error {
	return r.batch(fn, true)
}

// batch is the shared body of Batch and BatchReadOnly.
func (r *Relation) batch(fn func(tx *Txn) error, roOnly bool) error {
	// Representation latch, held shared across the whole batch including
	// the deferred buffer release (registered after the RUnlock, so it
	// runs before it): a migration cutover is strictly ordered against
	// every in-flight batch (migrate.go).
	r.lockRep()
	defer r.unlockRep()
	b := r.getBuf()
	defer r.putBuf(b)
	// The Txn slot comes from the buffer's never-reused slab (newTxn): a
	// caller that leaks the *Txn past Batch must hit the sealed guard (an
	// error), so a slot may never be handed out twice — a recycled handle
	// would be silently un-sealed by a later batch, turning the leak into
	// cross-transaction corruption.
	t := b.newTxn()
	*t = Txn{ltxn: b.txn, roOnly: roOnly}
	b.shard = txnShard{r: r, b: b, firstMut: -1}
	t.single = &b.shard
	if err := fn(t); err != nil {
		t.sealed = true
		return err
	}
	t.sealed = true
	if len(b.members) == 0 {
		return nil
	}
	if t.readOnly() && r.commitReadOnly(t, t.single) {
		r.ctr.batches.Add(1)
		r.ctr.roOptimistic.Add(1)
		r.ctr.noteMembers(b.members)
		return nil
	}
	if ok, err := r.commitOCC(t, t.single); ok || err != nil {
		if ok && err == nil {
			// Counted before the deferred putBuf releases the locks, so
			// HeldCount still reflects the commit's write-lock set.
			r.ctr.batches.Add(1)
			r.ctr.occCommits.Add(1)
			r.ctr.locksAcquired.Add(uint64(b.txn.HeldCount()))
			r.ctr.noteMembers(b.members)
		}
		return err
	}
	if err := r.commitBatch(t, t.single); err != nil {
		return err
	}
	r.ctr.batches.Add(1)
	r.ctr.locksAcquired.Add(uint64(b.txn.HeldCount()))
	r.ctr.noteMembers(b.members)
	return nil
}

// errTxnSealed guards against enqueueing outside the Batch callback.
func (t *Txn) checkOpen() error {
	if t.sealed {
		return fmt.Errorf("core: batch transaction used outside its Batch callback")
	}
	return nil
}

// checkMutable rejects mutation enqueues on read-only transactions
// (BatchReadOnly); plain Batch transactions accept anything.
func (t *Txn) checkMutable() error {
	if t.roOnly {
		return fmt.Errorf("core: read-only batch cannot enqueue mutations (use Batch for mixed groups)")
	}
	return nil
}

// copyRow copies an operation row into the batch's arena: callers
// typically pass stack-backed rows that do not survive the callback.
func (b *opBuf) copyRow(row rel.Row) rel.Row {
	w := row.Width()
	if len(b.rowArena)+w > cap(b.rowArena) {
		c := 2 * cap(b.rowArena)
		if c < 64 {
			c = 64
		}
		if c < w {
			c = w
		}
		b.rowArena = make([]rel.Value, 0, c)
	}
	off := len(b.rowArena)
	b.rowArena = b.rowArena[:off+w]
	vals := b.rowArena[off : off+w : off+w]
	for i := 0; i < w; i++ {
		vals[i] = row.At(i)
	}
	return rel.RowOver(vals, row.Mask())
}

// newMember hands out the next member slot of shard sh, tracking the
// shard's first mutation, whether the shard holds any read member (OCC
// eligibility) and (for registry transactions) the global enqueue order.
// The caller stores only the fields its member kind uses: a recycled slot
// was already zeroed by putBuf's reset (which preserves the states,
// specOut and xinst backings), and a fresh slot is runtime-zeroed, so no
// member-sized struct literal is copied on the enqueue hot path.
func (t *Txn) newMember(sh *txnShard, kind memberKind) *member {
	if kind == mInsert || kind == mRemove {
		if sh.firstMut < 0 {
			sh.firstMut = len(sh.b.members)
		}
	} else {
		sh.hasRead = true
	}
	bm := sh.b.members
	if len(bm) < cap(bm) {
		bm = bm[:len(bm)+1]
	} else {
		bm = append(bm, member{})
	}
	nm := &bm[len(bm)-1]
	sh.b.members = bm
	nm.kind = kind
	if nm.states == nil {
		nm.states = []*qstate{}
	}
	if t.reg != nil {
		t.multi.order = append(t.multi.order, memberRef{sh: sh, idx: len(sh.b.members) - 1})
	}
	return nm
}

// BatchMutation is the common interface of *PreparedInsert and
// *PreparedRemove for Txn.ExecRow.
type BatchMutation interface {
	batchEnqueue(t *Txn, row rel.Row) (*Pending[bool], error)
}

// batchEnqueue enqueues a prepared insert for the fully bound row x.
func (p *PreparedInsert) batchEnqueue(t *Txn, x rel.Row) (*Pending[bool], error) {
	if err := t.checkMutable(); err != nil {
		return nil, err
	}
	sh, err := t.shardFor(p.r)
	if err != nil {
		return nil, err
	}
	plan, err := p.resolve() // under the batch's representation latch
	if err != nil {
		return nil, err
	}
	if err := p.r.checkRow(x, p.r.fullMask); err != nil {
		return nil, err
	}
	pb := sh.b.newPB()
	m := t.newMember(sh, mInsert)
	m.ins, m.mut, m.row, m.pb = plan, plan.mut, sh.b.copyRow(x), pb
	return pb, nil
}

// batchEnqueue enqueues a prepared remove for a row binding the key.
func (p *PreparedRemove) batchEnqueue(t *Txn, s rel.Row) (*Pending[bool], error) {
	if err := t.checkMutable(); err != nil {
		return nil, err
	}
	sh, err := t.shardFor(p.r)
	if err != nil {
		return nil, err
	}
	plan, err := p.resolve() // under the batch's representation latch
	if err != nil {
		return nil, err
	}
	if err := p.r.checkRow(s, plan.mut.BoundMask); err != nil {
		return nil, err
	}
	pb := sh.b.newPB()
	m := t.newMember(sh, mRemove)
	m.rem, m.mut, m.row, m.pb = plan, plan.mut, sh.b.copyRow(s), pb
	return pb, nil
}

// ExecRow enqueues a prepared mutation (insert or remove) over a
// schema-indexed row — the zero-name-resolution batch mutation path. The
// result resolves when Batch returns.
func (t *Txn) ExecRow(op BatchMutation, row rel.Row) (*Pending[bool], error) {
	return op.batchEnqueue(t, row) // sealed/foreign-relation checks in shardFor
}

// CountRow enqueues a prepared count over a schema-indexed row, using the
// prepared query's count-pushdown plan. The result resolves when Batch
// returns.
func (t *Txn) CountRow(q *PreparedQuery, s rel.Row) (*Pending[int], error) {
	sh, err := t.shardFor(q.r)
	if err != nil {
		return nil, err
	}
	ps, err := q.plans() // under the batch's representation latch
	if err != nil {
		return nil, err
	}
	if err := q.r.checkRow(s, ps.plan.BoundMask); err != nil {
		return nil, err
	}
	pi := sh.b.newPI()
	m := t.newMember(sh, mCount)
	m.steps, m.boundMask, m.qprog = ps.countPlan.Steps, ps.countPlan.BoundMask, ps.countPlan.Prog
	m.row, m.pi = sh.b.copyRow(s), pi
	return pi, nil
}

// ExecRows enqueues a prepared query over a schema-indexed row; yield is
// invoked once per matching row at commit time, under the batch's locks,
// until it returns false. Yielded rows are only valid during the
// callback (their storage is pooled).
func (t *Txn) ExecRows(q *PreparedQuery, s rel.Row, yield func(rel.Row) bool) error {
	sh, err := t.shardFor(q.r)
	if err != nil {
		return err
	}
	ps, err := q.plans() // under the batch's representation latch
	if err != nil {
		return err
	}
	if err := q.r.checkRow(s, ps.plan.BoundMask); err != nil {
		return err
	}
	m := t.newMember(sh, mQuery)
	m.steps, m.boundMask, m.qprog = ps.plan.Steps, ps.plan.BoundMask, ps.plan.Prog
	m.outIdx, m.outCols = ps.plan.OutIdx, ps.plan.OutCols
	m.row, m.yield = sh.b.copyRow(s), yield
	return nil
}

// Insert enqueues insert r s t (§2) by tuples against the transaction's
// relation, like Relation.Insert. Registry transactions must use
// InsertInto.
func (t *Txn) Insert(s, tup rel.Tuple) (*Pending[bool], error) {
	sh, err := t.defaultShard()
	if err != nil {
		return nil, err
	}
	return t.insertInto(sh, s, tup)
}

// InsertInto enqueues insert r s t (§2) against the named relation, which
// must belong to the transaction (the Batch relation, or any relation of
// the Registry).
func (t *Txn) InsertInto(r *Relation, s, tup rel.Tuple) (*Pending[bool], error) {
	sh, err := t.shardFor(r)
	if err != nil {
		return nil, err
	}
	return t.insertInto(sh, s, tup)
}

// insertInto enqueues against a shard already vetted (and open-checked)
// by shardFor/defaultShard, as do the three sibling helpers below.
func (t *Txn) insertInto(sh *txnShard, s, tup rel.Tuple) (*Pending[bool], error) {
	if err := t.checkMutable(); err != nil {
		return nil, err
	}
	r := sh.r
	x, err := s.Union(tup)
	if err != nil {
		return nil, err
	}
	if len(rel.ColsIntersect(s.Dom(), tup.Dom())) > 0 {
		return nil, fmt.Errorf("core: insert requires disjoint s and t, both bind %v", rel.ColsIntersect(s.Dom(), tup.Dom()))
	}
	if !rel.ColsEqual(x.Dom(), r.spec.Columns) {
		return nil, fmt.Errorf("core: insert tuple binds %v, want all of %v", x.Dom(), r.spec.Columns)
	}
	plan, err := r.insertPlanFor(s.Dom())
	if err != nil {
		return nil, err
	}
	row, err := r.schema.RowFromTuple(x, nil)
	if err != nil {
		return nil, err
	}
	pb := sh.b.newPB()
	m := t.newMember(sh, mInsert)
	m.ins, m.mut, m.row, m.pb = plan, plan.mut, row, pb
	return pb, nil
}

// Remove enqueues remove r s (§2) by tuple against the transaction's
// relation, like Relation.Remove. Registry transactions must use
// RemoveFrom.
func (t *Txn) Remove(s rel.Tuple) (*Pending[bool], error) {
	sh, err := t.defaultShard()
	if err != nil {
		return nil, err
	}
	return t.removeFrom(sh, s)
}

// RemoveFrom enqueues remove r s (§2) against the named relation.
func (t *Txn) RemoveFrom(r *Relation, s rel.Tuple) (*Pending[bool], error) {
	sh, err := t.shardFor(r)
	if err != nil {
		return nil, err
	}
	return t.removeFrom(sh, s)
}

func (t *Txn) removeFrom(sh *txnShard, s rel.Tuple) (*Pending[bool], error) {
	if err := t.checkMutable(); err != nil {
		return nil, err
	}
	r := sh.r
	if err := r.checkCols(s.Dom()); err != nil {
		return nil, err
	}
	plan, err := r.removePlanFor(s.Dom())
	if err != nil {
		return nil, err
	}
	row, err := r.schema.RowFromTuple(s, nil)
	if err != nil {
		return nil, err
	}
	pb := sh.b.newPB()
	m := t.newMember(sh, mRemove)
	m.rem, m.mut, m.row, m.pb = plan, plan.mut, row, pb
	return pb, nil
}

// Count enqueues a cardinality query |query r s C| by tuple against the
// transaction's relation. Registry transactions must use CountIn.
func (t *Txn) Count(s rel.Tuple) (*Pending[int], error) {
	sh, err := t.defaultShard()
	if err != nil {
		return nil, err
	}
	return t.countIn(sh, s)
}

// CountIn enqueues a cardinality query against the named relation.
func (t *Txn) CountIn(r *Relation, s rel.Tuple) (*Pending[int], error) {
	sh, err := t.shardFor(r)
	if err != nil {
		return nil, err
	}
	return t.countIn(sh, s)
}

func (t *Txn) countIn(sh *txnShard, s rel.Tuple) (*Pending[int], error) {
	r := sh.r
	if err := r.checkCols(s.Dom()); err != nil {
		return nil, err
	}
	plan, err := r.countPlanFor(s.Dom())
	if err != nil {
		return nil, err
	}
	row, err := r.schema.RowFromTuple(s, nil)
	if err != nil {
		return nil, err
	}
	if row.Mask() != plan.BoundMask {
		return nil, fmt.Errorf("core: tuple %v does not bind the plan's columns", s)
	}
	pi := sh.b.newPI()
	m := t.newMember(sh, mCount)
	m.steps, m.boundMask, m.qprog = plan.Steps, plan.BoundMask, plan.Prog
	m.row, m.pi = row, pi
	return pi, nil
}

// Query enqueues query r s C by tuple against the transaction's relation;
// the projected result tuples resolve when Batch returns. Registry
// transactions must use QueryIn.
func (t *Txn) Query(s rel.Tuple, out ...string) (*Pending[[]rel.Tuple], error) {
	sh, err := t.defaultShard()
	if err != nil {
		return nil, err
	}
	return t.queryIn(sh, s, out)
}

// QueryIn enqueues query r s C against the named relation.
func (t *Txn) QueryIn(r *Relation, s rel.Tuple, out ...string) (*Pending[[]rel.Tuple], error) {
	sh, err := t.shardFor(r)
	if err != nil {
		return nil, err
	}
	return t.queryIn(sh, s, out)
}

func (t *Txn) queryIn(sh *txnShard, s rel.Tuple, out []string) (*Pending[[]rel.Tuple], error) {
	r := sh.r
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
	pt := &Pending[[]rel.Tuple]{}
	m := t.newMember(sh, mQuery)
	m.steps, m.boundMask, m.qprog = plan.Steps, plan.BoundMask, plan.Prog
	m.outIdx, m.outCols, m.row, m.pt = plan.OutIdx, plan.OutCols, row, pt
	return pt, nil
}

// commitBatch executes a single-relation batch: growing phase (coalesced
// lock acquisition), apply phase (in-order execution under held locks),
// then release (putBuf, in the caller). Registry batches run the same
// phases across shards; see Registry.commitTxn. With a commit logger
// attached (redo.go) the batch's redo record is appended after the apply
// phase, still under the held locks; a logging failure rolls the batch
// back and is returned from Batch.
func (r *Relation) commitBatch(t *Txn, sh *txnShard) error {
	b := sh.b
	r.initBatchMembers(b)
	r.growBatch(t, b)

	// Apply phase: in-order execution under the held locks, with an undo
	// log so a panic mid-apply restores the pre-batch representation
	// before the locks are released (all-or-nothing).
	b.apply = true
	undo := &b.undoPool // buffer-resident: a stack undoLog would escape via b.undo
	undo.recs = undo.recs[:0]
	b.undo = undo
	defer func() {
		b.undo = nil
		if p := recover(); p != nil {
			undo.rollback()
			panic(p)
		}
		clear(undo.recs)
		undo.recs = undo.recs[:0]
	}()
	for i := range b.members {
		r.applyMember(b, &b.members[i], i, sh.firstMut)
	}
	// Commit point: fully applied, locks still held (see redo.go).
	if lg, tp := r.commitLogger(), r.commitTap(); lg != nil || tp != nil {
		if ops := r.shardRedo(b); ops != nil {
			if lg != nil {
				if err := lg.LogCommit(ops); err != nil {
					undo.rollback()
					b.apply = false
					return err
				}
			}
			// Migration tap: durable commits only, under the held locks
			// (migrate.go).
			if tp != nil {
				tp.record(ops)
			}
		}
	}
	b.apply = false
	return nil
}

// initBatchMembers sets up every member's growing-phase pipeline and the
// buffer's batch mode.
func (r *Relation) initBatchMembers(b *opBuf) {
	if AuditEnabled() {
		b.fresh = map[*Instance]bool{}
	}
	nNodes := len(r.decomp.Nodes)
	for i := range b.members {
		m := &b.members[i]
		// Zero the growing-phase cursor and result accumulators: a batch
		// falling back from failed optimistic attempts re-enters here with
		// stale per-attempt state (counted counts in particular must not
		// leak into the apply phase's reuse path).
		m.cursor, m.stage, m.wait = 0, stStart, wNone
		m.count, m.counted = 0, false
		m.ok, m.recomputed = false, false
		m.specReg, m.specResolved, m.specFound = false, false, nil
		switch m.kind {
		case mQuery, mCount:
			if b.occ {
				// OCC commit: read members sit the pessimistic growing
				// phase out entirely — their lock and speculative steps
				// divert into the read-set when the lock-free read phase
				// (occ.go) executes them after the write locks are held.
				m.wait = wDone
				m.states = m.states[:0]
				continue
			}
			m.states = append(m.states[:0], b.rootState(r, m.row, m.boundMask))
		case mInsert, mRemove:
			if cap(m.xinst) < nNodes {
				m.xinst = make([]*Instance, nNodes)
			}
			m.xinst = m.xinst[:nNodes]
			clear(m.xinst)
			m.xinst[r.decomp.Root.Index] = r.root
			m.states = append(m.states[:0], b.rootState(r, m.row, m.mut.BoundMask))
		}
	}

	b.detectRounds()

	// Detach the single-op ping-pong arrays. Single operations may leave
	// b.pipe and b.spare aliased (a scan step on an already-dead pipeline
	// donates the pipe array to spare), which is benign when nothing
	// outlives the operation — but batch members RETAIN their final state
	// lists across the whole transaction, so the scan ping-pong and the
	// apply phase's runSteps must start from storage that cannot alias a
	// member's retention. The round-map scheduler pipes member states
	// through member-owned arrays only, so it keeps the pair (their
	// capacity serves apply-phase re-execution) and merely de-aliases it.
	if !b.rounds {
		b.pipe, b.spare = nil, nil
	} else if sameBacking(b.pipe, b.spare) {
		b.spare = nil
	}
}

// growBatch runs the growing phase for one relation's members: per-node
// rounds that pool speculative resolutions and coalesce lock requests. In
// a registry transaction the shards' growing phases run in relation-id
// order on one shared locks.Txn, so the acquisitions of the whole batch
// follow the global (relation, node, inst, stripe) order.
func (r *Relation) growBatch(t *Txn, b *opBuf) {
	nNodes := len(r.decomp.Nodes)
	b.collect = &b.set
	if b.rounds {
		b.buildGroups()
	}
	for v := 0; v < nNodes; v++ {
		for {
			progress := false
			if b.rounds {
				// Members sweep in plan-identity groups: same-plan members
				// advance back to back, so their per-node lock and spec
				// contributions merge while round-hot data stays cached. The
				// coalescing set and the sorted spec waves make the order
				// trace-invariant.
				for _, mi := range b.groupOrder {
					if r.advanceMemberRounds(b, &b.members[mi], v) {
						progress = true
					}
				}
			} else {
				for i := range b.members {
					if r.advanceMember(b, &b.members[i], v) {
						progress = true
					}
				}
			}
			if len(b.specs) > 0 {
				r.resolveBatchSpecs(t, b)
				progress = true
			}
			if b.set.Len() > 0 {
				req := b.set.Requested()
				prev := b.txn.HeldCount()
				b.txn.AcquireSet(&b.set)
				t.recordRound(b, r.traceLabel(r.decomp.Nodes[v].Name), req, prev, false)
			}
			for i := range b.members {
				if b.members[i].wait == wLock {
					b.members[i].wait = wNone
					progress = true
				}
			}
			if !progress {
				break
			}
		}
	}
	b.collect = nil
	for i := range b.members {
		if b.members[i].wait != wDone {
			panic(fmt.Sprintf("core: batch member %d stalled in growing phase (kind %d, cursor %d)",
				i, b.members[i].kind, b.members[i].cursor))
		}
	}
}

// traceLabel prefixes a trace round's node name with the relation's
// registration name, so cross-relation schedules read "users.u" vs
// "posts.a".
func (r *Relation) traceLabel(node string) string {
	if r.name == "" {
		return node
	}
	return r.name + "." + node
}

// recordRound appends a trace round covering the locks acquired since
// held index prev.
func (t *Txn) recordRound(b *opBuf, node string, requested, prev int, spec bool) {
	tr := t.trace
	if tr == nil {
		return
	}
	if spec {
		node += " (speculative)"
	}
	rd := BatchRound{Node: node, Requested: requested}
	for i := prev; i < b.txn.HeldCount(); i++ {
		id, mode := b.txn.HeldID(i)
		rd.IDs = append(rd.IDs, id)
		rd.Modes = append(rd.Modes, mode)
		if mode == locks.Shared {
			tr.SharedAcquired++
		}
	}
	tr.Requested += requested
	tr.Acquired += len(rd.IDs)
	if spec {
		tr.Speculative += len(rd.IDs)
	}
	if requested > 0 || len(rd.IDs) > 0 {
		tr.Rounds = append(tr.Rounds, rd)
	}
}

// advanceMember runs one member's growing-phase cursor as far as round v
// allows, reporting whether any work was done. Lock steps divert into the
// round's coalescing set (b.collect); speculative steps register requests
// for the pooled resolution.
func (r *Relation) advanceMember(b *opBuf, m *member, v int) bool {
	if m.wait != wNone {
		return false
	}
	switch m.kind {
	case mQuery, mCount:
		return r.advancePlan(b, m, v)
	case mInsert:
		return r.advanceInsert(b, m, v)
	case mRemove:
		return r.advanceRemove(b, m, v)
	}
	panic("core: unknown batch member kind")
}

// advancePlan advances a query/count member through its compiled steps.
func (r *Relation) advancePlan(b *opBuf, m *member, v int) bool {
	progress := false
	for m.cursor < len(m.steps) {
		s := &m.steps[m.cursor]
		switch s.Kind {
		case query.StepLock:
			if s.Node.Index > v {
				return progress
			}
			r.execLock(b, s, m.states, m.row) // diverts into b.collect
			m.cursor++
			m.wait = wLock
			return true
		case query.StepSpecLookup:
			if m.specResolved {
				m.consumeSpec()
				progress = true
				continue
			}
			if s.Edge.Dst.Index > v {
				return progress
			}
			n := 0
			for _, st := range m.states {
				src := st.insts[s.Edge.Src.Index]
				if src == nil {
					continue
				}
				b.specs = append(b.specs, batchSpecReq{m: m, st: st, edge: s.Edge, colIdx: s.ColIdx,
					row: st.row, src: src, key: b.keyOf(st.row, s.TargetIdx), node: s.Edge.Dst.Index, mode: s.Mode})
				n++
			}
			m.specOut = m.specOut[:0]
			m.specReg = true
			if n == 0 {
				m.specResolved = true
				continue
			}
			m.wait = wSpec
			return true
		case query.StepScan:
			if rule := r.placement.RuleFor(s.Edge); rule.Speculative {
				if m.specResolved {
					m.consumeSpec()
					progress = true
					continue
				}
				if s.Edge.Dst.Index > v {
					return progress
				}
				n := r.registerSpecScan(b, m, s)
				m.specOut = m.specOut[:0]
				m.specReg = true
				if n == 0 {
					m.specResolved = true
					continue
				}
				m.wait = wSpec
				return true
			}
			m.states = r.execScan(b, s.Edge, s.ColIdx, s.FilterPos, s.FilterIdx, m.states)
			m.cursor++
			progress = true
		case query.StepCount:
			total := 0
			for _, st := range m.states {
				if inst := st.insts[s.Edge.Src.Index]; inst != nil {
					r.auditAccess(b, s.Edge, st.insts, st.row, nil, b.fresh, true)
					total += r.container(inst, s.Edge).Len()
				}
			}
			m.count, m.counted = total, true
			m.cursor = len(m.steps)
			m.wait = wDone
			return true
		default:
			m.states = r.execStep(b, s, m.states, m.row)
			m.cursor++
			progress = true
		}
		if len(m.states) == 0 {
			m.wait = wDone
			return true
		}
	}
	m.wait = wDone
	return true
}

// takeSpecResults installs the survivors of a resolved speculative wave:
// the member's pipeline becomes the delivered specOut list, and the old
// states array (no longer referenced by anyone) becomes the next
// specOut backing — the same ownership-transfer discipline as the scan
// ping-pong.
func (m *member) takeSpecResults() {
	m.states, m.specOut = m.specOut, m.states[:0]
	m.specResolved, m.specReg = false, false
}

// consumeSpec installs the survivors of a resolved speculative step and
// advances the cursor past it.
func (m *member) consumeSpec() {
	m.takeSpecResults()
	m.cursor++
}

// registerSpecScan scans a speculatively placed edge (membership frozen
// by the already-held fallback stripes) and registers one request per
// surviving entry, returning how many were registered.
func (r *Relation) registerSpecScan(b *opBuf, m *member, s *query.Step) int {
	n := 0
	for _, st := range m.states {
		src := st.insts[s.Edge.Src.Index]
		if src == nil {
			continue
		}
		r.auditAccess(b, s.Edge, st.insts, st.row, nil, b.fresh, true)
		r.container(src, s.Edge).Scan(func(k rel.Key, v any) bool {
			for fi, p := range s.FilterPos {
				if !rel.Equal(k.At(p), st.row.At(s.FilterIdx[fi])) {
					return true
				}
			}
			ns := b.clone(r, st)
			for p, ci := range s.ColIdx {
				ns.row.Set(ci, k.At(p))
			}
			b.specs = append(b.specs, batchSpecReq{m: m, st: ns, edge: s.Edge, colIdx: s.ColIdx,
				row: ns.row, src: src, key: b.keyOf(ns.row, s.TargetIdx), node: s.Edge.Dst.Index, mode: s.Mode})
			n++
			return true
		})
	}
	return n
}

// Intra-directive stages of a mutation member's growing phase.
const (
	stStart   = 0 // register speculative in-edge requests
	stSpecGot = 1 // consume the locate/spec resolution
	stAccess  = 2 // plain access-edge locate
	stExist   = 3 // advance the embedded existence check (inserts)
	stLock    = 4 // contribute the node's lock directive
)

// advanceInsert advances an insert member: per node, locate the row's
// instance (speculative in-edges via the pooled resolution, then the
// planned access edge), interleave the put-if-absent existence states,
// and contribute the lock directive — the batched counterpart of
// runInsert's growing phase.
func (r *Relation) advanceInsert(b *opBuf, m *member, v int) bool {
	progress := false
	for m.cursor < len(m.mut.PerNode) {
		nd := &m.mut.PerNode[m.cursor]
		if nd.Node.Index > v {
			return progress
		}
		switch m.stage {
		case stStart:
			if nd.Node == r.decomp.Root {
				m.stage = stLock
				continue
			}
			n := 0
			for i, e := range nd.SpecIns {
				src := m.xinst[e.Src.Index]
				if src == nil {
					continue
				}
				b.specs = append(b.specs, batchSpecReq{m: m, edge: e, colIdx: nd.SpecColIdx[i],
					row: m.row, src: src, key: b.keyOf(m.row, nd.SpecTargetIdx[i]),
					node: nd.Node.Index, mode: locks.Exclusive})
				n++
			}
			m.stage = stSpecGot
			if n > 0 {
				m.specReg = true
				m.wait = wSpec
				return true
			}
		case stSpecGot:
			if m.specFound != nil {
				m.xinst[nd.Node.Index] = m.specFound
				m.specFound = nil
			}
			m.specReg, m.specResolved = false, false
			m.stage = stAccess
		case stAccess:
			if m.xinst[nd.Node.Index] == nil && nd.AccessIn != nil {
				if src := m.xinst[nd.AccessIn.Src.Index]; src != nil {
					r.auditAccess(b, nd.AccessIn, m.xinst, m.row, nil, b.fresh, false)
					if val, ok := r.container(src, nd.AccessIn).Lookup(b.keyOf(m.row, nd.ColIdx)); ok {
						m.xinst[nd.Node.Index] = val.(*Instance)
					}
				}
			}
			m.stage = stExist
		case stExist:
			if step := m.ins.existAt[nd.Node.Index]; step != nil && len(m.states) > 0 {
				if step.Kind == query.StepSpecLookup {
					if m.specResolved {
						m.takeSpecResults()
					} else {
						n := 0
						for _, st := range m.states {
							src := st.insts[step.Edge.Src.Index]
							if src == nil {
								continue
							}
							b.specs = append(b.specs, batchSpecReq{m: m, st: st, edge: step.Edge,
								colIdx: step.ColIdx, row: st.row, src: src,
								key: b.keyOf(st.row, step.TargetIdx), node: nd.Node.Index, mode: step.Mode})
							n++
						}
						m.specOut = m.specOut[:0]
						m.specReg = true
						if n > 0 {
							m.wait = wSpec
							return true
						}
						m.specResolved = true
						continue
					}
				} else {
					m.states = r.execStep(b, step, m.states, m.row)
				}
			}
			m.stage = stLock
		case stLock:
			r.lockDirective(b, nd, m.xinst[nd.Node.Index], m.states, m.row) // diverts into b.collect
			m.cursor++
			m.stage = stStart
			if len(nd.Selectors) > 0 {
				m.wait = wLock
				return true
			}
			progress = true
		}
	}
	m.wait = wDone
	return true
}

// advanceRemove advances a remove member: per node, move the victim
// states across the planned access route and contribute the lock
// directive — the batched counterpart of runRemove's growing phase.
//
// In addition to the state pipeline, removes maintain an insert-style
// row-based locate (xinst). The states alone under-lock a batch: when a
// keyed lookup misses, the victim states die, and directive nodes keyed
// from still-located sources (e.g. the root) would never register their
// lock requests — yet the apply phase can reach those pre-existing
// instances if an earlier batch member re-creates the missing key. The
// row-based locate covers every instance the bound row determines,
// independent of state survival, closing that gap.
func (r *Relation) advanceRemove(b *opBuf, m *member, v int) bool {
	progress := false
	for m.cursor < len(m.mut.PerNode) {
		nd := &m.mut.PerNode[m.cursor]
		if nd.Node.Index > v {
			return progress
		}
		switch m.stage {
		case stStart:
			if nd.Node == r.decomp.Root {
				m.stage = stLock
				continue
			}
			n := 0
			// Row-based locate requests over every speculative in-edge
			// (their key columns are always bound for mutations).
			for i, e := range nd.SpecIns {
				src := m.xinst[e.Src.Index]
				if src == nil {
					continue
				}
				b.specs = append(b.specs, batchSpecReq{m: m, edge: e, colIdx: nd.SpecColIdx[i],
					row: m.row, src: src, key: b.keyOf(m.row, nd.SpecTargetIdx[i]),
					node: nd.Node.Index, mode: locks.Exclusive})
				n++
			}
			// State-based requests advancing the victim pipeline.
			if len(nd.SpecIns) > 0 {
				for _, st := range m.states {
					src := st.insts[nd.SpecIns[0].Src.Index]
					if src == nil {
						continue
					}
					b.specs = append(b.specs, batchSpecReq{m: m, st: st, edge: nd.SpecIns[0],
						colIdx: nd.SpecColIdx[0], row: st.row, src: src,
						key: b.keyOf(st.row, nd.SpecTargetIdx[0]), node: nd.Node.Index, mode: locks.Exclusive})
					n++
				}
				m.specOut = m.specOut[:0]
				m.specReg = true
				m.stage = stSpecGot
				if n > 0 {
					m.wait = wSpec
					return true
				}
				m.specResolved = true
				continue
			}
			m.stage = stAccess
		case stSpecGot:
			m.takeSpecResults()
			if m.specFound != nil {
				m.xinst[nd.Node.Index] = m.specFound
				m.specFound = nil
			}
			r.rowLocate(b, m, nd)
			m.stage = stLock
			progress = true
		case stAccess:
			switch e := nd.AccessIn; {
			case e == nil:
				m.states = m.states[:0]
			case nd.AccessScan:
				m.states = r.execScan(b, e, nd.ColIdx, nd.FilterPos, nd.FilterIdx, m.states)
			default:
				m.states = r.execLookup(b, e, nd.ColIdx, m.states)
			}
			r.rowLocate(b, m, nd)
			m.stage = stLock
			progress = true
		case stLock:
			r.lockDirective(b, nd, m.xinst[nd.Node.Index], m.states, m.row) // diverts into b.collect
			m.cursor++
			m.stage = stStart
			if len(nd.Selectors) > 0 {
				m.wait = wLock
				return true
			}
			progress = true
		}
	}
	m.wait = wDone
	return true
}

// rowLocate fills a remove member's row-based located instance for the
// directive's node via the planned access edge, when the edge's key
// columns are bound by the operation row (scan-located nodes stay nil:
// their instances are only reachable through state rows, and the
// fresh-bridge argument covers them at apply time).
func (r *Relation) rowLocate(b *opBuf, m *member, nd *query.NodeDirective) {
	if m.xinst[nd.Node.Index] != nil || nd.AccessIn == nil || nd.AccessScan {
		return
	}
	var need uint64
	for _, ci := range nd.ColIdx {
		need |= 1 << uint(ci)
	}
	if !m.row.BindsAll(need) {
		return
	}
	src := m.xinst[nd.AccessIn.Src.Index]
	if src == nil {
		return
	}
	r.auditAccess(b, nd.AccessIn, m.xinst, m.row, nil, b.fresh, false)
	if val, ok := r.container(src, nd.AccessIn).Lookup(b.keyOf(m.row, nd.ColIdx)); ok {
		m.xinst[nd.Node.Index] = val.(*Instance)
	}
}

// resolveBatchSpecs runs the §4.5 protocol for every pending request, in
// (node, target key) order across all members so the interleaved target
// acquisitions respect the global lock order. Requests for the same
// target resolve in the strongest mode any requester needs (the
// speculative analog of the coalescing upgrade rule); later requesters
// find the lock held and merely re-validate. Survivors are delivered to
// their members, which resume at the next scheduler sweep.
func (r *Relation) resolveBatchSpecs(t *Txn, b *opBuf) {
	if b.rounds {
		r.resolveBatchSpecsBucketed(t, b)
		return
	}
	specs := b.specs
	// Sort by (node, key): closure-free insertion sort for the typical
	// small pool, sort.Slice beyond (quadratic insertion would dominate
	// on scan-fed pools).
	less := func(a, c *batchSpecReq) bool {
		if a.node != c.node {
			return a.node < c.node
		}
		return rel.CompareKeys(a.key, c.key) < 0
	}
	if len(specs) <= 32 {
		for i := 1; i < len(specs); i++ {
			for j := i; j > 0 && less(&specs[j], &specs[j-1]); j-- {
				specs[j], specs[j-1] = specs[j-1], specs[j]
			}
		}
	} else {
		sort.Slice(specs, func(i, j int) bool { return less(&specs[i], &specs[j]) })
	}
	prev := b.txn.HeldCount()
	for i := 0; i < len(specs); {
		j := i
		mode := locks.Shared
		for ; j < len(specs) && specs[j].node == specs[i].node && rel.CompareKeys(specs[j].key, specs[i].key) == 0; j++ {
			if specs[j].mode == locks.Exclusive {
				mode = locks.Exclusive
			}
		}
		for k := i; k < j; k++ {
			r.resolveOneSpec(b, &specs[k], mode)
		}
		i = j
	}
	if t.trace != nil && len(specs) > 0 {
		t.recordRound(b, r.traceLabel(r.decomp.Nodes[specs[0].node].Name), len(specs), prev, true)
	}
	clear(specs)
	b.specs = specs[:0]
	for i := range b.members {
		m := &b.members[i]
		if m.wait == wSpec {
			m.wait = wNone
			m.specResolved = true
		}
	}
}

// resolveOneSpec runs the §4.5 protocol body for one pending request in
// the (already upgraded) mode of its (node, key) run, delivering survivors
// to the member's specOut list or its located-instance slot.
func (r *Relation) resolveOneSpec(b *opBuf, req *batchSpecReq, mode locks.Mode) {
	inst, ok := r.specLocate(b, req.edge, req.colIdx, req.src, req.row, mode)
	switch {
	case req.st != nil && ok:
		req.st.insts[req.edge.Dst.Index] = inst
		req.m.specOut = append(req.m.specOut, req.st)
	case req.st != nil:
		r.auditAccess(b, req.edge, req.st.insts, req.st.row, nil, b.fresh, false)
	case ok:
		if req.m.specFound != nil && req.m.specFound != inst {
			panic(fmt.Sprintf("core: inconsistent instances of %s via speculative in-edges", req.edge.Dst.Name))
		}
		req.m.specFound = inst
	default:
		r.auditAccess(b, req.edge, req.m.xinst, req.row, nil, b.fresh, false)
	}
}

// rowsAgree reports whether two rows hold equal values at every column
// of mask. An empty mask agrees vacuously — callers treat that as a
// potential conflict (nothing distinguishes the rows).
func rowsAgree(a, c rel.Row, mask uint64) bool {
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		if !rel.Equal(a.At(i), c.At(i)) {
			return false
		}
		mask &^= 1 << uint(i)
	}
	return true
}

// opMask returns the member's bound-column mask (the key scope of the
// operation).
func (m *member) opMask() uint64 {
	if m.mut != nil {
		return m.mut.BoundMask
	}
	return m.boundMask
}

// memberReusable reports whether member m at index idx can reuse its
// growing-phase results at apply time instead of re-executing. The
// growing phase saw the pre-batch state, so reuse is sound iff no earlier
// mutation can have changed what m observes or the instances m writes:
//
//   - tuple overlap: an earlier insert's row extending m's bound key, or
//     an earlier remove whose key can share an extension with m's,
//     changes m's existence check / victim set / query result;
//   - creation overlap (inserts only): a node instance m found missing
//     and plans to create may have been created by an earlier insert that
//     agrees on the node's key columns A — m must re-locate;
//   - deletion overlap (inserts only): a node instance m located may have
//     been cascade-deleted by an earlier remove agreeing on A.
//
// Disagreement on any shared bound column proves disjointness; columns a
// side leaves unbound cannot be compared, so they count as agreement
// (conservative).
func (r *Relation) memberReusable(b *opBuf, m *member, idx, firstMut int) bool {
	if firstMut < 0 || idx <= firstMut {
		return true
	}
	mMask := m.opMask()
	rootIdx := r.decomp.Root.Index
	for i := firstMut; i < idx; i++ {
		mm := &b.members[i]
		if mm.kind != mInsert && mm.kind != mRemove {
			continue
		}
		test := mMask
		if mm.kind == mRemove {
			test &= mm.mut.BoundMask
		}
		if rowsAgree(m.row, mm.row, test) {
			return false
		}
		if m.kind != mInsert {
			continue
		}
		for v, am := range r.nodeKeyMask {
			if v == rootIdx {
				continue
			}
			if m.xinst[v] == nil {
				if mm.kind == mInsert && rowsAgree(m.row, mm.row, am) {
					return false
				}
			} else if mm.kind == mRemove && rowsAgree(m.row, mm.row, am&mm.mut.BoundMask) {
				return false
			}
		}
	}
	return true
}

// applyMember executes one member at commit time, under the full held
// lock set: compute the result, then deliver it. The pessimistic paths
// fuse the two; the OCC commit (occ.go) computes every member under undo
// logging first and delivers only after the read-set validates, so
// callers never observe results of an attempt that failed validation.
func (r *Relation) applyMember(b *opBuf, m *member, idx, firstMut int) {
	r.computeMember(b, m, idx, firstMut)
	r.deliverMember(b, m)
}

// computeMember executes one member's apply-phase work and stages the
// result on the member (states for queries, count for counts, ok for
// mutations) without touching any caller-visible sink. Members whose
// scope no earlier mutation touched reuse their growing/read-phase
// traversal (it is exact); the rest re-execute in apply mode so they
// observe the writes of the members before them — sequential semantics.
// firstMut is the owning SHARD's first-mutation index: mutations in other
// relations of a registry batch never invalidate reuse, because relations
// are disjoint object graphs.
//
// computeMember is idempotent across OCC attempts: a validation failure
// rolls the container writes back (undo log) and the next attempt
// recomputes from the restored state — which is why the reuse-insert
// branch writes through a scratch copy of the located instances instead
// of mutating m.xinst (insertWrite fills in the instances it creates).
func (r *Relation) computeMember(b *opBuf, m *member, idx, firstMut int) {
	reuse := r.memberReusable(b, m, idx, firstMut)
	switch m.kind {
	case mQuery:
		m.recomputed = !reuse
		if !reuse {
			if b.rounds {
				r.runMemberRounds(b, m)
			} else {
				m.states = r.runSteps(b, m.steps, m.row, m.boundMask)
			}
		}
	case mCount:
		switch {
		case reuse && m.counted:
			// m.count already holds the growing/read-phase result.
		case reuse:
			m.count = len(m.states)
		case b.rounds:
			m.count = r.runMemberCountRounds(b, m)
			m.states = m.states[:0]
		default:
			m.count = r.applyCount(b, m)
		}
		m.counted = true
	case mInsert:
		m.ok = false
		if reuse {
			if len(m.states) == 0 {
				nNodes := len(m.xinst)
				if cap(b.xinst) < nNodes {
					b.xinst = make([]*Instance, nNodes)
				}
				xinst := b.xinst[:nNodes]
				copy(xinst, m.xinst)
				r.insertWrite(b, xinst, m.row)
				m.ok = true
			}
		} else {
			m.ok = r.applyInsert(b, m)
		}
	case mRemove:
		m.ok = false
		if reuse {
			for _, st := range m.states {
				if st.row.Mask() != r.fullMask {
					continue
				}
				r.deleteTuple(b, st)
				m.ok = true
			}
		} else {
			m.ok = r.applyRemove(b, m)
		}
	}
}

// deliverMember resolves one member's caller-visible sinks — pendings and
// query yields — from the staged results. On the OCC path it runs only
// after a successful validation, so yields never observe torn data.
func (r *Relation) deliverMember(b *opBuf, m *member) {
	switch m.kind {
	case mQuery:
		states := m.states
		if m.yield != nil {
			for _, st := range states {
				if !m.yield(st.row) {
					break
				}
			}
		}
		if m.pt != nil {
			results := make([]rel.Tuple, 0, len(states))
			for _, st := range states {
				vals := make([]rel.Value, len(m.outIdx))
				for j, ci := range m.outIdx {
					vals[j] = st.row.At(ci)
				}
				results = append(results, rel.TupleFromSorted(m.outCols, vals))
			}
			m.pt.set(results)
		}
		if m.recomputed && !b.rounds {
			// Legacy apply ran runSteps on the shared ping-pong pair; hand
			// the capacity back and sever the member's reference so a later
			// round-mode batch never sees b.pipe aliasing a member slab
			// entry. Round-mode recomputation used the member's own arrays,
			// which the member simply keeps.
			b.recycle(states)
			m.states = nil
		}
	case mCount:
		m.pi.set(m.count)
	case mInsert, mRemove:
		m.pb.set(m.ok)
	}
}

// applyCount re-executes a count member in apply mode.
func (r *Relation) applyCount(b *opBuf, m *member) int {
	return r.runCountSteps(b, m.steps, m.row, m.boundMask)
}

// applyInsert re-executes an insert at commit time: re-run the
// put-if-absent existence check against the batch-current representation
// (an earlier member may have inserted or removed the key), re-locate the
// row's instances, and write.
func (r *Relation) applyInsert(b *opBuf, m *member) bool {
	states := r.runSteps(b, m.ins.exist.Steps, m.row, m.ins.exist.BoundMask)
	exists := len(states) > 0
	b.recycle(states)
	if exists {
		return false
	}
	nNodes := len(r.decomp.Nodes)
	if cap(b.xinst) < nNodes {
		b.xinst = make([]*Instance, nNodes)
	}
	xinst := b.xinst[:nNodes]
	clear(xinst)
	xinst[r.decomp.Root.Index] = r.root
	for i := range m.mut.PerNode {
		nd := &m.mut.PerNode[i]
		if nd.Node != r.decomp.Root {
			r.locateX(b, nd, xinst, m.row)
		}
	}
	r.insertWrite(b, xinst, m.row)
	return true
}

// applyRemove re-executes a remove at commit time against the
// batch-current representation.
func (r *Relation) applyRemove(b *opBuf, m *member) bool {
	states := append(b.pipe[:0], b.rootState(r, m.row, m.mut.BoundMask))
	b.pipe = states
	for i := range m.mut.PerNode {
		nd := &m.mut.PerNode[i]
		if nd.Node == r.decomp.Root {
			continue
		}
		states = r.advanceStates(b, nd, states)
		if len(states) == 0 {
			break
		}
	}
	removed := false
	for _, st := range states {
		if st.row.Mask() != r.fullMask {
			continue
		}
		r.deleteTuple(b, st)
		removed = true
	}
	b.recycle(states)
	return removed
}

// undoLog records displaced container bindings during a batch's apply
// phase so a panic mid-apply can restore the pre-batch representation
// before the transaction's locks are released (all-or-nothing).
type undoLog struct {
	recs []undoRec
}

// undoRec is one displaced binding: the container, the written key, and
// what the key mapped to before (had=false for a previously absent key).
type undoRec struct {
	c   container.Map
	key rel.Key
	old any
	had bool
}

// record appends one displaced binding.
func (u *undoLog) record(c container.Map, key rel.Key, old any, had bool) {
	u.recs = append(u.recs, undoRec{c: c, key: key, old: old, had: had})
}

// rollback restores every displaced binding in reverse order. Keys are
// cloned on re-insertion: containers retain inserted keys, and the
// recorded key may be carved from the operation's transient arena.
func (u *undoLog) rollback() {
	for i := len(u.recs) - 1; i >= 0; i-- {
		rec := u.recs[i]
		if rec.had {
			rec.c.Write(rec.key.Clone(), rec.old)
		} else {
			rec.c.Write(rec.key, nil)
		}
	}
	clear(u.recs)
	u.recs = u.recs[:0]
}
