package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/query"
	"repro/internal/rel"
)

// This file implements batched multi-operation transactions: several
// queries and mutations executed as ONE atomic transaction. The paper's
// §4.2/§5.1 substrate gives every single operation a deadlock-free sorted
// lock schedule; batching generalizes the unit of atomicity from the
// operation to a user-defined group, the framing of the
// synchronization-synthesis line of work (Samanta et al., Locksynth),
// where the atomic region — not the individual access — is what gets a
// synthesized locking protocol.
//
// The Batch callback assembles the group on a Txn: each enqueue compiles
// (or fetches) the member's plan and copies its row into the buffer's
// arena, and nothing executes until the callback returns. The commit
// pipeline (commit.go) then commits the group. Its GROWING phase, the
// part this file and rounds.go implement, walks the members' compiled
// plans in lockstep over the decomposition's topological node order. At
// each node the scheduler (a) resolves all members' pending speculative
// accesses together, sorted by target key across members so §4.5
// acquisitions respect the global order, and (b) merges all members' lock
// requests into one locks.LockSet — deduplicated by lock identity, shared
// requests upgraded to exclusive where any member writes — and acquires
// the coalesced set once. An N-operation batch therefore takes each
// physical lock at most once, instead of up to N times.
//
// After the growing phase every member computes its result under the held
// locks, through the code single operations run: queries and counts walk
// their plans straight through (exec.go's walk) on the member's own
// arrays, inserts and removes run the one insert/remove body (mutate.go)
// on the buffer's pair. The buffer's apply mode (b.apply) makes lock
// steps and lock directives do nothing and speculative accesses plain
// lookups and scans: every pre-existing instance a member can reach was
// locked during the growing phase (container contents only change
// through this batch's own writes), and instances created by earlier
// members are private to the transaction. Members whose results cannot be
// affected by the batch's own writes (every member up to and including
// the first mutation) reuse their growing-phase traversal, so a
// read-only batch traverses exactly once.

// Pending is a batch result delivered at commit: enqueueing an operation
// on a Txn returns a *Pending resolved when Batch returns nil. A batch
// that fails resolves none.
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
// when the whole group commits as one transaction with a coalesced lock
// schedule. A Txn is valid only inside its callback and is not safe for
// concurrent use; its Trace and Stamp stay readable after Batch returns.
//
// A Txn built by Relation.Batch accepts members against that relation
// only — it is the one-shard case; one built by Registry.Batch accepts
// members against any relation registered in the registry, grouped into
// per-relation shards that share a single locks.Txn. The commit pipeline
// walks the shards in relation-id order, so all acquisitions follow the
// registry-wide (relation, node, inst, stripe) lock order.
type Txn struct {
	reg  *Registry  // registry whose commit logger and migration tap serve the commit; nil for standalone relations
	rel  *Relation  // Relation.Batch's relation, the only one accepted; nil for Registry.Batch
	ltxn *locks.Txn // the lock transaction every shard's buffer shares
	// pooled is Registry.Batch's pool checkout: the lock transaction and
	// the txnRes. Relation.Batch borrows both from its buffer.
	pooled *regTxn
	// ctr takes the batch-level counts: the relation's cells for
	// Relation.Batch, the registry's for Registry.Batch (counters.go).
	ctr *batchCounters
	// shards holds the per-relation slices of the transaction, kept sorted
	// by relation id as shardFor inserts them; order is the global enqueue
	// order the apply phase replays. Their backings come from a txnRes and
	// return there at release; every path from a leaked *Txn to them is
	// behind the sealed check.
	shards []*txnShard
	order  []memberRef
	sealed bool
	roOnly bool // BatchReadOnly: mutation enqueues are rejected
	trace  *BatchTrace
	stamp  uint64 // commit stamp (Stamp)
}

// txnRes are the reusable resources of a transaction besides its
// locks.Txn: the slab its Txn handle comes from and the backings of its
// shard list and enqueue order. Relation.Batch takes them from its
// buffer, Registry.Batch from the pooled regTxn.
type txnRes struct {
	slab   []Txn
	shards []*txnShard
	order  []memberRef
}

// newTxn hands out a Txn from the slab, its shard list and enqueue order
// backed by res. Slab slots are never reused — the slab only advances, a
// full one is abandoned to its holders and replaced — which keeps the
// sealed guard airtight: a caller that leaks the *Txn past Batch holds a
// slot no later batch ever touches, so it stays sealed forever, exactly
// as an individually heap-allocated Txn would (a recycled handle would
// be silently un-sealed by a later batch, turning the leak into
// cross-transaction corruption), while costing one allocation per
// txnSlabSize batches instead of one per batch.
func (res *txnRes) newTxn() *Txn {
	if len(res.slab) == cap(res.slab) {
		res.slab = make([]Txn, 0, txnSlabSize)
	}
	res.slab = res.slab[:len(res.slab)+1]
	t := &res.slab[len(res.slab)-1]
	t.shards, t.order = res.shards[:0], res.order[:0]
	return t
}

// txnSlabSize is the chunk size of a txnRes's Txn slab.
const txnSlabSize = 64

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

// txnShard is one relation's slice of a batched transaction: its pooled
// operation buffer (whose locks.Txn is displaced by the transaction-wide
// one for Registry.Batch) and the index of the shard's first mutation, the
// pivot of the apply phase's growing-result reuse rule. Mutations in
// OTHER relations never invalidate reuse — relations are disjoint object
// graphs, so a write in one cannot change what a member of another
// observes.
type txnShard struct {
	r        *Relation
	b        *opBuf
	own      *locks.Txn // the buffer's own txn, restored before putBuf
	firstMut int        // index into b.members of the first mutation, -1 if none
	hasRead  bool       // the shard holds at least one query/count member (optimistic row eligibility)
	mark     int        // state-pool floor of an attempt: growing-phase states end here (commit.go)
}

// memberRef addresses one member across shards, preserving the global
// enqueue order the apply phase replays for sequential semantics.
type memberRef struct {
	sh  *txnShard
	idx int
}

// shardFor resolves (creating on first use, for Registry.Batch) the
// shard holding members against relation r. A sealed transaction resolves
// nothing — a late resolution would check out a buffer nobody releases.
func (t *Txn) shardFor(r *Relation) (*txnShard, error) {
	if err := t.checkOpen(); err != nil {
		return nil, err
	}
	if t.rel != nil {
		if r != t.rel {
			return nil, fmt.Errorf("core: operation targets a relation outside this transaction (use Registry.Batch for cross-relation groups)")
		}
		return t.shards[0], nil
	}
	if r.registry != t.reg {
		return nil, fmt.Errorf("core: relation %q is not registered in this transaction's registry", r.name)
	}
	for _, sh := range t.shards {
		if sh.r == r {
			return sh, nil
		}
	}
	return t.addShard(r, r.getBuf()), nil
}

// addShard installs buffer b's resident shard for relation r, lending b
// the transaction-wide locks.Txn, and inserts it into t.shards by
// relation id — the order the commit pipeline walks.
func (t *Txn) addShard(r *Relation, b *opBuf) *txnShard {
	sh := &b.shard
	*sh = txnShard{r: r, b: b, own: b.txn, firstMut: -1}
	b.txn = t.ltxn
	i := len(t.shards)
	t.shards = append(t.shards, sh)
	for ; i > 0 && t.shards[i-1].r.regID > r.regID; i-- {
		t.shards[i] = t.shards[i-1]
	}
	t.shards[i] = sh
	return sh
}

// defaultShard returns the Relation.Batch shard; registry transactions
// have no default and must name the relation (InsertInto etc. or the
// prepared-handle API).
func (t *Txn) defaultShard() (*txnShard, error) {
	if err := t.checkOpen(); err != nil {
		return nil, err
	}
	if t.rel == nil {
		return nil, fmt.Errorf("core: registry transaction needs an explicit relation (use InsertInto/RemoveFrom/CountIn/QueryIn or prepared handles)")
	}
	return t.shards[0], nil
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

	// Compiled plans: steps for queries and counts, mut for mutations and
	// ins for an insert's existence check.
	steps     []query.Step
	boundMask uint64
	outIdx    []int
	outCols   []string
	ins       *opPlan
	mut       *query.MutationPlan
	// qprog is the compiled round map of a query/count member's plan; its
	// pointer doubles as the plan-identity key of the growing phase's
	// memoized grouping (mutations use mut.Prog instead).
	qprog *query.RoundProgram

	// row is the member-owned dense operation row (arena-backed copy).
	row rel.Row

	// Result sinks; exactly one is non-nil per kind.
	pb    *Pending[bool]
	pi    *Pending[int]
	pt    *Pending[[]rel.Tuple]
	yield func(rel.Row) bool

	// Growing-phase cursor: index into the member's compiled round
	// program (qprog for queries/counts, mut.Prog for mutations).
	cursor int
	wait   waitKind

	states  []*qstate   // query pipeline / remove victims / insert existence states
	xinst   []*Instance // insert's located instances per node
	specOut []*qstate   // survivors delivered by speculative resolution

	specReg      bool      // requests registered, resolution pending
	specResolved bool      // resolution delivered, cursor may consume it
	specFound    *Instance // locate-kind resolution result (inserts)

	count   int  // StepCount accumulator
	counted bool // count delivered by a StepCount terminal

	// ok is a mutation's staged outcome (computeMember). Every member
	// stages its result, and pendings resolve only after the commit point
	// (commit.go).
	ok bool
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

	// Optimistic reports that the batch was read-only and ran on the
	// optimistic row of the commit pipeline (commit.go). When
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
	// Escalations counts the shards whose demotable root the batch
	// escalated to Exclusive (query.Planner.KeyNode): in the growing
	// phase, on finding a key-node instance missing, or after an apply
	// phase that writes the root container. It is neither a validation
	// retry nor a fallback; the lock-schedule fields describe the
	// schedule after the last escalation.
	Escalations int

	// OCC reports that the batch was MIXED (mutations plus reads) and ran
	// on the optimistic row of the commit pipeline (commit.go): write
	// members' lock sets acquired exclusively in the global order
	// (filling Rounds/Requested/Acquired), read members lock-free with
	// their epochs in the read-set (filling EpochsRecorded/EpochsDistinct
	// on success), validation after the undo-logged apply. Attempts,
	// FellBack and the epoch counters mean the same as for a read-only
	// batch; when FellBack is set the lock-schedule fields describe the
	// pessimistic rerun instead.
	OCC bool
}

// traceMark is a point of a trace's lock schedule that a regrowth
// rewinds to: the zero mark drops the whole schedule.
type traceMark struct {
	rounds, requested, acquired, speculative, shared int
}

// mark returns the trace's current schedule point.
func (tr *BatchTrace) mark() traceMark {
	return traceMark{len(tr.Rounds), tr.Requested, tr.Acquired, tr.Speculative, tr.SharedAcquired}
}

// rewind drops the lock schedule recorded since m, which a regrowth
// records again.
func (tr *BatchTrace) rewind(m traceMark) {
	tr.Rounds = tr.Rounds[:m.rounds]
	tr.Requested, tr.Acquired, tr.Speculative, tr.SharedAcquired = m.requested, m.acquired, m.speculative, m.shared
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
// On an OptimisticCapable relation a group holding reads commits on the
// optimistic row of the commit pipeline (commit.go): exclusive locks for
// the write members only, lock-free epoch-validated reads for the rest,
// so a read-only group acquires zero physical locks on the conflict-free
// path and no group acquires more locks than its sequential
// decomposition.
func (r *Relation) Batch(fn func(tx *Txn) error) error {
	return runBatch(r.registry, r, fn, false)
}

// BatchReadOnly is Batch restricted to read-only groups: enqueueing a
// mutation fails with an error, making the zero-lock optimistic intent
// explicit in the API. Execution is identical to what Batch auto-detects
// for read-only groups — optimistic with pessimistic fallback when the
// relation is OptimisticCapable, plain pessimistic 2PL otherwise — so the
// results never depend on which path ran.
func (r *Relation) BatchReadOnly(fn func(tx *Txn) error) error {
	return runBatch(r.registry, r, fn, true)
}

// runBatch is the one entry of Relation.Batch and Registry.Batch (r nil)
// and their BatchReadOnly variants: latch, assemble, seal, commit, count.
// The two differ only in where the locks.Txn and the txnRes come from —
// the relation's buffer, or the registry pool — and in which counter
// cells the batch lands on.
func runBatch(g *Registry, r *Relation, fn func(tx *Txn) error, roOnly bool) error {
	// Representation latch, held shared across the whole batch — assembly,
	// commit AND the deferred release below (registered after the RUnlock,
	// so it runs before it) — keeping a migration cutover strictly ordered
	// against every in-flight batch (migrate.go).
	if g != nil {
		g.migrMu.RLock()
		defer g.migrMu.RUnlock()
	}
	var t *Txn
	if r != nil {
		b := r.getBuf()
		t = b.res.newTxn()
		t.rel, t.ltxn, t.ctr = r, b.txn, &r.ctr.batchCounters
		t.addShard(r, b)
	} else {
		rt := g.getTxn()
		t = rt.res.newTxn()
		t.ltxn, t.pooled, t.ctr = rt.lt, rt, &g.ctr
	}
	t.reg, t.roOnly = g, roOnly
	defer t.release()
	if err := fn(t); err != nil {
		t.sealed = true
		return err
	}
	t.sealed = true
	if len(t.order) == 0 {
		return nil
	}
	return t.commit()
}

// release is the shrinking phase: end-bump every shard's begin-bumped
// epoch cells while the locks are still held (optimistic readers must see
// the odd window span all writes, rolled-back ones included), release the
// whole transaction's locks, hand the emptied list backings back, restore
// each buffer's own locks.Txn and return the buffers to their relations'
// pools. Runs on panic too (after the commit pipeline's rollback).
func (t *Txn) release() {
	for _, sh := range t.shards {
		sh.b.finishEpochs()
	}
	t.ltxn.ReleaseAll()
	var res *txnRes
	if t.pooled != nil {
		res = &t.pooled.res
	} else {
		// Relation.Batch: res lives in the only shard's buffer, which the
		// loop below releases last, after its final write to the shards.
		res = &t.shards[0].b.res
	}
	clear(t.order)
	res.shards, res.order = t.shards[:0], t.order[:0]
	for i, sh := range t.shards {
		t.shards[i] = nil
		sh.b.txn = sh.own
		sh.r.putBuf(sh.b)
	}
	if t.pooled != nil {
		t.reg.txnPool.Put(t.pooled)
	}
}

// checkOpen guards against enqueueing outside the Batch callback.
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
// eligibility) and the global enqueue order.
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
	t.order = append(t.order, memberRef{sh: sh, idx: len(sh.b.members) - 1})
	return nm
}

// BatchMutation is the common interface of *PreparedInsert and
// *PreparedRemove for Txn.ExecRow.
type BatchMutation interface {
	batchEnqueue(t *Txn, row rel.Row) (*Pending[bool], error)
}

// batchEnqueue enqueues a prepared insert for the fully bound row x.
func (p *PreparedInsert) batchEnqueue(t *Txn, x rel.Row) (*Pending[bool], error) {
	return t.enqueueMutRow(p.r, shape{kind: mInsert, bound: p.bound}, x, p.r.fullMask)
}

// batchEnqueue enqueues a prepared remove for a row binding the key.
func (p *PreparedRemove) batchEnqueue(t *Txn, s rel.Row) (*Pending[bool], error) {
	return t.enqueueMutRow(p.r, shape{kind: mRemove, bound: p.bound}, s, p.bound)
}

// enqueueMutRow enqueues a prepared mutation of shape shp over r, whose
// row must bind exactly the columns of want.
func (t *Txn) enqueueMutRow(r *Relation, shp shape, row rel.Row, want uint64) (*Pending[bool], error) {
	if err := t.checkMutable(); err != nil {
		return nil, err
	}
	sh, err := t.shardFor(r)
	if err != nil {
		return nil, err
	}
	p, err := r.planFor(shp) // under the batch's representation latch
	if err != nil {
		return nil, err
	}
	if err := r.checkRow(row, want); err != nil {
		return nil, err
	}
	return t.enqueueMut(sh, shp.kind, p, sh.b.copyRow(row)), nil
}

// enqueueMut enqueues a mutation member running plan p over row, which
// the member owns from here on.
func (t *Txn) enqueueMut(sh *txnShard, kind memberKind, p *opPlan, row rel.Row) *Pending[bool] {
	pb := sh.b.newPB()
	m := t.newMember(sh, kind)
	if kind == mInsert {
		m.ins = p
	}
	m.mut, m.row, m.pb = p.mut, row, pb
	return pb
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
	plan, err := q.countPlan() // under the batch's representation latch
	if err != nil {
		return nil, err
	}
	if err := q.r.checkRow(s, q.bound); err != nil {
		return nil, err
	}
	return t.enqueueCount(sh, plan, sh.b.copyRow(s)), nil
}

// enqueueCount enqueues a count member running plan over row, which the
// member owns from here on.
func (t *Txn) enqueueCount(sh *txnShard, plan *query.Plan, row rel.Row) *Pending[int] {
	pi := sh.b.newPI()
	m := t.newMember(sh, mCount)
	m.steps, m.boundMask, m.qprog = plan.Steps, plan.BoundMask, plan.Prog
	m.row, m.pi = row, pi
	return pi
}

// ExecRows enqueues a prepared query over a schema-indexed row; yield is
// invoked once per matching row at commit time, under the batch's locks,
// until it returns false. Yields run before the commit point: a yield
// that panics rolls the batch back, and a yielded row belongs to the
// batch only if Batch returns nil (a commit-logger error after the yields
// rolls it back too). Yielded rows are only valid during the callback
// (their storage is pooled).
func (t *Txn) ExecRows(q *PreparedQuery, s rel.Row, yield func(rel.Row) bool) error {
	sh, err := t.shardFor(q.r)
	if err != nil {
		return err
	}
	plan, err := q.plan() // under the batch's representation latch
	if err != nil {
		return err
	}
	if err := q.r.checkRow(s, q.bound); err != nil {
		return err
	}
	m := t.enqueueQuery(sh, plan, sh.b.copyRow(s))
	m.yield = yield
	return nil
}

// enqueueQuery enqueues a query member running plan over row, which the
// member owns from here on; the caller sets its result sink.
func (t *Txn) enqueueQuery(sh *txnShard, plan *query.Plan, row rel.Row) *member {
	m := t.newMember(sh, mQuery)
	m.steps, m.boundMask, m.qprog = plan.Steps, plan.BoundMask, plan.Prog
	m.outIdx, m.outCols, m.row = plan.OutIdx, plan.OutCols, row
	return m
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
	shp, row, err := sh.r.insertRow(s, tup)
	if err != nil {
		return nil, err
	}
	p, err := sh.r.planFor(shp)
	if err != nil {
		return nil, err
	}
	return t.enqueueMut(sh, mInsert, p, row), nil
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
	p, row, err := sh.r.planTuple(mRemove, s, nil)
	if err != nil {
		return nil, err
	}
	return t.enqueueMut(sh, mRemove, p, row), nil
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
	p, row, err := sh.r.planTuple(mCount, s, nil)
	if err != nil {
		return nil, err
	}
	return t.enqueueCount(sh, p.q, row), nil
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
	p, row, err := sh.r.planTuple(mQuery, s, out)
	if err != nil {
		return nil, err
	}
	pt := &Pending[[]rel.Tuple]{}
	t.enqueueQuery(sh, p.q, row).pt = pt
	return pt, nil
}

// planTuple returns the plan of the kind's operation binding the columns
// of s (and, for a query, projecting out) and s as a fresh row. The
// caller holds the representation latch.
func (r *Relation) planTuple(kind memberKind, s rel.Tuple, out []string) (*opPlan, rel.Row, error) {
	p, err := r.planNamed(kind, s.Dom(), out)
	if err != nil {
		return nil, rel.Row{}, err
	}
	row, err := r.schema.RowFromTuple(s, nil)
	if err != nil {
		return nil, rel.Row{}, err
	}
	return p, row, nil
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
		m.cursor, m.wait = 0, wNone
		m.count, m.counted = 0, false
		m.ok = false
		m.specReg, m.specResolved, m.specFound = false, false, nil
		switch m.kind {
		case mQuery, mCount:
			if b.occ {
				// Optimistic row: read members sit the growing phase out
				// entirely — their lock and speculative steps divert into
				// the read-set when the lock-free read (commit.go) runs
				// them after the write locks are held.
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
}

// growBatch runs the growing phase for one relation's members: per-node
// rounds that pool speculative resolutions and coalesce lock requests. In
// a registry transaction the shards' growing phases run in relation-id
// order on one shared locks.Txn, so the acquisitions of the whole batch
// follow the global (relation, node, inst, stripe) order.
//
// A member that finds its key-node instance missing under a demotable
// root held Shared or recorded escalates the shard (MRoundEscalate). That
// happens in the key node's sweep, before its lock set is acquired, so
// the root is still the shard's only held lock and the most recently
// acquired one: the shard abandons it and grows again from the root,
// which it now takes exclusively and re-locates under. Nothing was
// written and nothing rolls back.
func (r *Relation) growBatch(t *Txn, b *opBuf) {
	var mark traceMark
	if t.trace != nil {
		mark = t.trace.mark()
	}
	for !r.growRounds(t, b) {
		if l := r.root.lock(0); b.txn.Holds(l) {
			b.txn.Abandon(l)
		}
		if hook := rootEscalateHook; hook != nil {
			hook(r.name)
		}
		b.escalate, b.rootX = false, true
		b.rootRead = locks.ReadEntry{}
		b.reads.Reset()
		t.noteEscalation(r)
		if t.trace != nil {
			t.trace.rewind(mark)
		}
		r.initBatchMembers(b)
	}
}

// rootEscalateHook, when non-nil, runs when a shard of relation relName
// escalates its root in the growing phase, after the abandoned root is
// released and before the shard grows again. Tests use it to commit a
// conflicting batch in that window deterministically.
var rootEscalateHook func(relName string)

// growRounds runs one pass of the growing phase, reporting false when a
// member raised b.escalate; the key node's lock set is then discarded.
func (r *Relation) growRounds(t *Txn, b *opBuf) bool {
	nNodes := len(r.decomp.Nodes)
	b.collect = &b.set
	b.buildGroups()
	for v := 0; v < nNodes; v++ {
		for {
			progress := false
			// Members sweep in plan-identity groups: same-plan members
			// advance back to back, so their per-node lock and spec
			// contributions merge while round-hot data stays cached. The
			// coalescing set and the sorted spec waves make the order
			// trace-invariant.
			for _, mi := range b.groupOrder {
				if r.advanceMember(b, &b.members[mi], v) {
					progress = true
				}
			}
			if len(b.specs) > 0 {
				r.resolveBatchSpecs(t, b)
				progress = true
			}
			if b.escalate {
				b.set.Reset()
				b.collect = nil
				return false
			}
			if b.set.Len() > 0 {
				req := b.set.Requested()
				prev := b.txn.HeldCount()
				b.txn.AcquireSet(&b.set)
				if t.trace != nil { // the label concatenation allocates
					t.recordRound(b, r.traceLabel(r.decomp.Nodes[v].Name), req, prev, false)
				}
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
	return true
}

// noteEscalation counts one escalation of r's demotable root.
func (t *Txn) noteEscalation(r *Relation) {
	r.ctr.rootEscalations.Add(1)
	if t.trace != nil {
		t.trace.Escalations++
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
