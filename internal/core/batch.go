package core

import (
	"fmt"
	"math/bits"

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
//     locks, through the code single operations run: queries and counts
//     walk their plans straight through (exec.go's walk) on the member's
//     own arrays, inserts and removes run the one insert/remove body
//     (mutate.go) on the buffer's pair. The buffer's apply mode (b.apply)
//     makes lock steps and lock directives do nothing and speculative
//     accesses plain lookups and scans: every pre-existing instance a
//     member can reach was locked during the growing phase (container
//     contents only change through this batch's own writes), and
//     instances created by earlier members are private to the
//     transaction. Re-execution gives the batch sequential semantics —
//     each member observes the effects of the members before it — and an
//     undo log makes the mutation suffix all-or-nothing if an invariant
//     violation panics mid-apply.
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
// only — it is the one-shard case; one built by Registry.Batch accepts
// members against any relation registered in the registry, grouped into
// per-relation shards that share a single locks.Txn. Every commit body
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
	hasRead  bool       // the shard holds at least one query/count member (OCC eligibility)
	mark     int        // OCC state-pool floor: write members' retained states end here (occ.go)
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
// relation id — the order every commit body walks.
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

	// Apply-phase staging (computeMember/deliverMember): ok is a
	// mutation's staged outcome. Staging lets the OCC commit (occ.go)
	// compute every member's result under undo logging and deliver —
	// resolve pendings, run yields — only after the read-set validates.
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
	if t.readOnly() {
		if t.commitReadOnly() {
			t.noteBatch(true, false)
			return nil
		}
	} else if ok, err := t.commitOCC(); ok || err != nil {
		if ok && err == nil {
			t.noteBatch(false, true)
		}
		return err
	}
	if err := t.commit2PL(); err != nil {
		return err
	}
	t.noteBatch(false, false)
	return nil
}

// release is the shrinking phase: end-bump every shard's begin-bumped
// epoch cells while the locks are still held (optimistic readers must see
// the odd window span all writes, rolled-back ones included), release the
// whole transaction's locks, hand the emptied list backings back, restore
// each buffer's own locks.Txn and return the buffers to their relations'
// pools. Runs on panic too (after the commit body's rollback).
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
// until it returns false. Yielded rows are only valid during the
// callback (their storage is pooled).
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

// commit2PL executes an assembled transaction under two-phase locking:
// shard growing phases in relation-id order on the shared locks.Txn,
// then one apply phase replaying every member in global enqueue order
// under a shared undo log. With a commit logger attached the batch's redo
// record is appended after the apply phase completes, still under every
// held lock; a logging failure rolls the whole batch back and is returned
// from Batch.
func (t *Txn) commit2PL() error {
	for _, sh := range t.shards {
		sh.r.initBatchMembers(sh.b)
	}
	for _, sh := range t.shards {
		sh.r.growBatch(t, sh.b)
	}

	// Apply phase: one undo log spans all shards, so a panic in any
	// member's apply unwinds the writes of EVERY relation before the
	// locks are released — cross-relation all-or-nothing.
	undo := t.armUndo()
	defer t.disarmUndo(undo)
	for pos, ref := range t.order {
		if registryApplyHook != nil {
			registryApplyHook(ref.sh.r.name, pos)
		}
		ref.sh.r.applyMember(ref.sh.b, &ref.sh.b.members[ref.idx], ref.idx, ref.sh.firstMut)
	}
	// Commit point: the batch is fully applied, its locks are still held.
	// Logging now makes the log order of conflicting batches their
	// serialization order; failure unwinds through the same undo log a
	// mid-apply panic would use.
	if err := t.logCommit(); err != nil {
		undo.rollback()
		return err
	}
	return nil
}

// armUndo enters every shard's apply phase under one shared undo log: the
// first shard's buffer-resident undoPool, emptied (a stack undoLog would
// escape through b.undo and regrow its records every batch). Callers
// clear its records on every exit.
func (t *Txn) armUndo() *undoLog {
	undo := &t.shards[0].b.undoPool
	undo.recs = undo.recs[:0]
	for _, sh := range t.shards {
		sh.b.apply = true
		sh.b.undo = undo
	}
	return undo
}

// disarmUndo leaves the apply phase armed by armUndo. On a panic it rolls
// the undo log back before the locks are released and re-panics;
// otherwise it empties the log's records.
func (t *Txn) disarmUndo(undo *undoLog) {
	for _, sh := range t.shards {
		sh.b.undo = nil
		sh.b.apply = false
	}
	if p := recover(); p != nil {
		undo.rollback()
		panic(p)
	}
	clear(undo.recs)
	undo.recs = undo.recs[:0]
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
}

// growBatch runs the growing phase for one relation's members: per-node
// rounds that pool speculative resolutions and coalesce lock requests. In
// a registry transaction the shards' growing phases run in relation-id
// order on one shared locks.Txn, so the acquisitions of the whole batch
// follow the global (relation, node, inst, stripe) order.
func (r *Relation) growBatch(t *Txn, b *opBuf) {
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
		if !reuse {
			r.runMember(b, m)
		}
	case mCount:
		switch {
		case reuse && m.counted:
			// m.count already holds the growing/read-phase result.
		case reuse:
			m.count, m.counted = len(m.states), true
		default:
			r.runMember(b, m)
		}
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
			m.ok = r.insert(b, m.ins, m.row)
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
			m.ok = r.remove(b, m.mut, m.row)
		}
	}
}

// runMember walks a query or count member's plan straight through on the
// member's own arrays, outside the growing phase: the apply phase's
// re-execution (b.apply) and the optimistic read phase (b.optimistic). A
// query member keeps its final states; a count member stores its count
// and drops its states.
func (r *Relation) runMember(b *opBuf, m *member) {
	n := r.walk(b, m.steps, m.row, m.boundMask, &m.states, &m.specOut)
	if m.kind == mCount {
		m.count, m.counted = n, true
		m.states = m.states[:0]
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
	case mCount:
		m.pi.set(m.count)
	case mInsert, mRemove:
		m.pb.set(m.ok)
	}
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

// rollback restores every displaced binding in reverse order. The recorded
// keys are carved from the operation's arena, which outlives the rollback
// (it runs before the buffer is released); a re-inserting write stores
// its own copy.
func (u *undoLog) rollback() {
	for i := len(u.recs) - 1; i >= 0; i-- {
		rec := u.recs[i]
		if rec.had {
			rec.c.Write(rec.key, rec.old)
		} else {
			rec.c.Write(rec.key, nil)
		}
	}
	clear(u.recs)
	u.recs = u.recs[:0]
}
