package core

import (
	"repro/internal/locks"
	"repro/internal/rel"
)

// opBuf bundles everything one executing operation needs — the two-phase
// transaction, the query-state pool, the key arena and assorted scratch
// slices — so that a steady-state operation performs no heap allocation
// beyond what containers themselves do. Buffers are pooled per Relation
// (widths depend on the schema and decomposition), checked out by getBuf
// at the start of an operation or batch and returned by putBuf, whose
// ReleaseAll is the shrinking phase of every transaction.
//
// Ownership rules, which the batch executor (batch.go) leans on:
//
//   - qstates come from the `all` pool and stay owned by the buffer; a
//     state handed out remains valid until putBuf, so batch members may
//     retain their final state lists across the whole transaction;
//   - pipe and spare are ping-pong ARRAYS for state lists, not state
//     owners: a scan builds its output on spare and donates its input
//     array back, and the executor's steps swap the two through pointers
//     (walk, execStep), so they never alias. Single operations and a
//     batch's apply-phase insert/remove re-executions run on this pair and
//     retain nothing; batch members run their reads on member-owned
//     arrays (states, specOut) instead, so a member's retained states
//     never share an array with the pair or another member;
//   - keys carved from the arena (keyOf/carve) live until putBuf; they
//     may be written into containers, which copy the keys they store
//     (container.Map.Write).
type opBuf struct {
	txn *locks.Txn

	// all is every qstate this buffer ever allocated; n is how many are
	// handed out to the current operation. Rows and instance arrays have
	// fixed width, so recycling a state is a mask clear plus a memclr.
	all []*qstate
	n   int

	// pipe and spare are the two backing arrays the step pipeline
	// ping-pongs between: a scan fills spare and the incoming list's
	// array becomes the new spare. After a single operation's walk, pipe
	// holds its final states until putBuf.
	pipe  []*qstate
	spare []*qstate

	// karena backs the operation's container keys (lookups, inserts,
	// removals, stripe sorts). It is recycled across operations, which is
	// safe because containers copy the keys they store.
	karena []rel.Value

	// lockBatch, instScratch, seen and reqs are per-step scratch.
	lockBatch   []*locks.Lock
	instScratch []*Instance
	seen        map[*Instance]bool
	reqs        []specReq
	xinst       []*Instance

	// Batched-transaction mode (batch.go). collect, when non-nil, diverts
	// lock-step acquisition into a coalescing LockSet instead of taking
	// the locks immediately (the growing phase of a batch). apply marks
	// the batch's apply phase: every lock the batch needs is already
	// held, so lock steps are skipped and speculative accesses degrade to
	// plain lookups/scans. fresh tracks instances created by the running
	// batch (private until release; consulted by the auditor), and undo
	// logs container writes for all-or-nothing rollback.
	collect *locks.LockSet
	apply   bool
	fresh   map[*Instance]bool
	undo    *undoLog

	// Batch slabs, pooled with the buffer: the member list a Txn enqueues
	// into, the pending speculative requests of the current scheduler
	// round, the coalescing lock set, and the arena backing member-owned
	// copies of operation rows. (The Txn handle itself is deliberately
	// NOT pooled; see Relation.Batch.)
	members  []member
	specs    []batchSpecReq
	set      locks.LockSet
	rowArena []rel.Value

	// Optimistic read protocol state (readonly.go). bumped lists the epoch
	// cells this operation begin-bumped before its first write under each
	// (beginWriteEpochs); finishEpochs end-bumps them just before the
	// shrinking phase. optimistic marks a lock-free read-only attempt:
	// lock steps record epochs into reads instead of acquiring, and
	// speculative accesses degrade to recorded plain lookups.
	bumped     []*locks.Lock
	optimistic bool
	reads      locks.ReadSet

	// occ marks a batch on the optimistic row of the commit pipeline
	// (commit.go): write members run the growing phase (exclusive locks
	// only), read members run lock-free with epoch records, and the
	// commit point waits for the read-set to validate. While occ is set
	// the well-lockedness auditor accepts EITHER a held lock or a recorded
	// epoch as coverage.
	occ bool

	// Growing-phase scheduler state (rounds.go). groupKey/groupOrder
	// memoize the plan-identity grouping of the member list across batches
	// (groupKey[i] is member i's program pointer); specIdx holds the
	// per-node index buckets of the speculative resolution; undoPool is the
	// buffer-resident apply-phase undo log (a stack undoLog escapes through
	// b.undo, so reusing this one saves an allocation per batch — registry
	// batches share their first shard's).
	groupKey   []any
	groupOrder []int32
	specIdx    [][]int32
	undoPool   undoLog

	// Demotable root (rounds.go, commit.go; Relation.keyNode). rootX
	// records that the batch takes this shard's root exclusively: it
	// escalated, in the growing phase or after a late root write, and
	// keeps the root exclusive to the end. Until then the write members
	// hold the root Shared (2PL row) or record its epoch once in rootRead
	// (optimistic row), which every attempt's read-set carries again.
	// escalate is raised by a member that found the batch writing the
	// root container under such a hold: a missing key-node instance in
	// the growing phase (MRoundEscalate) or the apply phase (insertWrite),
	// or a key-node instance still empty at the end of the apply phase.
	// unlinks holds the states whose removal emptied a key-node instance
	// in the apply phase: the instance stays linked until sweepUnlinks,
	// hidden from reads while it is empty (exec.go walk, countAt).
	rootX    bool
	escalate bool
	rootRead locks.ReadEntry
	unlinks  []*qstate

	// scan/scanFn are the cached scan visitor and its per-call parameter
	// block (exec.go execScan): one closure allocation per buffer
	// lifetime instead of one per scanned state.
	scan   scanCtx
	scanFn func(k rel.Key, v any) bool

	// pbSlab/piSlab chunk-allocate Pending handles (batch.go newPB/newPI);
	// they persist across batches, so a slab's already-handed-out prefix
	// stays untouched while later batches keep filling the tail.
	pbSlab []Pending[bool]
	piSlab []Pending[int]

	// shard is this buffer's slice of the batch it serves — the only
	// shard of a Relation.Batch, one of a Registry.Batch's — and res the
	// Relation.Batch transaction's Txn slab and list backings. Both are
	// recycled across batches; every path from a leaked *Txn to them is
	// behind the sealed check.
	shard txnShard
	res   txnRes
}

// specReq pairs a state with its speculative target key so acquisitions
// can be ordered by target (§4.5 + §5.1).
type specReq struct {
	st     *qstate
	target rel.Key
}

// getBuf fetches a pooled buffer with a reset transaction.
func (r *Relation) getBuf() *opBuf {
	b, _ := r.bufPool.Get().(*opBuf)
	if b == nil {
		b = &opBuf{txn: locks.NewTxn()}
	}
	b.txn.Reset()
	return b
}

// finishEpochs end-bumps every epoch cell the operation begin-bumped,
// restoring evenness. It must run while the locks are still held — after
// any undo-log rollback, before the shrinking phase — so the odd window
// covers every write the operation performed, including rolled-back ones.
func (b *opBuf) finishEpochs() {
	for i, l := range b.bumped {
		l.BumpEpoch()
		b.bumped[i] = nil
	}
	b.bumped = b.bumped[:0]
}

// putBuf releases the operation's locks and returns the buffer to the
// pool. The shrinking phase (release every lock, reverse order) lives
// here, mirroring the implicit unlock suffix of every compiled plan.
func (r *Relation) putBuf(b *opBuf) {
	b.finishEpochs()
	b.txn.ReleaseAll()
	b.n = 0
	if len(b.all) > 4096 {
		// Bound pool growth after huge scans: copy into a fresh backing
		// array and drop the pipeline lists so the trimmed states (and
		// the values their rows hold) really become collectable.
		b.all = append(make([]*qstate, 0, 4096), b.all[:4096]...)
		b.pipe, b.spare = nil, nil
	}
	clear(b.karena)
	b.karena = b.karena[:0]
	// Every reqs/specs consumer clears its used prefix before truncating,
	// so only panic leftovers (len > 0) can hold stale pointers here — a
	// length-only clear suffices, not a capacity sweep.
	clear(b.reqs)
	b.reqs = b.reqs[:0]
	clear(b.seen) // b.seen is normally clean; a recovered panic mid-dedup must not leak entries
	b.collect = nil
	b.apply = false
	b.fresh = nil
	b.undo = nil
	for i := range b.members {
		b.members[i].reset()
	}
	b.members = b.members[:0]
	clear(b.specs)
	b.specs = b.specs[:0]
	b.set.Reset()
	clear(b.rowArena)
	b.rowArena = b.rowArena[:0]
	b.optimistic = false
	b.occ = false
	b.reads.Reset()
	b.rootX, b.escalate, b.rootRead = false, false, locks.ReadEntry{}
	clear(b.unlinks)
	b.unlinks = b.unlinks[:0]
	// groupKey/groupOrder persist: they memoize the plan-identity grouping
	// and are revalidated against the member list before every use.
	for i := range b.specIdx {
		b.specIdx[i] = b.specIdx[i][:0] // normally empty; a recovered panic mid-wave must not leak indices
	}
	r.bufPool.Put(b)
}

// state hands out a cleared query state.
func (b *opBuf) state(r *Relation) *qstate {
	if b.n < len(b.all) {
		st := b.all[b.n]
		b.n++
		st.row.ClearMask()
		clear(st.insts)
		return st
	}
	st := &qstate{row: r.schema.NewRow(), insts: make([]*Instance, len(r.decomp.Nodes))}
	b.all = append(b.all, st)
	b.n++
	return st
}

// clone hands out a copy of st.
func (b *opBuf) clone(r *Relation, st *qstate) *qstate {
	ns := b.state(r)
	ns.row.CopyFrom(st.row)
	copy(ns.insts, st.insts)
	return ns
}

// rootState builds the initial query state: the operation row narrowed to
// mask, with the root instance located.
func (b *opBuf) rootState(r *Relation, op rel.Row, mask uint64) *qstate {
	st := b.state(r)
	st.row.CopyFrom(op)
	st.row.SetMask(mask)
	st.insts[r.decomp.Root.Index] = r.root
	return st
}

// carve reserves n value slots in the key arena. When the arena is full a
// fresh one is allocated; previously carved keys keep referencing the old
// array, which stays alive until the operation ends.
func (b *opBuf) carve(n int) []rel.Value {
	if len(b.karena)+n > cap(b.karena) {
		c := 2 * cap(b.karena)
		if c < 64 {
			c = 64
		}
		if c < n {
			c = n
		}
		b.karena = make([]rel.Value, 0, c)
	}
	off := len(b.karena)
	b.karena = b.karena[:off+n]
	return b.karena[off : off+n : off+n]
}

// keyOf gathers a container key from row values at idx. The key lives in
// the arena: valid for the rest of the operation; a container it is
// written into stores its own copy.
func (b *opBuf) keyOf(row rel.Row, idx []int) rel.Key {
	kv := b.carve(len(idx))
	for i, ci := range idx {
		kv[i] = row.At(ci)
	}
	return rel.KeyOver(kv)
}
