// Package locks implements the locking substrate of §§4.2–4.5 and §5.1 of
// "Concurrent Data Representation Synthesis" (PLDI 2012): physical
// shared/exclusive locks attached to decomposition node instances, a global
// total lock order guaranteeing deadlock freedom, a two-phase-locking
// transaction tracker, and lock placements (including striped and
// speculative placements) mapping the logical lock of every decomposition
// edge instance onto a physical lock.
package locks

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rel"
)

// Mode is the access mode of a lock: Shared for transactions that observe
// the state of protected edges, Exclusive for transactions that change it
// (§4.2).
type Mode int

const (
	// Shared access permits concurrent holders.
	Shared Mode = iota
	// Exclusive access excludes all other holders.
	Exclusive
)

// String renders the mode as "shared" or "exclusive".
func (m Mode) String() string {
	if m == Exclusive {
		return "exclusive"
	}
	return "shared"
}

// ID identifies a physical lock and defines the global total order of
// §5.1, extended registry-wide: first the registering relation's id, then
// a topological sort of the decomposition nodes the locks belong to, then
// the lexicographic order of the node-instance key, then the stripe
// number. Cross-relation transactions acquire in this order, so the
// deadlock-freedom argument of §5.1 carries over to batches spanning any
// set of registered relations.
type ID struct {
	// Rel is the id the registry assigned the relation at Synthesize time
	// (0 for relations synthesized outside a registry, which never share a
	// transaction).
	Rel int
	// Node is the topological index of the decomposition node.
	Node int
	// Inst is the node-instance key: the valuation of the node's bound
	// columns A in sorted column order (empty for the root).
	Inst rel.Key
	// Stripe is the index of the physical lock within the instance's
	// stripe array (§4.4).
	Stripe int
}

// CompareIDs orders lock IDs by (Rel, Node, Inst, Stripe).
func CompareIDs(a, b ID) int {
	switch {
	case a.Rel != b.Rel:
		if a.Rel < b.Rel {
			return -1
		}
		return 1
	case a.Node != b.Node:
		if a.Node < b.Node {
			return -1
		}
		return 1
	}
	if c := rel.CompareKeys(a.Inst, b.Inst); c != 0 {
		return c
	}
	switch {
	case a.Stripe < b.Stripe:
		return -1
	case a.Stripe > b.Stripe:
		return 1
	default:
		return 0
	}
}

// String renders the ID as "node3(1, "a")#0", prefixed "rel1." when the
// lock belongs to a registered relation.
func (id ID) String() string {
	if id.Rel != 0 {
		return fmt.Sprintf("rel%d.node%d%s#%d", id.Rel, id.Node, id.Inst, id.Stripe)
	}
	return fmt.Sprintf("node%d%s#%d", id.Node, id.Inst, id.Stripe)
}

// Lock is a physical lock: a shared/exclusive mutex, the epoch cell of
// the optimistic read protocol, and its place in the global order — a
// pointer to the identity header its whole stripe array shares plus its
// stripe number. Locks live in an Array and must not be copied after
// first use.
type Lock struct {
	mu sync.RWMutex
	// epoch is the seqlock-style version cell read-only transactions
	// validate against instead of taking the lock shared (readset.go). It
	// is only ever modified by a transaction holding the lock exclusively:
	// +1 before the holder's first protected write (odd = write in flight),
	// +1 again before the lock is released (even = quiescent). A lock-free
	// reader therefore observed a stable state iff the epoch it recorded
	// before reading is even and unchanged when it validates.
	epoch  atomic.Uint64
	hdr    *header
	stripe int32
}

// header is the identity one stripe array's locks share, built once per
// array: the order word of (rel, node, inst) and, only when that word is
// not exact, the order-preserving encoding of the same triple. Comparing
// two words as integers agrees with CompareIDs wherever the words differ
// (see orderWord); two exact words tie only for one identity, and a tie of
// inexact words is settled by strings.Compare of the two prefixes. In the
// prefix, Rel and Node are 4-byte big-endian fields, and Inst uses the rel
// package's ordered value encoding, which is self-delimiting, so two
// prefixes of the same node never stand in a proper-prefix relation.
type header struct {
	word uint64
	// prefix is nil when word is exact.
	prefix *string
}

// Array is the stripe array of physical locks carried by one node
// instance (§4.4): n locks ordered consecutively at (rel, node, inst,
// 0..n-1). Stripe 0 is stored inline, so the common one-stripe array is
// a single fixed-size value a node instance can embed; further stripes
// share one slab, reached through a pointer so that a one-stripe array
// pays for no slice header. An Array must not be copied after Init.
type Array struct {
	hdr  header
	head Lock
	tail *[]Lock
}

// The order word packs a lock identity's (rel, node, inst) into 64 bits,
// most significant first: the relation id in relBits, the node's
// topological index in nodeBits, the number of bound columns in
// arityBits, then one rel.FieldCode per bound column, each
// WordFieldBits(arity) wide, with any bits left over zero. A relation id,
// node or arity at or above its field's top code takes that code and is
// not exact. Every field after the first inexact one is zero, so the word
// orders identities by their exact leading fields and ties wherever those
// cannot decide; it is exact when every field is. Its law, the order
// word's of the rel package:
//
//	word(a) < word(b)  ⇒  CompareIDs(a, b) < 0   (ignoring stripes)
//
// and an exact word belongs to one identity only, since no inexact field
// code equals an exact one.
const (
	relBits   = 10
	nodeBits  = 6
	arityBits = 3
	keyBits   = 64 - relBits - nodeBits - arityBits
)

// WordFieldBits returns the width of each bound-column field in the order
// word of a node instance with arity bound columns: the 45 key bits split
// evenly, or 0 when the word holds no column — the root binds none, and
// an arity of 7 or more saturates the arity field.
func WordFieldBits(arity int) int {
	if arity <= 0 || arity >= 1<<arityBits-1 {
		return 0
	}
	return keyBits / arity
}

// wordBuilder fills an order word from its most significant field down.
type wordBuilder struct {
	w     uint64
	free  uint // low bits not yet filled
	exact bool // every field so far is exact
}

// put appends a field unless an earlier field was inexact.
func (b *wordBuilder) put(code uint64, width uint, exact bool) {
	if !b.exact {
		return
	}
	b.free -= width
	b.w |= code << b.free
	b.exact = exact
}

// id appends the non-negative id x, saturated at the field's top code.
func (b *wordBuilder) id(x int, width uint) {
	top := uint64(1)<<width - 1
	if x < 0 || uint64(x) >= top {
		b.put(top, width, false)
		return
	}
	b.put(uint64(x), width, true)
}

// orderWord returns the order word of (relID, node, the values of inst at
// idx) and whether it is exact.
func orderWord(relID, node int, inst rel.Row, idx []int) (uint64, bool) {
	b := wordBuilder{free: 64, exact: true}
	b.id(relID, relBits)
	b.id(node, nodeBits)
	b.id(len(idx), arityBits)
	bits := uint(WordFieldBits(len(idx)))
	for _, i := range idx {
		if !b.exact {
			break
		}
		code, exact := rel.FieldCode(inst.At(i), bits)
		b.put(code, bits, exact)
	}
	return b.w, b.exact
}

// appendIDPrefix appends the encoding of (relID, node) that begins every
// lock identity prefix; the instance key's ordered encoding follows it.
func appendIDPrefix(dst []byte, relID, node int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(relID))
	return binary.BigEndian.AppendUint32(dst, uint32(node))
}

// Init sets up a as the n-stripe array of the node instance (relID, node,
// the values of inst at the schema indices idx, in the node's sorted
// bound-column order). Init runs on the insert hot path, once per new
// lock-bearing node instance. An identity whose order word is exact
// allocates nothing; any other allocates its prefix string and the
// pointer to it. When n > 1 the slab and its slice header follow.
func (a *Array) Init(relID, node int, inst rel.Row, idx []int, n int) {
	w, exact := orderWord(relID, node, inst, idx)
	a.hdr.word = w
	if !exact {
		var pbuf [64]byte
		p := string(inst.AppendOrderedAt(appendIDPrefix(pbuf[:0], relID, node), idx))
		a.hdr.prefix = &p
	}
	a.head.hdr = &a.hdr
	if n > 1 {
		tail := make([]Lock, n-1)
		for i := range tail {
			tail[i].hdr = &a.hdr
			tail[i].stripe = int32(i + 1)
		}
		a.tail = &tail
	}
}

// ExactID reports whether the array's identity is an exact order word,
// with no prefix string behind it.
func (a *Array) ExactID() bool { return a.hdr.prefix == nil }

// Len returns the number of stripes.
func (a *Array) Len() int {
	if a.tail == nil {
		return 1
	}
	return 1 + len(*a.tail)
}

// Lock returns stripe i.
func (a *Array) Lock(i int) *Lock {
	if i == 0 {
		return &a.head
	}
	return &(*a.tail)[i-1]
}

// ID rebuilds the lock's identity from its array's order word when that
// is exact, else from the prefix. Only diagnostics (panics, String,
// traces and the auditor) need it; the instance key comes back with int
// and int64 values as int64, which CompareIDs treats as equal.
func (l *Lock) ID() ID {
	if l.hdr.prefix == nil {
		return decodeWord(l.hdr.word, int(l.stripe))
	}
	p := []byte(*l.hdr.prefix)
	inst, err := rel.DecodeOrderedKey(p[8:])
	if err != nil {
		panic(fmt.Sprintf("locks: corrupt lock identity prefix: %v", err))
	}
	return ID{
		Rel:    int(binary.BigEndian.Uint32(p[0:4])),
		Node:   int(binary.BigEndian.Uint32(p[4:8])),
		Inst:   inst,
		Stripe: int(l.stripe),
	}
}

// decodeWord inverts orderWord on an exact word.
func decodeWord(w uint64, stripe int) ID {
	free := uint(64)
	next := func(width uint) uint64 {
		free -= width
		return w >> free & (1<<width - 1)
	}
	id := ID{Rel: int(next(relBits)), Node: int(next(nodeBits)), Stripe: stripe}
	vals := make([]rel.Value, next(arityBits))
	bits := uint(WordFieldBits(len(vals)))
	for i := range vals {
		vals[i] = rel.FieldValue(next(bits), bits)
	}
	id.Inst = rel.NewKey(vals...)
	return id
}

// Epoch returns the lock's epoch cell. Even values mean no protected write
// is in flight; see Lock.epoch and ReadSet.
func (l *Lock) Epoch() uint64 { return l.epoch.Load() }

// EpochOdd reports whether a protected write is in flight under this lock
// (the epoch cell's begin-bump has happened but not its end-bump).
func (l *Lock) EpochOdd() bool { return l.epoch.Load()&1 == 1 }

// BumpEpoch increments the epoch cell by one. The caller must hold the
// lock exclusively — the cell is a seqlock sequence word, and only the
// exclusive holder may move it — and must bump an even number of times in
// total before releasing: once before its first protected write (marking
// the write in flight) and once when done (restoring evenness). The
// executor in internal/core pairs the bumps around every mutation's write
// phase, including undo-log rollback.
func (l *Lock) BumpEpoch() { l.epoch.Add(1) }

// compareLocks orders two locks as CompareIDs orders their identities:
// stripes of one array by stripe number alone; locks of different arrays
// by their order words, one integer comparison; and only when the words
// tie — both inexact, or one exact identity in two arrays — by their
// prefixes, then by stripe.
func compareLocks(a, b *Lock) int {
	if ha, hb := a.hdr, b.hdr; ha != hb {
		if ha.word != hb.word {
			return cmp.Compare(ha.word, hb.word)
		}
		if ha.prefix != nil {
			if c := strings.Compare(*ha.prefix, *hb.prefix); c != 0 {
				return c
			}
		}
	}
	return cmp.Compare(a.stripe, b.stripe)
}

func (l *Lock) lock(m Mode) {
	if m == Exclusive {
		l.mu.Lock()
	} else {
		l.mu.RLock()
	}
}

func (l *Lock) unlock(m Mode) {
	if m == Exclusive {
		l.mu.Unlock()
	} else {
		l.mu.RUnlock()
	}
}

// Txn tracks the physical locks held by one transaction and enforces the
// protocol that makes transactions serializable and deadlock-free by
// construction:
//
//   - two-phase (§4.2): all acquisitions precede all releases; acquiring
//     after ReleaseAll panics (it is a compiler bug, not a user error);
//   - ordered (§5.1): every acquisition must be for a lock strictly after
//     every currently held lock in the global ID order, except for
//     re-acquisition of an already-held lock, which is deduplicated;
//   - speculative acquisitions (§4.5) may be individually abandoned
//     (released) before being relied upon, which is the one permitted
//     departure from physical two-phasedness; the paper shows the
//     transaction is still logically two-phase.
type Txn struct {
	// held is sorted ascending by lock ID (ordered acquisition maintains
	// this), so membership tests are binary searches and no auxiliary set
	// is needed.
	held      []heldLock
	shrinking bool
}

type heldLock struct {
	l    *Lock
	mode Mode
}

// NewTxn returns an empty transaction.
func NewTxn() *Txn {
	return &Txn{}
}

// Reset returns the transaction to its initial state (retaining the held
// buffer) so it can be pooled. All locks must have been released.
func (t *Txn) Reset() {
	if len(t.held) != 0 {
		panic("locks: Reset with locks still held")
	}
	t.shrinking = false
}

// maxHeld returns the largest held lock, or nil if none is held.
func (t *Txn) maxHeld() *Lock {
	if len(t.held) == 0 {
		return nil
	}
	return t.held[len(t.held)-1].l
}

// findHeld binary-searches the sorted held list for a lock with l's ID,
// returning its index and whether the same lock object is held.
func (t *Txn) findHeld(l *Lock) (int, bool) {
	lo, hi := 0, len(t.held)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareLocks(t.held[mid].l, l) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.held) && t.held[lo].l == l
}

// Holds reports whether the transaction currently holds l (in any mode).
func (t *Txn) Holds(l *Lock) bool {
	_, ok := t.findHeld(l)
	return ok
}

// HoldsExclusive reports whether the transaction currently holds l in
// Exclusive mode — the precondition for bumping l's epoch cell.
func (t *Txn) HoldsExclusive(l *Lock) bool {
	idx, ok := t.findHeld(l)
	return ok && t.held[idx].mode == Exclusive
}

// BeginWriteEpochs begin-bumps (makes odd) the epoch cell of every lock
// in the stripe array arr that the transaction holds exclusively and has
// not already bumped, appending the bumped locks to out and returning it;
// the caller must end-bump each before release. It is the writer half of
// the optimistic read protocol, called before a transaction's container
// writes under arr. A stripe array is contiguous in the global lock
// order (one shared header), so the held locks of the array form one run
// of the sorted held list: one binary search plus a bounded scan, instead
// of probing all k stripes of a striped node.
func (t *Txn) BeginWriteEpochs(arr *Array, out []*Lock) []*Lock {
	if len(t.held) == 0 {
		return out
	}
	lo, _ := t.findHeld(&arr.head)
	for i := lo; i < len(t.held); i++ {
		h := &t.held[i]
		if h.l.hdr != &arr.hdr {
			break
		}
		if h.mode != Exclusive || h.l.EpochOdd() {
			continue
		}
		h.l.BumpEpoch()
		out = append(out, h.l)
	}
	return out
}

// HeldCount returns the number of distinct physical locks held.
func (t *Txn) HeldCount() int { return len(t.held) }

// Acquire takes every lock in batch in mode m, honoring the global order.
// The batch is sorted by ID, without allocating, unless preSorted is true
// (the §5.2 sort-elision optimization for scans over sorted containers;
// the order is still verified). Locks already held are skipped; requesting Exclusive on
// a lock held Shared panics, because upgrades can deadlock and the planner
// must have requested the stronger mode up front.
func (t *Txn) Acquire(batch []*Lock, m Mode, preSorted bool) {
	if t.shrinking {
		panic("locks: acquire after release violates two-phase locking")
	}
	if len(batch) == 0 {
		return
	}
	if len(batch) > 1 {
		if !preSorted {
			slices.SortFunc(batch, compareLocks)
		} else {
			for i := 1; i < len(batch); i++ {
				if compareLocks(batch[i-1], batch[i]) > 0 {
					panic(fmt.Sprintf("locks: batch marked pre-sorted but %v > %v", batch[i-1].ID(), batch[i].ID()))
				}
			}
		}
	}
	for i, l := range batch {
		if i > 0 && batch[i-1] == l {
			continue // duplicate within batch
		}
		if max := t.maxHeld(); max != nil && compareLocks(l, max) <= 0 {
			if idx, held := t.findHeld(l); held {
				if m == Exclusive && t.held[idx].mode == Shared {
					panic(fmt.Sprintf("locks: upgrade from shared to exclusive on %v; planner must request exclusive up front", l.ID()))
				}
				continue
			}
			panic(fmt.Sprintf("locks: acquisition of %v violates lock order (max held %v)", l.ID(), max.ID()))
		}
		l.lock(m)
		t.held = append(t.held, heldLock{l: l, mode: m})
	}
}

// AcquireSpeculative takes a single lock under the speculative protocol of
// §4.5: the order constraint is checked exactly as in Acquire, but the
// caller may subsequently Abandon the lock (if its guess about the heap
// proved wrong) without ending the growing phase. The lock must not be
// already held.
func (t *Txn) AcquireSpeculative(l *Lock, m Mode) {
	if t.shrinking {
		panic("locks: speculative acquire after release violates two-phase locking")
	}
	if t.Holds(l) {
		panic(fmt.Sprintf("locks: speculative acquire of already-held lock %v", l.ID()))
	}
	if max := t.maxHeld(); max != nil && compareLocks(l, max) <= 0 {
		panic(fmt.Sprintf("locks: speculative acquisition of %v violates lock order (max held %v)", l.ID(), max.ID()))
	}
	l.lock(m)
	t.held = append(t.held, heldLock{l: l, mode: m})
}

// Abandon releases a speculatively acquired lock whose guess failed. Only
// the most recently acquired lock may be abandoned (the speculative retry
// loop acquires and validates one lock at a time), which keeps the held
// list sorted.
func (t *Txn) Abandon(l *Lock) {
	n := len(t.held)
	if n == 0 || t.held[n-1].l != l {
		panic("locks: Abandon must release the most recently acquired lock")
	}
	l.unlock(t.held[n-1].mode)
	t.held = t.held[:n-1]
}

// ReleaseAll releases every held lock in reverse acquisition order and
// moves the transaction to the shrinking phase; any later acquisition
// panics.
func (t *Txn) ReleaseAll() {
	for i := len(t.held) - 1; i >= 0; i-- {
		h := t.held[i]
		h.l.unlock(h.mode)
	}
	t.held = t.held[:0]
	t.shrinking = true
}
