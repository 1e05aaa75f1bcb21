package container

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/rel"
)

// concurrentSkipList is a lazy concurrent skip list in the style of
// Herlihy, Lev, Luchangco and Shavit ("A provably correct scalable
// concurrent skip list", OPODIS 2006 — the paper's reference [14], also the
// source of the benchmarking methodology of §6.2). It is the analog of
// java.util.concurrent.ConcurrentSkipListMap.
//
//   - Lookup is wait-free: it never acquires locks and is linearizable.
//   - Write locks only the predecessor nodes of the affected key and
//     validates before linking/unlinking; concurrent writes to different
//     keys proceed in parallel.
//   - Scan walks level 0, skipping nodes that are marked (logically
//     deleted) or not yet fully linked; it is sorted but only weakly
//     consistent (§3.1).
//
// Layout. A node's forward pointers are co-allocated with it at its own
// height (slNode1, slNode2, slNode4; taller nodes, one in 256, allocate
// them apart), and it keeps its key's order word (rel.OrderWord) inline
// beside the key slot, so a search compares words and reads a key slot
// only when the words tie and are not exact, as the TreeMap does. The
// head is inline in the list and a nil forward pointer is +∞: there are
// no sentinel nodes. The first value box is inline in the node; an update
// publishes a new one.
//
// Height. The list tracks the number of levels in use in an atomic word
// that only ever rises, and searches start there rather than at the top
// level. Two ordering rules keep that sound:
//
//   - an insert raises the height before its node is reachable at any
//     level, and its search starts at max(height, its own top level), so
//     whoever sees a node's link and then reads the height reads one
//     above the node's top level;
//   - a remove that read a stale height may find a fully linked victim
//     below the victim's top level; it then searches again from that top
//     level instead of reporting the key absent.
type concurrentSkipList[S any, P keySlot[S]] struct {
	head   slLinks[S] // head.next is levels[:]
	levels [slMaxLevel]atomic.Pointer[slNode[S]]
	height atomic.Int32 // levels in use: above it every forward pointer is nil
	size   atomic.Int64
}

const slMaxLevel = 24

// slLinks is what a search needs of a predecessor — its forward pointers,
// its lock and its flags — and all the head is.
type slLinks[S any] struct {
	next   []atomic.Pointer[slNode[S]] // one per level the node is on; nil is +∞
	mu     sync.Mutex
	marked atomic.Bool
	linked atomic.Bool // fullyLinked
}

// slNode is an entry. Its word and key slot are set before it is linked
// and never change.
type slNode[S any] struct {
	slLinks[S]
	word uint64
	key  S
	val  atomic.Pointer[slBox]
	box  slBox // the first value, which val points at until an update
}

// slBox wraps a stored value so updates can be published atomically.
type slBox struct{ v any }

// The node layouts of heights 1, 2 and 3–4: the node and its forward
// pointers in one allocation.
type (
	slNode1[S any] struct {
		slNode[S]
		tower [1]atomic.Pointer[slNode[S]]
	}
	slNode2[S any] struct {
		slNode[S]
		tower [2]atomic.Pointer[slNode[S]]
	}
	slNode4[S any] struct {
		slNode[S]
		tower [4]atomic.Pointer[slNode[S]]
	}
)

// newSlNode allocates a node on levels 0..height-1.
func newSlNode[S any](height int) *slNode[S] {
	switch {
	case height == 1:
		s := &slNode1[S]{}
		s.next = s.tower[:]
		return &s.slNode
	case height == 2:
		s := &slNode2[S]{}
		s.next = s.tower[:]
		return &s.slNode
	case height <= 4:
		s := &slNode4[S]{}
		s.next = s.tower[:height]
		return &s.slNode
	}
	n := &slNode[S]{}
	n.next = make([]atomic.Pointer[slNode[S]], height)
	return n
}

func newConcurrentSkipList[S any, P keySlot[S]]() *concurrentSkipList[S, P] {
	m := &concurrentSkipList[S, P]{}
	m.head.next = m.levels[:]
	return m
}

// slLevel draws the top level (0-based) of a new node. Tests replace it
// to make levels deterministic.
var slLevel = randomLevel

// randomLevel draws a geometric level with p = 1/4, capped at slMaxLevel.
func randomLevel() int {
	return min(bits.TrailingZeros64(rand.Uint64())/2, slMaxLevel-1)
}

// compareTo orders node n against the key k whose order word is w: by
// word, then — only when the words tie and are not exact — by key. A nil
// node is +∞.
func compareTo[S any, P keySlot[S]](n *slNode[S], k rel.Key, w uint64, exact bool) int {
	switch {
	case n == nil:
		return 1
	case n.word < w:
		return -1
	case n.word > w:
		return 1
	case exact:
		return 0
	}
	return P(&n.key).compare(k)
}

// raise lifts the height to at least h.
func (m *concurrentSkipList[S, P]) raise(h int32) {
	for cur := m.height.Load(); cur < h; cur = m.height.Load() {
		if m.height.CompareAndSwap(cur, h) {
			return
		}
	}
}

// find locates the predecessors and successors of k, whose order word is
// w, at every level from max(height-1, floor) down, and returns the
// highest level at which a node with key k was found, or -1. Levels above
// the start keep what they held.
func (m *concurrentSkipList[S, P]) find(k rel.Key, w uint64, exact bool, floor int, preds *[slMaxLevel]*slLinks[S], succs *[slMaxLevel]*slNode[S]) int {
	found := -1
	pred := &m.head
	for level := max(int(m.height.Load())-1, floor); level >= 0; level-- {
		curr := pred.next[level].Load()
		c := compareTo[S, P](curr, k, w, exact)
		for c < 0 {
			pred = &curr.slLinks
			curr = pred.next[level].Load()
			c = compareTo[S, P](curr, k, w, exact)
		}
		if found == -1 && c == 0 {
			found = level
		}
		preds[level] = pred
		succs[level] = curr
	}
	return found
}

// Lookup returns the value for k. It is wait-free and linearizable: a node
// counts as present exactly when it is fully linked and not marked.
func (m *concurrentSkipList[S, P]) Lookup(k rel.Key) (any, bool) {
	w, exact := P(nil).word(k)
	pred := &m.head
	for level := int(m.height.Load()) - 1; level >= 0; level-- {
		curr := pred.next[level].Load()
		c := compareTo[S, P](curr, k, w, exact)
		for c < 0 {
			pred = &curr.slLinks
			curr = pred.next[level].Load()
			c = compareTo[S, P](curr, k, w, exact)
		}
		if c == 0 {
			if curr.linked.Load() && !curr.marked.Load() {
				return curr.val.Load().v, true
			}
			return nil, false
		}
	}
	return nil, false
}

// Write inserts, updates, or (v == nil) removes the entry for k.
func (m *concurrentSkipList[S, P]) Write(k rel.Key, v any) {
	w, exact := P(nil).word(k)
	if v == nil {
		m.remove(k, w, exact)
		return
	}
	m.insert(k, w, exact, v)
}

func (m *concurrentSkipList[S, P]) insert(k rel.Key, w uint64, exact bool, v any) {
	topLevel := slLevel()
	var preds [slMaxLevel]*slLinks[S]
	var succs [slMaxLevel]*slNode[S]
	var node *slNode[S] // built once, before any lock is taken; private until linked
	for {
		found := m.find(k, w, exact, topLevel, &preds, &succs)
		if found != -1 {
			present := succs[found]
			if !present.marked.Load() {
				// Key already present (or being inserted): wait for the
				// insertion to complete, then update the value in place.
				for !present.linked.Load() {
				}
				present.mu.Lock()
				if !present.marked.Load() {
					present.val.Store(&slBox{v: v})
					present.mu.Unlock()
					return
				}
				present.mu.Unlock()
			}
			// Node is being removed; retry until it is unlinked.
			continue
		}

		if node == nil {
			node = newSlNode[S](topLevel + 1)
			node.word = w
			P(&node.key).set(k)
		}

		// Lock all distinct predecessors bottom-up and validate.
		var highestLocked = -1
		var prevPred *slLinks[S]
		valid := true
		for level := 0; valid && level <= topLevel; level++ {
			pred := preds[level]
			succ := succs[level]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = level
				prevPred = pred
			}
			valid = !pred.marked.Load() && (succ == nil || !succ.marked.Load()) && pred.next[level].Load() == succ
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}

		node.box.v = v
		node.val.Store(&node.box)
		for level := 0; level <= topLevel; level++ {
			node.next[level].Store(succs[level])
		}
		m.raise(int32(topLevel + 1))
		for level := 0; level <= topLevel; level++ {
			preds[level].next[level].Store(node)
		}
		node.linked.Store(true)
		unlockPreds(&preds, highestLocked)
		m.size.Add(1)
		return
	}
}

func unlockPreds[S any](preds *[slMaxLevel]*slLinks[S], highestLocked int) {
	var prev *slLinks[S]
	for level := 0; level <= highestLocked; level++ {
		if preds[level] != prev {
			preds[level].mu.Unlock()
			prev = preds[level]
		}
	}
}

func (m *concurrentSkipList[S, P]) remove(k rel.Key, w uint64, exact bool) {
	var preds [slMaxLevel]*slLinks[S]
	var succs [slMaxLevel]*slNode[S]
	var victim *slNode[S]
	topLevel := 0 // the victim's top level once marked; the lowest level a search starts at
	for {
		found := m.find(k, w, exact, topLevel, &preds, &succs)
		if victim == nil {
			if found == -1 {
				return
			}
			n := succs[found]
			top := len(n.next) - 1
			if !n.linked.Load() || n.marked.Load() {
				return // absent, or another remover got it first
			}
			if found != top {
				if topLevel < top {
					// The search may have started below n's top level on
					// a stale height: search again from there.
					topLevel = top
					continue
				}
				return // not yet fully linked when the search passed its top level
			}
			n.mu.Lock()
			if n.marked.Load() {
				n.mu.Unlock()
				return
			}
			n.marked.Store(true)
			victim, topLevel = n, top
		}

		// Lock distinct predecessors and validate.
		highestLocked := -1
		var prevPred *slLinks[S]
		valid := true
		for level := 0; valid && level <= topLevel; level++ {
			pred := preds[level]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = level
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[level].Load() == victim
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}

		for level := topLevel; level >= 0; level-- {
			preds[level].next[level].Store(victim.next[level].Load())
		}
		victim.mu.Unlock()
		unlockPreds(&preds, highestLocked)
		m.size.Add(-1)
		return
	}
}

// Scan walks level 0 in key order, skipping logically deleted or
// incompletely inserted nodes. Weakly consistent: concurrent writes may or
// may not be observed.
func (m *concurrentSkipList[S, P]) Scan(f func(k rel.Key, v any) bool) {
	for curr := m.levels[0].Load(); curr != nil; curr = curr.next[0].Load() {
		if curr.linked.Load() && !curr.marked.Load() {
			if !f(P(&curr.key).key(), curr.val.Load().v) {
				return
			}
		}
	}
}

// Len returns the entry count; exact only in quiescent states.
func (m *concurrentSkipList[S, P]) Len() int { return int(m.size.Load()) }
