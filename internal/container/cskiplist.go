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
type concurrentSkipList[S any, P keySlot[S]] struct {
	head *slNode[S]
	tail *slNode[S]
	size atomic.Int64
}

const slMaxLevel = 24

type slNode[S any] struct {
	key S
	// sentinel is -1 for head (−∞), +1 for tail (+∞), 0 for ordinary nodes.
	sentinel int
	val      atomic.Pointer[slBox]
	next     [slMaxLevel]atomic.Pointer[slNode[S]]
	mu       sync.Mutex
	marked   atomic.Bool
	linked   atomic.Bool // fullyLinked
	topLevel int         // highest level this node participates in (0-based)
}

// slBox wraps a stored value so updates can be published atomically.
type slBox struct{ v any }

func newConcurrentSkipList[S any, P keySlot[S]]() *concurrentSkipList[S, P] {
	m := &concurrentSkipList[S, P]{
		head: &slNode[S]{sentinel: -1, topLevel: slMaxLevel - 1},
		tail: &slNode[S]{sentinel: 1, topLevel: slMaxLevel - 1},
	}
	m.head.linked.Store(true)
	m.tail.linked.Store(true)
	for i := 0; i < slMaxLevel; i++ {
		m.head.next[i].Store(m.tail)
	}
	return m
}

// compareToKey orders node n against key k, honoring the ±∞ sentinels.
func (m *concurrentSkipList[S, P]) compareToKey(n *slNode[S], k rel.Key) int {
	if n.sentinel != 0 {
		return n.sentinel
	}
	return P(&n.key).compare(k)
}

// randomLevel draws a geometric level with p = 1/4, capped at slMaxLevel.
func randomLevel() int {
	lvl := bits.TrailingZeros64(rand.Uint64()) / 2
	if lvl >= slMaxLevel {
		lvl = slMaxLevel - 1
	}
	return lvl
}

// find locates the predecessors and successors of k at every level and
// returns the highest level at which a node with key k was found, or -1.
func (m *concurrentSkipList[S, P]) find(k rel.Key, preds, succs *[slMaxLevel]*slNode[S]) int {
	found := -1
	pred := m.head
	for level := slMaxLevel - 1; level >= 0; level-- {
		curr := pred.next[level].Load()
		for m.compareToKey(curr, k) < 0 {
			pred = curr
			curr = pred.next[level].Load()
		}
		if found == -1 && m.compareToKey(curr, k) == 0 {
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
	pred := m.head
	var curr *slNode[S]
	for level := slMaxLevel - 1; level >= 0; level-- {
		curr = pred.next[level].Load()
		for m.compareToKey(curr, k) < 0 {
			pred = curr
			curr = pred.next[level].Load()
		}
		if m.compareToKey(curr, k) == 0 {
			if curr.linked.Load() && !curr.marked.Load() {
				if b := curr.val.Load(); b != nil {
					return b.v, true
				}
			}
			return nil, false
		}
	}
	return nil, false
}

// Write inserts, updates, or (v == nil) removes the entry for k.
func (m *concurrentSkipList[S, P]) Write(k rel.Key, v any) {
	if v == nil {
		m.remove(k)
		return
	}
	m.insert(k, v)
}

func (m *concurrentSkipList[S, P]) insert(k rel.Key, v any) {
	topLevel := randomLevel()
	var preds, succs [slMaxLevel]*slNode[S]
	var node *slNode[S] // built once, before any lock is taken; private until linked
	for {
		found := m.find(k, &preds, &succs)
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
			node = &slNode[S]{topLevel: topLevel}
			P(&node.key).set(k)
		}

		// Lock all distinct predecessors bottom-up and validate.
		var highestLocked = -1
		var prevPred *slNode[S]
		valid := true
		for level := 0; valid && level <= topLevel; level++ {
			pred := preds[level]
			succ := succs[level]
			if pred != prevPred {
				pred.mu.Lock()
				highestLocked = level
				prevPred = pred
			}
			valid = !pred.marked.Load() && !succ.marked.Load() && pred.next[level].Load() == succ
		}
		if !valid {
			unlockPreds(&preds, highestLocked)
			continue
		}

		node.val.Store(&slBox{v: v})
		for level := 0; level <= topLevel; level++ {
			node.next[level].Store(succs[level])
		}
		for level := 0; level <= topLevel; level++ {
			preds[level].next[level].Store(node)
		}
		node.linked.Store(true)
		unlockPreds(&preds, highestLocked)
		m.size.Add(1)
		return
	}
}

func unlockPreds[S any](preds *[slMaxLevel]*slNode[S], highestLocked int) {
	var prev *slNode[S]
	for level := 0; level <= highestLocked; level++ {
		if preds[level] != prev {
			preds[level].mu.Unlock()
			prev = preds[level]
		}
	}
}

func (m *concurrentSkipList[S, P]) remove(k rel.Key) {
	var preds, succs [slMaxLevel]*slNode[S]
	var victim *slNode[S]
	isMarked := false
	topLevel := -1
	for {
		found := m.find(k, &preds, &succs)
		if found != -1 {
			victim = succs[found]
		}
		if !isMarked {
			if found == -1 ||
				!victim.linked.Load() ||
				victim.topLevel != found ||
				victim.marked.Load() {
				return // absent, or another remover got it first
			}
			topLevel = victim.topLevel
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				return
			}
			victim.marked.Store(true)
			isMarked = true
		}

		// Lock distinct predecessors and validate.
		highestLocked := -1
		var prevPred *slNode[S]
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
	curr := m.head.next[0].Load()
	for curr.sentinel == 0 {
		if curr.linked.Load() && !curr.marked.Load() {
			if b := curr.val.Load(); b != nil {
				if !f(P(&curr.key).key(), b.v) {
					return
				}
			}
		}
		curr = curr.next[0].Load()
	}
}

// Len returns the entry count; exact only in quiescent states.
func (m *concurrentSkipList[S, P]) Len() int { return int(m.size.Load()) }
