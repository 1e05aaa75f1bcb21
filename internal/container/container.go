// Package container implements the container taxonomy of §3 of
// "Concurrent Data Representation Synthesis" (PLDI 2012): an associative
// key→value map interface with lookup / scan / write operations, a registry
// of concurrency-safety and consistency properties per container kind
// (the paper's Figure 1), and from-scratch Go implementations of the five
// container families the paper draws from the JDK, plus the singleton Cell
// used for "dotted" decomposition edges.
//
// Concurrency safety here is a statement about the *interface contract*
// (§3.1): whether two operations may run in parallel with no external
// synchronization. The synthesizer (internal/locks, internal/autotune)
// consults PropertiesOf to decide which lock placements make a container
// choice legal.
package container

import (
	"fmt"

	"repro/internal/rel"
)

// Map is the container interface of §3: an associative map from keys to
// values with read operations Lookup and Scan and a write operation Write.
//
// Write(k, v) with a non-nil v inserts or updates; Write(k, nil) removes
// any entry for k — this is the paper's ML-style optional-value write.
// Stored values must be non-nil.
//
// A container owns its keys: no method retains the caller's key, so a key
// over transient storage (rel.KeyOver of a scratch buffer) may be passed
// anywhere and its storage reused once the call returns.
type Map interface {
	// Lookup returns the value associated with key k, if any.
	Lookup(k rel.Key) (any, bool)
	// Scan invokes f once per entry until f returns false or entries are
	// exhausted. Whether iteration is sorted, snapshot or weakly
	// consistent is a per-kind property; see PropertiesOf. The keys f
	// receives are read-only views of the container's own copies; each
	// stays valid, and unchanged, after the scan and after later writes.
	Scan(f func(k rel.Key, v any) bool)
	// Write sets the value for k (v != nil) or removes the entry (v == nil).
	// Inserting a new entry stores a copy of k: a one-column key inline in
	// the entry, a wider key as one owned copy. Updating or removing an
	// entry stores nothing.
	Write(k rel.Key, v any)
	// Len returns the number of entries. For concurrent containers the
	// value is a linearizable count only in quiescent states.
	Len() int
}

// Kind identifies a container implementation.
type Kind int

// The container kinds, named after their JDK archetypes (Figure 1).
const (
	// HashMap is a non-concurrent chained hash table.
	HashMap Kind = iota
	// TreeMap is a non-concurrent B-tree with sorted iteration, whose
	// nodes order their entries by inline order words (rel.OrderWord).
	TreeMap
	// ConcurrentHashMap is a segment-striped hash table with linearizable
	// lookup/write and weakly consistent iteration.
	ConcurrentHashMap
	// ConcurrentSkipListMap is a lazy concurrent skip list (the paper's
	// reference [14]) with linearizable lookup/write, sorted but weakly
	// consistent iteration.
	ConcurrentSkipListMap
	// CopyOnWriteMap is a copy-on-write sorted array map with snapshot
	// (linearizable) iteration; writes are O(n).
	CopyOnWriteMap
	// Cell is the singleton-tuple container used for the dotted edges of
	// Figures 2 and 3: it holds at most one entry.
	Cell

	numKinds = iota
)

// String returns the JDK-style container name.
func (k Kind) String() string {
	switch k {
	case HashMap:
		return "HashMap"
	case TreeMap:
		return "TreeMap"
	case ConcurrentHashMap:
		return "ConcurrentHashMap"
	case ConcurrentSkipListMap:
		return "ConcurrentSkipListMap"
	case CopyOnWriteMap:
		return "CopyOnWriteMap"
	case Cell:
		return "Cell"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists every container kind, in Figure 1 order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Safety classifies a pair of operations α/β on a container (§3.1):
// executing α and β in parallel from two threads with no external
// synchronization is either unsafe, safe but only weakly consistent, or
// both safe and linearizable.
type Safety int

const (
	// Unsafe: concurrent execution may corrupt the container or crash.
	Unsafe Safety = iota
	// Weak: concurrent execution is safe but the observed result may not
	// be linearizable (e.g. weakly consistent iterators).
	Weak
	// Linearizable: concurrent execution is safe and linearizable.
	Linearizable
)

// String renders the safety level in Figure 1's vocabulary.
func (s Safety) String() string {
	switch s {
	case Unsafe:
		return "no"
	case Weak:
		return "weak"
	case Linearizable:
		return "yes"
	default:
		return fmt.Sprintf("Safety(%d)", int(s))
	}
}

// Properties records the Figure 1 row for a container kind: the
// concurrency safety of each operation pair (lookup L, scan S, write W)
// plus the consistency flavor of iteration.
type Properties struct {
	Kind Kind
	// Operation-pair safety, Figure 1 columns.
	LL, LW, SW, WW, LS, SS Safety
	// SortedScan reports whether Scan yields entries in key order.
	SortedScan bool
	// SnapshotScan reports whether Scan behaves as if over a linearizable
	// snapshot (§3.1); false for weakly consistent iteration.
	SnapshotScan bool
}

// ConcurrencySafe reports whether every operation pair is at least Weak —
// the container may be accessed concurrently with no external locks
// (§3.1's "concurrency-safe container"). This is the property lock
// striping requires (§4.4).
func (p Properties) ConcurrencySafe() bool {
	for _, s := range []Safety{p.LL, p.LW, p.SW, p.WW, p.LS, p.SS} {
		if s == Unsafe {
			return false
		}
	}
	return true
}

// LinearizableReads reports whether lookup is linearizable with concurrent
// writes — the precondition for speculative lock placement (§4.5), which
// performs unlocked reads to guess the lock to take.
func (p Properties) LinearizableReads() bool { return p.LW == Linearizable }

var properties = [numKinds]Properties{
	HashMap: {
		Kind: HashMap,
		LL:   Linearizable, LW: Unsafe, SW: Unsafe, WW: Unsafe,
		LS: Linearizable, SS: Linearizable,
		SortedScan: false, SnapshotScan: false,
	},
	TreeMap: {
		Kind: TreeMap,
		LL:   Linearizable, LW: Unsafe, SW: Unsafe, WW: Unsafe,
		LS: Linearizable, SS: Linearizable,
		SortedScan: true, SnapshotScan: false,
	},
	ConcurrentHashMap: {
		Kind: ConcurrentHashMap,
		LL:   Linearizable, LW: Linearizable, SW: Weak, WW: Linearizable,
		LS: Weak, SS: Weak,
		SortedScan: false, SnapshotScan: false,
	},
	ConcurrentSkipListMap: {
		Kind: ConcurrentSkipListMap,
		LL:   Linearizable, LW: Linearizable, SW: Weak, WW: Linearizable,
		LS: Weak, SS: Weak,
		SortedScan: true, SnapshotScan: false,
	},
	CopyOnWriteMap: {
		Kind: CopyOnWriteMap,
		LL:   Linearizable, LW: Linearizable, SW: Linearizable, WW: Linearizable,
		LS: Linearizable, SS: Linearizable,
		SortedScan: true, SnapshotScan: true,
	},
	Cell: {
		Kind: Cell,
		LL:   Linearizable, LW: Linearizable, SW: Linearizable, WW: Linearizable,
		LS: Linearizable, SS: Linearizable,
		SortedScan: true, SnapshotScan: true,
	},
}

// PropertiesOf returns the Figure 1 row for a container kind.
func PropertiesOf(k Kind) Properties {
	if k < 0 || int(k) >= numKinds {
		panic(fmt.Sprintf("container: unknown kind %d", int(k)))
	}
	return properties[k]
}

// New constructs an empty container of the given kind for keys of the
// given width (the number of edge columns).
func New(k Kind, width int) Map { return Constructor(k, width)() }

// Constructor resolves the kind and the key width once and returns the
// constructor of such containers. The width picks the entry layout: a
// one-column container stores each key inline as one rel.Value, any other
// width stores one owned copy per key (see keySlot).
func Constructor(k Kind, width int) func() Map {
	if width == 1 {
		return constructor[oneKey](k)
	}
	return constructor[wideKey](k)
}

func constructor[S any, P keySlot[S]](k Kind) func() Map {
	switch k {
	case HashMap:
		return func() Map { return newHashMap[S, P]() }
	case TreeMap:
		return func() Map { return &treeMap[S, P]{} }
	case ConcurrentHashMap:
		return func() Map { return newConcurrentHashMap[S, P]() }
	case ConcurrentSkipListMap:
		return func() Map { return newConcurrentSkipList[S, P]() }
	case CopyOnWriteMap:
		return func() Map { return newCopyOnWriteMap[S, P]() }
	case Cell:
		return func() Map { return &cell[S, P]{} }
	default:
		panic(fmt.Sprintf("container: unknown kind %d", int(k)))
	}
}
