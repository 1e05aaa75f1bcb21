package container

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rel"
)

// concurrentMapKinds are the map kinds whose taxonomy rows claim full
// concurrency safety (the singleton Cell, also safe, is exercised
// separately); the stress tests below exercise exactly the pairs Figure 1
// marks safe, and running under -race validates the claims.
var concurrentMapKinds = []Kind{ConcurrentHashMap, ConcurrentSkipListMap, CopyOnWriteMap}

func TestStressConcurrentWriters(t *testing.T) {
	forEachKindWidth(t, concurrentMapKinds, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		const workers = 8
		const perWorker = 400
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				// Disjoint key ranges: all inserts must survive.
				for i := 0; i < perWorker; i++ {
					m.Write(intKey(w, wk*perWorker+i), wk)
				}
			}(wk)
		}
		wg.Wait()
		if m.Len() != workers*perWorker {
			t.Fatalf("Len = %d, want %d", m.Len(), workers*perWorker)
		}
		for wk := 0; wk < workers; wk++ {
			for i := 0; i < perWorker; i++ {
				if v, ok := m.Lookup(intKey(w, wk*perWorker+i)); !ok || v != wk {
					t.Fatalf("lost write %d/%d: %v, %v", wk, i, v, ok)
				}
			}
		}
	})
}

func TestStressMixedOps(t *testing.T) {
	forEachKindWidth(t, concurrentMapKinds, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		const workers = 8
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 3000; i++ {
					k := intKey(w, r.Intn(128))
					switch r.Intn(4) {
					case 0:
						m.Write(k, i)
					case 1:
						m.Write(k, nil)
					case 2:
						m.Lookup(k)
					default:
						n := 0
						m.Scan(func(rel.Key, any) bool { n++; return n < 50 })
					}
				}
			}(int64(wk))
		}
		wg.Wait()
		// Post-quiescence sanity: Len agrees with a full scan.
		n := 0
		m.Scan(func(rel.Key, any) bool { n++; return true })
		if n != m.Len() {
			t.Fatalf("quiescent scan count %d != Len %d", n, m.Len())
		}
	})
}

func TestStressSameKeyContention(t *testing.T) {
	// Hammer a handful of keys from many goroutines; afterwards every
	// surviving key must map to one of the written values.
	forEachKindWidth(t, []Kind{ConcurrentHashMap, ConcurrentSkipListMap}, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		const workers = 8
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(wk)))
				for i := 0; i < 4000; i++ {
					k := intKey(w, r.Intn(4))
					if r.Intn(2) == 0 {
						m.Write(k, wk*10000+i)
					} else {
						m.Write(k, nil)
					}
				}
			}(wk)
		}
		wg.Wait()
		for i := 0; i < 4; i++ {
			if v, ok := m.Lookup(intKey(w, i)); ok {
				if v.(int) < 0 || v.(int) >= workers*10000+4000 {
					t.Fatalf("impossible surviving value %v", v)
				}
			}
		}
		if m.Len() < 0 || m.Len() > 4 {
			t.Fatalf("Len = %d out of range", m.Len())
		}
	})
}

// TestSkipListRemoveInsertRace is a targeted probe of the lazy skip
// list's mark/fully-linked protocol and of its tracked height: one
// goroutine repeatedly inserts key K, another repeatedly removes it, while
// a reader looks it up. The level source makes every inserted node one
// level taller than the list — a fresh list starts when the top level is
// reached — so removers keep meeting a victim above the height they read,
// and the reader checks that no level at or above the height holds a node
// once the links are seen (an insert raises the height first). A remove
// that read a stale height must still remove a fully linked victim; that
// case is also forced directly, by lowering the height under a tall node.
func TestSkipListRemoveInsertRace(t *testing.T) {
	forEachKindWidth(t, []Kind{ConcurrentSkipListMap}, func(t *testing.T, kind Kind, w int) {
		k := valKey(w, "contended")
		defer func(level func() int) { slLevel = level }(slLevel)

		// A remove that read a height below its victim's top level.
		stale := New(kind, w)
		slLevel = func() int { return 5 }
		stale.Write(k, 1)
		stale.(heightProbe).setHeight(1)
		stale.Write(k, nil)
		if v, ok := stale.Lookup(k); ok || stale.Len() != 0 {
			t.Fatalf("remove on a stale height left %v (present %v, Len %d)", v, ok, stale.Len())
		}

		var cur atomic.Pointer[Map]
		fresh := func() {
			m := New(kind, w)
			cur.Store(&m)
		}
		fresh()
		height := func() int { h, _, _ := (*cur.Load()).(heightProbe).probe(); return h }
		slLevel = func() int { return min(height(), slMaxLevel-1) }
		var wg sync.WaitGroup
		var done atomic.Bool
		const rounds = 20000
		wg.Add(3)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			for i := 0; i < rounds; i++ {
				if height() == slMaxLevel {
					fresh()
				}
				(*cur.Load()).Write(k, i)
			}
		}()
		go func() {
			defer wg.Done()
			for !done.Load() {
				(*cur.Load()).Write(k, nil)
			}
		}()
		go func() {
			defer wg.Done()
			for !done.Load() {
				m := *cur.Load()
				if v, ok := m.Lookup(k); ok {
					if _, isInt := v.(int); !isInt {
						t.Errorf("lookup observed torn value %v", v)
						return
					}
				}
				if h0, linked, h1 := m.(heightProbe).probe(); linked && h1 <= h0 {
					t.Errorf("a node is linked on level %d, at or above the height %d", h0, h1)
					return
				}
			}
		}()
		wg.Wait()
		// Quiescent state must be coherent.
		m := *cur.Load()
		if _, ok := m.Lookup(k); ok != (m.Len() == 1) {
			t.Fatalf("quiescent mismatch: present=%v Len=%d", ok, m.Len())
		}
		checkSkipListMap(t, m)
	})
}

// heightProbe is the tests' window on a skip list's tracked height.
type heightProbe interface {
	// probe reads the height h0, then whether the head links a node on
	// level h0, then the height h1. An insert raises the height before it
	// links, so a link seen there means h1 > h0.
	probe() (h0 int, linked bool, h1 int)
	// setHeight stores h as the height, as a search that read it before
	// a taller insert raised it sees it.
	setHeight(h int32)
}

func (m *concurrentSkipList[S, P]) probe() (h0 int, linked bool, h1 int) {
	h0 = int(m.height.Load())
	linked = h0 < slMaxLevel && m.levels[h0].Load() != nil
	return h0, linked, int(m.height.Load())
}

func (m *concurrentSkipList[S, P]) setHeight(h int32) { m.height.Store(h) }

func TestSkipListSortedUnderConcurrency(t *testing.T) {
	forEachKindWidth(t, []Kind{ConcurrentSkipListMap}, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		var wg sync.WaitGroup
		for wk := 0; wk < 4; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(wk)))
				for i := 0; i < 2000; i++ {
					k := intKey(w, r.Intn(1000))
					if r.Intn(3) == 0 {
						m.Write(k, nil)
					} else {
						m.Write(k, i)
					}
					if i%100 == 0 {
						// Scans concurrent with writes must stay sorted even if
						// weakly consistent.
						prev := -1
						m.Scan(func(k rel.Key, v any) bool {
							cur := keyInt(k)
							if cur <= prev {
								t.Errorf("unsorted concurrent scan: %d after %d", cur, prev)
								return false
							}
							prev = cur
							return true
						})
					}
				}
			}(wk)
		}
		wg.Wait()
	})
}

func TestCellConcurrent(t *testing.T) {
	forEachKindWidth(t, []Kind{Cell}, func(t *testing.T, kind Kind, w int) {
		c := New(kind, w)
		k := intKey(w, 1)
		var wg sync.WaitGroup
		for wk := 0; wk < 4; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for i := 0; i < 5000; i++ {
					switch i % 3 {
					case 0:
						c.Write(k, wk)
					case 1:
						c.Write(k, nil)
					default:
						if v, ok := c.Lookup(k); ok {
							if _, isInt := v.(int); !isInt {
								t.Errorf("torn cell value %v", v)
								return
							}
						}
					}
				}
			}(wk)
		}
		wg.Wait()
	})
}

func TestHashMapParallelReads(t *testing.T) {
	// Figure 1: HashMap L/L and L/S and S/S are safe. Parallel readers
	// over a quiescent HashMap must be race-free (checked by -race).
	forEachKindWidth(t, []Kind{HashMap}, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		for i := 0; i < 1000; i++ {
			m.Write(intKey(w, i), i)
		}
		var wg sync.WaitGroup
		for wk := 0; wk < 8; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					if v, ok := m.Lookup(intKey(w, i)); !ok || v != i {
						t.Errorf("read %d failed", i)
						return
					}
				}
				n := 0
				m.Scan(func(rel.Key, any) bool { n++; return true })
				if n != 1000 {
					t.Errorf("scan saw %d", n)
				}
			}()
		}
		wg.Wait()
	})
}

func TestCopyOnWriteSnapshotUnderConcurrency(t *testing.T) {
	// A scan started at time T must observe exactly the state at T even
	// while writers run: start a scan, let writers go wild, finish the
	// scan, and verify the scan saw a prefix-consistent snapshot.
	forEachKindWidth(t, []Kind{CopyOnWriteMap}, func(t *testing.T, kind Kind, w int) {
		m := New(kind, w)
		for i := 0; i < 100; i++ {
			m.Write(intKey(w, i), 0)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m.Write(intKey(w, 100+i), i)
				m.Write(intKey(w, 100+i), nil)
			}
		}()
		for round := 0; round < 50; round++ {
			count := 0
			m.Scan(func(k rel.Key, v any) bool {
				count++
				return true
			})
			// Every scan sees an integral snapshot: at least the 100 base
			// keys, at most base+1 (a transiently inserted key).
			if count < 100 || count > 101 {
				t.Fatalf("snapshot scan saw %d entries", count)
			}
		}
		wg.Wait()
	})
}
