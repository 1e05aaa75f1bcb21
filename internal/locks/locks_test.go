package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rel"
)

// NewArray builds a standalone n-stripe array for the node instance
// (relID, node, inst), the way a node instance initialises its own.
func NewArray(relID, node int, inst rel.Key, n int) *Array {
	idx := make([]int, inst.Len())
	for i := range idx {
		idx[i] = i
	}
	a := new(Array)
	a.Init(relID, node, rel.RowOver(inst.Values(), 0), idx, n)
	return a
}

func TestCompareIDs(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{ID{Node: 0}, ID{Node: 1}, -1},
		{ID{Node: 1}, ID{Node: 0}, 1},
		{ID{Node: 1, Inst: rel.NewKey(1)}, ID{Node: 1, Inst: rel.NewKey(2)}, -1},
		{ID{Node: 1, Inst: rel.NewKey(2), Stripe: 0}, ID{Node: 1, Inst: rel.NewKey(2), Stripe: 1}, -1},
		{ID{Node: 1, Inst: rel.NewKey(2), Stripe: 1}, ID{Node: 1, Inst: rel.NewKey(2), Stripe: 1}, 0},
	}
	for _, c := range cases {
		if got := CompareIDs(c.a, c.b); got != c.want {
			t.Errorf("CompareIDs(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := CompareIDs(c.b, c.a); got != -c.want {
			t.Errorf("antisymmetry broken for (%v, %v)", c.a, c.b)
		}
	}
}

func TestNewArrayIDs(t *testing.T) {
	ls := NewArray(0, 3, rel.NewKey("k"), 4)
	if ls.Len() != 4 {
		t.Fatalf("len = %d", ls.Len())
	}
	for i := 0; i < ls.Len(); i++ {
		id := ls.Lock(i).ID()
		if id.Node != 3 || id.Stripe != i || !id.Inst.Equal(rel.NewKey("k")) {
			t.Fatalf("stripe %d has id %v", i, id)
		}
	}
}

func TestTxnBasicAcquireRelease(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 1)
	b := NewArray(0, 1, rel.NewKey(5), 1)
	txn := NewTxn()
	txn.Acquire([]*Lock{a.Lock(0)}, Exclusive, false)
	txn.Acquire([]*Lock{b.Lock(0)}, Shared, false)
	if !txn.Holds(a.Lock(0)) || !txn.Holds(b.Lock(0)) || txn.HeldCount() != 2 {
		t.Fatal("locks not tracked")
	}
	txn.ReleaseAll()
	if txn.Holds(a.Lock(0)) || txn.HeldCount() != 0 {
		t.Fatal("release incomplete")
	}
	// Locks are free again.
	txn2 := NewTxn()
	txn2.Acquire([]*Lock{a.Lock(0), b.Lock(0)}, Exclusive, false)
	txn2.ReleaseAll()
}

func TestTxnDedup(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 1)
	txn := NewTxn()
	txn.Acquire([]*Lock{a.Lock(0), a.Lock(0)}, Exclusive, false)
	if txn.HeldCount() != 1 {
		t.Fatalf("HeldCount = %d", txn.HeldCount())
	}
	// Re-acquire of held lock in same or weaker mode is a no-op.
	txn.Acquire([]*Lock{a.Lock(0)}, Shared, false)
	txn.Acquire([]*Lock{a.Lock(0)}, Exclusive, false)
	txn.ReleaseAll()
}

func TestTxnSortsBatch(t *testing.T) {
	arr := NewArray(0, 2, rel.NewKey(), 8)
	txn := NewTxn()
	// Deliberately unsorted batch must be fine.
	txn.Acquire([]*Lock{arr.Lock(5), arr.Lock(1), arr.Lock(3)}, Exclusive, false)
	txn.ReleaseAll()
}

func TestTxnOrderViolationPanics(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 1)
	b := NewArray(0, 1, rel.NewKey(), 1)
	txn := NewTxn()
	txn.Acquire([]*Lock{b.Lock(0)}, Exclusive, false)
	defer func() {
		txn.ReleaseAll()
		if recover() == nil {
			t.Fatal("expected order-violation panic")
		}
	}()
	txn.Acquire([]*Lock{a.Lock(0)}, Exclusive, false) // node 0 after node 1
}

func TestTxnUpgradePanics(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 1)
	txn := NewTxn()
	txn.Acquire([]*Lock{a.Lock(0)}, Shared, false)
	defer func() {
		txn.ReleaseAll()
		if recover() == nil {
			t.Fatal("expected upgrade panic")
		}
	}()
	txn.Acquire([]*Lock{a.Lock(0)}, Exclusive, false)
}

func TestTxnTwoPhasePanics(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 1)
	txn := NewTxn()
	txn.Acquire([]*Lock{a.Lock(0)}, Shared, false)
	txn.ReleaseAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected 2PL panic")
		}
	}()
	txn.Acquire([]*Lock{a.Lock(0)}, Shared, false)
}

func TestTxnPreSortedVerification(t *testing.T) {
	arr := NewArray(0, 0, rel.NewKey(), 4)
	txn := NewTxn()
	defer func() {
		if recover() == nil {
			t.Fatal("expected pre-sorted verification panic")
		}
		txn.ReleaseAll()
	}()
	txn.Acquire([]*Lock{arr.Lock(2), arr.Lock(0)}, Shared, true) // lies about sortedness
}

func TestSpeculativeAcquireAbandon(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 2)
	b := NewArray(0, 1, rel.NewKey(7), 1)
	txn := NewTxn()
	txn.Acquire([]*Lock{a.Lock(0)}, Shared, false)
	txn.AcquireSpeculative(b.Lock(0), Exclusive)
	if !txn.Holds(b.Lock(0)) {
		t.Fatal("speculative lock not held")
	}
	txn.Abandon(b.Lock(0))
	if txn.Holds(b.Lock(0)) {
		t.Fatal("abandoned lock still held")
	}
	// After abandoning, a lock with smaller ID than b (but larger than a)
	// can still be taken: the order rolls back.
	txn.Acquire([]*Lock{a.Lock(1)}, Shared, false)
	txn.ReleaseAll()
}

func TestAbandonNonTopPanics(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 2)
	txn := NewTxn()
	txn.Acquire([]*Lock{a.Lock(0), a.Lock(1)}, Shared, false)
	defer func() {
		txn.ReleaseAll()
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	txn.Abandon(a.Lock(0))
}

func TestSharedAllowsParallelReaders(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 1)
	var inside atomic.Int32
	var peak atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			txn := NewTxn()
			txn.Acquire([]*Lock{a.Lock(0)}, Shared, false)
			n := inside.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inside.Add(-1)
			txn.ReleaseAll()
		}()
	}
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("shared mode never overlapped (peak=%d)", peak.Load())
	}
}

func TestExclusiveExcludes(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 1)
	var inside atomic.Int32
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				txn := NewTxn()
				txn.Acquire([]*Lock{a.Lock(0)}, Exclusive, false)
				if inside.Add(1) != 1 {
					fail <- "two writers inside exclusive section"
				}
				inside.Add(-1)
				txn.ReleaseAll()
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestNoDeadlockUnderInversePatterns exercises the classic deadlock shape:
// two lock sets acquired by many goroutines in *request* orders that would
// deadlock without a global order; ordered acquisition must make it safe.
func TestNoDeadlockUnderInversePatterns(t *testing.T) {
	a := NewArray(0, 0, rel.NewKey(), 1)
	b := NewArray(0, 1, rel.NewKey(), 1)
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					txn := NewTxn()
					// Both orders requested; Acquire sorts them.
					if w%2 == 0 {
						txn.Acquire([]*Lock{a.Lock(0), b.Lock(0)}, Exclusive, false)
					} else {
						txn.Acquire([]*Lock{b.Lock(0), a.Lock(0)}, Exclusive, false)
					}
					txn.ReleaseAll()
				}
			}(w)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: goroutines did not finish")
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "shared" || Exclusive.String() != "exclusive" {
		t.Fatal("Mode.String broken")
	}
}

func TestIDString(t *testing.T) {
	id := ID{Node: 3, Inst: rel.NewKey(1, "a"), Stripe: 2}
	if id.String() != `node3(1, "a")#2` {
		t.Fatalf("ID.String = %s", id.String())
	}
}
