package locks

import (
	"testing"

	"repro/internal/rel"
)

// TestLockSetCoalesces checks the three coalescing rules: duplicate
// requests collapse to one acquisition, shared+exclusive requests for the
// same lock acquire exclusive, and the merged set is taken in global
// order regardless of Add order.
func TestLockSetCoalesces(t *testing.T) {
	arr := NewArray(0, 0, rel.NewKey(), 4)
	var s LockSet
	s.Add(arr.Lock(2), Shared)
	s.Add(arr.Lock(0), Shared)
	s.Add(arr.Lock(2), Exclusive) // same lock, stronger mode
	s.Add(arr.Lock(0), Shared)    // duplicate
	s.Add(arr.Lock(1), Exclusive)
	if s.Requested() != 5 {
		t.Fatalf("Requested = %d, want 5", s.Requested())
	}
	tx := NewTxn()
	tx.AcquireSet(&s)
	if tx.HeldCount() != 3 {
		t.Fatalf("held %d locks, want 3", tx.HeldCount())
	}
	wantModes := []Mode{Shared, Exclusive, Exclusive}
	for i := 0; i < tx.HeldCount(); i++ {
		id, mode := tx.HeldID(i)
		if id.Stripe != i {
			t.Fatalf("held[%d] = %v, want stripe %d (global order)", i, id, i)
		}
		if mode != wantModes[i] {
			t.Fatalf("held[%d] mode = %v, want %v", i, mode, wantModes[i])
		}
	}
	if s.Len() != 0 || s.Requested() != 0 {
		t.Fatal("AcquireSet did not consume the set")
	}
	tx.ReleaseAll()
}

// TestLockSetSkipsHeld checks that re-requesting an already-held lock in
// a later set is a no-op (the at-most-once batch guarantee), and that a
// later set may still acquire strictly larger locks.
func TestLockSetSkipsHeld(t *testing.T) {
	arr := NewArray(0, 0, rel.NewKey(), 3)
	tx := NewTxn()
	var s LockSet
	s.Add(arr.Lock(0), Exclusive)
	tx.AcquireSet(&s)
	s.Add(arr.Lock(0), Shared) // weaker re-request of a held lock: skipped
	s.Add(arr.Lock(1), Shared)
	tx.AcquireSet(&s)
	if tx.HeldCount() != 2 {
		t.Fatalf("held %d locks, want 2", tx.HeldCount())
	}
	// The exclusive hold must still be exclusive (no silent downgrade).
	if _, mode := tx.HeldID(0); mode != Exclusive {
		t.Fatalf("held[0] mode = %v, want exclusive", mode)
	}
	tx.ReleaseAll()
}

// TestLockSetUpgradePanics checks that requesting exclusive on a lock the
// transaction already holds shared panics: coalescing must merge modes
// before the first acquisition, upgrades can deadlock.
func TestLockSetUpgradePanics(t *testing.T) {
	arr := NewArray(0, 0, rel.NewKey(), 2)
	tx := NewTxn()
	var s LockSet
	s.Add(arr.Lock(0), Shared)
	tx.AcquireSet(&s)
	defer func() {
		if recover() == nil {
			t.Fatal("shared→exclusive upgrade via AcquireSet did not panic")
		}
		// The panic left arr[0] held shared; release for cleanliness.
		tx.ReleaseAll()
	}()
	s.Add(arr.Lock(0), Exclusive)
	tx.AcquireSet(&s)
}

// TestLockSetOrderViolationPanics checks that a set acquiring below the
// transaction's high-water mark (and not already held) panics rather than
// risking deadlock.
func TestLockSetOrderViolationPanics(t *testing.T) {
	arr := NewArray(0, 0, rel.NewKey(), 2)
	tx := NewTxn()
	var s LockSet
	s.Add(arr.Lock(1), Shared)
	tx.AcquireSet(&s)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order AcquireSet did not panic")
		}
		tx.ReleaseAll()
	}()
	s.Add(arr.Lock(0), Shared)
	tx.AcquireSet(&s)
}

// TestLockSetAfterReleasePanics checks two-phasedness: no acquisition
// after the shrinking phase begins.
func TestLockSetAfterReleasePanics(t *testing.T) {
	arr := NewArray(0, 0, rel.NewKey(), 1)
	tx := NewTxn()
	tx.ReleaseAll()
	defer func() {
		if recover() == nil {
			t.Fatal("AcquireSet after ReleaseAll did not panic")
		}
	}()
	var s LockSet
	s.Add(arr.Lock(0), Shared)
	tx.AcquireSet(&s)
}
