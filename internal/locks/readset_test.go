package locks

import (
	"testing"

	"repro/internal/rel"
)

func TestReadSetValidateQuiescent(t *testing.T) {
	ls := NewArray(1, 0, rel.KeyOver(nil), 4)
	var s ReadSet
	for i := 0; i < ls.Len(); i++ {
		if !s.Record(ls.Lock(i)) {
			t.Fatalf("record of quiescent lock %d reported stale", i)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if !s.Validate(nil) {
		t.Fatal("validation of untouched epochs failed")
	}
	if s.Distinct() != 4 {
		t.Fatalf("Distinct = %d, want 4", s.Distinct())
	}
}

func TestReadSetDetectsCommittedWrite(t *testing.T) {
	ls := NewArray(1, 0, rel.KeyOver(nil), 2)
	var s ReadSet
	s.Record(ls.Lock(0))
	s.Record(ls.Lock(1))
	// A writer commits under ls[1] between record and validate.
	ls.Lock(1).BumpEpoch()
	ls.Lock(1).BumpEpoch()
	if s.Validate(nil) {
		t.Fatal("validation passed across a committed write")
	}
	s.Reset()
	s.Record(ls.Lock(0))
	s.Record(ls.Lock(1))
	if !s.Validate(nil) {
		t.Fatal("validation failed after Reset with quiescent epochs")
	}
}

func TestReadSetDetectsInFlightWrite(t *testing.T) {
	ls := NewArray(1, 0, rel.KeyOver(nil), 1)
	ls.Lock(0).BumpEpoch() // begin-bump: write in flight
	var s ReadSet
	if s.Record(ls.Lock(0)) {
		t.Fatal("record of an odd epoch reported quiescent")
	}
	if s.Validate(nil) {
		t.Fatal("validation passed over an in-flight write")
	}
	// The write completes; the epoch moved, so the attempt stays invalid.
	ls.Lock(0).BumpEpoch()
	if s.Validate(nil) {
		t.Fatal("validation passed after the in-flight write completed")
	}
}

func TestReadSetDuplicateRecordsAtDifferentEpochs(t *testing.T) {
	ls := NewArray(1, 0, rel.KeyOver(nil), 1)
	var s ReadSet
	s.Record(ls.Lock(0))
	ls.Lock(0).BumpEpoch()
	ls.Lock(0).BumpEpoch()
	s.Record(ls.Lock(0)) // same lock, later epoch: a write landed mid-read
	if s.Validate(nil) {
		t.Fatal("validation passed with two records of one lock at different epochs")
	}
}

// TestReadSetValidateSelfHoldRule covers the mixed-batch OCC exclusion:
// entries whose lock the validating transaction itself holds exclusively
// are skipped, so the transaction's own begin-bumped (odd) cells — and
// cells it moved by a full write cycle — cannot fail its own validation,
// while foreign writes under non-held locks still do.
func TestReadSetValidateSelfHoldRule(t *testing.T) {
	ls := NewArray(1, 0, rel.KeyOver(nil), 3)
	own := func(l *Lock) bool { return l == ls.Lock(0) }
	var s ReadSet
	s.Record(ls.Lock(0))
	s.Record(ls.Lock(1))
	// Our own write begin-bumps ls[0] (odd, in flight).
	ls.Lock(0).BumpEpoch()
	if s.Validate(nil) {
		t.Fatal("validation without the own filter passed over an odd cell")
	}
	if !s.Validate(own) {
		t.Fatal("self-held odd cell failed its own transaction's validation")
	}
	// A foreign write commits under ls[1]: even the own filter must fail.
	ls.Lock(1).BumpEpoch()
	ls.Lock(1).BumpEpoch()
	if s.Validate(own) {
		t.Fatal("own filter masked a foreign committed write")
	}

	// An odd epoch at record time under a self-held lock must not doom the
	// set through the stale flag.
	s.Reset()
	if s.Record(ls.Lock(0)) {
		t.Fatal("record of the in-flight self-held cell reported quiescent")
	}
	s.Record(ls.Lock(2))
	if !s.Validate(own) {
		t.Fatal("stale flag from a self-held record failed validation despite the exclusion")
	}
	if s.Validate(nil) {
		t.Fatal("stale set validated without the own filter")
	}
}

// TestReadSetAdd: an observation kept across Reset and added back still
// validates while its lock is untouched, fails after a committed write,
// and dooms the set when it was made during an in-flight write.
func TestReadSetAdd(t *testing.T) {
	ls := NewArray(1, 0, rel.KeyOver(nil), 1)
	l := ls.Lock(0)
	kept := ReadEntry{L: l, E: l.Epoch()}
	var s ReadSet
	s.Add(kept)
	s.Reset()
	s.Add(kept)
	if !s.Contains(l) || !s.Validate(nil) {
		t.Fatal("a re-added quiescent observation did not validate")
	}
	l.BumpEpoch()
	l.BumpEpoch()
	s.Reset()
	s.Add(kept)
	if s.Validate(nil) {
		t.Fatal("a re-added observation validated across a committed write")
	}
	l.BumpEpoch()
	s.Reset()
	s.Add(ReadEntry{L: l, E: l.Epoch()})
	l.BumpEpoch()
	if s.Validate(nil) {
		t.Fatal("an observation of an in-flight write validated")
	}
}

func TestReadSetContains(t *testing.T) {
	ls := NewArray(1, 0, rel.KeyOver(nil), 2)
	var s ReadSet
	s.Record(ls.Lock(0))
	if !s.Contains(ls.Lock(0)) || s.Contains(ls.Lock(1)) {
		t.Fatal("Contains does not reflect recorded locks")
	}
	s.Reset()
	if s.Contains(ls.Lock(0)) {
		t.Fatal("Contains true after Reset")
	}
}

func TestHoldsExclusive(t *testing.T) {
	a := NewArray(1, 0, rel.KeyOver(nil), 1)
	b := NewArray(1, 1, rel.KeyOver(nil), 1)
	txn := NewTxn()
	txn.Acquire([]*Lock{a.Lock(0)}, Shared, false)
	txn.Acquire([]*Lock{b.Lock(0)}, Exclusive, false)
	if txn.HoldsExclusive(a.Lock(0)) {
		t.Fatal("shared hold reported exclusive")
	}
	if !txn.HoldsExclusive(b.Lock(0)) {
		t.Fatal("exclusive hold not reported")
	}
	txn.ReleaseAll()
	if txn.HoldsExclusive(b.Lock(0)) {
		t.Fatal("released lock reported held exclusive")
	}
}

// TestReadSetLargeSort sorts a large read set (entries recorded in
// descending lock order) and checks the duplicate-collapse rule on the
// sorted result.
func TestReadSetLargeSort(t *testing.T) {
	const n = 24
	ls := NewArray(1, 0, rel.KeyOver(nil), n)
	var s ReadSet
	for i := n - 1; i >= 0; i-- {
		s.Record(ls.Lock(i))
	}
	s.Record(ls.Lock(0)) // duplicate at the same epoch: collapses, still valid
	if !s.Validate(nil) {
		t.Fatal("validation of a large quiescent set failed")
	}
	if s.Distinct() != n {
		t.Fatalf("Distinct = %d, want %d", s.Distinct(), n)
	}
}

// TestBeginWriteEpochs pins the writer half of the epoch protocol at the
// locks layer: begin-bumping covers exactly the exclusively held,
// not-yet-odd locks of one stripe array, and a second call (a second
// container write on the same instance) bumps nothing twice.
func TestBeginWriteEpochs(t *testing.T) {
	arr := NewArray(1, 2, rel.KeyOver(nil), 4)
	other := NewArray(1, 1, rel.KeyOver(nil), 1)
	txn := NewTxn()
	txn.Acquire([]*Lock{other.Lock(0)}, Exclusive, false)
	txn.Acquire([]*Lock{arr.Lock(0), arr.Lock(2)}, Exclusive, true)
	txn.Acquire([]*Lock{arr.Lock(3)}, Shared, false)

	var bumped []*Lock
	bumped = txn.BeginWriteEpochs(arr, bumped)
	if len(bumped) != 2 {
		t.Fatalf("bumped %d locks, want 2 (the exclusive holds of this array)", len(bumped))
	}
	for _, l := range []*Lock{arr.Lock(0), arr.Lock(2)} {
		if !l.EpochOdd() {
			t.Fatalf("exclusively held %v not begin-bumped", l.ID())
		}
	}
	if arr.Lock(1).Epoch() != 0 || arr.Lock(3).Epoch() != 0 {
		t.Fatal("unheld or shared-held stripes were bumped")
	}
	if other.Lock(0).Epoch() != 0 {
		t.Fatal("a lock outside the stripe array was bumped")
	}
	// Second write on the same instance: already-odd cells are skipped.
	if again := txn.BeginWriteEpochs(arr, nil); len(again) != 0 {
		t.Fatalf("second begin-bump touched %d locks, want 0", len(again))
	}
	// End-bump and release: everything even, transaction reusable.
	for _, l := range bumped {
		l.BumpEpoch()
	}
	txn.ReleaseAll()
	txn.Reset()
	for i := 0; i < arr.Len(); i++ {
		if arr.Lock(i).EpochOdd() {
			t.Fatalf("stripe %d left odd", i)
		}
	}
}
