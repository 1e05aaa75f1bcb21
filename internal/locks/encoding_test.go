package locks

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/rel"
)

// randValue draws a key value across every type the ordered encoding
// supports, biased toward collisions so equal prefixes are common.
func randValue(rng *rand.Rand) rel.Value {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 1
	case 2:
		return rng.Intn(5) - 2 // int
	case 3:
		return int64(rng.Intn(5)-2) << (rng.Intn(3) * 20)
	case 4:
		return uint64(math.MaxInt64) + uint64(rng.Intn(3))
	case 5:
		return float64(rng.Intn(5)-2) / 2
	default:
		return string([]byte{byte('a' + rng.Intn(2)), byte(rng.Intn(2))}[:1+rng.Intn(2)])
	}
}

// randArray builds a stripe array with a random identity across the
// (rel, node, inst) space; a node's key arity is fixed, as in a
// decomposition, and stripe counts vary from 1 to 4.
func randArray(rng *rand.Rand) (*Array, ID) {
	id := ID{Rel: rng.Intn(3), Node: rng.Intn(4)}
	vals := make([]rel.Value, id.Node)
	for i := range vals {
		vals[i] = randValue(rng)
	}
	id.Inst = rel.NewKey(vals...)
	return NewArray(id.Rel, id.Node, id.Inst, 1+rng.Intn(4)), id
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestLockEncodingMatchesCompareIDs quick-checks the load-bearing
// invariant of the lock order: compareLocks — a header pointer check,
// one comparison of the arrays' order words, a comparison of their
// prefixes only when the words tie, and a stripe comparison — agrees in
// sign with CompareIDs on the identities the locks were built with, for
// locks of one array and of distinct arrays with equal and unequal
// identities alike; and Lock.ID rebuilds that identity.
func TestLockEncodingMatchesCompareIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type built struct {
		l  *Lock
		id ID
	}
	var pool []built
	for i := 0; i < 400; i++ {
		a, id := randArray(rng)
		for s := 0; s < a.Len(); s++ {
			sid := id
			sid.Stripe = s
			pool = append(pool, built{a.Lock(s), sid})
		}
	}
	for _, b := range pool {
		if got := b.l.ID(); CompareIDs(got, b.id) != 0 || got.Rel != b.id.Rel || got.Node != b.id.Node || got.Stripe != b.id.Stripe {
			t.Fatalf("ID() = %v, built as %v", got, b.id)
		}
	}
	for i := 0; i < 200000; i++ {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if got, want := sign(compareLocks(a.l, b.l)), sign(CompareIDs(a.id, b.id)); got != want {
			t.Fatalf("compareLocks(%v, %v) = %d, CompareIDs %d", a.id, b.id, got, want)
		}
	}
}

// TestLockIDRoundTripsValues pins the rebuilt identity's values: an
// instance key comes back value for value (ints as int64).
func TestLockIDRoundTripsValues(t *testing.T) {
	key := rel.NewKey(nil, true, 7, int64(-1<<40), uint64(math.MaxUint64), -2.5, "a\x00b", "")
	got := NewArray(5, 2, key, 3).Lock(2).ID()
	want := []rel.Value{nil, true, int64(7), int64(-1 << 40), uint64(math.MaxUint64), -2.5, "a\x00b", ""}
	if got.Rel != 5 || got.Node != 2 || got.Stripe != 2 || got.Inst.Len() != len(want) {
		t.Fatalf("ID() = %v", got)
	}
	for i, v := range want {
		if got.Inst.At(i) != v {
			t.Fatalf("value %d = %#v, want %#v", i, got.Inst.At(i), v)
		}
	}
}

// TestLockSize pins the footprint of one physical lock: the mutex, the
// epoch cell, the header pointer and the stripe number.
func TestLockSize(t *testing.T) {
	var l Lock
	if n := unsafe.Sizeof(l); n > 48 {
		t.Fatalf("Lock is %d bytes, want ≤ 48", n)
	}
}

// TestArraySize pins the footprint of a one-stripe array, the shape a
// lock-bearing node instance embeds: the identity header, stripe 0 inline
// and one pointer to the slab of further stripes (nil here).
func TestArraySize(t *testing.T) {
	var a Array
	if n := unsafe.Sizeof(a); n > 72 {
		t.Fatalf("Array is %d bytes, want ≤ 72", n)
	}
}

// TestLockEncodingRelMajor pins the registry-wide extension: every lock
// of a lower relation id precedes every lock of a higher one, regardless
// of node, instance or stripe.
func TestLockEncodingRelMajor(t *testing.T) {
	lo := NewArray(1, 9, rel.NewKey("zzz", int64(1<<40)), 4)
	hi := NewArray(2, 0, rel.NewKey(), 1)
	for i := 0; i < lo.Len(); i++ {
		if compareLocks(lo.Lock(i), hi.Lock(0)) >= 0 {
			t.Fatalf("lock %v does not precede %v in the lock order", lo.Lock(i).ID(), hi.Lock(0).ID())
		}
		if CompareIDs(lo.Lock(i).ID(), hi.Lock(0).ID()) >= 0 {
			t.Fatalf("CompareIDs does not order %v before %v", lo.Lock(i).ID(), hi.Lock(0).ID())
		}
	}
}
