package locks

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rel"
)

// parseKey reads an instance key written as comma-separated values: nil,
// true, false, i<int64>, n<int>, u<uint64>, f<float64> or s<string> (the
// string runs to the next comma). It reports false on anything else, and
// on NaN, which Compare does not order.
func parseKey(s string) (rel.Key, bool) {
	if s == "" {
		return rel.NewKey(), true
	}
	var vals []rel.Value
	for _, tok := range strings.Split(s, ",") {
		var v rel.Value
		var err error
		switch {
		case tok == "nil":
		case tok == "true" || tok == "false":
			v = tok == "true"
		case tok == "":
			return rel.Key{}, false
		case tok[0] == 'i':
			v, err = strconv.ParseInt(tok[1:], 10, 64)
		case tok[0] == 'n':
			var i int64
			i, err = strconv.ParseInt(tok[1:], 10, 64)
			v = int(i)
		case tok[0] == 'u':
			v, err = strconv.ParseUint(tok[1:], 10, 64)
		case tok[0] == 'f':
			var f float64
			f, err = strconv.ParseFloat(tok[1:], 64)
			if math.IsNaN(f) {
				return rel.Key{}, false
			}
			v = f
		case tok[0] == 's':
			v = tok[1:]
		default:
			return rel.Key{}, false
		}
		if err != nil {
			return rel.Key{}, false
		}
		vals = append(vals, v)
	}
	return rel.NewKey(vals...), true
}

// FuzzLockOrder checks the lock order on pairs of stripe arrays built
// from fuzzed identities (rel, node, instance key). Two arrays of one
// (rel, node) get keys of one arity, as a decomposition node's instances
// do: the second key is cut or padded with nil to the first's length.
// For every pair of stripes, compareLocks must agree in sign with
// CompareIDs; an exact order word must give back its identity through
// ID; and two arrays whose words tie with either word exact must have
// the same identity. The committed seeds (testdata/fuzz/FuzzLockOrder)
// put integers at and just past the exact range of the fields of every
// arity from 1 to 6 and far past it, negative integers, uint64 values
// above MaxInt64, floats, bools and nil, strings that share long
// prefixes, mixed types in one column, keys of 7 and more columns, and
// relation ids and nodes at and past the top of their fields.
func FuzzLockOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, relA uint16, nodeA uint8, keyA string, relB uint16, nodeB uint8, keyB string) {
		ka, okA := parseKey(keyA)
		kb, okB := parseKey(keyB)
		if !okA || !okB || ka.Len() > 8 || kb.Len() > 8 {
			return
		}
		if relA == relB && nodeA == nodeB && ka.Len() != kb.Len() {
			vals := make([]rel.Value, ka.Len())
			copy(vals, kb.Values())
			kb = rel.NewKey(vals...)
		}
		idA := ID{Rel: int(relA), Node: int(nodeA), Inst: ka}
		idB := ID{Rel: int(relB), Node: int(nodeB), Inst: kb}
		a, b := NewArray(idA.Rel, idA.Node, ka, 2), NewArray(idB.Rel, idB.Node, kb, 2)
		for _, arr := range []struct {
			a  *Array
			id ID
		}{{a, idA}, {b, idB}} {
			if arr.a.hdr.prefix != nil {
				continue
			}
			want := arr.id
			want.Stripe = 1
			if got := arr.a.Lock(1).ID(); CompareIDs(got, want) != 0 || got.Rel != want.Rel || got.Node != want.Node || got.Stripe != 1 {
				t.Fatalf("exact word %#x of %v decodes to %v", arr.a.hdr.word, arr.id, got)
			}
		}
		if a.hdr.word == b.hdr.word && (a.hdr.prefix == nil || b.hdr.prefix == nil) && CompareIDs(idA, idB) != 0 {
			t.Fatalf("exact word %#x shared by %v and %v", a.hdr.word, idA, idB)
		}
		for sa := 0; sa < 2; sa++ {
			for sb := 0; sb < 2; sb++ {
				ia, ib := idA, idB
				ia.Stripe, ib.Stripe = sa, sb
				if got, want := sign(compareLocks(a.Lock(sa), b.Lock(sb))), sign(CompareIDs(ia, ib)); got != want {
					t.Fatalf("compareLocks(%v, %v) = %d (words %#x, %#x), CompareIDs %d", ia, ib, got, a.hdr.word, b.hdr.word, want)
				}
			}
		}
	})
}

// TestWordFieldBits pins the order word's layout: 45 key bits split
// evenly over one to six bound columns, none for the root or for seven
// columns and more.
func TestWordFieldBits(t *testing.T) {
	want := map[int]int{0: 0, 1: 45, 2: 22, 3: 15, 4: 11, 5: 9, 6: 7, 7: 0, 8: 0}
	for arity, bits := range want {
		if got := WordFieldBits(arity); got != bits {
			t.Errorf("WordFieldBits(%d) = %d, want %d", arity, got, bits)
		}
	}
}

// TestExactIdentities pins which identities keep no prefix string: small
// ids with integer, bool and nil keys inside their fields' exact ranges.
func TestExactIdentities(t *testing.T) {
	cases := []struct {
		rel, node int
		inst      rel.Key
		exact     bool
	}{
		{0, 0, rel.NewKey(), true},
		{1022, 62, rel.NewKey(), true},
		{1023, 0, rel.NewKey(), false},
		{1, 63, rel.NewKey(), false},
		{1, 3, rel.NewKey(int64(1<<21-4), -(1<<21 - 4)), true},
		{1, 3, rel.NewKey(int64(1<<21-3), 0), false},
		{1, 3, rel.NewKey(nil, true), true},
		{1, 3, rel.NewKey(1, 2.5), false},
		{1, 3, rel.NewKey("a", 1), false},
		{1, 3, rel.NewKey(uint64(math.MaxUint64)), false},
		{1, 3, rel.NewKey(1, 2, 3, 4, 5, 6), true},
		{1, 3, rel.NewKey(1, 2, 3, 4, 5, 6, 7), false},
	}
	for _, c := range cases {
		if got := NewArray(c.rel, c.node, c.inst, 1).hdr.prefix == nil; got != c.exact {
			t.Errorf("(%d, %d, %v): exact = %v, want %v", c.rel, c.node, c.inst, got, c.exact)
		}
	}
}
