package rel

import (
	"math"
	"testing"
)

// fuzzValue builds a value of every supported type from one fuzz input:
// kind picks nil, bool, int, int64, uint64 (i's bits, so above MaxInt64
// when i is negative), float64 or string.
func fuzzValue(kind byte, i int64, f float64, s string) Value {
	switch kind % 7 {
	case 0:
		return nil
	case 1:
		return i&1 == 1
	case 2:
		return int(i)
	case 3:
		return i
	case 4:
		return uint64(i)
	case 5:
		return f
	default:
		return s
	}
}

// FuzzOrderWord checks the order-word law on pairs of values of every
// supported type: a smaller word means a smaller value, and a tie with an
// exact word means equal values. The committed seeds
// (testdata/fuzz/FuzzOrderWord) sit on the boundaries: ±2⁶⁰ ± 1, uint64
// values above MaxInt64, −0.0 against +0.0, and strings that share a
// prefix up to and past the 7 bytes a word holds.
func FuzzOrderWord(f *testing.F) {
	f.Fuzz(func(t *testing.T, ka byte, ia int64, fa float64, sa string, kb byte, ib int64, fb float64, sb string) {
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return // Compare is not a total order over NaN
		}
		a, b := fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb)
		wa, ea := OrderWord(a)
		wb, eb := OrderWord(b)
		c := Compare(a, b)
		switch {
		case wa < wb && c >= 0, wa > wb && c <= 0:
			t.Fatalf("words %#x, %#x misorder %#v (%T), %#v (%T): Compare = %d", wa, wb, a, a, b, b, c)
		case wa == wb && (ea || eb) && c != 0:
			t.Fatalf("exact word %#x shared by %#v (%T) and %#v (%T)", wa, a, a, b, b)
		}
	})
}
