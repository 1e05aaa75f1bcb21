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

// TestFieldCode checks FieldCode's law at every field width the lock
// order uses, on values at and around each width's exact integer range
// and of every type: a smaller code means a smaller value, a tie with an
// exact code means equal values, and FieldValue gives an exact code's
// value back.
func TestFieldCode(t *testing.T) {
	for _, bits := range []uint{7, 9, 11, 15, 22, 45} {
		lim := FieldIntLimit(bits)
		vals := []Value{nil, false, true, 0, int64(-1), uint64(math.MaxUint64), uint64(1 << 63), math.MinInt64, math.MaxInt64,
			-0.0, 2.5, math.Inf(-1), "", "a", "ab"}
		for _, d := range []int64{-2, -1, 0, 1} {
			vals = append(vals, lim+d+1, -lim-d-1, int(lim+d+1), uint64(lim+d+1))
		}
		for _, a := range vals {
			ca, ea := FieldCode(a, bits)
			if ca >= 1<<bits {
				t.Fatalf("bits %d: code %#x of %#v overflows its field", bits, ca, a)
			}
			if ea && Compare(FieldValue(ca, bits), a) != 0 {
				t.Fatalf("bits %d: exact code %#x of %#v (%T) decodes to %#v", bits, ca, a, a, FieldValue(ca, bits))
			}
			for _, b := range vals {
				cb, eb := FieldCode(b, bits)
				c := Compare(a, b)
				switch {
				case ca < cb && c >= 0, ca > cb && c <= 0:
					t.Fatalf("bits %d: codes %#x, %#x misorder %#v (%T), %#v (%T): Compare = %d", bits, ca, cb, a, a, b, b, c)
				case ca == cb && (ea || eb) && c != 0:
					t.Fatalf("bits %d: exact code %#x shared by %#v (%T) and %#v (%T)", bits, ca, a, a, b, b)
				}
			}
		}
	}
}
