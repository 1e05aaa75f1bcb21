package rel

import (
	"encoding/binary"
	"math"
)

// This file implements the order word: a fixed-width 64-bit prefix of the
// value order, which a sorted container keeps inline beside each entry so
// a search compares machine words and reads an entry's key only when the
// words tie. Its one law, for any two supported values a and b:
//
//	OrderWord(a) < OrderWord(b)  ⇒  Compare(a, b) < 0
//
// and an exact word belongs to one value only: if OrderWord(a) is exact
// and OrderWord(b) has the same word, then Compare(a, b) == 0. A tie
// between words that are not both exact says nothing; Compare settles it.
//
// The top 3 bits carry the type rank of Compare (nil, bool, int, float,
// string), the low 61 bits the value within its type:
//
//   - nil, false and true are exact, one word each;
//   - an integer in (−2⁶⁰, 2⁶⁰), of any integer kind, is exact: the
//     integer offset into the 61-bit payload. An integer at or below −2⁶⁰
//     takes the word just below the integer block (the bool block uses
//     only its first two words); one at or above 2⁶⁰, uint64 values above
//     MaxInt64 included, takes the top integer word. Neither is exact;
//   - a float is the top 61 bits of its order-preserving byte encoding
//     (see AppendOrderedValue), never exact;
//   - a string is its first 7 bytes, zero-padded, followed by its length
//     clamped to 8; it is exact when the string is at most 7 bytes long.
const (
	wordRankShift = 61
	wordPayload   = 1<<wordRankShift - 1

	wordIntBias  = 1<<60 - 1
	wordIntLimit = 1 << 60
)

// OrderWord returns the order word of v and whether it is exact. It
// panics on unsupported dynamic types, like Compare.
func OrderWord(v Value) (w uint64, exact bool) {
	switch x := v.(type) {
	case int64:
		return intWord(x, false)
	case nil:
		return 0, true
	case bool:
		if x {
			return 1<<wordRankShift | 1, true
		}
		return 1 << wordRankShift, true
	case int:
		return intWord(int64(x), false)
	case uint64:
		i, overflow := asInt(x)
		return intWord(i, overflow)
	case float64:
		return 3<<wordRankShift | orderedFloatBits(x)>>3, false
	case string:
		var p [8]byte
		copy(p[:7], x)
		n := len(x)
		if n > 8 {
			n = 8
		}
		return 4<<wordRankShift | binary.BigEndian.Uint64(p[:])>>4 | uint64(n), n < 8
	default:
		panic("rel: unsupported value type in order word")
	}
}

// intWord is the order word of the normalized integer x, or of
// MaxInt64+1+x when overflow is set.
func intWord(x int64, overflow bool) (uint64, bool) {
	switch {
	case overflow || x >= wordIntLimit:
		return 2<<wordRankShift | wordPayload, false
	case x <= -wordIntLimit:
		return 2<<wordRankShift - 1, false
	default:
		return 2<<wordRankShift | uint64(x+wordIntBias), true
	}
}

// orderedFloatBits maps x to a uint64 whose unsigned order is x's order,
// with −0.0 equal to +0.0.
func orderedFloatBits(x float64) uint64 {
	if x == 0 {
		// Normalize -0.0: Compare treats it equal to +0.0.
		x = 0
	}
	bits := math.Float64bits(x)
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// FieldCode is the order word confined to a field of the given width
// (4 ≤ bits ≤ 63), so that several values can share one word: the lock
// order (internal/locks) packs a node instance's bound columns into the
// identity word of its stripe array this way. It obeys OrderWord's law,
// codes in place of words. The lowest four codes are nil, false, true and
// an integer below the exact range; the highest three are an integer
// above it (uint64 values above MaxInt64 included), any float and any
// string. The codes between are the integers in ±FieldIntLimit(bits) =
// ±(2^(bits−1) − 4), offset by 2^(bits−1). Only nil, the bools and those
// integers are exact.
func FieldCode(v Value, bits uint) (code uint64, exact bool) {
	switch x := v.(type) {
	case int64:
		return fieldInt(x, false, bits)
	case int:
		return fieldInt(int64(x), false, bits)
	case uint64:
		i, overflow := asInt(x)
		return fieldInt(i, overflow, bits)
	case nil:
		return 0, true
	case bool:
		if x {
			return 2, true
		}
		return 1, true
	case float64:
		return 1<<bits - 2, false
	case string:
		return 1<<bits - 1, false
	default:
		panic("rel: unsupported value type in order field")
	}
}

// FieldIntLimit returns the largest integer a bits-wide field holds
// exactly; its negation is the smallest.
func FieldIntLimit(bits uint) int64 { return int64(1)<<(bits-1) - 4 }

// fieldInt is the field code of the normalized integer x, or of
// MaxInt64+1+x when overflow is set.
func fieldInt(x int64, overflow bool, bits uint) (uint64, bool) {
	lim := FieldIntLimit(bits)
	switch {
	case overflow || x > lim:
		return 1<<bits - 3, false
	case x < -lim:
		return 3, false
	default:
		return uint64(x + lim + 4), true
	}
}

// FieldValue inverts FieldCode on an exact code; integers come back as
// int64.
func FieldValue(code uint64, bits uint) Value {
	switch code {
	case 0:
		return nil
	case 1:
		return false
	case 2:
		return true
	}
	return int64(code) - int64(1)<<(bits-1)
}
