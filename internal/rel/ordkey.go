package rel

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements an order-preserving byte encoding of values and
// keys: for any two values a and b, bytes.Compare(enc(a), enc(b)) has the
// same sign as Compare(a, b). The locking substrate encodes a physical
// lock's identity this way, once at lock-array construction time, when
// its order word (FieldCode) cannot hold the identity exactly; two such
// identities whose words tie are then ordered by one memcmp instead of a
// walk over dynamically typed keys.
//
// Each value encodes as a type-rank tag byte followed by a self-delimiting
// payload, so concatenated encodings compare elementwise exactly like
// CompareKeys. NaN float values are not supported (Compare itself is not
// a total order over NaN).

// Tag bytes mirror typeRank, so cross-type comparisons agree with Compare.
const (
	ordTagNil    = 0x00
	ordTagBool   = 0x01
	ordTagInt    = 0x02
	ordTagFloat  = 0x03
	ordTagString = 0x04
)

// AppendOrderedValue appends the order-preserving encoding of v to dst and
// returns the extended slice. It panics on unsupported dynamic types, like
// Compare.
func AppendOrderedValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, ordTagNil)
	case bool:
		if x {
			return append(dst, ordTagBool, 1)
		}
		return append(dst, ordTagBool, 0)
	case int:
		return appendOrderedInt(dst, int64(x), false)
	case int64:
		return appendOrderedInt(dst, x, false)
	case uint64:
		i, overflow := asInt(x)
		return appendOrderedInt(dst, i, overflow)
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, ordTagFloat), orderedFloatBits(x))
	case string:
		dst = append(dst, ordTagString)
		for i := 0; i < len(x); i++ {
			c := x[i]
			if c == 0x00 {
				// Escape NUL so embedded zero bytes stay above the
				// terminator in the byte order.
				dst = append(dst, 0x00, 0xff)
			} else {
				dst = append(dst, c)
			}
		}
		return append(dst, 0x00, 0x01)
	default:
		panic("rel: unsupported value type in ordered encoding")
	}
}

// appendOrderedInt encodes the normalized 65-bit integer line: a flag byte
// separating the uint64 overflow range (values above MaxInt64, which
// Compare orders after every int64) from the sign-flipped int64 range.
func appendOrderedInt(dst []byte, x int64, overflow bool) []byte {
	flag := byte(0)
	if overflow {
		flag = 1
	}
	return binary.BigEndian.AppendUint64(append(dst, ordTagInt, flag), uint64(x)^(1<<63))
}

// AppendOrderedKey appends the ordered encodings of every key value, so
// byte comparison of two equal-arity keys matches CompareKeys.
func AppendOrderedKey(dst []byte, k Key) []byte {
	for _, v := range k.vals {
		dst = AppendOrderedValue(dst, v)
	}
	return dst
}

// AppendOrderedAt appends the ordered encodings of the row's values at
// the given schema indices — AppendOrderedKey of the key gathered at idx,
// without building the key.
func (r Row) AppendOrderedAt(dst []byte, idx []int) []byte {
	for _, i := range idx {
		dst = AppendOrderedValue(dst, r.vals[i])
	}
	return dst
}

// DecodeOrderedKey inverts AppendOrderedKey up to the integer kind: every
// integer decodes as int64 (uint64 above MaxInt64), which Compare treats
// as equal to the encoded int, int64 or uint64 value.
func DecodeOrderedKey(b []byte) (Key, error) {
	var vals []Value
	for len(b) > 0 {
		tag := b[0]
		b = b[1:]
		switch tag {
		case ordTagNil:
			vals = append(vals, nil)
		case ordTagBool:
			if len(b) < 1 {
				return Key{}, fmt.Errorf("rel: truncated ordered bool")
			}
			vals = append(vals, b[0] == 1)
			b = b[1:]
		case ordTagInt:
			if len(b) < 9 {
				return Key{}, fmt.Errorf("rel: truncated ordered int")
			}
			u := binary.BigEndian.Uint64(b[1:9]) ^ (1 << 63)
			if b[0] == 1 {
				vals = append(vals, u+math.MaxInt64+1)
			} else {
				vals = append(vals, int64(u))
			}
			b = b[9:]
		case ordTagFloat:
			if len(b) < 8 {
				return Key{}, fmt.Errorf("rel: truncated ordered float")
			}
			bits := binary.BigEndian.Uint64(b)
			if bits>>63 != 0 {
				bits &^= 1 << 63
			} else {
				bits = ^bits
			}
			vals = append(vals, math.Float64frombits(bits))
			b = b[8:]
		case ordTagString:
			// Bytes up to the 0x00 0x01 terminator; 0x00 0xff is an
			// escaped NUL.
			var s []byte
			for {
				if len(b) == 0 || b[0] == 0x00 && len(b) < 2 {
					return Key{}, fmt.Errorf("rel: unterminated ordered string")
				}
				if b[0] != 0x00 {
					s = append(s, b[0])
					b = b[1:]
					continue
				}
				esc := b[1]
				b = b[2:]
				if esc == 0x01 {
					break
				}
				s = append(s, 0x00)
			}
			vals = append(vals, string(s))
		default:
			return Key{}, fmt.Errorf("rel: unknown ordered value tag %#x", tag)
		}
	}
	return Key{vals: vals}, nil
}
