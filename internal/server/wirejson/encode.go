package wirejson

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as encoding/json writes
// it with HTML escaping on (its Marshal and Encoder default): <, > and &
// become \u003c, \u003e and \u0026, U+2028 and U+2029 are escaped, and
// invalid UTF-8 becomes \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json formats a float64: the shortest
// representation, in exponent form only below 1e-6 or from 1e21 on. It
// reports false, appending nothing, for NaN and ±Inf, which JSON cannot
// carry.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// AppendValue appends v as encoding/json's Marshal would. The types the
// wire carries (the integer kinds, float64, bool, string, json.Number
// and nil) are written directly; anything else goes through Marshal.
func AppendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case string:
		return AppendString(dst, x), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case nil:
		return append(dst, "null"...), nil
	case float64:
		if out, ok := AppendFloat(dst, x); ok {
			return out, nil
		}
	case json.Number:
		if x == "" {
			return append(dst, '0'), nil
		}
		if NumberLen([]byte(x)) != len(x) {
			return dst, fmt.Errorf("json: invalid number literal %q", string(x))
		}
		return append(dst, x...), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}
