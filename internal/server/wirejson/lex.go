// Package wirejson is the JSON layer of the crsd wire protocol: one
// allocation-free lexer and the append encoders that the server's request
// scanner, its reply encoder and the Go client share.
//
// The protocol's documents have a closed grammar (internal/server), so
// neither side needs reflection: each walks its grammar over the Lexer's
// primitives and writes its replies with the Append functions. The
// lexer accepts exactly the JSON that encoding/json accepts (RFC 8259
// with encoding/json's nesting limit), and strings unescape as
// encoding/json unescapes them, invalid UTF-8 and unpaired surrogates
// becoming U+FFFD. The encoders produce the bytes encoding/json's
// Marshal and Encoder produce, HTML-safe escaping included.
package wirejson

import (
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is the deepest nesting of objects and arrays the lexer
// accepts, encoding/json's limit.
const maxDepth = 10000

// Lexer walks one JSON document held in memory. The zero value is ready
// for Reset. A Lexer is not safe for concurrent use.
type Lexer struct {
	data  []byte
	pos   int
	depth int
	// scratch holds the unescaped form of strings that needed it. It only
	// grows during one document, so every slice String returned stays
	// valid until the next Reset.
	scratch []byte
}

// Reset points the lexer at the start of data. Scratch space beyond
// maxScratch is released rather than kept for the next document.
func (l *Lexer) Reset(data []byte) {
	l.data, l.pos, l.depth = data, 0, 0
	l.scratch = l.scratch[:0]
	if cap(l.scratch) > maxScratch {
		l.scratch = nil
	}
}

// maxScratch is the most scratch space a Lexer keeps across Resets.
const maxScratch = 64 << 10

// Offset reports how many bytes of the document have been consumed.
func (l *Lexer) Offset() int { return l.pos }

// Peek skips whitespace and returns the next byte without consuming it,
// or 0 at the end of the document.
func (l *Lexer) Peek() byte {
	for l.pos < len(l.data) {
		switch c := l.data[l.pos]; c {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next non-space byte.
func (l *Lexer) eat(c byte) bool {
	if l.Peek() == c && l.pos < len(l.data) {
		l.pos++
		return true
	}
	return false
}

// errorf is a syntax error at the lexer's position.
func (l *Lexer) errorf(format string, args ...any) error {
	return fmt.Errorf(format+" (offset %d)", append(args, l.pos)...)
}

// unexpected reports the byte at the lexer's position, or the end of the
// input, where the grammar wanted what.
func (l *Lexer) unexpected(what string) error {
	if l.pos >= len(l.data) {
		return l.errorf("unexpected end of JSON input")
	}
	return l.errorf("invalid character %s %s", quoteChar(l.data[l.pos]), what)
}

// quoteChar renders a byte as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	return fmt.Sprintf("%q", rune(c))
}

// Object consumes an object, calling member once per member with its
// unescaped name; member must consume the member's value.
func (l *Lexer) Object(member func(name []byte) error) error {
	if !l.eat('{') {
		return l.unexpected("looking for beginning of object")
	}
	if l.depth++; l.depth > maxDepth {
		return l.errorf("exceeded max depth")
	}
	if !l.eat('}') {
		for {
			if l.Peek() != '"' {
				return l.unexpected("looking for beginning of object key string")
			}
			name, err := l.String()
			if err != nil {
				return err
			}
			if !l.eat(':') {
				return l.unexpected("after object key")
			}
			if err := member(name); err != nil {
				return err
			}
			if l.eat(',') {
				continue
			}
			if !l.eat('}') {
				return l.unexpected("after object key:value pair")
			}
			break
		}
	}
	l.depth--
	return nil
}

// Array consumes an array, calling elem once per element; elem must
// consume the element.
func (l *Lexer) Array(elem func() error) error {
	if !l.eat('[') {
		return l.unexpected("looking for beginning of array")
	}
	if l.depth++; l.depth > maxDepth {
		return l.errorf("exceeded max depth")
	}
	if !l.eat(']') {
		for {
			if err := elem(); err != nil {
				return err
			}
			if l.eat(',') {
				continue
			}
			if !l.eat(']') {
				return l.unexpected("after array element")
			}
			break
		}
	}
	l.depth--
	return nil
}

// Null consumes a null if one comes next.
func (l *Lexer) Null() (bool, error) {
	if l.Peek() != 'n' {
		return false, nil
	}
	return true, l.word("null")
}

// Bool consumes true or false.
func (l *Lexer) Bool() (bool, error) {
	switch l.Peek() {
	case 't':
		return true, l.word("true")
	case 'f':
		return false, l.word("false")
	}
	return false, l.unexpected("looking for beginning of value")
}

// word consumes the literal w, whose first byte is known to match.
func (l *Lexer) word(w string) error {
	for i := 0; i < len(w); i++ {
		if l.pos >= len(l.data) || l.data[l.pos] != w[i] {
			return l.unexpected("in literal " + w + " (expecting " + quoteChar(w[i]) + ")")
		}
		l.pos++
	}
	return nil
}

// Number consumes a number and returns its literal, which follows the
// JSON number grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (l *Lexer) Number() ([]byte, error) {
	if c := l.Peek(); c != '-' && (c < '0' || c > '9') {
		return nil, l.unexpected("looking for beginning of value")
	}
	start := l.pos
	n := NumberLen(l.data[start:])
	if n <= 0 {
		l.pos = start - n
		return nil, l.unexpected("in numeric literal")
	}
	l.pos = start + n
	return l.data[start:l.pos], nil
}

// NumberLen returns the length of the number literal at the start of b.
// When b does not start with one it returns -k, k being the offset of
// the first offending byte.
func NumberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	default:
		return -i
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return -i
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return -i
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	return i
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// String consumes a string and returns its unescaped bytes: a slice of
// the document when the string holds no escape and only valid UTF-8,
// otherwise a slice of the lexer's scratch space. Either stays valid
// until the next Reset.
func (l *Lexer) String() ([]byte, error) {
	if l.Peek() != '"' {
		return nil, l.unexpected("looking for beginning of value")
	}
	l.pos++
	start := l.pos
	plain := true
	for {
		if l.pos >= len(l.data) {
			return nil, l.unexpected("")
		}
		c := l.data[l.pos]
		switch {
		case c == '"':
			s := l.data[start:l.pos]
			l.pos++
			if plain {
				return s, nil
			}
			return l.unquote(s), nil
		case c == '\\':
			plain = false
			l.pos++
			if l.pos >= len(l.data) {
				return nil, l.unexpected("")
			}
			switch l.data[l.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				l.pos++
			case 'u':
				l.pos++
				for k := 0; k < 4; k++ {
					if l.pos >= len(l.data) || unhex(l.data[l.pos]) < 0 {
						return nil, l.unexpected("in \\u hexadecimal character escape")
					}
					l.pos++
				}
			default:
				return nil, l.unexpected("in string escape code")
			}
		case c < ' ':
			return nil, l.unexpected("in string literal")
		case c < utf8.RuneSelf:
			l.pos++
		default:
			r, size := utf8.DecodeRune(l.data[l.pos:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			l.pos += size
		}
	}
}

// unquote appends the unescaped form of the syntactically valid string
// body s to the scratch space, exactly as encoding/json unquotes it.
func (l *Lexer) unquote(s []byte) []byte {
	start := len(l.scratch)
	b := l.scratch
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if rr1 := getu4(s[r:]); rr1 >= 0 {
						if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
							r += 6
							b = utf8.AppendRune(b, dec)
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	l.scratch = b
	return b[start:len(b):len(b)]
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r*16 + h
	}
	return r
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// Skip consumes one value of any type.
func (l *Lexer) Skip() error {
	switch c := l.Peek(); {
	case c == '{':
		return l.Object(func([]byte) error { return l.Skip() })
	case c == '[':
		return l.Array(l.Skip)
	case c == '"':
		_, err := l.String()
		return err
	case c == 't' || c == 'f':
		_, err := l.Bool()
		return err
	case c == 'n':
		_, err := l.Null()
		return err
	default:
		_, err := l.Number()
		return err
	}
}

// End checks that nothing but whitespace follows the value just
// consumed: another value is "trailing data", anything else a syntax
// error, as encoding/json's Decoder reports them.
func (l *Lexer) End() error {
	switch c := l.Peek(); {
	case l.pos >= len(l.data):
		return nil
	case c == '{' || c == '[' || c == '"' || c == '-' || c == 't' || c == 'f' || c == 'n' || isDigit(c):
		return l.errorf("trailing data after the JSON value")
	default:
		return l.unexpected("looking for beginning of value")
	}
}
