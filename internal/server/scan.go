package server

// The request scanner: a hand-written reader for the closed request
// grammar, compiling a body's bytes straight into a txnReq with no
// intermediate maps. It accepts what encoding/json decoding into Request
// (or Op, on the single-op routes) followed by Submit's compile would
// accept, and compiles it to the same handles and values, with one
// deliberate difference: a member name that appears twice in one object
// (directly or by case-folding, "s" and "S") is rejected, where
// encoding/json would merge or overwrite. Member names match the
// Request and Op fields case-insensitively, exactly as encoding/json
// matches them (bytes.EqualFold, Unicode folding included); unknown
// members are skipped. FuzzDecodeRequest holds the scanner to that
// oracle.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/rel"
	"repro/internal/server/wirejson"
)

// Field names of the request grammar.
var (
	fieldOps = []byte("ops")
	fieldOp  = []byte("op")
	fieldRel = []byte("rel")
	fieldS   = []byte("s")
	fieldT   = []byte("t")
	fieldOut = []byte("out")
)

// opError is an op that scanned cleanly but does not compile; every
// other scan error is the body's syntax or types.
type opError struct{ error }

// span is a member value's byte range in the body; end is 0 when the
// member is absent or null.
type span struct{ start, end int }

// opFields is one op object as scanned: its names, and where its s, t
// and out values lie (they are compiled once the relation and kind are
// known, whatever order the members came in).
type opFields struct {
	seen      uint8
	kind, rel []byte
	s, t, out span
}

// member scans one member of an op object.
func (f *opFields) member(l *wirejson.Lexer, name []byte) error {
	var bit uint8
	var str *[]byte
	var sp *span
	switch {
	case bytes.EqualFold(name, fieldOp):
		bit, str = 1, &f.kind
	case bytes.EqualFold(name, fieldRel):
		bit, str = 2, &f.rel
	case bytes.EqualFold(name, fieldS):
		bit, sp = 4, &f.s
	case bytes.EqualFold(name, fieldT):
		bit, sp = 8, &f.t
	case bytes.EqualFold(name, fieldOut):
		bit, sp = 16, &f.out
	default:
		return l.Skip()
	}
	if f.seen&bit != 0 {
		return fmt.Errorf("duplicate member %q", name)
	}
	f.seen |= bit
	if null, err := l.Null(); null || err != nil {
		return err
	}
	if str != nil {
		if l.Peek() != '"' {
			return fmt.Errorf("member %q: want a string", name)
		}
		s, err := l.String()
		*str = s
		return err
	}
	switch c := l.Peek(); {
	case sp == &f.out && c != '[':
		return fmt.Errorf("member %q: want an array", name)
	case sp != &f.out && c != '{':
		return fmt.Errorf("member %q: want an object", name)
	}
	sp.start = l.Offset()
	err := l.Skip()
	sp.end = l.Offset()
	return err
}

// scan compiles a request body into tr: a Request document when single
// is 0, otherwise one Op document whose kind the route gives (an "op"
// member is then checked for type and ignored).
func (tr *txnReq) scan(cat *catalog, body []byte, single opKind) error {
	err := tr.scanDoc(cat, body, single)
	if err == nil && len(tr.ops) == 0 {
		err = opError{errors.New("server: empty transaction")}
	}
	if err == nil {
		tr.seal()
		return nil
	}
	if oe := new(opError); errors.As(err, oe) {
		return oe.error
	}
	return fmt.Errorf("server: bad request body: %w", err)
}

// scanDoc scans the document and checks that nothing follows it.
func (tr *txnReq) scanDoc(cat *catalog, body []byte, single opKind) error {
	l := &tr.lex
	l.Reset(body)
	var err error
	if single != 0 {
		err = tr.scanOp(cat, body, single, 0)
	} else {
		seen := false
		err = l.Object(func(name []byte) error {
			if !bytes.EqualFold(name, fieldOps) {
				return l.Skip()
			}
			if seen {
				return fmt.Errorf("duplicate member %q", name)
			}
			seen = true
			if null, err := l.Null(); null || err != nil {
				return err
			}
			if l.Peek() != '[' {
				return fmt.Errorf("member %q: want an array", name)
			}
			n := 0
			return l.Array(func() error {
				n++
				return tr.scanOp(cat, body, 0, n-1)
			})
		})
	}
	if err != nil {
		return err
	}
	return l.End()
}

// scanOp scans and compiles op n, an Op object or null.
func (tr *txnReq) scanOp(cat *catalog, body []byte, single opKind, n int) error {
	l := &tr.lex
	var f opFields
	if null, err := l.Null(); err != nil {
		return err
	} else if !null {
		if l.Peek() != '{' {
			return fmt.Errorf("op %d: want an object", n)
		}
		if err := l.Object(func(name []byte) error { return f.member(l, name) }); err != nil {
			return err
		}
	}
	if err := tr.compileFields(cat, body, &f, single); err != nil {
		return opError{fmt.Errorf("server: op %d: %w", n, err)}
	}
	return nil
}

// compileFields compiles one scanned op. Members are type-checked
// whether or not the op's kind uses them, as decoding into Op does.
func (tr *txnReq) compileFields(cat *catalog, body []byte, f *opFields, single opKind) error {
	ri := cat.relation(f.rel)
	if ri == nil {
		return fmt.Errorf("unknown relation %q", f.rel)
	}
	kind := single
	if kind == 0 {
		if kind = kindOf(f.kind); kind == 0 {
			return fmt.Errorf("unknown op kind %q", f.kind)
		}
	}
	out, err := tr.outMask(body, f.out, ri, kind == kindQuery)
	if err != nil {
		return err
	}
	op := tr.addOp(ri)
	if _, err := tr.bindObject(body, f.s, op, ri, "s", true); err != nil {
		return err
	}
	s := op.mask
	tLen, err := tr.bindObject(body, f.t, op, ri, "t", kind == kindInsert)
	if err != nil {
		return err
	}
	return tr.finish(op, kind, s, tLen, out)
}

// outMask scans an out array into a column mask, resolving the names
// against ri only when resolve is set. A null element stands for the
// empty name, as encoding/json decodes it.
func (tr *txnReq) outMask(body []byte, sp span, ri *relInfo, resolve bool) (uint64, error) {
	if sp.end == 0 {
		return 0, nil
	}
	l := &tr.sub
	l.Reset(body[sp.start:sp.end])
	var mask uint64
	err := l.Array(func() error {
		var c []byte
		if null, err := l.Null(); err != nil {
			return err
		} else if !null {
			if l.Peek() != '"' {
				return errors.New("out: want strings")
			}
			if c, err = l.String(); err != nil {
				return err
			}
		}
		if !resolve {
			return nil
		}
		i := ri.column(c)
		if i < 0 {
			return fmt.Errorf("out: unknown column %q", c)
		}
		mask |= 1 << uint(i)
		return nil
	})
	return mask, err
}

// bindObject scans an s or t object, binding its columns into op's row
// when bind is set (and only counting its members otherwise), and
// returns its member count.
func (tr *txnReq) bindObject(body []byte, sp span, op *txnOp, ri *relInfo, name string, bind bool) (int, error) {
	if sp.end == 0 {
		return 0, nil
	}
	l := &tr.sub
	l.Reset(body[sp.start:sp.end])
	n := 0
	err := l.Object(func(col []byte) error {
		n++
		if !bind {
			return l.Skip()
		}
		i := ri.column(col)
		if i < 0 {
			return fmt.Errorf("%s: unknown column %q", name, col)
		}
		v, err := scanValue(l)
		if err != nil {
			return fmt.Errorf("%s: column %q: %w", name, col, err)
		}
		if err := tr.bind(op, ri, i, v); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	})
	return n, err
}

// scanValue scans one column value: a number (by the number rule), a
// string or a boolean.
func scanValue(l *wirejson.Lexer) (rel.Value, error) {
	switch c := l.Peek(); c {
	case '"':
		s, err := l.String()
		return string(s), err
	case 't', 'f':
		b, err := l.Bool()
		return b, err
	case 'n':
		return nil, errors.New("unsupported value type <nil>")
	case '{':
		return nil, errors.New("unsupported value type map[string]interface {}")
	case '[':
		return nil, errors.New("unsupported value type []interface {}")
	}
	lit, err := l.Number()
	if err != nil {
		return nil, err
	}
	return numberValue(lit)
}
