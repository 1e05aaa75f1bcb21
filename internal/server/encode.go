package server

// The Go client's half of the codec: AppendRequest writes a Request as
// json.Marshal would, and DecodeResponse reads a reply as json.Decoder
// with UseNumber would, neither through reflection. FuzzReply and
// FuzzDecodeRequest hold both to encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"

	"repro/internal/server/wirejson"
)

// AppendRequest appends req as json.Marshal encodes it — struct fields
// in declaration order, empty s, t and out omitted, map keys sorted — so
// a client can write requests into a reused buffer. Its errors are
// Marshal's (an unsupported value, a NaN).
func AppendRequest(b []byte, req *Request) ([]byte, error) {
	b = append(b, `{"ops":`...)
	if req.Ops == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range req.Ops {
		op := &req.Ops[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":`...)
		b = wirejson.AppendString(b, op.Kind)
		b = append(b, `,"rel":`...)
		b = wirejson.AppendString(b, op.Rel)
		var err error
		if len(op.S) > 0 {
			b = append(b, `,"s":`...)
			if b, err = appendMap(b, op.S); err != nil {
				return b, err
			}
		}
		if len(op.T) > 0 {
			b = append(b, `,"t":`...)
			if b, err = appendMap(b, op.T); err != nil {
				return b, err
			}
		}
		if len(op.Out) > 0 {
			b = append(b, `,"out":[`...)
			for j, c := range op.Out {
				if j > 0 {
					b = append(b, ',')
				}
				b = wirejson.AppendString(b, c)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendMap appends a column→value object with its keys sorted.
func appendMap(b []byte, m map[string]any) ([]byte, error) {
	var stack [8]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = wirejson.AppendString(b, k)
		b = append(b, ':')
		var err error
		if b, err = wirejson.AppendValue(b, m[k]); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// DecodeResponse decodes a Response document as json.Decoder with
// UseNumber would: row values that are numbers arrive as json.Number
// with the server's exact digits. Replies in the grammar the server
// writes (reply.go) take a reflection-free scanner; anything else —
// unknown or duplicate members, different case, nulls, exotic values —
// goes to encoding/json, so either way the result is the same.
func DecodeResponse(data []byte) (*Response, error) {
	if resp := scanResponse(data); resp != nil {
		return resp, nil
	}
	var resp Response
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// replyBox holds a reply with up to four results in one allocation.
type replyBox struct {
	resp    Response
	results [4]OpResult
	applied [4]bool
	counts  [4]int
}

// errOffGrammar aborts the scanner when a reply leaves the grammar.
var errOffGrammar = errors.New("server: reply outside the scanned grammar")

// scanResponse scans a reply in the server's grammar, or returns nil.
func scanResponse(data []byte) *Response {
	var l wirejson.Lexer
	l.Reset(data)
	box := &replyBox{}
	resp := &box.resp
	resp.Results = box.results[:0]
	var seen uint8
	once := func(bit uint8) error {
		if seen&bit != 0 {
			return errOffGrammar
		}
		seen |= bit
		return nil
	}
	err := l.Object(func(name []byte) error {
		switch {
		case string(name) == "results":
			if err := once(1); err != nil {
				return err
			}
			if l.Peek() != '[' {
				return errOffGrammar
			}
			return l.Array(func() error {
				i := len(resp.Results)
				resp.Results = append(resp.Results, OpResult{})
				return scanResult(&l, box, i)
			})
		case string(name) == "batch_seq":
			if err := once(2); err != nil {
				return err
			}
			n, err := scanUint(&l, 64)
			resp.BatchSeq = n
			return err
		case string(name) == "batch_size":
			if err := once(4); err != nil {
				return err
			}
			n, err := scanUint(&l, strconv.IntSize-1)
			resp.BatchSize = int(n)
			return err
		case string(name) == "batch_pos":
			if err := once(8); err != nil {
				return err
			}
			n, err := scanUint(&l, strconv.IntSize-1)
			resp.BatchPos = int(n)
			return err
		}
		return errOffGrammar
	})
	if err != nil || l.End() != nil {
		return nil
	}
	if seen&1 == 0 {
		resp.Results = nil
	}
	return resp
}

// scanResult scans result i into resp.Results[i].
func scanResult(l *wirejson.Lexer, box *replyBox, i int) error {
	if l.Peek() != '{' {
		return errOffGrammar
	}
	var seen uint8
	return l.Object(func(name []byte) error {
		res := &box.resp.Results[i]
		switch {
		case string(name) == "applied":
			if seen&1 != 0 || (l.Peek() != 't' && l.Peek() != 'f') {
				return errOffGrammar
			}
			seen |= 1
			v, err := l.Bool()
			if i < len(box.applied) {
				res.Applied = &box.applied[i]
			} else {
				res.Applied = new(bool)
			}
			*res.Applied = v
			return err
		case string(name) == "count":
			if seen&2 != 0 {
				return errOffGrammar
			}
			seen |= 2
			n, err := scanUint(l, strconv.IntSize-1)
			if i < len(box.counts) {
				res.Count = &box.counts[i]
			} else {
				res.Count = new(int)
			}
			*res.Count = int(n)
			return err
		case string(name) == "rows":
			if seen&4 != 0 || l.Peek() != '[' {
				return errOffGrammar
			}
			seen |= 4
			res.Rows = []map[string]any{}
			return l.Array(func() error {
				row, err := scanRow(l)
				res.Rows = append(res.Rows, row)
				return err
			})
		}
		return errOffGrammar
	})
}

// scanRow scans one row object of scalar values.
func scanRow(l *wirejson.Lexer) (map[string]any, error) {
	if l.Peek() != '{' {
		return nil, errOffGrammar
	}
	row := map[string]any{}
	err := l.Object(func(name []byte) error {
		if _, dup := row[string(name)]; dup {
			return errOffGrammar
		}
		var v any
		switch c := l.Peek(); {
		case c == '"':
			s, err := l.String()
			if err != nil {
				return err
			}
			v = string(s)
		case c == 't' || c == 'f':
			b, err := l.Bool()
			if err != nil {
				return err
			}
			v = b
		case c == '-' || (c >= '0' && c <= '9'):
			lit, err := l.Number()
			if err != nil {
				return err
			}
			v = json.Number(lit)
		default:
			return errOffGrammar
		}
		row[string(name)] = v
		return nil
	})
	return row, err
}

// scanUint scans a non-negative integer literal below 2^bits.
func scanUint(l *wirejson.Lexer, bits int) (uint64, error) {
	if c := l.Peek(); c < '0' || c > '9' {
		return 0, errOffGrammar
	}
	lit, err := l.Number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(string(lit), 10, bits)
	if err != nil {
		return 0, errOffGrammar
	}
	return n, nil
}
