package server

// The wire codec's oracles. FuzzDecodeRequest holds the request scanner
// to the pipeline it replaced — encoding/json into Request, then the
// tuple-API compile and a dry-run batch — and to Submit's compile of the
// same Request. FuzzReply holds the reply encoder to json.Encoder and
// the client's codec to encoding/json. TestNumberRule pins the one
// number rule at both entry points.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
	"repro/internal/workload"
)

// TestNumberRule runs each spelling of a number through the body
// scanner and through Submit's compile (as the json.Number a decoder with
// UseNumber yields, and as the float64 a plain decoder yields): all
// three must bind the same value.
func TestNumberRule(t *testing.T) {
	cat := &catalog{reg: workload.MustSocial().Reg}
	for _, tc := range []struct {
		lit  string
		want rel.Value
	}{
		{"1", int64(1)},
		{"1.0", int64(1)},
		{"1e3", int64(1000)},
		{"-0", int64(0)},
		{"-0.0", int64(0)},
		{"9007199254740993", int64(9007199254740993)},
		{"-9223372036854775808", int64(math.MinInt64)},
		{"9223372036854775808", float64(1 << 63)},
		{"1e19", float64(1e19)},
		{"1.5", float64(1.5)},
	} {
		t.Run(tc.lit, func(t *testing.T) {
			body := `{"ops":[{"op":"count","rel":"users","s":{"user":` + tc.lit + `}}]}`
			scanned := newTxnReq()
			if err := scanned.scan(cat, []byte(body), 0); err != nil {
				t.Fatalf("scan: %v", err)
			}
			got := map[string]rel.Value{"wire": scanned.ops[0].row.At(1)}
			viaNumber := newTxnReq()
			if err := viaNumber.compileMaps(cat, &Request{Ops: []Op{
				{Kind: OpCount, Rel: "users", S: map[string]any{"user": json.Number(tc.lit)}},
			}}); err != nil {
				t.Fatalf("Submit compile of json.Number: %v", err)
			}
			got["json.Number"] = viaNumber.ops[0].row.At(1)
			var f float64
			if err := json.Unmarshal([]byte(tc.lit), &f); err != nil {
				t.Fatal(err)
			}
			if _, exact := tc.want.(float64); exact || float64(int64(f)) == f && int64(f) == tc.want {
				viaFloat := newTxnReq()
				if err := viaFloat.compileMaps(cat, &Request{Ops: []Op{
					{Kind: OpCount, Rel: "users", S: map[string]any{"user": f}},
				}}); err != nil {
					t.Fatalf("Submit compile of float64: %v", err)
				}
				got["float64"] = viaFloat.ops[0].row.At(1)
			}
			for path, v := range got {
				if v != tc.want {
					t.Errorf("%s %s: bound %T %v, want %T %v", path, tc.lit, v, v, tc.want, tc.want)
				}
			}
		})
	}
	if _, err := numberValue([]byte("1e400")); err == nil {
		t.Error("1e400 overflows float64 and must be rejected")
	}
}

// routes maps FuzzDecodeRequest's route byte onto a data-path route: 0
// is /v1/txn, 1–4 the single-op conveniences.
var routes = [...]opKind{0, kindInsert, kindRemove, kindCount, kindQuery}

// oracleDecode is the parent's decodeBody: encoding/json with UseNumber,
// one value, then nothing but whitespace.
func oracleDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == nil:
		return errors.New("trailing data after the JSON value")
	case err != io.EOF:
		return err
	}
	return nil
}

// errOracleProbe aborts the oracle's dry-run batch.
var errOracleProbe = errors.New("oracle probe")

// oracleCompile is the parent's compileRequest and probeRequest over the
// tuple API: relation lookup, map→tuple conversion, op-kind checks, and
// a dry-run batch enqueueing every op. Values follow the number rule
// (goValue), the one deliberate change to what the parent accepted.
func oracleCompile(reg *core.Registry, req *Request) error {
	if len(req.Ops) == 0 {
		return errors.New("empty transaction")
	}
	type top struct {
		kind string
		r    *core.Relation
		s, t rel.Tuple
		out  []string
	}
	tuple := func(m map[string]any) (rel.Tuple, error) {
		var pairs []any
		for c, v := range m {
			rv, err := goValue(v)
			if err != nil {
				return rel.Tuple{}, err
			}
			pairs = append(pairs, c, rv)
		}
		return rel.NewTuple(pairs...)
	}
	var ops []top
	for _, op := range req.Ops {
		r := reg.RelationByName(op.Rel)
		if r == nil {
			return fmt.Errorf("unknown relation %q", op.Rel)
		}
		s, err := tuple(op.S)
		if err != nil {
			return err
		}
		o := top{kind: op.Kind, r: r, s: s}
		switch op.Kind {
		case OpInsert:
			if o.t, err = tuple(op.T); err != nil {
				return err
			}
		case OpRemove, OpCount, OpQuery:
			if len(op.T) > 0 {
				return errors.New("t on a non-insert")
			}
			if op.Kind == OpQuery {
				if len(op.Out) == 0 {
					return errors.New("query without out")
				}
				o.out = op.Out
			}
		default:
			return fmt.Errorf("unknown op kind %q", op.Kind)
		}
		ops = append(ops, o)
	}
	err := reg.Batch(func(tx *core.Txn) error {
		for _, o := range ops {
			var err error
			switch o.kind {
			case OpInsert:
				_, err = tx.InsertInto(o.r, o.s, o.t)
			case OpRemove:
				_, err = tx.RemoveFrom(o.r, o.s)
			case OpCount:
				_, err = tx.CountIn(o.r, o.s)
			case OpQuery:
				_, err = tx.QueryIn(o.r, o.s, o.out...)
			}
			if err != nil {
				return err
			}
		}
		return errOracleProbe
	})
	if err == errOracleProbe {
		return nil
	}
	return err
}

// duplicateMembers reports the scanner's one deliberate deviation from
// encoding/json: a body in which a Request or Op object names one of its
// fields twice (under encoding/json's case folding), or in which an s
// object — or an insert's t object — names a column twice. encoding/json
// merges or overwrites such members; the scanner rejects the body.
func duplicateMembers(body []byte, single opKind) bool {
	var doc any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if dec.Decode(&doc) != nil {
		return false
	}
	// Decoding into any keeps only the last of duplicate keys, so walk
	// the raw members instead.
	if single != 0 {
		return dupOp(body, single.String())
	}
	members, ok := rawMembers(body)
	if !ok {
		return false
	}
	seen := 0
	for _, m := range members {
		if !bytes.EqualFold([]byte(m.name), []byte("ops")) {
			continue
		}
		if seen++; seen > 1 {
			return true
		}
		var elems []json.RawMessage
		if json.Unmarshal(m.value, &elems) != nil {
			continue
		}
		for _, e := range elems {
			if dupOp(e, "") {
				return true
			}
		}
	}
	return false
}

// dupOp reports duplicate members in one Op object; kind is the route's
// op kind, or "" when the object's own "op" member gives it.
func dupOp(raw []byte, kind string) bool {
	members, ok := rawMembers(raw)
	if !ok {
		return false
	}
	fields := []string{"op", "rel", "s", "t", "out"}
	count := map[string]int{}
	route := kind != ""
	for _, m := range members {
		for _, f := range fields {
			if bytes.EqualFold([]byte(m.name), []byte(f)) {
				count[f]++
				if f == "op" && !route {
					_ = json.Unmarshal(m.value, &kind)
				}
			}
		}
	}
	for _, n := range count {
		if n > 1 {
			return true
		}
	}
	for _, m := range members {
		isS := bytes.EqualFold([]byte(m.name), []byte("s"))
		isT := bytes.EqualFold([]byte(m.name), []byte("t"))
		if !isS && !isT {
			continue
		}
		cols, ok := rawMembers(m.value)
		if !ok {
			continue
		}
		names := map[string]bool{}
		for _, c := range cols {
			if names[c.name] && (isS || kind == OpInsert) {
				return true
			}
			names[c.name] = true
		}
	}
	return false
}

// rawMember is one object member with its undecoded value.
type rawMember struct {
	name  string
	value json.RawMessage
}

// rawMembers lists an object's members in order, duplicates included.
func rawMembers(raw []byte) ([]rawMember, bool) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	var out []rawMember
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, false
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, false
		}
		out = append(out, rawMember{name: tok.(string), value: v})
	}
	return out, true
}

// FuzzDecodeRequest feeds arbitrary bodies to the scanner and to the
// pipeline it replaced. Both must accept the same bodies, and an accepted
// body must compile to the same statements and values as Submit's
// compile of the Request encoding/json decodes from it.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []struct {
		body  string
		route byte
	}{
		{`{"ops":[{"op":"insert","rel":"users","s":{"user":1},"t":{"posts":0}}]}`, 0},
		{`{"ops":[{"op":"count","rel":"posts","s":{"author":7}},{"op":"remove","rel":"posts","s":{"author":7,"post":2}}]}`, 0},
		{`{"ops":[{"op":"query","rel":"posts","s":{"author":7},"out":["ts","post"]}]}`, 0},
		{`{"OPS":[{"Op":"count","REL":"follows","S":{"src":1.0}}], "pad": [1, {"x": null}]}`, 0},
		{`{"ops":[{"op":"count","rel":"users","s":{"user":1},"s":{"user":2}}]}`, 0},
		{`{"rel":"users","s":{"user":"é\ud800x"},"t":{"posts":-0}}`, 1},
		{`{"rel":"posts","s":{"author":1e400}}`, 3},
		{`{"ops":[]} {"x":1}`, 0},
		{`null`, 4},
	} {
		f.Add([]byte(seed.body), seed.route)
	}
	reg := workload.MustSocial().Reg
	cat := &catalog{reg: reg}
	f.Fuzz(func(t *testing.T, body []byte, route byte) {
		single := routes[int(route)%len(routes)]
		var req Request
		var oracleErr error
		if single == 0 {
			oracleErr = oracleDecode(body, &req)
		} else {
			var op Op
			oracleErr = oracleDecode(body, &op)
			op.Kind = single.String()
			req.Ops = []Op{op}
		}
		if oracleErr == nil {
			oracleErr = oracleCompile(reg, &req)
		}
		scanned := newTxnReq()
		scanErr := scanned.scan(cat, body, single)
		if duplicateMembers(body, single) {
			if scanErr == nil {
				t.Fatalf("body with a duplicate member accepted: %q", body)
			}
			return
		}
		if (oracleErr == nil) != (scanErr == nil) {
			t.Fatalf("body %q route %d: encoding/json pipeline says %v, scanner says %v", body, single, oracleErr, scanErr)
		}
		if scanErr != nil {
			return
		}
		viaMaps := newTxnReq()
		if err := viaMaps.compileMaps(cat, &req); err != nil {
			t.Fatalf("body %q: Submit's compile rejects what both pipelines accept: %v", body, err)
		}
		if len(scanned.ops) != len(viaMaps.ops) {
			t.Fatalf("body %q: %d ops scanned, %d compiled from maps", body, len(scanned.ops), len(viaMaps.ops))
		}
		for i := range scanned.ops {
			a, b := &scanned.ops[i], &viaMaps.ops[i]
			same := a.kind == b.kind && a.ri == b.ri && a.ins == b.ins && a.rem == b.rem && a.q == b.q && a.out == b.out
			if !same || a.row.Mask() != b.row.Mask() || a.row.Width() != b.row.Width() {
				t.Fatalf("body %q op %d: handle or mask differs", body, i)
			}
			for c := 0; c < a.row.Width(); c++ {
				if x, y := a.row.At(c), b.row.At(c); !reflect.DeepEqual(x, y) {
					t.Fatalf("body %q op %d column %d: scanned %T %#v, from maps %T %#v", body, i, c, x, x, y, y)
				}
			}
		}
	})
}

// newKV builds a registry holding kv(g, k, v), g → k → v: a relation
// whose k and v columns hold whatever values a test inserts.
func newKV(t testing.TB) *core.Registry {
	t.Helper()
	spec := rel.MustSpec([]string{"g", "k", "v"}, rel.FD{From: []string{"g", "k"}, To: []string{"v"}})
	d, err := decomp.NewBuilder(spec, "ρ").
		Edge("ρg", "ρ", "a", []string{"g"}, container.ConcurrentHashMap).
		Edge("gk", "a", "b", []string{"k"}, container.ConcurrentSkipListMap).
		Edge("kv", "b", "c", []string{"v"}, container.Cell).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if _, err := reg.Synthesize("kv", spec, core.WithDecomposition(d), core.WithPlacement(locks.FineGrained(d))); err != nil {
		t.Fatal(err)
	}
	return reg
}

// FuzzReply commits a request carrying fuzzed values, then checks that
// the appended reply is json.Encoder's encoding of the same Response
// byte for byte, that DecodeResponse reads it back as encoding/json
// does, and that AppendRequest wrote the request as json.Marshal does.
func FuzzReply(f *testing.F) {
	f.Add("plain", 1.5, int64(7), true)
	f.Add("<&>\u2028\"\\\x01\xff", 1e21, int64(-1), false)
	f.Add("", -1e-7, int64(math.MaxInt64), true)
	reg := newKV(f)
	d := NewDispatcher(reg, Config{MaxBatch: 1})
	f.Cleanup(d.Close)
	group := int64(0)
	f.Fuzz(func(t *testing.T, s string, x float64, n int64, b bool) {
		group++
		req := &Request{Ops: []Op{
			{Kind: OpInsert, Rel: "kv", S: map[string]any{"g": group, "k": s}, T: map[string]any{"v": x}},
			{Kind: OpInsert, Rel: "kv", S: map[string]any{"g": group, "k": n}, T: map[string]any{"v": b}},
			{Kind: OpInsert, Rel: "kv", S: map[string]any{"g": group, "k": b}, T: map[string]any{"v": s}},
			{Kind: OpCount, Rel: "kv", S: map[string]any{"g": group}},
			{Kind: OpQuery, Rel: "kv", S: map[string]any{"g": group}, Out: []string{"v", "k"}},
			{Kind: OpQuery, Rel: "kv", S: map[string]any{"g": -group}, Out: []string{"k"}},
		}}
		want, marshalErr := json.Marshal(req)
		got, appendErr := AppendRequest(nil, req)
		if (marshalErr == nil) != (appendErr == nil) || marshalErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendRequest:\n got %s (%v)\nwant %s (%v)", got, appendErr, want, marshalErr)
		}

		tr := d.getReq()
		defer d.putReq(tr)
		if err := tr.compileMaps(&d.cat, req); err != nil {
			t.Fatalf("compile: %v", err)
		}
		if err := d.submit(tr); err != nil {
			t.Fatalf("submit: %v", err)
		}
		// Remove the rows again, so a long fuzz run does not grow the
		// registry.
		defer func() {
			var ops []Op
			for _, k := range []any{s, n, b} {
				ops = append(ops, Op{Kind: OpRemove, Rel: "kv", S: map[string]any{"g": group, "k": k}})
			}
			if _, err := d.Submit(&Request{Ops: ops}); err != nil {
				t.Fatalf("clean-up: %v", err)
			}
		}()
		reply, appendErr := tr.appendReply(nil)
		var enc bytes.Buffer
		encodeErr := json.NewEncoder(&enc).Encode(tr.response())
		if (appendErr == nil) != (encodeErr == nil) {
			t.Fatalf("appendReply error %v, json.Encoder error %v", appendErr, encodeErr)
		}
		if encodeErr != nil {
			return
		}
		if !bytes.Equal(reply, enc.Bytes()) {
			t.Fatalf("appendReply:\n got %s\nwant %s", reply, enc.Bytes())
		}

		decoded, err := DecodeResponse(reply)
		if err != nil {
			t.Fatalf("DecodeResponse: %v", err)
		}
		var oracle Response
		dec := json.NewDecoder(bytes.NewReader(reply))
		dec.UseNumber()
		if err := dec.Decode(&oracle); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded, &oracle) {
			t.Fatalf("DecodeResponse(%s):\n got %+v\nwant %+v", reply, decoded, &oracle)
		}
	})
}

// TestDecodeResponseFallback runs replies outside the scanned grammar
// through DecodeResponse: each must decode exactly as encoding/json
// decodes it, errors included.
func TestDecodeResponseFallback(t *testing.T) {
	for _, body := range []string{
		`{"results":[{"applied":true}],"batch_seq":1,"batch_size":1,"batch_pos":0}`,
		`{"Results":[{"COUNT":3}],"extra":{"x":[1,2]},"batch_seq":2}`,
		`{"results":[{"count":-1},null,{"applied":null},{"rows":[{"a":null,"b":{"c":1}},{"a":1,"a":2}]}]}`,
		`{"results":[],"results":[{"count":1}]}`,
		`{"results":[{"rows":[]}],"batch_pos":-3}`,
		`{}`,
		`{"results":[{"count":1.5}]}`,
		`{"batch_seq":-1}`,
		`{"results":[{"rows":[{"k":"\ud800","n":1e400}]}]} `,
		`[1]`,
		`{"results":[{"applied":true}]} x`,
	} {
		got, gotErr := DecodeResponse([]byte(body))
		var want Response
		dec := json.NewDecoder(strings.NewReader(body))
		dec.UseNumber()
		wantErr := dec.Decode(&want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: error %v, encoding/json %v", body, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: got %+v, want %+v", body, got, &want)
		}
	}
}
