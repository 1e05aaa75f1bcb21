// Package server puts a network front end and a group-commit dispatcher
// in front of core.Registry, turning the library into a system: clients
// submit relational operations (singly or as multi-op transactions) over
// HTTP+JSON, and a Dispatcher coalesces requests arriving from DIFFERENT
// connections within a short window into one Registry.Batch — so the
// coalesced lock schedules, optimistic read-only batches and Silo-style
// OCC commits of the core pay off with traffic instead of with caller
// discipline. Each client receives its own members' results after the
// group commits, exactly as if its request had run alone; the group is
// merely the lock-scheduling unit, never a semantic one.
//
// This file defines the wire model: Request (an ordered list of Ops that
// commit atomically), Op (one relational operation against a named
// relation), OpResult/Response (per-member results plus the batch
// coordinates the request committed under), and the JSON value codec
// mapping the relational value types onto JSON.
package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/rel"
)

// The operation kinds a Request can carry, in the wire encoding's "op"
// field: the four relational operations of §2.
const (
	// OpInsert is insert r s t: S binds the access-path columns, T the
	// remaining columns (put-if-absent; Applied reports whether the tuple
	// was new).
	OpInsert = "insert"
	// OpRemove is remove r s: S binds the columns identifying the tuples
	// to delete (Applied reports whether anything existed).
	OpRemove = "remove"
	// OpCount is |query r s C|: S binds the search columns, Count reports
	// the number of matching tuples.
	OpCount = "count"
	// OpQuery is query r s C: S binds the search columns, Out names the
	// projected columns; Rows carries one column→value object per match.
	OpQuery = "query"
)

// Op is one relational operation of a Request, addressed to a registered
// relation by name. S and T are column→value objects (the wire form of
// rel.Tuple); Out is the projection of a query.
type Op struct {
	// Kind is one of OpInsert, OpRemove, OpCount, OpQuery.
	Kind string `json:"op"`
	// Rel names the target relation in the server's registry.
	Rel string `json:"rel"`
	// S is the bound tuple: the access-path columns of an insert, the
	// identifying columns of a remove, the search columns of a count or
	// query.
	S map[string]any `json:"s,omitempty"`
	// T is the residue tuple of an insert (the columns S does not bind).
	T map[string]any `json:"t,omitempty"`
	// Out is the projection of a query.
	Out []string `json:"out,omitempty"`
}

// Request is an ordered list of operations committed ATOMICALLY as
// members of one registry batch: all-or-nothing, with sequential
// semantics in op order (later ops observe earlier ops' writes). Ops
// cannot consume each other's results mid-flight — results resolve only
// at commit.
type Request struct {
	// Ops are the member operations, executed in order.
	Ops []Op `json:"ops"`
}

// OpResult is one member's committed result. Exactly one of Applied,
// Count or Rows is set (per the op kind); Rows is never nil for a query,
// so an empty result is distinguishable from a mutation's.
type OpResult struct {
	// Applied reports an insert's put-if-absent outcome or a remove's
	// did-anything-exist outcome.
	Applied *bool `json:"applied,omitempty"`
	// Count reports a count's cardinality.
	Count *int `json:"count,omitempty"`
	// Rows reports a query's projected tuples as column→value objects.
	Rows []map[string]any `json:"rows,omitempty"`
}

// Response is a committed Request's reply: per-op results in op order,
// plus the coordinates of the group commit that carried it — BatchSeq
// (the dispatcher's running batch number), BatchSize (how many requests
// the group coalesced) and BatchPos (this request's position in the
// group's global enqueue order). The coordinates make coalescing
// observable: tests and benchmarks read batch sizes straight from
// replies. Within one group, BatchPos is the serialization order.
// BatchSeq numbers groups in dispatch order only: a group takes its
// number before it acquires any lock, so groups that overlap in time may
// serialize in a different order, and replaying in (BatchSeq, BatchPos)
// order reproduces every result only when the groups did not overlap.
// A certified commit order is ROADMAP item 14.
type Response struct {
	// Results holds one OpResult per Request op, in op order.
	Results []OpResult `json:"results"`
	// BatchSeq is the group commit's sequence number (1-based).
	BatchSeq uint64 `json:"batch_seq"`
	// BatchSize is the number of client requests the group coalesced.
	BatchSize int `json:"batch_size"`
	// BatchPos is this request's position within the group (0-based).
	BatchPos int `json:"batch_pos"`
}

// decodeValue maps a decoded JSON value onto a relational value:
// json.Number becomes int64 when integral (float64 otherwise), bool and
// string pass through. The server decodes request bodies with
// json.Decoder.UseNumber, so numbers arrive here as json.Number, never
// float64 — integer keys survive the wire bit for bit. (int64 values
// beyond 2^53 still require clients that emit them as JSON integers,
// which the Go client does.)
func decodeValue(v any) (rel.Value, error) {
	switch x := v.(type) {
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i, nil
		}
		f, err := x.Float64()
		if err != nil {
			return nil, fmt.Errorf("server: unparseable number %q", x.String())
		}
		return f, nil
	case bool, string:
		return x, nil
	case float64:
		// Bodies decoded without UseNumber (direct struct literals in
		// tests) deliver float64; keep integral ones as int64 the same way
		// the Number path does.
		if x == float64(int64(x)) {
			return int64(x), nil
		}
		return x, nil
	case int:
		return int64(x), nil
	case int64, uint64:
		return x, nil
	default:
		return nil, fmt.Errorf("server: unsupported value type %T", v)
	}
}

// tupleOf converts a wire column→value object into a rel.Tuple.
func tupleOf(m map[string]any) (rel.Tuple, error) {
	pairs := make([]any, 0, 2*len(m))
	// Sorted iteration keeps error messages deterministic; the tuple
	// itself canonicalizes column order regardless.
	cols := make([]string, 0, len(m))
	for c := range m {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		v, err := decodeValue(m[c])
		if err != nil {
			return rel.Tuple{}, fmt.Errorf("column %q: %w", c, err)
		}
		pairs = append(pairs, c, v)
	}
	return rel.NewTuple(pairs...)
}

// tupleToMap converts a result tuple into its wire column→value object.
func tupleToMap(t rel.Tuple) map[string]any {
	m := make(map[string]any, t.Len())
	for _, c := range t.Dom() {
		m[c] = t.MustGet(c)
	}
	return m
}

// compiledOp is one Op resolved against the registry: relation pointer
// plus decoded tuples, ready to enqueue without further validation work.
type compiledOp struct {
	kind string
	r    *core.Relation
	s, t rel.Tuple
	out  []string
}

// compiledReq is a Request compiled for enqueueing.
type compiledReq struct {
	ops []compiledOp
}

// compileRequest resolves every op of req against reg — relation lookup,
// tuple decoding, op-kind checks — returning a form the dispatcher can
// enqueue directly. It does NOT prove enqueueability (plan existence,
// column coverage); probeRequest does that by dry-running the enqueue
// path itself.
func compileRequest(reg *core.Registry, req *Request) (*compiledReq, error) {
	if len(req.Ops) == 0 {
		return nil, fmt.Errorf("server: empty transaction")
	}
	c := &compiledReq{ops: make([]compiledOp, 0, len(req.Ops))}
	for i, op := range req.Ops {
		r := reg.RelationByName(op.Rel)
		if r == nil {
			return nil, fmt.Errorf("server: op %d: unknown relation %q", i, op.Rel)
		}
		s, err := tupleOf(op.S)
		if err != nil {
			return nil, fmt.Errorf("server: op %d: s: %w", i, err)
		}
		co := compiledOp{kind: op.Kind, r: r, s: s}
		switch op.Kind {
		case OpInsert:
			if co.t, err = tupleOf(op.T); err != nil {
				return nil, fmt.Errorf("server: op %d: t: %w", i, err)
			}
		case OpRemove, OpCount:
			if len(op.T) > 0 {
				return nil, fmt.Errorf("server: op %d: %s takes no t tuple", i, op.Kind)
			}
		case OpQuery:
			if len(op.T) > 0 {
				return nil, fmt.Errorf("server: op %d: query takes no t tuple", i)
			}
			if len(op.Out) == 0 {
				return nil, fmt.Errorf("server: op %d: query needs out columns", i)
			}
			co.out = op.Out
		default:
			return nil, fmt.Errorf("server: op %d: unknown op kind %q", i, op.Kind)
		}
		c.ops = append(c.ops, co)
	}
	return c, nil
}

// pendingOp holds one enqueued member's unresolved result.
type pendingOp struct {
	kind string
	pb   *core.Pending[bool]
	pi   *core.Pending[int]
	pt   *core.Pending[[]rel.Tuple]
}

// enqueue adds every op of c to tx, returning the unresolved results in
// op order. An error means some op could not be enqueued; the caller must
// abort the whole batch (members already enqueued cannot be withdrawn).
func (c *compiledReq) enqueue(tx *core.Txn) ([]pendingOp, error) {
	pend := make([]pendingOp, 0, len(c.ops))
	for i, op := range c.ops {
		var p pendingOp
		p.kind = op.kind
		var err error
		switch op.kind {
		case OpInsert:
			p.pb, err = tx.InsertInto(op.r, op.s, op.t)
		case OpRemove:
			p.pb, err = tx.RemoveFrom(op.r, op.s)
		case OpCount:
			p.pi, err = tx.CountIn(op.r, op.s)
		case OpQuery:
			p.pt, err = tx.QueryIn(op.r, op.s, op.out...)
		}
		if err != nil {
			return nil, fmt.Errorf("server: op %d: %w", i, err)
		}
		pend = append(pend, p)
	}
	return pend, nil
}

// resolve converts the committed pendings into wire results.
func resolve(pend []pendingOp) []OpResult {
	out := make([]OpResult, len(pend))
	for i, p := range pend {
		switch p.kind {
		case OpInsert, OpRemove:
			v := p.pb.Value()
			out[i].Applied = &v
		case OpCount:
			v := p.pi.Value()
			out[i].Count = &v
		case OpQuery:
			tuples := p.pt.Value()
			rows := make([]map[string]any, len(tuples))
			for j, t := range tuples {
				rows[j] = tupleToMap(t)
			}
			out[i].Rows = rows
		}
	}
	return out
}

// errProbe is the sentinel a validation probe returns from the Batch
// callback: it aborts the batch before anything executes, proving every
// member enqueued cleanly without committing them.
var errProbe = fmt.Errorf("server: validation probe (never executed)")

// probeRequest proves c is enqueueable: it dry-runs the exact enqueue
// path inside an aborted registry batch, so plan existence and column
// coverage are checked by the same code that will run at group commit.
// After a nil probeRequest, the group enqueue of c cannot fail (schemas
// and plan caches are immutable after synthesis).
func probeRequest(reg *core.Registry, c *compiledReq) error {
	var enqErr error
	err := reg.Batch(func(tx *core.Txn) error {
		if _, enqErr = c.enqueue(tx); enqErr != nil {
			return enqErr
		}
		return errProbe
	})
	if err == errProbe {
		return nil
	}
	return err
}

// summarize renders a compiled request for error messages: op kinds and
// relations only.
func (c *compiledReq) summarize() string {
	parts := make([]string, len(c.ops))
	for i, op := range c.ops {
		parts[i] = op.kind + " " + op.r.Name()
	}
	return strings.Join(parts, ", ")
}
