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
// coordinates the request committed under), and the one number rule
// mapping JSON numbers onto relational values. compile.go turns a
// request into prepared handles and rows, scan.go reads a request
// body straight into that form, and reply.go writes the reply.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/rel"
	"repro/internal/server/wirejson"
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
// (the group's commit stamp), BatchSize (how many requests the group
// coalesced) and BatchPos (this request's position in the group's global
// enqueue order). The coordinates make coalescing observable: tests and
// benchmarks read batch sizes straight from replies. Within one group,
// BatchPos is the serialization order. BatchSeq is core.Txn.Stamp: the
// group draws it at its commit point while it holds its locks, so
// conflicting groups get stamps in their serialization order, and
// replaying requests in (BatchSeq, BatchPos) order reproduces every
// result. Stamps are unique per registry but not dense: an optimistic
// attempt that fails validation, or another registry client, consumes
// numbers too.
type Response struct {
	// Results holds one OpResult per Request op, in op order.
	Results []OpResult `json:"results"`
	// BatchSeq is the group commit's stamp: 1-based and unique per
	// registry, ordering conflicting groups as they serialized.
	BatchSeq uint64 `json:"batch_seq"`
	// BatchSize is the number of client requests the group coalesced.
	BatchSize int `json:"batch_size"`
	// BatchPos is this request's position within the group (0-based).
	BatchPos int `json:"batch_pos"`
}

// The number rule. A JSON number becomes an int64 when its value is
// integral and lies within int64's range, however it is spelled: 1, 1.0,
// 1e3 and -0 are all int64. Any other number is a float64. An integer
// literal converts exactly (9007199254740993 survives bit for bit); any
// other spelling converts through float64 first, so 1e19 stays a float64
// and 9007199254740993.0 becomes int64 9007199254740992. Literals whose
// magnitude overflows float64 are rejected. The request scanner applies
// the rule to the literals of a body, and Dispatcher.Submit to the
// json.Number and float64 values of a Request, so the same key lands in
// the same place whichever way it arrives (rel.Compare ranks every int64
// before every float64).

// numberValue converts a JSON number literal by the number rule.
func numberValue(lit []byte) (rel.Value, error) {
	if i, ok := parseInt(lit); ok {
		return i, nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return nil, fmt.Errorf("unparseable number %q", lit)
	}
	return floatValue(f), nil
}

// parseInt parses an integer literal (an optional minus sign and digits)
// that fits int64; ok is false for any other literal.
func parseInt(lit []byte) (int64, bool) {
	neg := len(lit) > 0 && lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	if len(digits) == 0 || len(digits) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u-1) - 1, true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// floatValue applies the number rule to a float64.
func floatValue(f float64) rel.Value {
	if f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f) {
		return int64(f)
	}
	return f
}

// goValue maps one value of a Request built in Go onto a relational
// value: json.Number and float64 follow the number rule, int widens to
// int64, and int64, uint64, bool and string pass through.
func goValue(v any) (rel.Value, error) {
	switch x := v.(type) {
	case json.Number:
		if wirejson.NumberLen([]byte(x)) != len(x) || len(x) == 0 {
			return nil, fmt.Errorf("unparseable number %q", x.String())
		}
		return numberValue([]byte(x))
	case float64:
		return floatValue(x), nil
	case int:
		return int64(x), nil
	case int64, uint64, bool, string:
		return x, nil
	default:
		return nil, fmt.Errorf("unsupported value type %T", v)
	}
}
