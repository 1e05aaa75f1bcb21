package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/server"
	"repro/internal/workload"
)

// Everything the program under test sees is generated here from the
// seed: request streams, arrival schedules, and their compiled forms.

// wireGen draws the wire workloads' traffic, one request at a time.
// Request i belongs to logical client i mod clients, and client c draws
// its keys from the partition {c, c+clients, c+2·clients, ...} of a key
// space of clients×keysPerClient users, so requests that are in flight
// together almost never touch the same rows and a client's own replies do
// not depend on how the others interleave.
type wireGen struct {
	gens []*server.SocialTraffic
	i    int
}

func newWireGen(seed uint64, mix workload.SocialMix, clients int, keysPerClient int64) *wireGen {
	g := &wireGen{gens: make([]*server.SocialTraffic, clients)}
	for c := range g.gens {
		g.gens[c] = server.NewSocialTraffic(seed+uint64(c), mix, keysPerClient, int64(clients), int64(c))
	}
	return g
}

func (g *wireGen) next() *server.Request {
	req := g.gens[g.i%len(g.gens)].Next()
	g.i++
	return req
}

// wireStream returns the first n requests of a wireGen.
func wireStream(seed uint64, mix workload.SocialMix, clients int, keysPerClient int64, n int) []*server.Request {
	g := newWireGen(seed, mix, clients, keysPerClient)
	reqs := make([]*server.Request, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	return reqs
}

// encodeRequests marshals each request exactly as client.Do would.
func encodeRequests(reqs []*server.Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// poissonSchedule returns n arrival instants, as offsets from the start
// of the phase, of a Poisson process with the given mean rate.
func poissonSchedule(seed uint64, perSecond float64, n int) []time.Duration {
	gen := workload.NewPoissonArrivals(seed, time.Duration(float64(time.Second)/perSecond))
	out := make([]time.Duration, n)
	var at time.Duration
	for i := range out {
		at += gen.Next()
		out[i] = at
	}
	return out
}

// mutates reports whether a request carries an insert or a remove (and
// therefore produces a redo record).
func mutates(req *server.Request) bool {
	for _, op := range req.Ops {
		if op.Kind == server.OpInsert || op.Kind == server.OpRemove {
			return true
		}
	}
	return false
}

// tupleOp is one wire op resolved for the tuple Txn API — what the
// dispatcher's compileRequest produces, built here from outside.
type tupleOp struct {
	kind string
	r    *core.Relation
	s, t rel.Tuple
}

// rowOp is the same op resolved for the prepared-row API.
type rowOp struct {
	mut core.BatchMutation // an insert or a remove, or nil for a count through q
	q   *core.PreparedQuery
	row rel.Row
}

// compiler resolves wire requests against one registry. Handles are
// prepared once per (kind, relation, bound columns) shape.
type compiler struct {
	reg     *core.Registry
	inserts map[string]*core.PreparedInsert
	removes map[string]*core.PreparedRemove
	counts  map[string]*core.PreparedQuery
}

func newCompiler(reg *core.Registry) *compiler {
	return &compiler{
		reg:     reg,
		inserts: map[string]*core.PreparedInsert{},
		removes: map[string]*core.PreparedRemove{},
		counts:  map[string]*core.PreparedQuery{},
	}
}

func sortedCols(m map[string]any) []string {
	cols := make([]string, 0, len(m))
	for c := range m {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

func tupleOfMap(m map[string]any) (rel.Tuple, error) {
	pairs := make([]any, 0, 2*len(m))
	for _, c := range sortedCols(m) {
		pairs = append(pairs, c, m[c])
	}
	return rel.NewTuple(pairs...)
}

// tuples resolves a request for the tuple API.
func (c *compiler) tuples(req *server.Request) ([]tupleOp, error) {
	out := make([]tupleOp, len(req.Ops))
	for i, op := range req.Ops {
		r := c.reg.RelationByName(op.Rel)
		if r == nil {
			return nil, fmt.Errorf("unknown relation %q", op.Rel)
		}
		s, err := tupleOfMap(op.S)
		if err != nil {
			return nil, err
		}
		t, err := tupleOfMap(op.T)
		if err != nil {
			return nil, err
		}
		out[i] = tupleOp{kind: op.Kind, r: r, s: s, t: t}
	}
	return out, nil
}

// rows resolves a request for the prepared-row API, preparing any shape
// it has not seen.
func (c *compiler) rows(req *server.Request) ([]rowOp, error) {
	out := make([]rowOp, len(req.Ops))
	for i, op := range req.Ops {
		r := c.reg.RelationByName(op.Rel)
		if r == nil {
			return nil, fmt.Errorf("unknown relation %q", op.Rel)
		}
		bound := sortedCols(op.S)
		key := op.Rel + "|" + fmt.Sprint(bound)
		schema := r.Schema()
		row := schema.NewRow()
		for col, v := range op.S {
			row.Set(schema.MustIndex(col), v)
		}
		for col, v := range op.T {
			row.Set(schema.MustIndex(col), v)
		}
		ro := rowOp{row: row}
		var err error
		switch op.Kind {
		case server.OpInsert:
			h := c.inserts[key]
			if h == nil {
				if h, err = r.PrepareInsert(bound); err != nil {
					return nil, err
				}
				c.inserts[key] = h
			}
			ro.mut = h
		case server.OpRemove:
			h := c.removes[key]
			if h == nil {
				if h, err = r.PrepareRemove(bound); err != nil {
					return nil, err
				}
				c.removes[key] = h
			}
			ro.mut = h
		case server.OpCount:
			h := c.counts[key]
			if h == nil {
				var rest []string
				for _, col := range schema.Columns() {
					if _, isBound := op.S[col]; !isBound {
						rest = append(rest, col)
					}
				}
				if h, err = r.PrepareQuery(bound, rest); err != nil {
					return nil, err
				}
				c.counts[key] = h
			}
			ro.q = h
		default:
			return nil, fmt.Errorf("op kind %q is not part of the benchmark traffic", op.Kind)
		}
		out[i] = ro
	}
	return out, nil
}

// maxOps is the most ops one generated request carries.
const maxOps = 4

// opResults holds one request's results in op order: 1/0 for an applied
// or rejected mutation, the cardinality for a count.
type opResults struct {
	n    int
	vals [maxOps]int
}

type pendings struct {
	b [maxOps]*core.Pending[bool]
	i [maxOps]*core.Pending[int]
}

func (p *pendings) resolve(n int) opResults {
	res := opResults{n: n}
	for k := 0; k < n; k++ {
		switch {
		case p.b[k] != nil:
			if p.b[k].Value() {
				res.vals[k] = 1
			}
		case p.i[k] != nil:
			res.vals[k] = p.i[k].Value()
		}
	}
	return res
}

// execTuples commits one request as one Registry.Batch through the tuple
// Txn API — the calls the dispatcher's enqueue makes.
func execTuples(reg *core.Registry, ops []tupleOp) (opResults, error) {
	var p pendings
	err := reg.Batch(func(tx *core.Txn) error {
		for k := range ops {
			op := &ops[k]
			var err error
			switch op.kind {
			case server.OpInsert:
				p.b[k], err = tx.InsertInto(op.r, op.s, op.t)
			case server.OpRemove:
				p.b[k], err = tx.RemoveFrom(op.r, op.s)
			default:
				p.i[k], err = tx.CountIn(op.r, op.s)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return opResults{}, err
	}
	return p.resolve(len(ops)), nil
}

// execRows commits one request as one Registry.Batch through prepared
// handles and schema-indexed rows. trace, when non-nil, receives the
// batch's lock schedule.
func execRows(reg *core.Registry, ops []rowOp, trace *workload.LockCounts) (opResults, error) {
	var p pendings
	var tr *core.BatchTrace
	err := reg.Batch(func(tx *core.Txn) error {
		if trace != nil {
			tx.EnableTrace()
			tr = tx.Trace()
		}
		for k := range ops {
			op := &ops[k]
			var err error
			if op.mut != nil {
				p.b[k], err = tx.ExecRow(op.mut, op.row)
			} else {
				p.i[k], err = tx.CountRow(op.q, op.row)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return opResults{}, err
	}
	if tr != nil {
		trace.Harvest(tr)
	}
	return p.resolve(len(ops)), nil
}

// responseResults flattens a wire reply into opResults so it can be
// compared with the in-process paths.
func responseResults(resp *server.Response) (opResults, error) {
	if len(resp.Results) > maxOps {
		return opResults{}, fmt.Errorf("reply carries %d results", len(resp.Results))
	}
	res := opResults{n: len(resp.Results)}
	for k, r := range resp.Results {
		switch {
		case r.Applied != nil:
			if *r.Applied {
				res.vals[k] = 1
			}
		case r.Count != nil:
			res.vals[k] = *r.Count
		default:
			return opResults{}, fmt.Errorf("result %d is neither applied nor count", k)
		}
	}
	return res, nil
}
