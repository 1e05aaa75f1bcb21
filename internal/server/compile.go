package server

// The compiled form of a request: a list of (prepared handle, row)
// pairs. Both entry points produce it — the request scanner (scan.go)
// straight from a body's bytes and Dispatcher.Submit from a Request's
// maps — and the group commit enqueues it through the prepared-row Txn
// API with no name resolution left to do. The catalog resolves wire
// names only; each op prepares its handle from the shape's schema masks
// against the relation's own plan table (core), which holds the one
// compiled plan per shape. Everything that could make an enqueue fail (an
// unknown relation or column, a value of an unsupported type, a plan the
// representation cannot run) is rejected while compiling, so a request
// that compiles cannot abort its neighbours' group. The one exception is
// a live migration between compile and commit to a representation that
// cannot plan an op's shape; the dispatcher's degraded window commits
// each request alone and answers that one with the error, and the next
// request of that shape is rejected at compile time, when it prepares
// its handle.

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/server/wirejson"
)

// opKind is a compiled operation kind; the zero value is no kind.
type opKind uint8

const (
	kindInsert opKind = iota + 1
	kindRemove
	kindCount
	kindQuery
)

// kindNames maps each kind to its wire name.
var kindNames = [...]string{kindInsert: OpInsert, kindRemove: OpRemove, kindCount: OpCount, kindQuery: OpQuery}

// kindOf returns the kind a wire name denotes, or 0.
func kindOf(name []byte) opKind {
	for k, n := range kindNames {
		if n != "" && string(name) == n {
			return opKind(k)
		}
	}
	return 0
}

func (k opKind) String() string { return kindNames[k] }

// relInfo is one registered relation as the wire sees it.
type relInfo struct {
	r      *core.Relation
	schema *rel.Schema
	// keys holds each schema column as an encoded JSON object key
	// (`"col":`), for reply rows.
	keys []string
}

// column returns the schema slot of the column named name, or -1.
func (ri *relInfo) column(name []byte) int {
	for i, c := range ri.schema.Columns() {
		if string(name) == c {
			return i
		}
	}
	return -1
}

// cols lists the columns of a bound mask in schema (= name) order.
func (ri *relInfo) cols(mask uint64) []string {
	var out []string
	for i, c := range ri.schema.Columns() {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// catalog resolves wire names against the served registry. Lookups read
// an immutable map published through an atomic pointer; additions copy
// the map under mu.
type catalog struct {
	reg  *core.Registry
	mu   sync.Mutex
	rels atomic.Pointer[map[string]*relInfo]
}

// relation returns the relation named name, or nil.
func (c *catalog) relation(name []byte) *relInfo {
	if m := c.rels.Load(); m != nil {
		if ri := (*m)[string(name)]; ri != nil {
			return ri
		}
	}
	return c.relationNamed(string(name))
}

// relationNamed is relation for a name already held as a string.
func (c *catalog) relationNamed(name string) *relInfo {
	if m := c.rels.Load(); m != nil {
		if ri := (*m)[name]; ri != nil {
			return ri
		}
	}
	r := c.reg.RelationByName(name)
	if r == nil {
		return nil
	}
	ri := &relInfo{r: r, schema: r.Schema()}
	for _, col := range ri.schema.Columns() {
		ri.keys = append(ri.keys, string(wirejson.AppendString(nil, col))+":")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := map[string]*relInfo{}
	if m := c.rels.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	if old := next[r.Name()]; old != nil {
		return old
	}
	next[r.Name()] = ri
	c.rels.Store(&next)
	return ri
}

// txnOp is one compiled operation: its kind, relation and prepared
// handle, its row, and the slots its result lands in at commit.
type txnOp struct {
	kind opKind
	ri   *relInfo
	// The prepared handle of the op's kind; a query's also projects the
	// schema slots of out.
	ins core.PreparedInsert
	rem core.PreparedRemove
	q   core.PreparedQuery
	out uint64
	row rel.Row
	// off and mask place the row in txnReq.vals while the request
	// compiles; seal turns them into row.
	off  int
	mask uint64
	pb   *core.Pending[bool] // insert and remove
	pi   *core.Pending[int]  // count
	// rows holds a query's matches, one value per out slot each.
	rows []rel.Value
}

// txnReq is a compiled request together with everything its trip
// through the server needs: the body and reply buffers, the lexers, and
// the dispatcher's hand-off state. The dispatcher pools them, so a warm
// request allocates only what the relations keep — boxed values and
// strings.
type txnReq struct {
	ops []txnOp
	// vals backs every op's row.
	vals []rel.Value
	// yields[i] collects op i's query matches; each is made once per
	// pooled request.
	yields []func(rel.Row) bool

	lex, sub wirejson.Lexer
	body     []byte
	out      []byte

	// Dispatch state: arrival time, the group coordinates or the error
	// the commit left, and the submitter's wake-up (buffered, one send
	// per commit).
	arrived   time.Time
	seq       uint64
	size, pos int
	err       error
	done      chan struct{}
}

func newTxnReq() *txnReq { return &txnReq{done: make(chan struct{}, 1)} }

// maxPooledBuf caps the buffers a pooled request keeps, so one large
// body, reply or query result does not stay live in the pool.
const maxPooledBuf = 64 << 10

// maxPooledOps caps the ops a pooled request keeps slots for.
const maxPooledOps = 256

// reset readies a request for reuse, dropping its references to the
// previous request's values.
func (tr *txnReq) reset() {
	for i := range tr.ops {
		op := &tr.ops[i]
		clear(op.rows)
		rows := op.rows[:0]
		if cap(rows) > maxPooledBuf/16 {
			rows = nil
		}
		*op = txnOp{rows: rows}
	}
	tr.ops = tr.ops[:0]
	clear(tr.vals)
	tr.vals = tr.vals[:0]
	if cap(tr.ops) > maxPooledOps {
		tr.ops, tr.yields = nil, nil
	}
	if cap(tr.vals) > maxPooledBuf/16 {
		tr.vals = nil
	}
	if cap(tr.body) > maxPooledBuf {
		tr.body = nil
	}
	if cap(tr.out) > maxPooledBuf {
		tr.out = nil
	}
	tr.lex.Reset(nil)
	tr.sub.Reset(nil)
	tr.err = nil
}

// addOp appends an op with an empty row of ri's width.
func (tr *txnReq) addOp(ri *relInfo) *txnOp {
	if len(tr.ops) < cap(tr.ops) {
		tr.ops = tr.ops[:len(tr.ops)+1]
	} else {
		tr.ops = append(tr.ops, txnOp{})
	}
	op := &tr.ops[len(tr.ops)-1]
	op.ri, op.off = ri, len(tr.vals)
	tr.vals = append(tr.vals, make([]rel.Value, ri.schema.Len())...)
	return op
}

// bind sets column slot i of op's row; a column bound twice (in s and
// t, or twice in one object) is an error.
func (tr *txnReq) bind(op *txnOp, ri *relInfo, i int, v rel.Value) error {
	if op.mask&(1<<uint(i)) != 0 {
		return fmt.Errorf("column %q bound twice", ri.schema.Column(i))
	}
	op.mask |= 1 << uint(i)
	tr.vals[op.off+i] = v
	return nil
}

// finish checks a compiled op against its kind's rules — an insert binds
// every column, only an insert takes a t tuple, a query projects at
// least one column — and prepares its handle, which fails if the
// relation's representation cannot plan the op's shape. s is the mask of
// the columns s bound, tLen the number of t's members, out the query's
// projection.
func (tr *txnReq) finish(op *txnOp, kind opKind, s uint64, tLen int, out uint64) error {
	ri := op.ri
	switch kind {
	case kindInsert:
		if full := ri.schema.FullMask(); op.mask != full {
			return fmt.Errorf("insert binds %v, want all of %v", ri.cols(op.mask), ri.schema.Columns())
		}
	case kindRemove, kindCount, kindQuery:
		if tLen > 0 {
			return fmt.Errorf("%s takes no t tuple", kind)
		}
		if kind == kindQuery && out == 0 {
			return fmt.Errorf("query needs out columns")
		}
	default:
		panic("server: finish without a kind")
	}
	op.kind, op.out = kind, out
	var err error
	switch kind {
	case kindInsert:
		op.ins, err = ri.r.PrepareInsertMask(s)
	case kindRemove:
		op.rem, err = ri.r.PrepareRemoveMask(s)
	case kindCount:
		op.q, err = ri.r.PrepareQueryMask(s, ri.schema.FullMask())
	case kindQuery:
		op.q, err = ri.r.PrepareQueryMask(s, out)
	}
	return err
}

// seal points every op's row at its final backing, once vals has
// stopped growing.
func (tr *txnReq) seal() {
	for i := range tr.ops {
		op := &tr.ops[i]
		w := op.ri.schema.Len()
		op.row = rel.RowOver(tr.vals[op.off:op.off+w:op.off+w], op.mask)
	}
}

// compileMaps compiles a Request built in Go (Dispatcher.Submit's entry
// point) into tr.
func (tr *txnReq) compileMaps(cat *catalog, req *Request) error {
	if len(req.Ops) == 0 {
		return fmt.Errorf("server: empty transaction")
	}
	for n := range req.Ops {
		if err := tr.compileOp(cat, &req.Ops[n]); err != nil {
			return fmt.Errorf("server: op %d: %w", n, err)
		}
	}
	tr.seal()
	return nil
}

// compileOp compiles one Op.
func (tr *txnReq) compileOp(cat *catalog, o *Op) error {
	ri := cat.relationNamed(o.Rel)
	if ri == nil {
		return fmt.Errorf("unknown relation %q", o.Rel)
	}
	kind := kindOf([]byte(o.Kind))
	if kind == 0 {
		return fmt.Errorf("unknown op kind %q", o.Kind)
	}
	op := tr.addOp(ri)
	if err := tr.bindMap(op, ri, "s", o.S); err != nil {
		return err
	}
	s := op.mask
	if kind == kindInsert {
		if err := tr.bindMap(op, ri, "t", o.T); err != nil {
			return err
		}
	}
	var out uint64
	if kind == kindQuery {
		for _, c := range o.Out {
			i := ri.column([]byte(c))
			if i < 0 {
				return fmt.Errorf("out: unknown column %q", c)
			}
			out |= 1 << uint(i)
		}
	}
	return tr.finish(op, kind, s, len(o.T), out)
}

// bindMap binds a column→value map into op's row. Columns are visited in
// schema order, so the first error reported does not depend on map
// iteration order.
func (tr *txnReq) bindMap(op *txnOp, ri *relInfo, name string, m map[string]any) error {
	found := 0
	for i, c := range ri.schema.Columns() {
		v, ok := m[c]
		if !ok {
			continue
		}
		found++
		rv, err := goValue(v)
		if err != nil {
			return fmt.Errorf("%s: column %q: %w", name, c, err)
		}
		if err := tr.bind(op, ri, i, rv); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if found < len(m) {
		cols := make([]string, 0, len(m))
		for c := range m {
			if ri.column([]byte(c)) < 0 {
				cols = append(cols, c)
			}
		}
		sort.Strings(cols)
		return fmt.Errorf("%s: unknown column %q", name, cols[0])
	}
	return nil
}

// summarize renders a compiled request for error messages: op kinds and
// relations only.
func (tr *txnReq) summarize() string {
	parts := make([]string, len(tr.ops))
	for i, op := range tr.ops {
		parts[i] = op.kind.String() + " " + op.ri.r.Name()
	}
	return strings.Join(parts, ", ")
}

// enqueue adds every op of tr to tx. An error means some op could not
// be enqueued; the caller must abort the whole batch (members already
// enqueued cannot be withdrawn).
func (tr *txnReq) enqueue(tx *core.Txn) error {
	for i := range tr.ops {
		op := &tr.ops[i]
		var err error
		switch op.kind {
		case kindInsert:
			op.pb, err = tx.ExecRow(&op.ins, op.row)
		case kindRemove:
			op.pb, err = tx.ExecRow(&op.rem, op.row)
		case kindCount:
			op.pi, err = tx.CountRow(&op.q, op.row)
		case kindQuery:
			clear(op.rows)
			op.rows = op.rows[:0]
			err = tx.ExecRows(&op.q, op.row, tr.yield(i))
		}
		if err != nil {
			return fmt.Errorf("server: op %d: %w", i, err)
		}
	}
	return nil
}

// yield returns the callback collecting op i's query matches.
func (tr *txnReq) yield(i int) func(rel.Row) bool {
	for len(tr.yields) <= i {
		j := len(tr.yields)
		tr.yields = append(tr.yields, func(r rel.Row) bool {
			op := &tr.ops[j]
			for m := op.out; m != 0; m &= m - 1 {
				op.rows = append(op.rows, r.At(bits.TrailingZeros64(m)))
			}
			return true
		})
	}
	return tr.yields[i]
}
