package workload

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rel"
)

// This file extends the §6.2 methodology from single operations to
// operation GROUPS, the unit the batched-transaction API (core.Txn) makes
// atomic: real graph workloads issue related operations together —
// insert both directions of a relationship, move an edge, read a
// consistent 2-hop neighborhood — and the batched Figure-5 variant
// measures the throughput of those groups executed as one coalesced
// two-phase-locking transaction versus one lock cycle per operation.

// BatchGraphOps extends GraphOps with the composite operations of the
// batched benchmark. Implementations define each composite as one atomic
// group (RelationBatchGraph) or as its sequential decomposition
// (SequentialRelationBatchGraph, the non-coalesced baseline).
type BatchGraphOps interface {
	GraphOps
	// InsertEdgePair inserts two edges as one atomic group, reporting
	// each put-if-absent outcome.
	InsertEdgePair(src1, dst1, w1, src2, dst2, w2 int64) (bool, bool)
	// MoveEdge retargets an edge atomically: remove (src, dstOld) and
	// insert (src, dstNew, w) in one group, reporting both outcomes. A
	// concurrent reader never observes the moved edge absent-and-absent
	// or present-and-present.
	MoveEdge(src, dstOld, dstNew, w int64) (bool, bool)
	// CountSuccessorPair counts the successors of two nodes in one
	// consistent snapshot, returning the sum.
	CountSuccessorPair(a, b int64) int
	// TwoHopCount sums the successor counts over src's successors. The
	// successor list is read first; the per-successor counts then execute
	// as one atomic group, so the hop-2 sum is internally consistent.
	TwoHopCount(src int64) int
}

// RelationBatchGraph adapts a synthesized graph relation to BatchGraphOps
// using batched transactions: each composite operation is one
// Relation.Batch whose members run under a single coalesced lock schedule
// — or, for the read-only composites on an OptimisticCapable relation,
// lock-free under the optimistic epoch-validation protocol.
type RelationBatchGraph struct {
	*RelationGraph

	// Counts, when non-nil, turns on per-batch lock-schedule tracing and
	// accumulates lock and optimistic-read statistics across composites.
	Counts *LockCounts

	// pool recycles compositeScratch blocks across calls. The adapter is
	// shared by every worker thread, so per-call state cannot live on the
	// struct itself; pooling it keeps the steady-state composites at zero
	// adapter allocations per group, matching the sequential baseline
	// (whose prepared single operations never leave the stack) — without
	// it the adapter's closures, escaping row buffers and per-call hop
	// slices dominate the batched-vs-sequential allocation gap.
	pool sync.Pool
}

// compositeScratch is the reusable per-call state of one batched
// composite: operand row buffers, the hop/pending slices of TwoHopCount,
// and the batch callback plus hop visitor bound ONCE at creation (method
// values and capturing closures allocate; binding them per scratch, not
// per call, moves that cost to pool warmup).
type compositeScratch struct {
	g        *RelationBatchGraph
	kind     uint8
	rb1, rb2 [3]rel.Value
	r1, r2   rel.Row
	hops     []int64
	rows     []rel.Value
	pend     []*core.Pending[int]
	pb1, pb2 *core.Pending[bool]
	pi1, pi2 *core.Pending[int]
	fn       func(tx *core.Txn) error
	hopFn    func(r rel.Row) bool
}

const (
	csInsertPair = iota
	csMove
	csCountPair
	csTwoHop
)

// run enqueues the scratch's composite against the open transaction; it
// is the pre-bound callback every composite hands to Batch.
func (s *compositeScratch) run(tx *core.Txn) error {
	g := s.g
	var err error
	switch s.kind {
	case csInsertPair:
		if s.pb1, err = tx.ExecRow(g.ins, s.r1); err != nil {
			return err
		}
		s.pb2, err = tx.ExecRow(g.ins, s.r2)
	case csMove:
		if s.pb1, err = tx.ExecRow(g.rem, s.r1); err != nil {
			return err
		}
		s.pb2, err = tx.ExecRow(g.ins, s.r2)
	case csCountPair:
		if s.pi1, err = tx.CountRow(g.succ, s.r1); err != nil {
			return err
		}
		s.pi2, err = tx.CountRow(g.succ, s.r2)
	case csTwoHop:
		for i, h := range s.hops {
			r := rel.RowOver(s.rows[i*g.width:(i+1)*g.width], 0)
			r.Set(g.iSrc, h)
			if s.pend[i], err = tx.CountRow(g.succ, r); err != nil {
				return err
			}
		}
	}
	return err
}

// scratch checks a scratch block out of the pool.
func (g *RelationBatchGraph) scratch() *compositeScratch {
	return g.pool.Get().(*compositeScratch)
}

// exec runs the scratch's composite as one batch. The untraced path calls
// Batch directly with the pre-bound callback (no per-call closure); the
// counting pass routes through the traced wrapper, whose allocations are
// why deterministic timing comes from a separate untraced pass.
func (g *RelationBatchGraph) exec(s *compositeScratch) {
	if g.Counts == nil {
		if err := g.R.Batch(s.fn); err != nil {
			panic(fmt.Sprintf("workload: batch: %v", err))
		}
		return
	}
	g.batch(s.fn)
}

// members records n relational members against the counting pass.
func (g *RelationBatchGraph) members(n int) {
	if g.Counts != nil {
		g.Counts.Members.Add(int64(n))
	}
}

// batch runs one Relation.Batch with lock counting when enabled; the
// trace totals are filled at commit, so they are read after Batch returns.
func (g *RelationBatchGraph) batch(fn func(tx *core.Txn) error) {
	var tr *core.BatchTrace
	err := g.R.Batch(func(tx *core.Txn) error {
		if g.Counts != nil {
			tx.EnableTrace()
			tr = tx.Trace()
		}
		return fn(tx)
	})
	if err != nil {
		panic(fmt.Sprintf("workload: batch: %v", err))
	}
	if tr != nil {
		g.Counts.Harvest(tr)
	}
}

// NewRelationBatchGraph prepares the batched benchmark operations
// against r.
func NewRelationBatchGraph(r *core.Relation) (*RelationBatchGraph, error) {
	rg, err := NewRelationGraph(r)
	if err != nil {
		return nil, err
	}
	g := &RelationBatchGraph{RelationGraph: rg}
	g.pool.New = func() any {
		s := &compositeScratch{g: g}
		s.fn = s.run
		s.hopFn = func(r rel.Row) bool {
			s.hops = append(s.hops, nodeID(r.At(g.iDst)))
			return true
		}
		return s
	}
	return g, nil
}

// MustRelationBatchGraph is NewRelationBatchGraph panicking on error.
func MustRelationBatchGraph(r *core.Relation) *RelationBatchGraph {
	g, err := NewRelationBatchGraph(r)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return g
}

// edgeRow fills a stack buffer with a fully bound edge row.
func (g *RelationBatchGraph) edgeRow(buf []rel.Value, src, dst, w int64) rel.Row {
	row := rel.RowOver(buf[:g.width], 0)
	row.Set(g.iSrc, src)
	row.Set(g.iDst, dst)
	row.Set(g.iWeight, w)
	return row
}

// keyRow fills a stack buffer with a (src, dst) key row.
func (g *RelationBatchGraph) keyRow(buf []rel.Value, src, dst int64) rel.Row {
	row := rel.RowOver(buf[:g.width], 0)
	row.Set(g.iSrc, src)
	row.Set(g.iDst, dst)
	return row
}

// InsertEdgePair inserts both edges in one batched transaction.
func (g *RelationBatchGraph) InsertEdgePair(src1, dst1, w1, src2, dst2, w2 int64) (bool, bool) {
	g.members(2)
	s := g.scratch()
	s.kind = csInsertPair
	s.r1 = g.edgeRow(s.rb1[:], src1, dst1, w1)
	s.r2 = g.edgeRow(s.rb2[:], src2, dst2, w2)
	g.exec(s)
	ok1, ok2 := s.pb1.Value(), s.pb2.Value()
	g.pool.Put(s)
	return ok1, ok2
}

// MoveEdge removes (src, dstOld) and inserts (src, dstNew, w) atomically.
func (g *RelationBatchGraph) MoveEdge(src, dstOld, dstNew, w int64) (bool, bool) {
	g.members(2)
	s := g.scratch()
	s.kind = csMove
	s.r1 = g.keyRow(s.rb1[:], src, dstOld)
	s.r2 = g.edgeRow(s.rb2[:], src, dstNew, w)
	g.exec(s)
	removed, inserted := s.pb1.Value(), s.pb2.Value()
	g.pool.Put(s)
	return removed, inserted
}

// CountSuccessorPair counts successors of a and b in one snapshot.
func (g *RelationBatchGraph) CountSuccessorPair(a, b int64) int {
	g.members(2)
	s := g.scratch()
	s.kind = csCountPair
	s.r1 = rel.RowOver(s.rb1[:g.width], 0)
	s.r1.Set(g.iSrc, a)
	s.r2 = rel.RowOver(s.rb2[:g.width], 0)
	s.r2.Set(g.iSrc, b)
	g.exec(s)
	total := s.pi1.Value() + s.pi2.Value()
	g.pool.Put(s)
	return total
}

// TwoHopCount reads src's successor list, then counts every successor's
// successors in one atomic batch and returns the sum.
func (g *RelationBatchGraph) TwoHopCount(src int64) int {
	s := g.scratch()
	s.hops = s.hops[:0]
	row := rel.RowOver(s.rb1[:g.width], 0)
	row.Set(g.iSrc, src)
	if err := g.succ.ExecRows(row, s.hopFn); err != nil {
		panic(fmt.Sprintf("workload: two-hop successors: %v", err))
	}
	g.members(1 + len(s.hops)) // the hop-1 read plus one count per successor
	if len(s.hops) == 0 {
		g.pool.Put(s)
		return 0
	}
	s.kind = csTwoHop
	if need := len(s.hops) * g.width; cap(s.rows) < need {
		s.rows = make([]rel.Value, need)
	} else {
		s.rows = s.rows[:need]
	}
	if cap(s.pend) < len(s.hops) {
		s.pend = make([]*core.Pending[int], len(s.hops))
	} else {
		s.pend = s.pend[:len(s.hops)]
	}
	g.exec(s)
	total := 0
	for _, p := range s.pend {
		total += p.Value()
	}
	g.pool.Put(s)
	return total
}

// nodeID converts a stored node-id value to the int64 ids GraphOps
// speaks. The benchmark adapters write int64, but the relation is shared
// with tuple-API clients whose literals arrive as int, so both are
// accepted; anything else is a mis-specified graph and panics.
func nodeID(v rel.Value) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case uint64:
		return int64(x)
	}
	panic(fmt.Sprintf("workload: node id %v (%T) is not an integer", v, v))
}

// SequentialRelationBatchGraph is the sequential baseline over a
// synthesized relation: identical per-member execution to
// RelationBatchGraph (same prepared row operations) but one transaction
// per member instead of one coalesced transaction per group.
type SequentialRelationBatchGraph struct {
	*RelationGraph

	// Counts, when non-nil, accumulates the relational member total of the
	// deterministic counting pass. Unlike the batched adapter it carries NO
	// lock-schedule or OCC statistics: the sequential discipline runs bare
	// single operations outside any traced batch, so those counters do not
	// exist for it.
	Counts *LockCounts
}

// members records n relational members against the counting pass.
func (g *SequentialRelationBatchGraph) members(n int) {
	if g.Counts != nil {
		g.Counts.Members.Add(int64(n))
	}
}

// NewSequentialRelationBatchGraph prepares the baseline against r.
func NewSequentialRelationBatchGraph(r *core.Relation) (*SequentialRelationBatchGraph, error) {
	g, err := NewRelationGraph(r)
	if err != nil {
		return nil, err
	}
	return &SequentialRelationBatchGraph{RelationGraph: g}, nil
}

// InsertEdgePair issues the two inserts as separate transactions.
func (g *SequentialRelationBatchGraph) InsertEdgePair(src1, dst1, w1, src2, dst2, w2 int64) (bool, bool) {
	g.members(2)
	return g.InsertEdge(src1, dst1, w1), g.InsertEdge(src2, dst2, w2)
}

// MoveEdge issues remove then insert as separate transactions.
func (g *SequentialRelationBatchGraph) MoveEdge(src, dstOld, dstNew, w int64) (bool, bool) {
	g.members(2)
	return g.RemoveEdge(src, dstOld), g.InsertEdge(src, dstNew, w)
}

// CountSuccessorPair issues the two counts as separate transactions.
func (g *SequentialRelationBatchGraph) CountSuccessorPair(a, b int64) int {
	g.members(2)
	return g.FindSuccessors(a) + g.FindSuccessors(b)
}

// TwoHopCount reads the successor list, then counts each successor's
// successors as separate transactions (no hop-2 consistency).
func (g *SequentialRelationBatchGraph) TwoHopCount(src int64) int {
	var buf [3]rel.Value
	row := rel.RowOver(buf[:g.width], 0)
	row.Set(g.iSrc, src)
	var hops []int64
	if err := g.succ.ExecRows(row, func(r rel.Row) bool {
		hops = append(hops, nodeID(r.At(g.iDst)))
		return true
	}); err != nil {
		panic(fmt.Sprintf("workload: two-hop successors: %v", err))
	}
	g.members(1 + len(hops)) // the hop-1 read plus one count per successor
	total := 0
	for _, h := range hops {
		total += g.FindSuccessors(h)
	}
	return total
}

// BatchMix is an operation distribution over the composite batched
// operations, in percent: insert pairs, edge moves, successor-count
// pairs, and two-hop counts.
type BatchMix struct {
	InsertPairs, Moves, CountPairs, TwoHops int
}

// String renders the mix as p-m-c-h.
func (m BatchMix) String() string {
	return fmt.Sprintf("%d-%d-%d-%d", m.InsertPairs, m.Moves, m.CountPairs, m.TwoHops)
}

// valid reports whether the percentages sum to 100.
func (m BatchMix) valid() bool {
	return m.InsertPairs+m.Moves+m.CountPairs+m.TwoHops == 100
}

// DefaultBatchMix returns the mixed read-write distribution the batched
// Figure-5 variant reports: 20% insert pairs, 10% moves, 40% count
// pairs, 30% two-hop counts.
func DefaultBatchMix() BatchMix {
	return BatchMix{InsertPairs: 20, Moves: 10, CountPairs: 40, TwoHops: 30}
}

// ReadHeavyBatchMix returns the 95/5 read-dominated distribution of the
// optimistic benchmark: count pairs and two-hop scans (pure read-only
// groups, lock-free on an OptimisticCapable relation) with a trickle of
// writes keeping the epochs moving.
func ReadHeavyBatchMix() BatchMix {
	return BatchMix{InsertPairs: 3, Moves: 2, CountPairs: 45, TwoHops: 50}
}

// CompositeOp draws and executes ONE composite operation against g: it
// advances the SplitMix64 state, picks the composite per mix, derives the
// operand node ids from the draw, and returns the checksum contribution.
// It is the single dispatch shared by RunBatched and the in-repo
// BatchedVsSequential benchmark, so TestDeterministicLockCounts and
// `go test -bench` measure the same workload under the same mix label.
func CompositeOp(g BatchGraphOps, state *uint64, mix BatchMix, keySpace int64) uint64 {
	r := splitmix64(state)
	choice := int(r % 100)
	a := int64((r >> 32) % uint64(keySpace))
	b := int64((r >> 16) % uint64(keySpace))
	c := int64((r >> 48) % uint64(keySpace))
	var sum uint64
	switch {
	case choice < mix.InsertPairs:
		ok1, ok2 := g.InsertEdgePair(a, b, int64(r>>40), a, c, int64(r>>24))
		if ok1 {
			sum++
		}
		if ok2 {
			sum++
		}
	case choice < mix.InsertPairs+mix.Moves:
		rem, ins := g.MoveEdge(a, b, c, int64(r>>40))
		if rem {
			sum++
		}
		if ins {
			sum++
		}
	case choice < mix.InsertPairs+mix.Moves+mix.CountPairs:
		sum += uint64(g.CountSuccessorPair(a, b))
	default:
		sum += uint64(g.TwoHopCount(a))
	}
	return sum
}

// RunBatched executes the batched benchmark: cfg.Threads workers each
// perform cfg.OpsPerThread composite operations drawn from mix, against
// one shared BatchGraphOps. Throughput is reported in composite
// operations per second (each composite is ≥ 2 relational operations).
func RunBatched(g BatchGraphOps, cfg Config, mix BatchMix) Result {
	if !mix.valid() {
		panic(fmt.Sprintf("workload: batch mix %s does not sum to 100", mix))
	}
	return runWorkers(cfg, func(state *uint64) uint64 {
		return CompositeOp(g, state, mix, cfg.KeySpace)
	})
}

// runWorkers is the shared thread harness of Run and RunBatched: start
// cfg.Threads generators together, execute cfg.OpsPerThread draws of op,
// and report aggregate throughput and the checksum.
func runWorkers(cfg Config, op func(state *uint64) uint64) Result {
	if cfg.Threads < 1 || cfg.OpsPerThread < 1 || cfg.KeySpace < 1 {
		panic("workload: invalid config")
	}
	done := make(chan uint64, cfg.Threads)
	start := make(chan struct{})
	for i := 0; i < cfg.Threads; i++ {
		go func(tid int) {
			state := cfg.Seed*0x9e3779b97f4a7c15 + uint64(tid)*0xdeadbeefcafef00d + 1
			<-start
			var sum uint64
			for n := 0; n < cfg.OpsPerThread; n++ {
				sum += op(&state)
			}
			done <- sum
		}(i)
	}
	t0 := time.Now()
	close(start)
	var checksum uint64
	for i := 0; i < cfg.Threads; i++ {
		checksum += <-done
	}
	elapsed := time.Since(t0)
	total := cfg.Threads * cfg.OpsPerThread
	return Result{
		Ops:        total,
		Duration:   elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
		Checksum:   checksum,
	}
}
