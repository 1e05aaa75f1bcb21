package server

// The group-commit dispatcher. Submit parks each validated request in the
// current WINDOW; the window closes when it has been open for
// Config.Window (armed by the first arrival) or holds Config.MaxBatch
// requests, whichever comes first. The goroutine that closes a window
// commits every parked request as members of ONE Registry.Batch — the
// core then coalesces their lock schedules, detects read-only groups and
// runs them lock-free, and commits mixed groups Silo-style — and each
// submitter is woken with its own members' results plus the group's
// coordinates. Group commits of successive windows may overlap in time;
// the registry's globally ordered lock acquisition keeps that
// deadlock-free, exactly as for any two concurrent batches.
//
// Error isolation: requests are compiled to prepared handles BEFORE
// entering a window (compile.go), so a malformed request is rejected
// alone and never aborts its neighbors' group. If an enqueue error
// nonetheless surfaces at group commit (a migration after compilation
// dropped the plan of a request's shape), the group aborts untouched
// (Registry.Batch executes nothing on error) and the dispatcher degrades
// that window to per-request commits, preserving per-request semantics
// at the cost of one window's coalescing; the Stats.Degraded counter
// makes such events visible.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/latency"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ErrClosed is returned by Submit after Close: the dispatcher accepts no
// new requests while draining.
var ErrClosed = errors.New("server: dispatcher closed")

// DefaultWindow is the coalescing window used when Config.Window is zero:
// long enough for concurrent arrivals to pile up, short enough to stay
// invisible next to network latency.
const DefaultWindow = 500 * time.Microsecond

// DefaultMaxBatch is the window's request-count cutoff when
// Config.MaxBatch is zero.
const DefaultMaxBatch = 64

// Config parameterizes a Dispatcher.
type Config struct {
	// Window is how long a window stays open after its first request
	// before committing, bounding the latency a request can pay for
	// coalescing. Zero means DefaultWindow.
	Window time.Duration
	// MaxBatch closes a window early once this many requests are parked,
	// bounding group size (and per-group lock-set size) under burst
	// arrivals. Zero means DefaultMaxBatch; 1 disables coalescing — every
	// request commits alone, the "sequential decomposition" baseline of
	// TestWireDeterministicCounts.
	MaxBatch int
	// Counts, when non-nil, turns on per-group lock-schedule tracing and
	// accumulates the same counters the workload drivers harvest —
	// requested/acquired totals, read-only and OCC counters — so the wire
	// path is pinned by the same deterministic counts as the in-process
	// drivers.
	Counts *workload.LockCounts
	// WAL, when non-nil, is the write-ahead log attached to the served
	// registry (via Registry.SetCommitLogger). The dispatcher becomes the
	// fsync batcher: after each window's group commit it calls WAL.Sync
	// ONCE and only then wakes the submitters, so a whole window of
	// requests shares one fsync and no request is acknowledged before its
	// redo record is durable. Group commit above and fsync batching below
	// are the same mechanism at two layers.
	WAL *wal.Manager
}

// window applies the Window default.
func (c Config) window() time.Duration {
	if c.Window <= 0 {
		return DefaultWindow
	}
	return c.Window
}

// maxBatch applies the MaxBatch default.
func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return DefaultMaxBatch
	}
	return c.MaxBatch
}

// Stats is a snapshot of a dispatcher's lifetime counters.
type Stats struct {
	// Requests is the number of requests committed (including degraded
	// ones); Members the relational operations they carried.
	Requests, Members uint64
	// Batches is the number of group commits; MultiBatches how many of
	// them coalesced more than one request.
	Batches, MultiBatches uint64
	// MaxBatchSize is the largest group committed.
	MaxBatchSize uint64
	// Degraded counts windows that fell back to per-request commits after
	// a group enqueue error (0 in healthy operation: compilation rejects
	// malformed requests before they reach a window).
	Degraded uint64
	// MeanBatchSize is Requests/Batches, the coalescing win's summary
	// statistic: 1.0 means no cross-client batching happened, K means the
	// average lock schedule amortized over K clients.
	MeanBatchSize float64
	// WAL carries the write-ahead log's counters when durability is
	// enabled (Config.WAL non-nil); nil otherwise. Under group commit
	// WAL.Fsyncs tracks Batches, not Requests — that ratio is the fsync
	// amortization the dispatcher exists to provide.
	WAL *wal.Stats `json:",omitempty"`
	// Registry is the served registry's harvested counter snapshot
	// (core.Registry.Harvest): per-relation read/write shapes, the
	// optimistic-path counters, and the migration event history the
	// -adapt advisor appends to. /v1/stats re-serializes exactly this
	// document — crstune -live consumes it.
	Registry *core.Counters `json:"registry,omitempty"`
	// CommitLatency digests the server-side commit latency in
	// nanoseconds: per request, from arrival at the dispatcher to its
	// group's acknowledgment (so it includes the window wait and, when
	// durable, the group fsync). Open-loop clients cross-check their
	// coordinated-omission-free measurements against this server view.
	// Nil until a request commits.
	CommitLatency *latency.Summary `json:"commit_latency_ns,omitempty"`
	// WindowOccupancy digests how many requests each closed window
	// carried (dimensionless; mean equals MeanBatchSize). Where
	// MeanBatchSize is one number, the occupancy quantiles show the
	// SHAPE of coalescing — under bursty arrivals p95 occupancy grows
	// with the window while p50 may stay at 1. Nil until a window
	// commits.
	WindowOccupancy *latency.Summary `json:"window_occupancy,omitempty"`
}

// Dispatcher coalesces concurrently submitted requests into group
// commits over one registry. Safe for concurrent use; create with
// NewDispatcher.
type Dispatcher struct {
	reg *core.Registry
	cfg Config
	// cat resolves wire names; reqs pools compiled requests.
	cat  catalog
	reqs sync.Pool
	// syncLog is the durability barrier between commit and reply
	// (Config.WAL's Sync), nil without a WAL.
	syncLog func() error

	mu      sync.Mutex
	pending []*txnReq
	spare   []*txnReq // a committed window's slice, reused by the next
	timer   *time.Timer
	gen     uint64 // window generation; a stale timer firing is a no-op
	closed  bool
	commits sync.WaitGroup // group commits in flight (balanced in takeLocked/commitGroup)

	requests     atomic.Uint64
	members      atomic.Uint64
	batches      atomic.Uint64
	multiBatches atomic.Uint64
	maxBatch     atomic.Uint64
	degraded     atomic.Uint64

	// commitLatency records per-request arrival→acknowledgment time in
	// nanoseconds; occupancy records per-window committed batch sizes.
	// Both are lock-free (see internal/latency) so the commit path stays
	// allocation-free.
	commitLatency latency.Histogram
	occupancy     latency.Histogram
}

// windowHook, when non-nil, replaces the batching policy: it is invoked
// under the dispatcher lock after each arrival with the number of parked
// requests, and the window closes exactly when it returns true — no timer
// is armed and MaxBatch is ignored. Tests use it to force deterministic
// window boundaries.
var windowHook func(pending int) bool

// NewDispatcher returns a dispatcher committing against reg.
func NewDispatcher(reg *core.Registry, cfg Config) *Dispatcher {
	d := &Dispatcher{reg: reg, cfg: cfg}
	d.cat.reg = reg
	if cfg.WAL != nil {
		d.syncLog = cfg.WAL.Sync
	}
	return d
}

// badRequest marks a Submit error as the client's: the request failed
// validation and nothing of it executed. Every other Submit error but
// ErrClosed is the server's — a commit or WAL sync that failed.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// IsBadRequest reports whether err, returned by Submit, rejects the
// request itself (HTTP 400) rather than reporting a server-side failure.
func IsBadRequest(err error) bool { return errors.As(err, new(badRequest)) }

// Submit compiles req, parks it in the current window, and blocks until
// its group commits, returning this request's results. Compile errors
// are returned immediately (the request never enters a window) and
// satisfy IsBadRequest; ErrClosed is returned after Close; any other
// error is a failed commit or WAL sync.
func (d *Dispatcher) Submit(req *Request) (*Response, error) {
	tr := d.getReq()
	defer d.putReq(tr)
	if err := tr.compileMaps(&d.cat, req); err != nil {
		return nil, badRequest{err}
	}
	if err := d.submit(tr); err != nil {
		return nil, err
	}
	return tr.response(), nil
}

// getReq takes a compiled-request buffer from the pool.
func (d *Dispatcher) getReq() *txnReq {
	if tr, _ := d.reqs.Get().(*txnReq); tr != nil {
		return tr
	}
	return newTxnReq()
}

// putReq returns a request to the pool once its submitter is done with
// it.
func (d *Dispatcher) putReq(tr *txnReq) {
	tr.reset()
	d.reqs.Put(tr)
}

// submit parks a compiled request and waits for its group to commit;
// see Submit.
func (d *Dispatcher) submit(tr *txnReq) error {
	tr.arrived = time.Now()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.pending = append(d.pending, tr)
	n := len(d.pending)
	var batch []*txnReq
	if windowHook != nil {
		if windowHook(n) {
			batch = d.takeLocked()
		}
	} else {
		if n == 1 && d.cfg.maxBatch() > 1 {
			gen := d.gen
			d.timer = time.AfterFunc(d.cfg.window(), func() { d.flushGen(gen) })
		}
		if n >= d.cfg.maxBatch() {
			batch = d.takeLocked()
		}
	}
	d.mu.Unlock()
	if batch != nil {
		d.commitGroup(batch)
	}
	<-tr.done
	return tr.err
}

// takeLocked removes the current window's requests, advances the window
// generation (cancelling the pending timer), and registers the group
// commit with the drain WaitGroup. Caller holds d.mu and MUST pass the
// result to commitGroup (which balances the WaitGroup).
func (d *Dispatcher) takeLocked() []*txnReq {
	batch := d.pending
	d.pending, d.spare = d.spare, nil
	d.gen++
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	if len(batch) == 0 {
		return nil
	}
	d.commits.Add(1)
	return batch
}

// flushGen closes the window of generation gen if it is still open — the
// timer path. A stale generation (window already closed by MaxBatch,
// Flush or Close) is a no-op.
func (d *Dispatcher) flushGen(gen uint64) {
	d.mu.Lock()
	if d.closed || gen != d.gen {
		d.mu.Unlock()
		return
	}
	batch := d.takeLocked()
	d.mu.Unlock()
	if batch != nil {
		d.commitGroup(batch)
	}
}

// Flush closes the current window immediately and commits its requests,
// returning how many it carried. Server.Shutdown uses it to drain parked
// handlers without waiting out the window timer.
func (d *Dispatcher) Flush() int {
	d.mu.Lock()
	batch := d.takeLocked()
	d.mu.Unlock()
	if batch == nil {
		return 0
	}
	d.commitGroup(batch)
	return len(batch)
}

// Close stops accepting requests, commits the in-flight window, and
// waits for every outstanding group commit to deliver its replies — no
// accepted request is ever dropped. Close is idempotent; Submit returns
// ErrClosed afterwards.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.commits.Wait()
		return
	}
	d.closed = true
	batch := d.takeLocked()
	d.mu.Unlock()
	if batch != nil {
		d.commitGroup(batch)
	}
	d.commits.Wait()
}

// Pending reports how many requests are parked in the currently open
// window — an observability hook for shutdown sequencing (a drain loop
// can wait for arrivals to park before flushing) and for tests.
func (d *Dispatcher) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// Stats returns a snapshot of the lifetime counters.
func (d *Dispatcher) Stats() Stats {
	s := Stats{
		Requests:     d.requests.Load(),
		Members:      d.members.Load(),
		Batches:      d.batches.Load(),
		MultiBatches: d.multiBatches.Load(),
		MaxBatchSize: d.maxBatch.Load(),
		Degraded:     d.degraded.Load(),
	}
	if s.Batches > 0 {
		s.MeanBatchSize = float64(s.Requests) / float64(s.Batches)
	}
	if d.cfg.WAL != nil {
		ws := d.cfg.WAL.Stats()
		s.WAL = &ws
	}
	rc := d.reg.Harvest()
	s.Registry = &rc
	s.CommitLatency = d.commitLatency.Summarize()
	s.WindowOccupancy = d.occupancy.Summarize()
	return s
}

// commitGroup commits one window's requests as a single registry batch
// and wakes every submitter. On a group enqueue error nothing has
// executed; the window degrades to per-request commits — each request
// alone, with its own commit stamp and size 1 — so one bad request
// cannot take its neighbors down and only this window's coalescing is
// lost.
func (d *Dispatcher) commitGroup(batch []*txnReq) {
	defer d.commits.Done()
	if d.commit(batch) == nil {
		d.recycle(batch)
		return
	}
	d.degraded.Add(1)
	for i, c := range batch {
		if err := d.commit(batch[i : i+1]); err != nil {
			c.err = err
			c.done <- struct{}{}
		}
	}
}

// commit runs batch as one registry batch, syncs the WAL and wakes every
// submitter — with its result, or with the sync error when the redo
// record may not be on stable storage (acknowledging then could ack work
// a crash would lose). If the batch fails, nothing executed, nobody is
// woken and the error is returned, marked as the client's when a request
// failed to enqueue.
func (d *Dispatcher) commit(batch []*txnReq) error {
	var txn *core.Txn
	var tr *core.BatchTrace
	var bad *txnReq
	err := d.reg.Batch(func(tx *core.Txn) error {
		txn = tx
		if d.cfg.Counts != nil {
			tx.EnableTrace()
			tr = tx.Trace()
		}
		for _, c := range batch {
			if err := c.enqueue(tx); err != nil {
				bad = c
				return err
			}
		}
		return nil
	})
	if err != nil {
		if bad != nil {
			err = badRequest{fmt.Errorf("%w (%s)", err, bad.summarize())}
		}
		return err
	}
	if serr := d.syncWAL(); serr != nil {
		for _, c := range batch {
			c.err = serr
			c.done <- struct{}{}
		}
		return nil
	}
	if tr != nil {
		d.cfg.Counts.Harvest(tr)
	}
	d.recordBatch(len(batch))
	seq := txn.Stamp()
	for i, c := range batch {
		d.requests.Add(1)
		d.members.Add(uint64(len(c.ops)))
		c.seq, c.size, c.pos = seq, len(batch), i
		d.commitLatency.Record(time.Since(c.arrived))
		c.done <- struct{}{}
	}
	return nil
}

// recycle keeps a committed window's slice for the next window.
func (d *Dispatcher) recycle(batch []*txnReq) {
	clear(batch)
	d.mu.Lock()
	if d.spare == nil {
		d.spare = batch[:0]
	}
	d.mu.Unlock()
}

// syncWAL is the durability barrier between commit and reply: one fsync
// for however many requests the window held. No-op without a WAL.
func (d *Dispatcher) syncWAL() error {
	if d.syncLog == nil {
		return nil
	}
	if err := d.syncLog(); err != nil {
		return fmt.Errorf("server: wal sync: %w", err)
	}
	return nil
}

// recordBatch folds one committed group into the batch-size counters and
// the window-occupancy histogram.
func (d *Dispatcher) recordBatch(size int) {
	d.occupancy.RecordValue(int64(size))
	d.batches.Add(1)
	if size > 1 {
		d.multiBatches.Add(1)
	}
	for {
		cur := d.maxBatch.Load()
		if uint64(size) <= cur || d.maxBatch.CompareAndSwap(cur, uint64(size)) {
			return
		}
	}
}
