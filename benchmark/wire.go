package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// wireRunner drives the three wire workloads: social traffic over
// loopback HTTP+JSON to an in-process server.New with crsd's defaults
// (window 500 µs, MaxBatch 64), sent by a load generator in a process of
// its own (loadgen.go).
type wireRunner struct {
	spec spec
	cfg  config
	env  *wireEnv
	gen  *loadgenProc
	// ackedMutating is the load generator's count of acknowledged requests
	// that produced a redo record (disk_bytes_per_op's divisor).
	ackedMutating uint64
}

func (w *wireRunner) params() socialParams {
	p := socialParams{
		seed: w.cfg.seed, keyspace: w.spec.keyspace, mix: w.spec.mix,
		preload: w.spec.preload, wireFormat: true, durable: w.spec.durable,
	}
	if p.durable {
		// About 410 windows a second carry a mutation at 1000 req/s, so
		// this is a background snapshot every 1.5 s or so, seven in a 10 s
		// window (ISSUE 11 asks for six at least). A dump stalls commits
		// for 10–40 ms. At one every 0.7 s the stalled share of the requests
		// sat at 5–10 %, right where p90_us is read, and p90_us repeated to
		// 26 % between runs; at this rate the stalls are 1–3 % of the
		// requests and land in p99_us and ok_frac, where they belong.
		p.snapshotEvery = 600
	}
	return p
}

func (w *wireRunner) setup() (setupTimes, error) {
	if err := w.close(); err != nil {
		return setupTimes{}, err
	}
	env, st, err := newSocialEnv(w.params())
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	if w.env, err = serve(env, server.Config{}, 1); err != nil {
		env.close()
		return st, err
	}
	// Listening is part of bringing the system up; it has no span of its
	// own, so it is booked with the WAL open it follows.
	st.walOpen += time.Since(t0)
	return st, nil
}

func (w *wireRunner) close() error {
	if w.gen != nil {
		w.gen.stop()
		w.gen = nil
	}
	if w.env == nil {
		return nil
	}
	err := w.env.shutdown()
	if cerr := w.env.socialEnv.close(); err == nil {
		err = cerr
	}
	w.env = nil
	return err
}

func (w *wireRunner) gate() (err error) {
	// The gate has a served registry and an oracle of its own, so the
	// measured server starts from the preload alone and its statistics
	// hold the workload's traffic only.
	gated, _, err := newSocialEnv(w.params())
	if err != nil {
		return err
	}
	defer func() {
		if cerr := gated.close(); err == nil {
			err = cerr
		}
	}()
	served, err := serve(gated, server.Config{}, w.spec.callers)
	if err != nil {
		return err
	}
	defer func() {
		if serr := served.shutdown(); err == nil {
			err = serr
		}
	}()
	p := w.params()
	p.durable = false
	oracle, _, err := newSocialEnv(p)
	if err != nil {
		return err
	}
	n := w.cfg.scale.gateRequests
	reqs := wireStream(w.cfg.seed, w.spec.mix, w.spec.callers, w.spec.keysPerClient(), w.spec.callers*n)
	return gateWire(served, oracle, reqs, w.spec.callers, n, w.cfg.injectFault)
}

// warm starts the load generator; it returns when the generator's
// warm-up — a fixed count of requests — is over.
func (w *wireRunner) warm() (err error) {
	w.gen, err = startLoadgen(w.spec, w.cfg, w.env.base)
	if w.spec.durable {
		// Let a background snapshot that the warm-up's last appends
		// started finish: live_heap_mb is read next, and a dump in
		// progress holds a copy of the tables.
		time.Sleep(150 * time.Millisecond)
	}
	return err
}

func (w *wireRunner) counters(c *counters) {
	runtime.ReadMemStats(&c.mem)
	c.disp = w.env.srv.Dispatcher().Stats()
	c.reg = *c.disp.Registry
}

func (w *wireRunner) measure(seconds int, _ time.Duration, atStart func()) (*measurement, error) {
	rep, err := w.gen.window(atStart)
	w.gen = nil
	if err != nil {
		return nil, err
	}
	w.ackedMutating = rep.AckedMutating
	m, err := rep.measurement(seconds)
	if err != nil {
		return nil, err
	}
	m.clientMallocs, m.clientAllocBytes = rep.Mallocs, rep.AllocBytes
	return m, nil
}

// verify shuts the measured server down and checks what it left behind:
// well-formed relations and, for wire-durable, that the log and
// snapshots alone rebuild exactly the registry the server held.
func (w *wireRunner) verify(res *result) error {
	env := w.env
	if err := env.shutdown(); err != nil {
		return err
	}
	w.env = nil
	defer env.socialEnv.close()
	if err := wellFormed(env.soc.Reg); err != nil {
		return fmt.Errorf("after the run: %w", err)
	}
	if !w.spec.durable {
		return nil
	}
	ms := res.metrics
	if err := env.closeWAL(); err != nil {
		return fmt.Errorf("closing the WAL: %w", err)
	}
	size, err := dirBytes(env.walDir)
	if err != nil {
		return err
	}
	ms["disk_bytes_per_op"] = ratio(float64(size), float64(w.ackedMutating))

	fresh, err := workload.NewSocial()
	if err != nil {
		return err
	}
	t0 := time.Now()
	recovered, err := wal.Open(env.walDir, fresh.Reg, wal.Options{})
	took := time.Since(t0)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	replayed := recovered.Stats().RecoveredBatches
	if err := recovered.Close(); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	live, err := server.RegistryChecksum(env.soc.Reg)
	if err != nil {
		return err
	}
	again, err := server.RegistryChecksum(fresh.Reg)
	if err != nil {
		return err
	}
	if live != again {
		return fmt.Errorf("recovered registry checksum %x, live registry %x", again, live)
	}
	ms["recovery_s"] = took.Seconds()
	ms["wal.recover_records_per_s"] = ratio(float64(replayed), took.Seconds())
	res.note("recovery replayed %d redo records over the newest snapshot; %d bytes on disk for %d acknowledged mutating requests",
		replayed, size, w.ackedMutating)
	return nil
}

// timedLogger wraps the registry's commit logger and remembers when the
// last LogCommit ran: a real nested span inside Registry.Batch, taken
// from outside the program. Errors pass through untouched. The traced
// pass has one caller, so the fields need no lock.
type timedLogger struct {
	inner      core.CommitLogger
	start, end time.Time
	calls      int
}

func (l *timedLogger) LogCommit(ops []core.RedoOp) error {
	l.start = time.Now()
	err := l.inner.LogCommit(ops)
	l.end = time.Now()
	l.calls++
	return err
}

// The wire peel's entry points, top first. A single closed-loop caller
// replays the same requests at each of them, every entry point against an
// identically preloaded registry of its own, so a level's median minus the
// next level's is the self time of the layer between them. The replays
// advance together, a chunk of requests at a time: whatever the machine
// does in a given second, it does to all levels.
const (
	spanWindow = "client.do.window"  // client.Do, dispatcher at its default window
	spanClient = "client.do"         // client.Do, MaxBatch 1: no window to wait out
	spanHTTP   = "http.post"         // raw POST of pre-encoded bytes, reply read but not decoded
	spanSubmit = "dispatcher.submit" // Dispatcher.Submit, in process
	spanBatch  = "core.batch"        // Registry.Batch through the tuple Txn API (+ Sync when durable)
	spanRows   = "core.rows"         // the same batch through prepared rows (+ Sync when durable)
	spanAppend = "wal.append"        // LogCommit, nested inside core.rows
	spanSync   = "wal.sync"          // Manager.Sync after the batch, the reply barrier
)

// peelEntry is one entry point of the wire peel.
type peelEntry struct {
	name string
	// n is how many of the requests the entry replays: the window level
	// fewer, since each of its requests waits out the dispatcher's timer.
	n int
	// silent entries are timed a chunk at a time and record no spans: the
	// untraced twin the tracing overhead is measured against.
	silent bool
	call   func(i int) (opResults, error)
	// children, when non-nil, adds the spans nested inside the span just
	// recorded for request i.
	children func(parent uint32, i int)
}

// syncWAL is the reply barrier the dispatcher runs after a group commit.
func syncWAL(env *socialEnv) error {
	if env.wal == nil {
		return nil
	}
	return env.wal.Sync()
}

func (w *wireRunner) peel(tr *tracer, res *result) (err error) {
	ms := res.metrics
	n, chunk := w.cfg.scale.peelWire, w.cfg.scale.peelChunk
	reqs := wireStream(w.cfg.seed, w.spec.mix, w.spec.callers, w.spec.keysPerClient(), 2*n)

	// Everything the pass builds is torn down on the way out; the first
	// failure wins.
	var cleanup []func() error
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			if cerr := cleanup[i](); err == nil {
				err = cerr
			}
		}
	}()
	// newEnv builds one entry point's registry: the measured run's preload,
	// a WAL of its own when the workload is durable, and no background
	// snapshots (so bytes per append can be read off the directory).
	newEnv := func() (*socialEnv, error) {
		p := w.params()
		p.snapshotEvery = 0
		env, _, err := newSocialEnv(p)
		if err == nil {
			cleanup = append(cleanup, env.close)
		}
		return env, err
	}
	newServed := func(cfg server.Config) (*wireEnv, error) {
		env, err := newEnv()
		if err != nil {
			return nil, err
		}
		served, err := serve(env, cfg, 1)
		if err == nil {
			cleanup = append(cleanup, served.shutdown)
		}
		return served, err
	}

	// The oracle: the requests through prepared rows, one at a time,
	// untimed. Every entry point must reproduce its results. Also the
	// registry that counts locks afterwards.
	oracle, err := newEnv()
	if err != nil {
		return err
	}
	oracleOps := make([][]rowOp, 2*n)
	for i := range oracleOps {
		if oracleOps[i], err = oracle.comp.rows(reqs[i]); err != nil {
			return err
		}
	}
	want := make([]opResults, n)
	for i := range want {
		if want[i], err = execRows(oracle.soc.Reg, oracleOps[i], nil); err != nil {
			return err
		}
	}

	// The three entry points that cross the loopback.
	viaClient := func(env *wireEnv) func(i int) (opResults, error) {
		return func(i int) (opResults, error) {
			resp, err := env.cl.Do(context.Background(), reqs[i])
			if err != nil {
				return opResults{}, err
			}
			return responseResults(resp)
		}
	}
	atWindow, err := newServed(server.Config{})
	if err != nil {
		return err
	}
	atClient, err := newServed(server.Config{MaxBatch: 1})
	if err != nil {
		return err
	}
	atHTTP, err := newServed(server.Config{MaxBatch: 1})
	if err != nil {
		return err
	}
	bodies, err := encodeRequests(reqs[:n])
	if err != nil {
		return err
	}
	var reqBytes, respBytes, posts float64
	post := func(i int) (opResults, error) {
		resp, err := atHTTP.httpc.Post(atHTTP.base+"/v1/txn", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			return opResults{}, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return opResults{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return opResults{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		reqBytes += float64(len(bodies[i]))
		respBytes += float64(len(body))
		posts++
		// The body is deliberately not decoded — that is the client
		// layer's work — so there is nothing to compare.
		return want[i], nil
	}

	// Dispatcher.Submit, in process.
	env, err := newEnv()
	if err != nil {
		return err
	}
	disp := server.NewDispatcher(env.soc.Reg, server.Config{MaxBatch: 1, WAL: env.wal})
	cleanup = append(cleanup, func() error { disp.Close(); return nil })
	submit := func(i int) (opResults, error) {
		resp, err := disp.Submit(reqs[i])
		if err != nil {
			return opResults{}, err
		}
		return responseResults(resp)
	}

	// Registry.Batch through the tuple API: what the dispatcher calls.
	atBatch, err := newEnv()
	if err != nil {
		return err
	}
	tupleOps := make([][]tupleOp, n)
	for i := range tupleOps {
		if tupleOps[i], err = atBatch.comp.tuples(reqs[i]); err != nil {
			return err
		}
	}
	batch := func(i int) (opResults, error) {
		got, err := execTuples(atBatch.soc.Reg, tupleOps[i])
		if err != nil {
			return got, err
		}
		return got, syncWAL(atBatch)
	}

	// The same batch through prepared rows, twice: one replay records
	// spans, with the WAL's append and sync as real children, the other
	// records nothing. The ratio of their chunk times is the tracing
	// overhead.
	var atRows [2]*socialEnv
	var rowOps [2][][]rowOp
	for k := range atRows {
		if atRows[k], err = newEnv(); err != nil {
			return err
		}
		rowOps[k] = make([][]rowOp, n)
		for i := range rowOps[k] {
			if rowOps[k][i], err = atRows[k].comp.rows(reqs[i]); err != nil {
				return err
			}
		}
	}
	var logger *timedLogger
	if atRows[0].wal != nil {
		logger = &timedLogger{inner: atRows[0].wal}
		atRows[0].soc.Reg.SetCommitLogger(logger)
	}
	var committed, synced time.Time // of the traced replay's last request
	var appended bool
	rows := func(i int) (opResults, error) {
		calls := 0
		if logger != nil {
			calls = logger.calls
		}
		got, err := execRows(atRows[0].soc.Reg, rowOps[0][i], nil)
		committed = time.Now()
		if err == nil {
			err = syncWAL(atRows[0])
		}
		synced = time.Now()
		appended = logger != nil && logger.calls > calls
		return got, err
	}
	rowsChildren := func(parent uint32, i int) {
		// A request that logged nothing still contributes a zero-length
		// append, so the children's medians are over the same requests as
		// their parent's.
		a0, a1 := committed, committed
		if appended {
			a0, a1 = logger.start, logger.end
		}
		tr.add(parent, uint32(i), spanAppend, a0, a1)
		tr.add(parent, uint32(i), spanSync, committed, synced)
	}
	untraced := func(i int) (opResults, error) {
		got, err := execRows(atRows[1].soc.Reg, rowOps[1][i], nil)
		if err != nil {
			return got, err
		}
		return got, syncWAL(atRows[1])
	}

	entries := []peelEntry{
		{name: spanWindow, n: min(n, w.cfg.scale.peelWindow), call: viaClient(atWindow)},
		{name: spanClient, n: n, call: viaClient(atClient)},
		{name: spanHTTP, n: n, call: post},
		{name: spanSubmit, n: n, call: submit},
		{name: spanBatch, n: n, call: batch},
		{name: spanRows, n: n, call: rows},
		{name: "core.rows.untraced", n: n, silent: true, call: untraced},
	}
	if logger != nil {
		entries[5].children = rowsChildren
	}
	overhead, err := replayInterleaved(tr, entries, want, chunk, w.cfg.scale.peelBudget)
	if err != nil {
		return err
	}

	levels := []levelSpec{{name: spanWindow}, {name: spanClient}, {name: spanHTTP}, {name: spanSubmit}, {name: spanBatch}, {name: spanRows}}
	if w.spec.durable {
		levels[len(levels)-1].children = []string{spanAppend, spanSync}
	}
	self := finishPeel(res, tr, levels, chunk, overhead)
	ms["dispatcher.window_wait_us"] = self[spanWindow]
	ms["client.self_us"] = self[spanClient]
	ms["http.self_us"] = self[spanHTTP]
	ms["dispatcher.self_us"] = self[spanSubmit]
	ms["core.tuple_overhead_us"] = self[spanBatch]
	ms["core.batch_us"] = self[spanBatch] + self[spanRows]
	ms["wal.append_us"] = self[spanAppend]
	ms["wal.sync_us"] = self[spanSync]
	ms["http.req_bytes"] = ratio(reqBytes, posts)
	ms["http.resp_bytes"] = ratio(respBytes, posts)

	// Exact lock counts, from BatchTrace, over the next n requests of the
	// stream on the oracle's registry: one caller, no window, so the
	// counts are a pure function of the seed.
	counts := &workload.LockCounts{}
	for i := n; i < 2*n; i++ {
		if _, err := execRows(oracle.soc.Reg, oracleOps[i], counts); err != nil {
			return err
		}
	}
	ms["locks.requested_per_op"] = float64(counts.Requested.Load()) / float64(n)
	ms["locks.acquired_per_op"] = float64(counts.Acquired.Load()) / float64(n)

	if oracle.wal != nil {
		size, err := dirBytes(oracle.walDir)
		if err != nil {
			return err
		}
		ms["wal.bytes_per_append"] = ratio(float64(size), float64(oracle.wal.Stats().Appends))
		t0 := time.Now()
		if err := oracle.wal.Snapshot(); err != nil {
			return fmt.Errorf("explicit snapshot: %w", err)
		}
		ms["wal.snapshot_s"] = time.Since(t0).Seconds()
	}
	return nil
}

// replayInterleaved replays requests 0..n-1 at every entry, a chunk of
// requests at a time at each entry in turn, recording one span per
// request under the same request's span at the entry above. It stops
// starting chunks once budget is spent (but replays two chunks at least,
// so that both halves of the noise estimate exist). Every entry must
// reproduce want. It returns the chunk times of the last traced entry
// against the silent one that follows it.
func replayInterleaved(tr *tracer, entries []peelEntry, want []opResults, chunk int, budget time.Duration) (*chunkPairs, error) {
	deadline := time.Now().Add(budget)
	ids := make([][]uint32, len(entries)) // ids[e][i] is the span of request i at entry e
	overhead := &chunkPairs{}
	for done := 0; done < len(want); done += chunk {
		if done >= 2*chunk && time.Now().After(deadline) {
			break
		}
		var tracedChunk time.Duration
		for e, ent := range entries {
			end := min(done+chunk, ent.n)
			c0 := time.Now()
			for i := done; i < end; i++ {
				t0 := time.Now()
				got, err := ent.call(i)
				t1 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("%s request %d: %w", ent.name, i, err)
				}
				if got != want[i] {
					return nil, fmt.Errorf("%s request %d returned %v, the sequential oracle %v", ent.name, i, got, want[i])
				}
				if ent.silent {
					continue
				}
				var parent uint32
				if e > 0 && i < len(ids[e-1]) {
					parent = ids[e-1][i]
				}
				id := tr.add(parent, uint32(i), ent.name, t0, t1)
				ids[e] = append(ids[e], id)
				if ent.children != nil {
					ent.children(id, i)
				}
			}
			took := time.Since(c0)
			if ent.silent && end > done {
				overhead.add(tracedChunk, took)
			}
			tracedChunk = took
		}
	}
	return overhead, nil
}
