package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graphreps"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wal"
	"repro/internal/workload"
)

// setupTimes are the spans of one set-up.
type setupTimes struct {
	synthesize, prepare, preload, walOpen time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.synthesize + s.prepare + s.preload + s.walOpen
}

// preloadSalt separates the preload stream's seed from the measured
// streams', so preloaded rows are not simply the run's first requests.
const preloadSalt = 0x5eed0f5e7

// graphFill is the share of the 512×512 possible edges present in the
// preloaded graph. The 35-35-20-10 mix inserts twice as often as it
// removes, so the edge count drifts to the level where a random insert
// fails twice as often as a random remove: 2/3 full. Starting there
// makes the measured window stationary instead of a ramp whose length
// depends on how fast the machine is.
const graphFill = 2.0 / 3

// graphEnv is the graph-single workload's program state.
type graphEnv struct {
	rel   *core.Relation
	graph *workload.RelationGraph
}

// newGraphEnv synthesizes variant "Split 4", prepares the four
// operations and, when fill is positive, preloads a seed-chosen share of
// all (src, dst) pairs.
func newGraphEnv(seed uint64, keyspace int64, fill float64) (*graphEnv, setupTimes, error) {
	var st setupTimes
	v, err := graphreps.VariantByName("Split 4")
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	r, err := v.Build()
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	g, err := workload.NewRelationGraph(r)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	if fill > 0 {
		state := seed ^ preloadSalt
		limit := uint64(fill * (1 << 32))
		for src := int64(0); src < keyspace; src++ {
			for dst := int64(0); dst < keyspace; dst++ {
				x := workload.SplitMix64(&state)
				if x&(1<<32-1) < limit {
					g.InsertEdge(src, dst, int64(x>>40))
				}
			}
		}
	}
	st.synthesize, st.prepare, st.preload = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return &graphEnv{rel: r, graph: g}, st, nil
}

// socialEnv is a synthesized and preloaded social registry, optionally
// with a write-ahead log attached, as the engine workloads and every
// entry point of the wire workloads use it.
type socialEnv struct {
	soc    *workload.Social
	comp   *compiler
	wal    *wal.Manager
	walDir string
}

// socialParams says how to build a socialEnv.
type socialParams struct {
	seed     uint64
	keyspace int64
	mix      workload.SocialMix
	// preload is how many operations of the workload's own kind are
	// applied before anything is measured: composite SocialOps for the
	// engine workloads, wire requests for the wire workloads.
	preload    int
	wireFormat bool
	// durable attaches a WAL in a fresh temporary directory BEFORE the
	// preload, so the log alone can rebuild the registry.
	durable       bool
	snapshotEvery int
}

func newSocialEnv(p socialParams) (*socialEnv, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	soc, err := workload.NewSocial()
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	e := &socialEnv{soc: soc, comp: newCompiler(soc.Reg)}
	for _, req := range []*server.Request{
		server.AddPostRequest(0, 0, 0), server.RemovePostRequest(0, 0),
		server.FollowRequest(0, 0, 0), server.SnapshotRequest(0),
	} {
		if _, err := e.comp.rows(req); err != nil {
			return nil, st, err
		}
	}
	t2 := time.Now()
	if p.durable {
		if e.walDir, err = os.MkdirTemp("", "crs-benchmark-wal-"); err != nil {
			return nil, st, err
		}
		e.wal, err = wal.Open(e.walDir, soc.Reg, wal.Options{Policy: wal.SyncBatch, SnapshotEvery: p.snapshotEvery})
		if err != nil {
			os.RemoveAll(e.walDir)
			return nil, st, err
		}
		soc.Reg.SetCommitLogger(e.wal)
	}
	t3 := time.Now()
	if err := e.preload(p); err != nil {
		e.close()
		return nil, st, err
	}
	st.synthesize, st.prepare, st.walOpen, st.preload = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), time.Since(t3)
	return e, st, nil
}

func (e *socialEnv) preload(p socialParams) error {
	if p.wireFormat {
		for _, req := range wireStream(p.seed^preloadSalt, p.mix, 1, p.keyspace, p.preload) {
			ops, err := e.comp.rows(req)
			if err != nil {
				return err
			}
			if _, err := execRows(e.soc.Reg, ops, nil); err != nil {
				return err
			}
		}
	} else {
		state := p.seed ^ preloadSalt
		for i := 0; i < p.preload; i++ {
			workload.SocialOp(e.soc, &state, p.mix, p.keyspace)
		}
	}
	if e.wal != nil {
		return e.wal.Sync()
	}
	return nil
}

// close detaches and closes the WAL, if any, and removes its directory.
func (e *socialEnv) close() error {
	err := e.closeWAL()
	if e.walDir != "" {
		if rerr := os.RemoveAll(e.walDir); err == nil {
			err = rerr
		}
		e.walDir = ""
	}
	return err
}

// closeWAL closes the log but keeps its directory (for recovery).
func (e *socialEnv) closeWAL() error {
	if e.wal == nil {
		return nil
	}
	err := e.wal.Close()
	e.soc.Reg.SetCommitLogger(nil)
	e.wal = nil
	return err
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range ents {
		info, err := os.Stat(filepath.Join(dir, ent.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // a background snapshot pruned it between the two calls
			}
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// wireEnv is a socialEnv served over loopback HTTP by an in-process
// server.New, plus the client the load comes from.
type wireEnv struct {
	*socialEnv
	srv   *server.Server
	base  string
	httpc *http.Client
	cl    *client.Client
}

// serve starts a server over e with the given dispatcher config (the WAL,
// if e has one, is filled in) and a client whose connection pool keeps
// conns idle connections alive — the default transport keeps two per
// host, which would make 32 callers reconnect on almost every request.
func serve(e *socialEnv, cfg server.Config, conns int) (*wireEnv, error) {
	cfg.WAL = e.wal
	srv := server.New(e.soc.Reg, cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}
	httpc := &http.Client{Transport: tr, Timeout: client.DefaultTimeout}
	base := "http://" + srv.Addr()
	return &wireEnv{socialEnv: e, srv: srv, base: base, httpc: httpc,
		cl: client.New(base, client.WithHTTPClient(httpc))}, nil
}

// shutdown closes the client's connections and drains the server. The
// socialEnv (and its WAL) stay open.
func (w *wireEnv) shutdown() error {
	w.httpc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}
