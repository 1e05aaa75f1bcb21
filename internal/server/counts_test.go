package server_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestWireDeterministicCounts pins the wire path's lock, batch and WAL
// counts exactly. K lockstep HTTP clients (each waits for its reply before
// sending the next request) stream 300 social requests each, seed 1,
// keyspace 64, with disjoint key partitions (client c of K draws keys
// ≡ c mod K). Batched, the window closes only on MaxBatch = K (the timer
// is an hour away), so every group is exactly one request per client;
// sequential, MaxBatch = 1 commits each request alone, and the clients
// take turns so that no two commits overlap (overlapping commits would
// contend and make retries timing-dependent). Commits never overlap and
// the partitions make lock sets independent of arrival order, so every
// count below is a pure function of the seed. Coalescing shows three
// times: fewer locks acquired, K times fewer batches, and fewer WAL
// appends (one redo record per mutating group).
//
// A failing count means the scheduler, the dispatcher or the commit hook
// changed; the change that moves one updates the constant and says why.
func TestWireDeterministicCounts(t *testing.T) {
	const requests = 300
	for _, tc := range []struct {
		name                string
		clients, maxBatch   int
		requested, acquired int64
		batches, appends    uint64
	}{
		{"2 batched", 2, 2, 519, 468, 300, 252},
		{"2 sequential", 2, 1, 487, 487, 600, 355},
		{"4 batched", 4, 4, 1174, 893, 300, 288},
		{"4 sequential", 4, 1, 1006, 1006, 1200, 706},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := &workload.LockCounts{}
			cfg := server.Config{MaxBatch: tc.maxBatch, Counts: counts}
			if tc.maxBatch > 1 {
				cfg.Window = time.Hour
			}
			st := wirePass(t, tc.clients, requests, cfg)

			if got := counts.Requested.Load(); got != tc.requested {
				t.Errorf("locks requested %d, want %d", got, tc.requested)
			}
			if got := counts.Acquired.Load(); got != tc.acquired {
				t.Errorf("locks acquired %d, want %d", got, tc.acquired)
			}
			if st.Batches != tc.batches || st.MaxBatchSize != uint64(tc.maxBatch) {
				t.Errorf("%d batches of at most %d, want %d of at most %d",
					st.Batches, st.MaxBatchSize, tc.batches, tc.maxBatch)
			}
			if st.Requests != uint64(tc.clients*requests) || st.Degraded != 0 {
				t.Errorf("%d requests, %d degraded windows; want %d, 0",
					st.Requests, st.Degraded, tc.clients*requests)
			}
			if st.WAL == nil || st.WAL.Appends != tc.appends {
				t.Errorf("WAL stats %+v, want %d appends", st.WAL, tc.appends)
			}
			// Nothing contends on a lockstep run: no read-only or OCC batch
			// retries, falls back, or (OCC) takes a shared lock.
			for name, v := range map[string]int64{
				"read-only locks":    counts.ReadOnlyAcquired.Load(),
				"read-only retries":  counts.ValidationRetries.Load(),
				"read-only fallback": counts.Fallbacks.Load(),
				"OCC shared locks":   counts.OCCSharedLocks.Load(),
				"OCC retries":        counts.OCCRetries.Load(),
				"OCC fallbacks":      counts.OCCFallbacks.Load(),
			} {
				if v != 0 {
					t.Errorf("%s = %d, want 0", name, v)
				}
			}
		})
	}
}

// wirePass serves a fresh social registry with a write-ahead log attached
// (wal.Options{}: no background snapshots, so the append total is a pure
// function of the workload) and runs clients lockstep clients of requests
// requests each against it. It returns the dispatcher's stats.
func wirePass(t *testing.T, clients, requests int, cfg server.Config) server.Stats {
	t.Helper()
	soc := workload.MustSocial()
	m, err := wal.Open(t.TempDir(), soc.Reg, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	soc.Reg.SetCommitLogger(m)
	cfg.WAL = m
	srv := server.New(soc.Reg, cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// turn serializes the sequential discipline's requests; batched
	// windows need all clients in flight at once.
	var turn sync.Mutex
	do := func(cl *client.Client, req *server.Request) error {
		if cfg.MaxBatch == 1 {
			turn.Lock()
			defer turn.Unlock()
		}
		_, err := cl.Do(context.Background(), req)
		return err
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(base)
			gen := server.NewSocialTraffic(1, workload.DefaultSocialMix(), 64, int64(clients), int64(c))
			for i := 0; i < requests; i++ {
				if err := do(cl, gen.Next()); err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := srv.Dispatcher().Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return st
}
