package server_test

// End-to-end tests: a real crsd server (in-process, random port), real
// HTTP clients, and a sequential single-client oracle. The lockstep
// topology makes the coalescing measurement deterministic: K clients
// that each block on their reply, against a window of MaxBatch K and a
// timer far longer than a round trip, commit in groups of exactly K —
// so batch sizes are read straight from replies rather than inferred
// from timing.

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// startServer runs a server over a fresh social registry on a random
// port and tears it down with the test.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(workload.MustSocial().Reg, cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, "http://" + srv.Addr()
}

// trafficFor builds client c's deterministic stream for a K-client run:
// shared seed discipline, disjoint key partition (keys ≡ c mod K).
func trafficFor(c, clients int) *server.SocialTraffic {
	return server.NewSocialTraffic(uint64(c+1), workload.DefaultSocialMix(), 24, int64(clients), int64(c))
}

// e2eRecord is one request a client sent and the reply it got.
type e2eRecord struct {
	req  *server.Request
	resp *server.Response
}

// TestE2ELockstepOracle is the headline e2e: K concurrent HTTP clients
// in lockstep against one crsd, over one shared key space, every request
// and reply recorded; then every request replayed by a single client
// against a fresh server, in commit-stamp order (batch_seq, then
// batch_pos). Per-request results must match byte-for-byte, final
// relation contents must be identical, and the concurrent run must have
// coalesced (mean batch size ≥ 2 — in lockstep, exactly K).
func TestE2ELockstepOracle(t *testing.T) {
	const clients, rounds = 4, 30

	srv, base := startServer(t, server.Config{Window: 5 * time.Second, MaxBatch: clients})
	recorded := make([][]e2eRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(base)
			// Stride 1, offset 0: the clients' keys collide.
			gen := server.NewSocialTraffic(uint64(c+1), workload.DefaultSocialMix(), 24, 1, 0)
			recs := make([]e2eRecord, 0, rounds)
			for i := 0; i < rounds; i++ {
				req := gen.Next()
				resp, err := cl.Do(context.Background(), req)
				if err != nil {
					t.Errorf("client %d round %d: %v", c, i, err)
					return
				}
				if resp.BatchSize < 1 || resp.BatchSize > clients {
					t.Errorf("client %d round %d: batch size %d out of range", c, i, resp.BatchSize)
					return
				}
				recs = append(recs, e2eRecord{req: req, resp: resp})
			}
			recorded[c] = recs
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := srv.Dispatcher().Stats()
	if st.Requests != clients*rounds {
		t.Fatalf("server committed %d requests, want %d", st.Requests, clients*rounds)
	}
	if st.MeanBatchSize < 2 {
		t.Fatalf("mean coalesced batch size %.2f, want ≥ 2 (lockstep should reach %d)", st.MeanBatchSize, clients)
	}
	if st.Degraded != 0 {
		t.Fatalf("healthy e2e degraded %d windows", st.Degraded)
	}
	// The latency digests agree with the counters: one commit-latency
	// sample per request, one occupancy sample per window, and the
	// occupancy mean is the mean batch size.
	if st.CommitLatency == nil || st.CommitLatency.Count != st.Requests {
		t.Fatalf("commit latency digest %+v, want %d samples", st.CommitLatency, st.Requests)
	}
	if st.WindowOccupancy == nil || st.WindowOccupancy.Count != st.Batches {
		t.Fatalf("window occupancy digest %+v, want %d samples", st.WindowOccupancy, st.Batches)
	}
	if d := st.WindowOccupancy.Mean - st.MeanBatchSize; d > 1e-9 || d < -1e-9 {
		t.Fatalf("window occupancy mean %v != mean batch size %v", st.WindowOccupancy.Mean, st.MeanBatchSize)
	}

	// Sequential oracle: fresh server, one client, MaxBatch 1, every
	// request in the global commit order the replies carry — the
	// group's commit stamp, then the position within the group.
	var all []e2eRecord
	for _, recs := range recorded {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].resp, all[j].resp
		if a.BatchSeq != b.BatchSeq {
			return a.BatchSeq < b.BatchSeq
		}
		return a.BatchPos < b.BatchPos
	})
	oSrv, oBase := startServer(t, server.Config{MaxBatch: 1})
	oCl := client.New(oBase)
	for i, rec := range all {
		resp, err := oCl.Do(context.Background(), rec.req)
		if err != nil {
			t.Fatalf("oracle request %d: %v", i, err)
		}
		if resp.BatchSize != 1 {
			t.Fatalf("oracle coalesced (batch size %d)", resp.BatchSize)
		}
		got, _ := json.Marshal(rec.resp.Results)
		want, _ := json.Marshal(resp.Results)
		if string(got) != string(want) {
			t.Fatalf("request %d (batch %d pos %d) diverged from oracle:\nconcurrent: %s\nsequential: %s",
				i, rec.resp.BatchSeq, rec.resp.BatchPos, got, want)
		}
	}

	// Final relation contents must be identical registries.
	concurrent, err := server.RegistryChecksum(srv.Registry())
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := server.RegistryChecksum(oSrv.Registry())
	if err != nil {
		t.Fatal(err)
	}
	if concurrent != sequential {
		t.Fatalf("final relation checksum %x (concurrent) != %x (sequential oracle)", concurrent, sequential)
	}
}

// TestE2ESingleOpEndpoints exercises the convenience endpoints and
// introspection through the Go client against a live server.
func TestE2ESingleOpEndpoints(t *testing.T) {
	_, base := startServer(t, server.Config{Window: 100 * time.Microsecond})
	cl := client.New(base, client.WithTimeout(15*time.Second))
	ctx := context.Background()

	if !cl.Healthy(ctx) {
		t.Fatal("healthz failed")
	}
	applied, err := cl.Insert(ctx, "posts", map[string]any{"author": 1, "post": 10}, map[string]any{"ts": 111})
	if err != nil || !applied {
		t.Fatalf("insert: applied=%v err=%v", applied, err)
	}
	applied, err = cl.Insert(ctx, "posts", map[string]any{"author": 1, "post": 10}, map[string]any{"ts": 111})
	if err != nil || applied {
		t.Fatalf("duplicate insert: applied=%v err=%v (want put-if-absent false)", applied, err)
	}
	n, err := cl.Count(ctx, "posts", map[string]any{"author": 1})
	if err != nil || n != 1 {
		t.Fatalf("count: %d err=%v, want 1", n, err)
	}
	rows, err := cl.Query(ctx, "posts", map[string]any{"author": 1}, "post", "ts")
	if err != nil || len(rows) != 1 {
		t.Fatalf("query: %v err=%v, want one row", rows, err)
	}
	if ts, ok := rows[0]["ts"].(json.Number); !ok || ts.String() != "111" {
		t.Fatalf("query row ts = %#v, want 111", rows[0]["ts"])
	}
	applied, err = cl.Remove(ctx, "posts", map[string]any{"author": 1, "post": 10})
	if err != nil || !applied {
		t.Fatalf("remove: applied=%v err=%v", applied, err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Requests != 5 {
		t.Fatalf("stats counted %d requests, want 5", st.Requests)
	}

	// Multi-op transaction with sequential semantics: the count sees the
	// insert that precedes it in the same request.
	resp, err := cl.Do(ctx, server.AddPostRequest(2, 20, 5))
	if err != nil {
		t.Fatalf("txn: %v", err)
	}
	if got := *resp.Results[2].Count; got != 1 {
		t.Fatalf("add-post count %d, want 1", got)
	}

	// Validation errors surface as client errors, not hangs.
	if _, err := cl.Count(ctx, "nope", map[string]any{"user": 1}); err == nil {
		t.Fatal("count on unknown relation succeeded")
	}

	// A context that is already expired aborts before the server replies.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cl.Count(expired, "posts", map[string]any{"author": 2}); err == nil {
		t.Fatal("expired context did not abort the request")
	}
}

// TestE2EGracefulShutdown pins the drain contract over the wire: clients
// parked in a half-full window when Shutdown starts still receive their
// committed replies (nothing is dropped), and the server then refuses
// new work.
func TestE2EGracefulShutdown(t *testing.T) {
	const parked = 5
	// A window that never closes on its own: hour-long timer, huge
	// cutoff. Only Shutdown's drain can answer these clients.
	srv, base := startServer(t, server.Config{Window: time.Hour, MaxBatch: 1000})

	var wg sync.WaitGroup
	errs := make([]error, parked)
	sums := make([]uint64, parked)
	for c := 0; c < parked; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(base)
			resp, err := cl.Do(context.Background(), server.AddPostRequest(int64(c), int64(100+c), int64(c)))
			if err != nil {
				errs[c] = err
				return
			}
			sums[c] = server.FoldResponse(0, resp)
		}(c)
	}

	// Deterministic rendezvous: wait until every client is parked in the
	// window, then shut down.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Dispatcher().Pending() < parked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d clients parked", srv.Dispatcher().Pending(), parked)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	for c := 0; c < parked; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d dropped at shutdown: %v", c, errs[c])
		}
		// add-post on a fresh registry: both inserts applied (2) + count 1.
		if sums[c] != 3 {
			t.Fatalf("client %d reply checksum %d, want 3", c, sums[c])
		}
	}
	st := srv.Dispatcher().Stats()
	if st.Requests != parked {
		t.Fatalf("drained %d requests, want %d", st.Requests, parked)
	}
	if st.MaxBatchSize < 2 {
		t.Fatalf("drain committed max batch %d; parked clients should have coalesced", st.MaxBatchSize)
	}

	// After shutdown the listener is gone (connection error) or the
	// dispatcher refuses (503 → client error): either way, an error.
	if _, err := client.New(base).Do(context.Background(), server.SnapshotRequest(1)); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
