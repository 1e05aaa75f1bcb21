package server

// Differential and property tests of the group-commit dispatcher. The
// load-bearing property: coalescing is transparent — for ANY grouping of
// concurrently submitted requests into windows, replaying the same
// requests sequentially in global commit order (BatchSeq — the group's
// commit stamp — then BatchPos) against a fresh registry reproduces
// every per-request result
// byte-for-byte. The windowHook forces deterministic window boundaries
// so the tests control grouping instead of racing a timer.

import (
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
	"repro/internal/workload"
)

// setWindowHook installs a deterministic window-close policy for one test
// and restores the timer policy afterwards.
func setWindowHook(t *testing.T, hook func(pending int) bool) {
	t.Helper()
	windowHook = hook
	t.Cleanup(func() { windowHook = nil })
}

// resultsJSON renders a response's per-op results (without the batch
// coordinates) for byte-for-byte comparison.
func resultsJSON(t *testing.T, resp *Response) string {
	t.Helper()
	b, err := json.Marshal(resp.Results)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return string(b)
}

// submitRecorded is one client request and the reply it got.
type submitRecorded struct {
	req  *Request
	resp *Response
}

// runDifferential drives clients×perClient requests of the given mix
// through one dispatcher under a deterministic window policy, then
// replays the identical requests sequentially in commit-stamp order
// (BatchSeq, then BatchPos) against a fresh registry and requires every
// result to match byte-for-byte.
func runDifferential(t *testing.T, mix workload.SocialMix, clients, perClient int) {
	t.Helper()

	// Window policy: cycle the close threshold through 1..4 parked
	// requests so the run exercises singleton and multi-request groups.
	var closes atomic.Uint64
	setWindowHook(t, func(pending int) bool {
		want := int(closes.Load()%4) + 1
		if pending >= want {
			closes.Add(1)
			return true
		}
		return false
	})

	social := workload.MustSocial()
	d := NewDispatcher(social.Reg, Config{})

	// A watchdog flushes stragglers: when the remaining clients cannot
	// reach the hook's current threshold they would park forever.
	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				d.Flush()
			}
		}
	}()

	// Clients share the key space (stride 1) so their requests genuinely
	// collide — the differential property must hold even then.
	recorded := make([][]submitRecorded, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := NewSocialTraffic(uint64(100+c), mix, 32, 1, 0)
			recs := make([]submitRecorded, 0, perClient)
			for i := 0; i < perClient; i++ {
				req := gen.Next()
				resp, err := d.Submit(req)
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				recs = append(recs, submitRecorded{req: req, resp: resp})
			}
			recorded[c] = recs
		}(c)
	}
	wg.Wait()
	close(stop)
	flusher.Wait()
	d.Close()
	if t.Failed() {
		t.FailNow()
	}
	// The oracle below must run the real MaxBatch-1 policy, not the
	// test hook (a hooked window ignores MaxBatch and would never close
	// for a lone sequential request).
	windowHook = nil

	// Global commit order: commit stamp (BatchSeq) ascending, BatchPos
	// within a group.
	var all []submitRecorded
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

	// Sequential oracle: same requests, same order, one request per
	// commit (MaxBatch 1 disables coalescing) on a fresh registry.
	oracle := NewDispatcher(workload.MustSocial().Reg, Config{MaxBatch: 1})
	defer oracle.Close()
	multi := 0
	for i, rec := range all {
		want, err := oracle.Submit(rec.req)
		if err != nil {
			t.Fatalf("oracle request %d: %v", i, err)
		}
		if got, exp := resultsJSON(t, rec.resp), resultsJSON(t, want); got != exp {
			t.Fatalf("request %d (batch %d pos %d of %d) diverged from sequential replay:\ncoalesced: %s\nsequential: %s",
				i, rec.resp.BatchSeq, rec.resp.BatchPos, rec.resp.BatchSize, got, exp)
		}
		if rec.resp.BatchSize > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no request ever coalesced — the differential test exercised nothing")
	}

	st := d.Stats()
	if st.Requests != uint64(clients*perClient) {
		t.Fatalf("stats counted %d requests, want %d", st.Requests, clients*perClient)
	}
	if st.Degraded != 0 {
		t.Fatalf("healthy run degraded %d windows", st.Degraded)
	}
}

// TestDispatcherDifferential checks coalescing transparency across
// read-only, mixed, and write-only request mixes.
func TestDispatcherDifferential(t *testing.T) {
	cases := []struct {
		name string
		mix  workload.SocialMix
	}{
		{"read-only", workload.SocialMix{Snapshots: 100}},
		{"mixed", workload.DefaultSocialMix()},
		{"write-only", workload.SocialMix{AddPosts: 50, RemovePosts: 20, Follows: 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runDifferential(t, tc.mix, 4, 40)
		})
	}
}

// TestDispatcherExactGrouping pins the window mechanics themselves: K
// lockstep clients under a close-at-K hook commit in groups of exactly
// K, every round, with positions forming a permutation of 0..K-1.
func TestDispatcherExactGrouping(t *testing.T) {
	const clients, rounds = 3, 25
	setWindowHook(t, func(pending int) bool { return pending >= clients })

	social := workload.MustSocial()
	d := NewDispatcher(social.Reg, Config{})
	defer d.Close()

	var wg sync.WaitGroup
	responses := make([][]*Response, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := NewSocialTraffic(uint64(c+1), workload.DefaultSocialMix(), 16, clients, int64(c))
			resps := make([]*Response, 0, rounds)
			for i := 0; i < rounds; i++ {
				resp, err := d.Submit(gen.Next())
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				resps = append(resps, resp)
			}
			responses[c] = resps
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	positions := map[uint64][]int{}
	for c := 0; c < clients; c++ {
		for _, resp := range responses[c] {
			if resp.BatchSize != clients {
				t.Fatalf("batch %d committed %d requests, want exactly %d", resp.BatchSeq, resp.BatchSize, clients)
			}
			positions[resp.BatchSeq] = append(positions[resp.BatchSeq], resp.BatchPos)
		}
	}
	if len(positions) != rounds {
		t.Fatalf("%d distinct batches, want %d", len(positions), rounds)
	}
	for seq, pos := range positions {
		sort.Ints(pos)
		for i, p := range pos {
			if p != i {
				t.Fatalf("batch %d positions %v are not a permutation of 0..%d", seq, pos, clients-1)
			}
		}
	}
	st := d.Stats()
	if st.MeanBatchSize != clients {
		t.Fatalf("mean batch size %.2f, want exactly %d", st.MeanBatchSize, clients)
	}
	if st.MultiBatches != rounds {
		t.Fatalf("%d multi-request batches, want %d", st.MultiBatches, rounds)
	}
}

// TestDispatcherSequentialMode pins MaxBatch 1: every request commits
// alone, immediately, with no timer involved.
func TestDispatcherSequentialMode(t *testing.T) {
	social := workload.MustSocial()
	d := NewDispatcher(social.Reg, Config{MaxBatch: 1, Window: time.Hour})
	defer d.Close()
	gen := NewSocialTraffic(5, workload.DefaultSocialMix(), 16, 1, 0)
	for i := 0; i < 20; i++ {
		resp, err := d.Submit(gen.Next())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.BatchSize != 1 || resp.BatchPos != 0 {
			t.Fatalf("request %d: batch size %d pos %d, want 1/0", i, resp.BatchSize, resp.BatchPos)
		}
	}
	if st := d.Stats(); st.MultiBatches != 0 || st.MeanBatchSize != 1 {
		t.Fatalf("sequential mode coalesced: %+v", st)
	}
}

// TestDispatcherValidation pins that malformed requests are rejected
// before entering a window — immediately, alone, and without disturbing
// the dispatcher's counters.
func TestDispatcherValidation(t *testing.T) {
	social := workload.MustSocial()
	d := NewDispatcher(social.Reg, Config{})
	defer d.Close()
	cases := []struct {
		name string
		req  *Request
	}{
		{"empty transaction", &Request{}},
		{"unknown relation", &Request{Ops: []Op{{Kind: OpCount, Rel: "nope", S: map[string]any{"user": 1}}}}},
		{"unknown op kind", &Request{Ops: []Op{{Kind: "upsert", Rel: "users", S: map[string]any{"user": 1}}}}},
		{"t on remove", &Request{Ops: []Op{{Kind: OpRemove, Rel: "users", S: map[string]any{"user": 1}, T: map[string]any{"posts": 0}}}}},
		{"query without out", &Request{Ops: []Op{{Kind: OpQuery, Rel: "posts", S: map[string]any{"author": 1}}}}},
		{"unsupported value", &Request{Ops: []Op{{Kind: OpCount, Rel: "users", S: map[string]any{"user": []any{1}}}}}},
		{"unknown column", &Request{Ops: []Op{{Kind: OpCount, Rel: "users", S: map[string]any{"bogus": 1}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := d.Submit(tc.req); err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
	if st := d.Stats(); st.Requests != 0 || st.Batches != 0 {
		t.Fatalf("rejected requests leaked into the counters: %+v", st)
	}
}

// TestDispatcherDegradedWindow pins error isolation where a compiled
// request can still fail at group enqueue: a live migration between its
// compilation and its commit drops the plan its op was prepared for. The
// request is refused alone as the client's (HTTP 400), its window-mate
// commits individually (degraded) with correct results, the event is
// counted, and the next request of that shape is refused at compile time.
func TestDispatcherDegradedWindow(t *testing.T) {
	setWindowHook(t, func(pending int) bool { return pending >= 2 })

	// An "edges" stick ρ –src→ u –dst→ v –weight→ w beside the social
	// relations. Under a coarse placement it plans an insert keyed
	// {dst, weight}; with its top edge placed speculatively by src, the
	// planner refuses that insert.
	social := workload.MustSocial()
	spec := rel.MustSpec([]string{"src", "dst", "weight"}, rel.FD{From: []string{"src", "dst"}, To: []string{"weight"}})
	stick := func() *decomp.Decomposition {
		d, err := decomp.NewBuilder(spec, "ρ").
			Edge("ρu", "ρ", "u", []string{"src"}, container.ConcurrentHashMap).
			Edge("uv", "u", "v", []string{"dst"}, container.ConcurrentHashMap).
			Edge("vw", "v", "w", []string{"weight"}, container.Cell).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d0 := stick()
	if _, err := social.Reg.Synthesize("edges", spec, core.WithDecomposition(d0), core.WithPlacement(locks.Coarse(d0))); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(social.Reg, Config{})
	defer d.Close()
	edge := func() *Request {
		return &Request{Ops: []Op{{Kind: OpInsert, Rel: "edges",
			S: map[string]any{"dst": int64(2), "weight": int64(3)}, T: map[string]any{"src": int64(1)}}}}
	}

	bad := d.getReq()
	if err := bad.compileMaps(&d.cat, edge()); err != nil {
		t.Fatalf("compile before the cutover: %v", err)
	}
	d1 := stick()
	p1 := locks.NewPlacement(d1)
	p1.SetStripes(d1.Root, 4)
	p1.PlaceSpeculative(d1.EdgeByName("ρu"), d1.Root, "src")
	if _, err := social.Reg.Migrate("edges", core.WithDecomposition(d1), core.WithPlacement(p1)); err != nil {
		t.Fatal(err)
	}
	good := AddPostRequest(1, 2, 3)

	var wg sync.WaitGroup
	var badErr error
	var goodResp *Response
	var goodErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		badErr = d.submit(bad)
	}()
	go func() {
		defer wg.Done()
		goodResp, goodErr = d.Submit(good)
	}()
	wg.Wait()

	if !IsBadRequest(badErr) {
		t.Fatalf("request whose plan the migration dropped: err=%v, want a bad request", badErr)
	}
	if goodErr != nil {
		t.Fatalf("innocent window-mate failed: %v", goodErr)
	}
	if goodResp.BatchSize != 1 {
		t.Fatalf("degraded commit reported batch size %d, want 1", goodResp.BatchSize)
	}
	if got := *goodResp.Results[2].Count; got != 1 {
		t.Fatalf("degraded add-post counted %d posts, want 1", got)
	}
	st := d.Stats()
	if st.Degraded != 1 {
		t.Fatalf("degraded windows %d, want 1", st.Degraded)
	}
	if st.Requests != 1 {
		t.Fatalf("committed requests %d, want 1", st.Requests)
	}
	if n := social.Reg.RelationByName("edges").Harvest().Writes; n != 0 {
		t.Fatalf("the refused insert executed: %d writes", n)
	}

	if _, err := d.Submit(edge()); !IsBadRequest(err) {
		t.Fatalf("next request of the dropped shape: err=%v, want a compile-time bad request", err)
	}
	if st := d.Stats(); st.Degraded != 1 || st.Batches != 1 {
		t.Fatalf("compile-time refusal reached a window: %+v", st)
	}
}

// TestDispatcherClose pins the drain contract: Close answers the parked
// window, further Submits fail with ErrClosed, and Close is idempotent.
func TestDispatcherClose(t *testing.T) {
	setWindowHook(t, func(int) bool { return false }) // nothing closes on its own

	social := workload.MustSocial()
	d := NewDispatcher(social.Reg, Config{})

	var wg sync.WaitGroup
	var resp *Response
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err = d.Submit(SnapshotRequest(7))
	}()
	waitPending(t, d, 1)
	d.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("parked request dropped at Close: %v", err)
	}
	if resp.BatchSize != 1 {
		t.Fatalf("drain batch size %d, want 1", resp.BatchSize)
	}
	if _, err := d.Submit(SnapshotRequest(8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	d.Close() // idempotent
}

// waitPending polls until the open window holds n parked requests.
func waitPending(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.Pending() < n {
		if time.Now().After(deadline) {
			t.Fatalf("window never reached %d parked requests (at %d)", n, d.Pending())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestTrafficDeterminism pins that SocialTraffic streams are pure
// functions of their seed and that stride/offset partitions are
// disjoint.
func TestTrafficDeterminism(t *testing.T) {
	a := NewSocialTraffic(9, workload.DefaultSocialMix(), 32, 4, 1)
	b := NewSocialTraffic(9, workload.DefaultSocialMix(), 32, 4, 1)
	for i := 0; i < 200; i++ {
		ra, rb := a.Next(), b.Next()
		ja, _ := json.Marshal(ra)
		jb, _ := json.Marshal(rb)
		if string(ja) != string(jb) {
			t.Fatalf("draw %d: same seed diverged:\n%s\n%s", i, ja, jb)
		}
		for _, op := range ra.Ops {
			for col, v := range op.S {
				k, ok := v.(int64)
				if !ok {
					continue
				}
				if col == "ts" || col == "since" || col == "posts" {
					continue
				}
				if k%4 != 1 {
					t.Fatalf("draw %d: key %s=%d escaped partition offset 1 stride 4", i, col, k)
				}
			}
		}
	}
}
