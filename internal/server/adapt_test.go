package server_test

// End-to-end tests for the adaptive mode: live representation migration
// under real HTTP traffic. The first test is the in-process equivalent
// of `crsd -adapt` — a registry booted on the conservative
// non-concurrent containers, clients streaming unique-key inserts plus
// a read-heavy query load, and the online advisor migrating the hot
// relation to its concurrent archetypes mid-stream. The contract is the
// issue's acceptance line: the migration event shows up in GET
// /v1/stats, and no acknowledged request is dropped or duplicated
// across the cutover. The second test crosses migration with the WAL:
// a child server churns migrations under traffic and is SIGKILLed, and
// recovery must still satisfy acked ⊆ recovered ⊆ issued.

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// adaptKey identifies one unique-key insert across ack/recovery maps.
type adaptKey struct{ author, post int64 }

// TestE2EAdaptMigratesUnderTraffic boots the pessimistic social
// registry behind a real server, drives a read-heavy unique-key load
// from several HTTP clients, and steps the online advisor until it
// live-migrates the hot relation — while the clients keep streaming.
// Afterwards: the relation is optimistic-capable, /v1/stats carries the
// migration event, every acknowledged insert is present exactly once,
// and nothing unissued appears.
func TestE2EAdaptMigratesUnderTraffic(t *testing.T) {
	const (
		clients      = 3
		readsPerIns  = 4
		minAcksFirst = 60 // total acks before the advisor starts stepping
		postRounds   = 20 // per client, after the migration lands
	)
	soc, err := workload.NewSocialPessimistic()
	if err != nil {
		t.Fatal(err)
	}
	if soc.Posts.OptimisticCapable() {
		t.Fatal("pessimistic boot rep is already optimistic-capable")
	}
	srv := server.New(soc.Reg, server.Config{Window: 100 * time.Microsecond})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()

	acked := make([]map[adaptKey]bool, clients)
	issued := make([]map[adaptKey]bool, clients)
	var ackTotal atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		acked[c] = make(map[adaptKey]bool)
		issued[c] = make(map[adaptKey]bool)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(base)
			for i := 0; !stop.Load(); i++ {
				k := adaptKey{author: int64(1000 + c), post: int64(c*1_000_000 + i)}
				issued[c][k] = true
				applied, err := cl.Insert(context.Background(), "posts",
					map[string]any{"author": k.author, "post": k.post},
					map[string]any{"ts": int64(i)})
				if err != nil {
					t.Errorf("client %d insert %v: %v", c, k, err)
					return
				}
				if !applied {
					t.Errorf("client %d: unique insert %v not applied (duplicate?)", c, k)
					return
				}
				acked[c][k] = true
				ackTotal.Add(1)
				for r := 0; r < readsPerIns; r++ {
					if _, err := cl.Count(context.Background(), "posts", map[string]any{"author": k.author}); err != nil {
						t.Errorf("client %d count: %v", c, err)
						return
					}
				}
			}
		}(c)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		stop.Store(true)
		wg.Wait()
		t.Fatalf(format, args...)
	}

	// Warm up: the advisor refuses to migrate below MinOps, so wait for
	// real traffic before stepping it.
	deadline := time.Now().Add(20 * time.Second)
	for ackTotal.Load() < minAcksFirst {
		if time.Now().After(deadline) {
			fail("only %d acks before warm-up deadline", ackTotal.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Step the advisor by hand (deterministic — no Interval goroutine)
	// with the traffic still flowing; the read-heavy mix must trigger
	// exactly one migration of posts to the concurrent family.
	cfg := autotune.Config{MinOps: 100, Margin: 0.05}
	adv := &autotune.Advisor{Registry: soc.Reg, Config: cfg}
	var events []*core.MigrationEvent
	for time.Now().Before(deadline) && len(events) == 0 {
		evs, err := adv.Step()
		if err != nil {
			fail("advisor step: %v", err)
		}
		events = append(events, evs...)
	}
	if len(events) != 1 {
		fail("advisor triggered %d migrations, want 1", len(events))
	}
	ev := events[0]
	if ev.Relation != "posts" || !ev.OptimisticAfter || ev.OptimisticBefore {
		fail("migration event = %+v", ev)
	}
	if !soc.Posts.OptimisticCapable() {
		fail("posts not optimistic-capable after advisor migration")
	}

	// Keep the streams running across the new representation, then stop.
	want := ackTotal.Load() + clients*postRounds
	for ackTotal.Load() < want {
		if time.Now().After(deadline) {
			fail("post-migration traffic stalled at %d acks", ackTotal.Load())
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The acceptance check: /v1/stats re-serializes the harvested
	// counter document, migrations included.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Registry *core.Counters `json:"registry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Registry == nil || len(stats.Registry.Migrations) != 1 {
		t.Fatalf("stats.registry.migrations = %+v, want the one advisor event", stats.Registry)
	}
	got := stats.Registry.Migrations[0]
	if got.Relation != "posts" || !got.OptimisticAfter || got.From == got.To {
		t.Fatalf("served migration event = %+v", got)
	}

	// No dropped, no duplicated acknowledged requests: the final state
	// holds every acked unique key exactly once (the relation's FD makes
	// duplicates impossible; `applied` above catches re-execution), and
	// nothing that was never issued.
	tuples, err := soc.Posts.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[adaptKey]bool, len(tuples))
	for _, tp := range tuples {
		k := adaptKey{author: tp.MustGet("author").(int64), post: tp.MustGet("post").(int64)}
		if present[k] {
			t.Fatalf("row %v present twice after migration", k)
		}
		present[k] = true
	}
	for c := 0; c < clients; c++ {
		for k := range acked[c] {
			if !present[k] {
				t.Errorf("acked insert %v lost across the migration", k)
			}
		}
	}
	for k := range present {
		c := int(k.author - 1000)
		if c < 0 || c >= clients || !issued[c][k] {
			t.Errorf("row %v was never issued", k)
		}
	}
}

// TestE2EKillDuringMigrationChurn crosses live migration with the
// durability contract: the WAL-enabled child server continuously
// migrates posts and follows between container families while clients
// stream unique-key inserts, and the parent SIGKILLs it only after
// observing completed migrations in /v1/stats — so the kill provably
// lands amid churn. The representation choice is not persisted, so
// recovery rebuilds the boot rep (old or new, never a mix) and must
// still hold acked ⊆ recovered ⊆ issued.
func TestE2EKillDuringMigrationChurn(t *testing.T) {
	const (
		clients       = 4
		minAcked      = 5 // per client, before the kill fires
		minMigrations = 2 // completed in the child before the kill fires
	)
	dir := t.TempDir()
	cs := startCrashServer(t, dir, crashServerEnvMigrate+"=1")

	acked := make([]map[adaptKey]bool, clients)
	issued := make([]map[adaptKey]bool, clients)
	var ackTotal atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		acked[c] = make(map[adaptKey]bool)
		issued[c] = make(map[adaptKey]bool)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(cs.base)
			for i := 0; ; i++ {
				k := adaptKey{author: int64(1000 + c), post: int64(c*1_000_000 + i)}
				issued[c][k] = true
				applied, err := cl.Insert(context.Background(), "posts",
					map[string]any{"author": k.author, "post": k.post},
					map[string]any{"ts": int64(i)})
				if err != nil {
					return // the kill severed this request
				}
				if !applied {
					t.Errorf("client %d: unique insert %v not applied", c, k)
					return
				}
				acked[c][k] = true
				ackTotal.Add(1)
			}
		}(c)
	}

	// Kill only once the child has both acknowledged traffic in flight
	// AND completed migrations under that traffic.
	statsCl := client.New(cs.base)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("child not churning: %d acks", ackTotal.Load())
		}
		if ackTotal.Load() >= clients*minAcked {
			if st, err := statsCl.Stats(context.Background()); err == nil &&
				st.Registry != nil && len(st.Registry.Migrations) >= minMigrations {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	cs.kill(t)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	rsoc, _ := recoverRegistry(t, dir)
	tuples, err := rsoc.Posts.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[adaptKey]bool, len(tuples))
	for _, tp := range tuples {
		k := adaptKey{author: tp.MustGet("author").(int64), post: tp.MustGet("post").(int64)}
		if present[k] {
			t.Fatalf("row %v recovered twice", k)
		}
		present[k] = true
	}
	for c := 0; c < clients; c++ {
		for k := range acked[c] {
			if !present[k] {
				t.Errorf("acked insert %v lost by the crash during migration churn", k)
			}
		}
	}
	for k := range present {
		if !issued[k.author-1000][k] {
			t.Errorf("recovered row %v was never issued", k)
		}
	}
}
