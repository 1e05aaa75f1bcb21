package main

import (
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// wire workloads start os.Executable() as their load generator, and under
// `go test` that is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(loadgenEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestLoadgenReportRoundTrip(t *testing.T) {
	m := newMeasurement(3)
	m.lag = &hist{}
	for i := 0; i < 5000; i++ {
		m.record(time.Duration(i%3)*time.Second, time.Duration(900+i)*time.Microsecond, kindRequest, nil, sloLatency)
		m.lag.add(int64(i % 300))
	}
	m.record(time.Second, 30*time.Millisecond, kindRequest, nil, sloLatency)
	m.record(time.Second, time.Millisecond, kindRequest, errors.New("refused"), sloLatency)
	m.drop(2*time.Second, 200*time.Millisecond, sloLatency)

	rep := loadgenReport{OpenLoop: true, Attempted: m.attempted, Errors: m.errors, OverSLO: m.overSLO, Dropped: m.dropped, Lag: m.lag.sparse()}
	for _, s := range m.slices {
		rep.Slices = append(rep.Slices, s.sparse())
	}
	got, err := rep.measurement(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.attempted != 5003 || got.missed() != 3 || got.failed() != 2 {
		t.Errorf("attempted %d missed %d failed %d, want 5003 3 2", got.attempted, got.missed(), got.failed())
	}
	for i := range m.slices {
		if *got.slices[i] != *m.slices[i] {
			t.Errorf("slice %d changed on the way", i)
		}
	}
	if *got.lag != *m.lag {
		t.Error("the lag histogram changed on the way")
	}
	if _, err := rep.measurement(4); err == nil {
		t.Error("a report with the wrong number of slices was accepted")
	}
	rep.Slices[0] = append(rep.Slices[0], bucketCount{histBuckets, 1})
	if _, err := rep.measurement(3); err == nil {
		t.Error("a bucket index out of range was accepted")
	}
}

// TestOpenLoopMeasuresWhatQueuesBehindAStall stalls the server for 30 ms
// in the middle of a 1000 req/s schedule. Every request that was due
// during the stall must be sent and timed from its due instant — none
// dropped, none left out of the latency distribution.
func TestOpenLoopMeasuresWhatQueuesBehindAStall(t *testing.T) {
	const stallAt, stallFor = 40 * time.Millisecond, 30 * time.Millisecond
	var start atomic.Int64
	send := func(*server.Request) (opKind, error) {
		since := time.Duration(time.Now().UnixNano() - start.Load())
		if since >= stallAt && since < stallAt+stallFor {
			time.Sleep(stallAt + stallFor - since)
		}
		return kindRequest, nil
	}
	loop := openLoop{
		pacer:    pacer{clock: realClock{}, granularity: measureGranularity(5, preciseSleep)},
		inFlight: openInFlight, slo: sloLatency,
		next: func() *server.Request { return nil }, send: send,
	}
	schedule := arrivalsWithin(9, 1000, 0.1)
	start.Store(time.Now().UnixNano())
	m := loop.run(schedule, 1, 0, nil)
	if m.attempted != uint64(len(schedule)) || m.dropped != 0 || m.errors != 0 {
		t.Fatalf("attempted %d of %d, dropped %d, errors %d", m.attempted, len(schedule), m.dropped, m.errors)
	}
	if n := m.all().n; n != uint64(len(schedule)) {
		t.Errorf("%d latency samples for %d arrivals", n, len(schedule))
	}
	// About thirty arrivals were due during the stall; the earliest of them
	// waited nearly all of it. With the old cap of eight in flight the
	// ninth and later ones were dropped and the tail read a millisecond.
	if worst := time.Duration(m.all().quantile(1)); worst < stallFor*2/3 {
		t.Errorf("worst latency %v: the stall of %v is missing from the distribution", worst, stallFor)
	}
	var slow uint32
	for i, c := range m.all().counts {
		if lo, _ := histBounds(i); lo >= float64(5*time.Millisecond) {
			slow += c
		}
	}
	if slow < 10 {
		t.Errorf("%d requests slower than 5 ms, want the 20 or so that queued behind the stall", slow)
	}
}

func TestOpenLoopCountsWhatTheCapTurnsAway(t *testing.T) {
	release := make(chan struct{})
	send := func(*server.Request) (opKind, error) {
		<-release
		return kindRequest, nil
	}
	loop := openLoop{
		pacer:    pacer{clock: realClock{}, granularity: measureGranularity(5, preciseSleep)},
		inFlight: 4, slo: sloLatency,
		next: func() *server.Request { return nil }, send: send,
	}
	schedule := arrivalsWithin(9, 1000, 0.03)
	time.AfterFunc(60*time.Millisecond, func() { close(release) })
	m := loop.run(schedule, 1, 0, nil)
	if m.attempted != uint64(len(schedule)) || m.dropped != uint64(len(schedule)-4) {
		t.Errorf("attempted %d dropped %d of %d arrivals with 4 in flight", m.attempted, m.dropped, len(schedule))
	}
	if n := m.all().n; n != uint64(len(schedule)) {
		t.Errorf("%d latency samples for %d arrivals: a dropped send must stay in the distribution, at the limit", n, len(schedule))
	}
	if p50 := time.Duration(m.all().quantile(0.5)); p50 < sloLatency {
		t.Errorf("median %v with most sends dropped, want at least the %v limit", p50, sloLatency)
	}
}
