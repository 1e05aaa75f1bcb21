package main

import (
	"testing"
	"time"
)

// fakeClock is a clock whose Sleep is as coarse as the reference box's
// runtime timers: it returns at the next multiple of granule after the
// requested instant. Yield costs a microsecond.
type fakeClock struct {
	now     time.Time
	granule time.Duration
	sleeps  int
	yields  int
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	wake := c.now.Add(d)
	late := c.granule - time.Duration(wake.UnixNano())%c.granule
	c.now = wake.Add(late)
}

func (c *fakeClock) Yield() {
	c.yields++
	c.now = c.now.Add(time.Microsecond)
}

func TestPacerLagOnACoarseClock(t *testing.T) {
	const granule = 1100 * time.Microsecond
	clk := &fakeClock{now: time.Unix(1000, 0), granule: granule}
	p := pacer{clock: clk, granularity: granule}
	start := clk.Now()
	var worst time.Duration
	schedule := arrivalsWithin(5, 1000, 2)
	for _, at := range schedule {
		lag := p.waitUntil(start.Add(at))
		if lag < 0 {
			t.Fatalf("negative lag %v", lag)
		}
		if clk.Now().Before(start.Add(at)) {
			t.Fatalf("returned %v before the instant", start.Add(at).Sub(clk.Now()))
		}
		worst = max(worst, lag)
	}
	if worst > time.Microsecond {
		t.Errorf("worst lag %v over %d arrivals, want at most one yield (1µs)", worst, len(schedule))
	}
	if clk.yields == 0 {
		t.Error("the pacer never yielded: with 1 ms gaps and a 1.1 ms granule it must")
	}

	// The pacing this replaces: sleep until the instant. On the same
	// clock it runs most of a granule late on average.
	clk = &fakeClock{now: time.Unix(1000, 0), granule: granule}
	start = clk.Now()
	var total time.Duration
	for _, at := range schedule {
		if d := start.Add(at).Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		total += clk.Now().Sub(start.Add(at))
	}
	if mean := total / time.Duration(len(schedule)); mean < 200*time.Microsecond {
		t.Errorf("sleep-paced mean lag %v: the fake clock is not coarse enough to make the point", mean)
	}
}

func TestPacerSleepsWhenTheInstantIsFar(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), granule: 100 * time.Microsecond}
	p := pacer{clock: clk, granularity: 100 * time.Microsecond}
	due := clk.Now().Add(50 * time.Millisecond)
	if lag := p.waitUntil(due); lag > time.Microsecond {
		t.Errorf("lag %v", lag)
	}
	if clk.sleeps == 0 {
		t.Error("50 ms away and the pacer never slept")
	}
	if clk.yields > 400 {
		t.Errorf("%d yields: the pacer should sleep through all but the last two granules", clk.yields)
	}
}
