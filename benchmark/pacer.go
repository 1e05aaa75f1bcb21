package main

import (
	"runtime"
	"sort"
	"time"
)

// clock is what the open-loop pacer needs from time, so a test can drive
// it with a fake whose Sleep is as coarse as the reference box's.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// Yield gives other goroutines a turn without a timer.
	Yield()
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { preciseSleep(d) }
func (realClock) Yield()                { runtime.Gosched() }

// measureGranularity reports how long a 50 µs sleep really takes, the
// median of n tries, for any way of sleeping.
func measureGranularity(n int, sleep func(time.Duration)) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		sleep(50 * time.Microsecond)
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2]
}

// pacer waits for scheduled instants. No sleep is exact: the runtime's
// timers return about 1.1 ms late on the reference box (a sleep-paced
// generator would quantise a Poisson schedule to those ticks and make the
// dispatcher coalesce arrivals that were never concurrent), and even
// nanosleep(2), which realClock uses, returns about 0.06 ms late. So the
// pacer sleeps only while the instant is more than two granules of its
// clock away, stopping two granules short, and covers the rest by
// yielding in a loop.
type pacer struct {
	clock       clock
	granularity time.Duration
}

// waitUntil returns once the clock has reached due and reports how late
// it is (≥ 0).
func (p pacer) waitUntil(due time.Time) time.Duration {
	for {
		left := due.Sub(p.clock.Now())
		switch {
		case left <= 0:
			return -left
		case left > 2*p.granularity:
			p.clock.Sleep(left - 2*p.granularity)
		default:
			p.clock.Yield()
		}
	}
}
