package main

import (
	"sync"
	"time"
)

// opKind classifies an operation for the per-kind latency histograms.
type opKind int

const (
	kindRead       opKind = iota // single read (graph successors/predecessors)
	kindWrite                    // single write (graph insert/remove)
	kindROGroup                  // read-only group (profile snapshot)
	kindOCCGroup                 // mixed group, Silo-style commit (follow)
	kindWriteGroup               // write-only group (add/remove post)
	kindRequest                  // a wire request, whatever it carries
	numKinds
)

// measurement is what one measured window yields, before it is turned
// into named metrics.
type measurement struct {
	seconds float64
	// slices holds the latency of EVERY operation that belongs to the
	// window, per second of it, whatever became of the operation: one
	// answered later than the limit is filed at its latency, one that
	// failed or was never sent at the limit or at what it had waited by
	// then, whichever is more. The tail metrics are read off these, so a
	// stall shows as latency and is not censored into a failure count.
	slices    []*hist
	kinds     [numKinds]*hist // the successes by kind, allocated on first use
	attempted uint64          // operations that belong to the window
	errors    uint64          // failed or refused
	overSLO   uint64          // answered correctly, but later than the latency limit
	dropped   uint64          // open loop only: arrivals that found the in-flight cap exhausted
	lag       *hist           // open loop only: how late the pacer reached each arrival
	// The wire workloads' load generator runs in a process of its own;
	// this is what that process allocated across the window.
	clientMallocs, clientAllocBytes uint64
}

func newMeasurement(seconds int) *measurement {
	m := &measurement{seconds: float64(seconds), slices: make([]*hist, seconds)}
	for i := range m.slices {
		m.slices[i] = &hist{}
	}
	return m
}

func (m *measurement) merge(o *measurement) {
	for i, s := range o.slices {
		m.slices[i].merge(s)
	}
	for k, h := range o.kinds {
		if h != nil {
			m.kind(opKind(k)).merge(h)
		}
	}
	m.attempted += o.attempted
	m.errors += o.errors
	m.overSLO += o.overSLO
	m.dropped += o.dropped
}

// kind returns the histogram of one kind's successes.
func (m *measurement) kind(k opKind) *hist {
	if m.kinds[k] == nil {
		m.kinds[k] = &hist{}
	}
	return m.kinds[k]
}

// failed counts the operations that produced no correct reply: the
// result line's "failed".
func (m *measurement) failed() uint64 { return m.errors + m.dropped }

// missed counts the operations that did not succeed within the latency
// limit: failed_frac's numerator, and what ops_per_s leaves out.
func (m *measurement) missed() uint64 { return m.errors + m.dropped + m.overSLO }

func (m *measurement) all() *hist {
	var h hist
	for _, s := range m.slices {
		h.merge(s)
	}
	return &h
}

func (m *measurement) slice(at time.Duration) *hist {
	return m.slices[min(int(at/time.Second), len(m.slices)-1)]
}

// record files one finished operation: at places it in the window (and
// picks the slice), slo is the latency limit, 0 for none.
func (m *measurement) record(at, latency time.Duration, kind opKind, err error, slo time.Duration) {
	m.attempted++
	switch {
	case err != nil:
		m.errors++
		latency = max(latency, slo)
	case slo > 0 && latency > slo:
		m.overSLO++
	default:
		m.kind(kind).add(int64(latency))
	}
	m.slice(at).add(int64(latency))
}

// drop files an arrival that was never sent, waited late after it was due.
func (m *measurement) drop(at, waited, slo time.Duration) {
	m.attempted++
	m.dropped++
	m.slice(at).add(int64(max(waited, slo)))
}

// operation runs one operation of a closed-loop caller and says what
// kind it was. An error counts as a failed operation.
type operation func() (opKind, error)

// closedLoop is callers goroutines that each issue their next operation
// as soon as the previous one returns.
type closedLoop struct {
	// ops[c] is caller c's operation; it owns that caller's generator
	// state, so the stream a caller issues depends only on the seed.
	ops []operation
	// slo, when positive, is the latency limit a success must meet.
	slo time.Duration
}

// warm runs perCaller operations on every caller, untimed, so that the
// measured window starts from pools, plan caches and keep-alive
// connections that are full and from a state that depends on the seed
// alone — not on how fast this machine is.
func (c closedLoop) warm(perCaller int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.ops))
	for i, op := range c.ops {
		wg.Add(1)
		go func(i int, op operation) {
			defer wg.Done()
			for n := 0; n < perCaller; n++ {
				if _, err := op(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, op)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measure runs every caller for lead + seconds seconds and records the
// operations that finish in the last seconds of them. The lead-in is
// load like any other, just not recorded: any pause in the load — and
// there is one before every window, for the forced collection — lets a
// running garbage collection finish early and postpones the next, so the
// first second after a pause is the quietest of the run (social-batch
// does twice its steady rate in it). atStart, when non-nil, is called
// once as the recorded window opens, while the callers keep going.
//
// An operation's latency is the time between the previous operation's
// end and its own, one clock read per operation; an operation that ends
// after the window closed is not counted.
func (c closedLoop) measure(seconds int, lead time.Duration, atStart func()) *measurement {
	window := lead + time.Duration(seconds)*time.Second
	parts := make([]*measurement, len(c.ops))
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	var t0 time.Time // when the callers were released; written before gate closes, read after
	gate := make(chan struct{})
	for i, op := range c.ops {
		m := newMeasurement(seconds)
		parts[i] = m
		wg.Add(1)
		ready.Add(1)
		go func(op operation) {
			defer wg.Done()
			ready.Done()
			<-gate
			prev := time.Duration(0)
			for {
				kind, err := op()
				at := time.Since(t0)
				if at >= window {
					return
				}
				if at >= lead {
					m.record(at-lead, at-prev, kind, err, c.slo)
				}
				prev = at
			}
		}(op)
	}
	ready.Wait()
	t0 = time.Now()
	close(gate)
	if atStart != nil {
		time.Sleep(time.Until(t0.Add(lead)))
		atStart()
	}
	wg.Wait()
	total := newMeasurement(seconds)
	for _, p := range parts {
		total.merge(p)
	}
	return total
}
