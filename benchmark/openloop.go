package main

import (
	"sync"
	"time"

	"repro/internal/server"
)

// openLoop sends requests on a schedule whatever the replies do: one
// pacer goroutine walks the arrival instants and hands each due request
// to one of inFlight sender goroutines. Latency runs from the SCHEDULED
// instant, so a stall also charges the requests queued behind it, and
// every one of them is measured: the cap on requests in flight only
// bounds the damage of a server that has stopped answering. An arrival
// that finds it exhausted is counted as dropped — blocking instead would
// close the loop and hide the overload.
type openLoop struct {
	pacer    pacer
	inFlight int
	slo      time.Duration
	// next draws the stream's next request. It runs on the pacer's
	// goroutine, one arrival ahead, so the stream is a function of the
	// seed alone and the instant itself costs nothing.
	next func() *server.Request
	send func(*server.Request) (opKind, error)
}

type arrival struct {
	req *server.Request
	due time.Time
	at  time.Duration // the scheduled offset inside the phase
}

// run plays one phase: schedule[k] is the offset of arrival k from the
// phase's start. Arrivals due before lead are sent but not recorded (see
// closedLoop.measure); the returned measurement covers exactly the later
// ones, filed under the second of the recorded window they were due in.
// atStart, when non-nil, is called by the pacer as the recorded window
// opens.
func (o openLoop) run(schedule []time.Duration, seconds int, lead time.Duration, atStart func()) *measurement {
	// work's buffer equals the number of senders and a slot is taken
	// before every send, so the pacer's send never blocks.
	work := make(chan arrival, o.inFlight)
	slots := make(chan struct{}, o.inFlight)
	// One measurement behind a mutex: a thousand records a second do not
	// contend, and a histogram set per sender would be the largest thing
	// on the heap.
	total := newMeasurement(seconds)
	total.lag = &hist{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < o.inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				kind, err := o.send(a.req)
				latency := time.Since(a.due)
				if a.at >= lead {
					mu.Lock()
					total.record(a.at-lead, latency, kind, err, o.slo)
					mu.Unlock()
				}
				<-slots
			}
		}()
	}
	start := o.pacer.clock.Now()
	for _, at := range schedule {
		req := o.next()
		due := start.Add(at)
		lag := o.pacer.waitUntil(due)
		if at >= lead {
			if atStart != nil {
				atStart()
				atStart = nil
			}
			total.lag.add(int64(lag)) // the pacer is the only one to touch lag
		}
		select {
		case slots <- struct{}{}:
			work <- arrival{req: req, due: due, at: at}
		default:
			if at >= lead {
				mu.Lock()
				total.drop(at-lead, lag, o.slo)
				mu.Unlock()
			}
		}
	}
	close(work)
	wg.Wait()
	return total
}
