package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// The wire workloads' load comes from a second process: this same
// program, started with -loadgen. Two things share a Go process's
// runtime, its garbage collector and its scheduler. With the load
// generator inside the server's process, every collection of the server's
// heap (thirty milliseconds of marking, twice a second, on two Ps) also
// descheduled the pacer: it reached 1–2 % of its arrivals 2–5 ms late, the
// delay was charged to the requests, and most of wire-steady's p99 was the
// generator's own. With the collector switched off the same pacer was
// 120–175 µs late at p99. The generator's own heap is a megabyte, so in a
// process of its own its collections take well under a millisecond.
//
// The parent keeps the server, the correctness gate, the counters and
// the traced pass. The child warms up, says "warm", waits for "go", says
// "window" as the recorded window opens, and reports when it has closed.

// loadgenEnv marks a process as the load generator; the test binary
// looks for it to know it was started as one (TestMain).
const loadgenEnv = "CRS_BENCHMARK_LOADGEN"

const (
	lineWarm   = "warm"
	lineGo     = "go"
	lineWindow = "window"
	lineReport = "report "
)

// bucketCount is one non-empty histogram bucket on the wire.
type bucketCount [2]uint32

func (h *hist) sparse() []bucketCount {
	var out []bucketCount
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, bucketCount{uint32(i), c})
		}
	}
	return out
}

func denseHist(buckets []bucketCount) (*hist, error) {
	h := &hist{}
	for _, b := range buckets {
		if b[0] >= histBuckets {
			return nil, fmt.Errorf("histogram bucket %d out of range", b[0])
		}
		h.counts[b[0]] += b[1]
		h.n += uint64(b[1])
	}
	return h, nil
}

// loadgenReport is what the child prints once the window has closed.
type loadgenReport struct {
	Slices    [][]bucketCount `json:"slices"`
	Lag       []bucketCount   `json:"lag,omitempty"`
	OpenLoop  bool            `json:"open_loop"`
	Attempted uint64          `json:"attempted"`
	Errors    uint64          `json:"errors"`
	OverSLO   uint64          `json:"over_slo"`
	Dropped   uint64          `json:"dropped"`
	// AckedMutating counts acknowledged requests that produced a redo
	// record, warm-up included (disk_bytes_per_op's divisor).
	AckedMutating uint64 `json:"acked_mutating"`
	// The generator process's own allocation across the window: the Go
	// client's share of a request's garbage.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (r *loadgenReport) measurement(seconds int) (*measurement, error) {
	if len(r.Slices) != seconds {
		return nil, fmt.Errorf("the load generator reported %d slices for %d seconds", len(r.Slices), seconds)
	}
	m := &measurement{
		seconds: float64(seconds), slices: make([]*hist, seconds),
		attempted: r.Attempted, errors: r.Errors, overSLO: r.OverSLO, dropped: r.Dropped,
	}
	var err error
	for i, s := range r.Slices {
		if m.slices[i], err = denseHist(s); err != nil {
			return nil, err
		}
	}
	if r.OpenLoop {
		if m.lag, err = denseHist(r.Lag); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// loadgen is the child's state.
type loadgen struct {
	spec          spec
	cfg           config
	httpc         *http.Client
	cl            *client.Client
	ackedMutating atomic.Uint64
}

// do sends one request through the Go client and checks the reply's
// shape; it is the operation both loops time.
func (l *loadgen) do(req *server.Request) (opKind, error) {
	resp, err := l.cl.Do(context.Background(), req)
	if err != nil {
		return kindRequest, err
	}
	if len(resp.Results) != len(req.Ops) {
		return kindRequest, fmt.Errorf("%d results for %d ops", len(resp.Results), len(req.Ops))
	}
	if l.spec.durable && mutates(req) {
		l.ackedMutating.Add(1)
	}
	return kindRequest, nil
}

// closed builds the closed loop: caller c streams logical client c's
// requests. seed selects the stream (warm-up and window must not replay
// each other).
func (l *loadgen) closed(seed uint64) closedLoop {
	ops := make([]operation, l.spec.callers)
	for c := range ops {
		gen := server.NewSocialTraffic(seed+uint64(c), l.spec.mix, l.spec.keysPerClient(), int64(l.spec.callers), int64(c))
		ops[c] = func() (opKind, error) { return l.do(gen.Next()) }
	}
	return closedLoop{ops: ops, slo: sloLatency}
}

// arrivalsWithin cuts a Poisson schedule at the phase's length.
func arrivalsWithin(seed uint64, rate float64, seconds float64) []time.Duration {
	all := poissonSchedule(seed, rate, int(rate*seconds*1.2)+64)
	for i, at := range all {
		if at.Seconds() >= seconds {
			return all[:i]
		}
	}
	return all
}

// runLoadgen is the child's main: warm-up, hand-shake, window, report.
func runLoadgen(sp spec, cfg config, base string, in io.Reader, out io.Writer) error {
	tr := &http.Transport{MaxIdleConns: sp.conns(), MaxIdleConnsPerHost: sp.conns()}
	l := &loadgen{spec: sp, cfg: cfg, httpc: &http.Client{Transport: tr, Timeout: client.DefaultTimeout}}
	l.cl = client.New(base, client.WithHTTPClient(l.httpc))
	defer l.httpc.CloseIdleConnections()

	say := func(line string) error {
		_, err := fmt.Fprintln(out, line)
		return err
	}
	var before, after runtime.MemStats
	atStart := func() {
		runtime.ReadMemStats(&before)
		say(lineWindow) // a lost line fails the parent's read, which reports it
	}
	var window func() *measurement
	if sp.open {
		// One stream and one pacer for both phases: the warm-up takes the
		// stream's head, the window goes on from there.
		loop := openLoop{
			pacer:    pacer{clock: realClock{}, granularity: measureGranularity(31, preciseSleep)},
			inFlight: openInFlight, slo: sloLatency,
			next: newWireGen(cfg.seed, sp.mix, sp.callers, sp.keysPerClient()).next, send: l.do,
		}
		warmAt := arrivalsWithin(cfg.seed+1, sp.rate, float64(sp.warm)*cfg.scale.warm)
		windowAt := arrivalsWithin(cfg.seed+2, sp.rate, cfg.scale.lead.Seconds()+float64(cfg.seconds))
		if m := loop.run(warmAt, sp.warm, 0, nil); m.errors > 0 {
			return fmt.Errorf("%d of %d warm-up requests failed", m.errors, m.attempted)
		}
		window = func() *measurement { return loop.run(windowAt, cfg.seconds, cfg.scale.lead, atStart) }
	} else {
		if err := l.closed(cfg.seed).warm(int(float64(sp.warm) * cfg.scale.warm)); err != nil {
			return err
		}
		window = func() *measurement { return l.closed(cfg.seed+1).measure(cfg.seconds, cfg.scale.lead, atStart) }
	}
	if err := say(lineWarm); err != nil {
		return err
	}
	if line, err := bufio.NewReader(in).ReadString('\n'); err != nil || strings.TrimSpace(line) != lineGo {
		return fmt.Errorf("waiting for %q: got %q, %v", lineGo, line, err)
	}
	// Start the window's allocation count from a clean cycle, as the
	// parent does for the server's.
	runtime.GC()
	m := window()
	runtime.ReadMemStats(&after)

	rep := loadgenReport{
		OpenLoop: sp.open, Attempted: m.attempted, Errors: m.errors, OverSLO: m.overSLO, Dropped: m.dropped,
		AckedMutating: l.ackedMutating.Load(),
		Mallocs:       after.Mallocs - before.Mallocs, AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
	for _, s := range m.slices {
		rep.Slices = append(rep.Slices, s.sparse())
	}
	if m.lag != nil {
		rep.Lag = m.lag.sparse()
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return say(lineReport + string(b))
}

// loadgenProc is the parent's handle on the child.
type loadgenProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	lines *bufio.Scanner
	done  bool
}

// startLoadgen starts the child against the server at base and returns
// once its warm-up is over.
func startLoadgen(sp spec, cfg config, base string) (*loadgenProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-loadgen", base, "-workload", sp.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), loadgenEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &loadgenProc{cmd: cmd, in: in, lines: bufio.NewScanner(out)}
	// The report is one line: ten sparse histograms.
	p.lines.Buffer(nil, 16<<20)
	if _, err := p.expect(lineWarm); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// expect reads the child's next line, which must start with prefix, and
// returns the rest of it.
func (p *loadgenProc) expect(prefix string) (string, error) {
	if !p.lines.Scan() {
		err := p.lines.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return "", fmt.Errorf("load generator: waiting for %q: %w", strings.TrimSpace(prefix), err)
	}
	line := p.lines.Text()
	if !strings.HasPrefix(line, prefix) {
		return "", fmt.Errorf("load generator: waiting for %q, got %q", strings.TrimSpace(prefix), line)
	}
	return line[len(prefix):], nil
}

// window releases the child into its measured phase, calls atStart as
// the recorded window opens, and returns the child's report once the
// child has exited.
func (p *loadgenProc) window(atStart func()) (*loadgenReport, error) {
	defer p.stop()
	if _, err := fmt.Fprintln(p.in, lineGo); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if _, err := p.expect(lineWindow); err != nil {
		return nil, err
	}
	if atStart != nil {
		atStart()
	}
	body, err := p.expect(lineReport)
	if err != nil {
		return nil, err
	}
	var rep loadgenReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		return nil, fmt.Errorf("load generator: report: %w", err)
	}
	p.in.Close()
	p.done = true
	if err := p.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return &rep, nil
}

// stop ends the child, if it is still there, and waits for it.
func (p *loadgenProc) stop() {
	if p.done {
		return
	}
	p.done = true
	p.in.Close()
	p.cmd.Process.Kill()
	p.cmd.Wait()
}
