package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/workload"
)

// callerSeed derives caller c's generator state from the run's seed, the
// way workload.Run does for its threads.
func callerSeed(seed uint64, c int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(c)*0xdeadbeefcafef00d + 1
}

// peelChunk is how many operations run on one instance before the
// interleaved replays of the traced pass switch to the next: long enough
// to amortise the switch, short enough that machine noise hits all
// instances alike.
const peelChunk = 250

// graphRunner drives graph-single: the paper's §6.2 experiment as a
// fixed-duration closed loop.
type graphRunner struct {
	spec spec
	cfg  config
	env  *graphEnv
}

func (g *graphRunner) setup() (setupTimes, error) {
	env, st, err := newGraphEnv(g.cfg.seed, g.spec.keyspace, graphFill)
	g.env = env
	return st, err
}

func (g *graphRunner) gate() error {
	return gateGraph(g.cfg.seed, figure5Mix, g.cfg.scale.gateOps, g.cfg.injectFault)
}

// operation returns a closure that draws and runs one graph operation
// per call, exactly as workload.Run's inner loop does.
func (g *graphRunner) operation(state uint64) operation {
	gr, ks, mix := g.env.graph, uint64(g.spec.keyspace), figure5Mix
	return func() (opKind, error) {
		r := workload.SplitMix64(&state)
		choice := int(r % 100)
		a := int64((r >> 32) % ks)
		b := int64((r >> 16) % ks)
		switch {
		case choice < mix.Successors:
			gr.FindSuccessors(a)
			return kindRead, nil
		case choice < mix.Successors+mix.Predecessors:
			gr.FindPredecessors(a)
			return kindRead, nil
		case choice < mix.Successors+mix.Predecessors+mix.Inserts:
			gr.InsertEdge(a, b, int64(r>>40))
			return kindWrite, nil
		default:
			gr.RemoveEdge(a, b)
			return kindWrite, nil
		}
	}
}

// loop gives every caller its own generator derived from seed. Warm-up,
// measured window and traced pass use seed, seed+1 and seed+2, so none
// replays another's draws.
func (g *graphRunner) loop(seed uint64) closedLoop {
	ops := make([]operation, g.spec.callers)
	for c := range ops {
		ops[c] = g.operation(callerSeed(seed, c))
	}
	return closedLoop{ops: ops}
}

func (g *graphRunner) warm() error {
	return g.loop(g.cfg.seed).warm(int(float64(g.spec.warm) * g.cfg.scale.warm))
}

func (g *graphRunner) counters(c *counters) { runtime.ReadMemStats(&c.mem) }

func (g *graphRunner) measure(seconds int, lead time.Duration, atStart func()) (*measurement, error) {
	return g.loop(g.cfg.seed+1).measure(seconds, lead, atStart), nil
}

func (g *graphRunner) verify(*result) error {
	if _, err := g.env.rel.VerifyWellFormed(); err != nil {
		return fmt.Errorf("after the run: %w", err)
	}
	return nil
}

// peel: graph-single has one public entry point — the prepared
// operation — so the peel is one level, replayed by a single caller on
// the measured relation (preloading another takes longer than the whole
// traced pass may). Chunks alternate between recording a span per
// operation and recording nothing; the difference is the tracing
// overhead. The single-op executor takes no BatchTrace, so the lock
// counts read 0 here.
func (g *graphRunner) peel(tr *tracer, res *result) error {
	op := g.operation(callerSeed(g.cfg.seed+2, 0))
	n := g.cfg.scale.peelEngine
	var overhead chunkPairs
	for done := 0; done < n; done += 2 * peelChunk {
		t0 := time.Now()
		at := t0
		for i := 0; i < peelChunk; i++ {
			op()
			now := time.Now()
			tr.add(0, uint32(done+i), "core.single", at, now)
			at = now
		}
		t1 := time.Now()
		for i := 0; i < peelChunk; i++ {
			op()
		}
		overhead.add(t1.Sub(t0), time.Since(t1))
	}
	self := finishPeel(res, tr, []levelSpec{{name: "core.single"}}, peelChunk, &overhead)
	res.metrics["core.single_us"] = self["core.single"]
	return nil
}

func (g *graphRunner) close() error { return nil }

// chunkPairs collects the times of corresponding chunks of two
// interleaved replays of the same operations.
type chunkPairs struct {
	a, b []float64
}

func (c *chunkPairs) add(a, b time.Duration) {
	c.a = append(c.a, float64(a))
	c.b = append(c.b, float64(b))
}

// ratio is the median over chunks of a's time over b's. A chunk is a
// millisecond or two, so one machine stall spoils one pair and the
// median ignores it; a ratio of sums would not.
func (c *chunkPairs) ratio() float64 {
	rs := make([]float64, len(c.a))
	for i := range rs {
		rs[i] = ratio(c.a[i], c.b[i])
	}
	return median(rs)
}

// finishPeel records what every family's traced pass reports — the top
// span, the noise of the replays, and the tracing overhead measured by
// the interleaved traced and untraced replays — and returns the self
// times in microseconds by span name. A row the replays cannot tell from
// zero is returned as 0 and named in the report, with what it read.
func finishPeel(res *result, tr *tracer, levels []levelSpec, chunk int, tracedVsUntraced *chunkPairs) map[string]float64 {
	rows := tr.peelRows(levels, chunk)
	self := make(map[string]float64, len(rows))
	var noise float64
	for _, row := range rows {
		noise = max(noise, row.noiseNS)
		if row.resolved() {
			self[row.name] = us(row.selfNS)
		} else {
			res.note("peel: %s is not resolved: it read %.2f us, and two halves of the same replays differ by %.2f us", row.name, us(row.selfNS), us(row.noiseNS))
		}
	}
	ms := res.metrics
	ms["trace.top_span_us"] = us(tr.median(levels[0].name, chunk, -1))
	ms["trace.noise_us"] = us(noise)
	ms["trace.overhead_frac"] = tracedVsUntraced.ratio() - 1
	return self
}

// socialRunner drives social-batch and social-hot: composite social
// operations, each one Registry.Batch group, from P closed-loop callers.
type socialRunner struct {
	spec spec
	cfg  config
	env  *socialEnv
}

func (s *socialRunner) params() socialParams {
	return socialParams{seed: s.cfg.seed, keyspace: s.spec.keyspace, mix: s.spec.mix, preload: s.spec.preload}
}

func (s *socialRunner) setup() (setupTimes, error) {
	env, st, err := newSocialEnv(s.params())
	s.env = env
	return st, err
}

func (s *socialRunner) gate() error {
	return gateSocial(s.cfg.seed, s.spec.mix, s.cfg.scale.gateOps, s.cfg.injectFault)
}

// socialKind says which composite the NEXT draw of state selects,
// without advancing it.
func socialKind(state uint64, mix workload.SocialMix) opKind {
	choice := int(workload.SplitMix64(&state) % 100)
	switch {
	case choice < mix.AddPosts+mix.RemovePosts:
		return kindWriteGroup
	case choice < mix.AddPosts+mix.RemovePosts+mix.Follows:
		return kindOCCGroup
	default:
		return kindROGroup
	}
}

func socialOperation(soc *workload.Social, state uint64, mix workload.SocialMix, keyspace int64) operation {
	return func() (opKind, error) {
		kind := socialKind(state, mix)
		workload.SocialOp(soc, &state, mix, keyspace)
		return kind, nil
	}
}

func (s *socialRunner) loop(seed uint64) closedLoop {
	ops := make([]operation, s.spec.callers)
	for c := range ops {
		ops[c] = socialOperation(s.env.soc, callerSeed(seed, c), s.spec.mix, s.spec.keyspace)
	}
	return closedLoop{ops: ops}
}

func (s *socialRunner) warm() error {
	return s.loop(s.cfg.seed).warm(int(float64(s.spec.warm) * s.cfg.scale.warm))
}

func (s *socialRunner) counters(c *counters) {
	runtime.ReadMemStats(&c.mem)
	c.reg = s.env.soc.Reg.Harvest()
}

func (s *socialRunner) measure(seconds int, lead time.Duration, atStart func()) (*measurement, error) {
	return s.loop(s.cfg.seed+1).measure(seconds, lead, atStart), nil
}

func (s *socialRunner) verify(*result) error {
	if err := wellFormed(s.env.soc.Reg); err != nil {
		return fmt.Errorf("after the run: %w", err)
	}
	return nil
}

// peel: the engine workloads enter the program at one point, the
// composite operation (dependent reads, then one Registry.Batch through
// prepared rows), so the peel is one level. Three identically preloaded
// registries replay the same stream in interleaved chunks: one records a
// span per operation, one records nothing (their difference is the
// tracing overhead), one runs the sequential decomposition — one
// single-member batch per relational operation — whose time over the
// grouped one's is core.batch_vs_sequential. A fourth pass with
// BatchTrace on counts locks; it allocates, so it is not timed.
func (s *socialRunner) peel(tr *tracer, res *result) error {
	var ops [3]operation
	var last *socialEnv
	for i := range ops {
		env, _, err := newSocialEnv(s.params())
		if err != nil {
			return err
		}
		env.soc.Grouped = i != 2
		ops[i] = socialOperation(env.soc, callerSeed(s.cfg.seed+2, 0), s.spec.mix, s.spec.keyspace)
		last = env
	}
	n := s.cfg.scale.peelEngine
	var overhead, sequential chunkPairs
	for done := 0; done < n; done += peelChunk {
		t0 := time.Now()
		at := t0
		for i := 0; i < peelChunk; i++ {
			ops[0]()
			now := time.Now()
			tr.add(0, uint32(done+i), "core.group", at, now)
			at = now
		}
		t1 := time.Now()
		for i := 0; i < peelChunk; i++ {
			ops[1]()
		}
		t2 := time.Now()
		for i := 0; i < peelChunk; i++ {
			ops[2]()
		}
		t3 := time.Now()
		overhead.add(t1.Sub(t0), t2.Sub(t1))
		sequential.add(t3.Sub(t2), t2.Sub(t1))
	}
	ms := res.metrics
	// Throughput of the grouped discipline over the sequential one's is
	// the sequential time over the grouped time.
	ms["core.batch_vs_sequential"] = sequential.ratio()

	// Lock counts: the sequential instance has done its timing; switch it
	// to the grouped discipline with tracing on and let it run on. The
	// counts are exact for the seed: one caller, no timers.
	counts := &workload.LockCounts{}
	last.soc.Grouped, last.soc.Counts = true, counts
	for i := 0; i < n; i++ {
		ops[2]()
	}
	ms["locks.requested_per_op"] = float64(counts.Requested.Load()) / float64(n)
	ms["locks.acquired_per_op"] = float64(counts.Acquired.Load()) / float64(n)

	self := finishPeel(res, tr, []levelSpec{{name: "core.group"}}, peelChunk, &overhead)
	ms["core.batch_us"] = self["core.group"]
	return nil
}

func (s *socialRunner) close() error { return nil }
