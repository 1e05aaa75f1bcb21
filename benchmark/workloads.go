package main

import (
	"time"

	"repro/internal/workload"
)

// family is which part of the program a workload drives.
type family int

const (
	famGraph  family = iota // one standalone relation, single linearizable ops
	famSocial               // the social registry, in process, Registry.Batch groups
	famWire                 // the social registry behind server.New, over loopback HTTP
)

// spec is one named workload. The names are final: later changes cite
// them. BENCHMARK.json and README.md say why each exists and which layer
// dominates it.
type spec struct {
	name   string
	family family
	// open selects the open loop: Poisson arrivals at rate requests per
	// second from one pacer, on behalf of callers logical clients (each
	// with a key partition of its own), at most openInFlight in flight.
	// Otherwise callers closed-loop goroutines run back to back.
	open    bool
	rate    float64
	callers int
	// keyspace is the number of distinct node or user ids.
	keyspace int64
	mix      workload.SocialMix
	// preload is how many operations build the state the run starts from
	// (graph-single preloads by fill instead, see graphFill).
	preload int
	// warm is how many operations each caller (closed loop) or how many
	// seconds of arrivals (open loop) run untimed before the window. It
	// is a COUNT, not a duration, so the state the measured window starts
	// from — and live_heap_mb, taken right after — does not depend on how
	// fast the machine or the commit is.
	warm    int
	durable bool
}

// keysPerClient splits the key space among the logical clients.
func (s spec) keysPerClient() int64 { return s.keyspace / int64(s.callers) }

// conns is how many connections the load can have open at once; the
// client keeps that many alive.
func (s spec) conns() int {
	if s.open {
		return openInFlight
	}
	return s.callers
}

// sloLatency is the latency limit of the wire workloads: a reply later
// than this counts as failed, like one that never came.
const sloLatency = 20 * time.Millisecond

// openInFlight caps the requests an open loop has in flight. At 1000
// requests a second a reply inside the limit leaves at most 20 in flight,
// so the cap binds only after the server has answered nothing for half a
// second; until then every request queued behind a stall is sent and
// measured, and none counts as failed for the generator's sake. (ISSUE 11
// asked for 4·P = 8. That cap dropped exactly the requests a stall of a
// few milliseconds delays, and so hid the tail it caused; 128 still
// dropped a dozen sends in one wire-durable run in six, when a snapshot,
// a collection and a machine stall fell together.) Connections are opened
// as needed: a quiet run uses a handful.
const openInFlight = 512

// figure5Mix is the 35-35-20-10 panel of Figure 5.
var figure5Mix = workload.Figure5Mixes()[1]

// specs returns the six workloads for a machine running procs Ps.
func specs(procs int) []spec {
	return []spec{
		{
			name:   "graph-single",
			family: famGraph, callers: procs, keyspace: 512, warm: 60_000,
		},
		{
			name:   "social-batch",
			family: famSocial, callers: procs, keyspace: 4096, mix: workload.DefaultSocialMix(),
			preload: 20_000, warm: 80_000,
		},
		{
			name:   "social-hot",
			family: famSocial, callers: procs, keyspace: 16, mix: workload.MixedSocialMix(),
			preload: 20_000, warm: 250_000,
		},
		{
			name:   "wire-steady",
			family: famWire, open: true, rate: 1000, callers: 4 * procs, keyspace: 4096,
			mix: workload.DefaultSocialMix(), preload: 5_000, warm: 2,
		},
		{
			name:   "wire-saturate",
			family: famWire, callers: 32, keyspace: 4096,
			mix: workload.DefaultSocialMix(), preload: 5_000, warm: 500,
		},
		{
			name:   "wire-durable",
			family: famWire, open: true, rate: 1000, callers: 4 * procs, keyspace: 4096,
			mix: workload.DefaultSocialMix(), preload: 5_000, warm: 2, durable: true,
		},
	}
}

// scale sizes the parts of a run that are not the measured window.
type scale struct {
	setupRamp    time.Duration // set-ups that start while the run is younger than this are run and not recorded
	setups       int           // recorded set-ups per run at least; setup_s is their median
	setupBudget  time.Duration // further set-ups (up to maxSetups) start while the earlier ones took less than this
	gateOps      int           // engine gate: operations replayed against core.Reference
	gateRequests int           // wire gate: lockstep requests per logical client
	warm         float64       // multiplier on spec.warm
	lead         time.Duration // load that runs, unrecorded, right before the recorded window
	peelEngine   int           // traced pass: operations replayed, engine workloads
	peelWire     int           // traced pass: requests replayed per entry point, wire workloads
	peelWindow   int           // ... at the default window, where every request waits out the timer
	peelChunk    int           // ... how many requests one entry point replays before the next takes its turn
	peelBudget   time.Duration // ... and the time after which no further chunk starts
	// graphKeys, when positive, replaces graph-single's key space: its
	// preload and its verification walk grow with the square of it.
	graphKeys int64
}

var fullScale = scale{
	setupRamp: time.Second, setups: 3, setupBudget: 1200 * time.Millisecond, gateOps: 20_000, gateRequests: 500, warm: 1, lead: time.Second,
	peelEngine: 20_000, peelWire: 2_000, peelWindow: 500, peelChunk: 50, peelBudget: 3 * time.Second,
}

// smokeScale is -smoke: everything present, nothing long.
var smokeScale = scale{
	setups: 1, gateOps: 1_000, gateRequests: 20, warm: 0.02, lead: 100 * time.Millisecond,
	peelEngine: 1_000, peelWire: 100, peelWindow: 30, peelChunk: 10, peelBudget: time.Second,
	graphKeys: 128,
}
