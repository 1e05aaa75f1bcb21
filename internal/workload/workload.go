// Package workload implements the benchmark methodology of §6.2, modeled
// after Herlihy et al.'s concurrent-map comparisons (the paper's reference
// [14]) generalized to relations: k identical threads execute a fixed
// number of randomly chosen operations against one shared directed-graph
// relation, and the harness reports aggregate throughput. Varying the
// operation mix reproduces the four panels of Figure 5.
package workload

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// GraphOps is the operation interface of the §6.2 benchmark: the four
// relational operations specialized to the directed-graph relation
// {src, dst, weight | src,dst → weight}. Read operations return result
// counts so implementations cannot be optimized away.
type GraphOps interface {
	// FindSuccessors returns the number of (dst, weight) pairs for src.
	FindSuccessors(src int64) int
	// FindPredecessors returns the number of (src, weight) pairs for dst.
	FindPredecessors(dst int64) int
	// InsertEdge inserts the edge unless one with the same src,dst exists
	// (put-if-absent, preserving the FD).
	InsertEdge(src, dst, weight int64) bool
	// RemoveEdge removes the edge, reporting whether it existed.
	RemoveEdge(src, dst int64) bool
}

// Mix is an operation distribution, written x-y-z-w in the paper: x%
// successor queries, y% predecessor queries, z% inserts, w% removes.
type Mix struct {
	Successors, Predecessors, Inserts, Removes int
}

// String renders the mix in the paper's x-y-z-w notation.
func (m Mix) String() string {
	return fmt.Sprintf("%d-%d-%d-%d", m.Successors, m.Predecessors, m.Inserts, m.Removes)
}

// ParseMix parses the x-y-z-w notation String renders and validates that
// the percentages sum to 100.
func ParseMix(s string) (Mix, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 {
		return Mix{}, fmt.Errorf("workload: bad mix %q (want x-y-z-w)", s)
	}
	var nums [4]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return Mix{}, fmt.Errorf("workload: bad mix component %q in %q", p, s)
		}
		nums[i] = n
	}
	m := Mix{Successors: nums[0], Predecessors: nums[1], Inserts: nums[2], Removes: nums[3]}
	if !m.valid() {
		return Mix{}, fmt.Errorf("workload: mix %q does not sum to 100", s)
	}
	return m, nil
}

// valid reports whether the percentages sum to 100.
func (m Mix) valid() bool {
	return m.Successors+m.Predecessors+m.Inserts+m.Removes == 100
}

// Figure5Mixes lists the four operation distributions of Figure 5.
func Figure5Mixes() []Mix {
	return []Mix{
		{Successors: 70, Predecessors: 0, Inserts: 20, Removes: 10},
		{Successors: 35, Predecessors: 35, Inserts: 20, Removes: 10},
		{Successors: 0, Predecessors: 0, Inserts: 50, Removes: 50},
		{Successors: 45, Predecessors: 45, Inserts: 9, Removes: 1},
	}
}

// Config parameterizes one benchmark run.
type Config struct {
	// Threads is the number of worker goroutines (k in §6.2).
	Threads int
	// OpsPerThread is the number of operations each thread executes; the
	// paper uses 5·10^5.
	OpsPerThread int
	// KeySpace bounds the random node ids (node ids are drawn uniformly
	// from [0, KeySpace)).
	KeySpace int64
	// Seed makes runs reproducible; thread i derives its generator from
	// Seed and i.
	Seed uint64
	// Mix is the operation distribution.
	Mix Mix
}

// DefaultConfig returns the §6.2 parameters with a modest key space.
func DefaultConfig() Config {
	return Config{Threads: 4, OpsPerThread: 500_000, KeySpace: 512, Seed: 1, Mix: Figure5Mixes()[0]}
}

// Result reports a run's aggregate throughput.
type Result struct {
	Ops        int
	Duration   time.Duration
	Throughput float64 // operations per second, all threads combined
	// Checksum accumulates result counts, preventing dead-code
	// elimination and giving runs a comparable fingerprint.
	Checksum uint64
}

// SplitMix64 advances a SplitMix64 state and returns the next draw — the
// package's single deterministic generator, exported so the wire traffic
// generators (internal/server) draw from exactly the same stream
// discipline as the in-process drivers.
func SplitMix64(state *uint64) uint64 { return splitmix64(state) }

// splitmix64 advances a SplitMix64 state; a tiny, fast, seedable generator
// so benchmark threads never contend on a shared RNG.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes the benchmark: all threads start together, each performs
// cfg.OpsPerThread random operations per cfg.Mix, and the harness reports
// aggregate throughput over the wall time from start to last finish.
func Run(g GraphOps, cfg Config) Result {
	if !cfg.Mix.valid() {
		panic(fmt.Sprintf("workload: mix %s does not sum to 100", cfg.Mix))
	}
	return runWorkers(cfg, func(state *uint64) uint64 {
		return graphOp(g, state, cfg.Mix, cfg.KeySpace)
	})
}

// graphOp draws and executes ONE §6.2 operation against g: it advances
// the SplitMix64 state, picks the operation per mix, derives the operand
// node ids from the draw, and returns the checksum contribution.
func graphOp(g GraphOps, state *uint64, mix Mix, keySpace int64) uint64 {
	r := splitmix64(state)
	choice := int(r % 100)
	a := int64((r >> 32) % uint64(keySpace))
	b := int64((r >> 16) % uint64(keySpace))
	switch {
	case choice < mix.Successors:
		return uint64(g.FindSuccessors(a))
	case choice < mix.Successors+mix.Predecessors:
		return uint64(g.FindPredecessors(a))
	case choice < mix.Successors+mix.Predecessors+mix.Inserts:
		if g.InsertEdge(a, b, int64(r>>40)) {
			return 1
		}
	default:
		if g.RemoveEdge(a, b) {
			return 1
		}
	}
	return 0
}

// Series runs the benchmark across ascending thread counts and returns
// one Result per count — one throughput/scalability curve of Figure 5.
func Series(g func() GraphOps, cfg Config, threads []int) []Result {
	results := make([]Result, 0, len(threads))
	for _, k := range threads {
		c := cfg
		c.Threads = k
		results = append(results, Run(g(), c))
	}
	return results
}
