package workload

import (
	"fmt"
	"math"
	"time"
)

// This file is the open-loop arrival process: the throughput drivers fire
// operations back to back, which models saturated callers but not
// ARRIVING traffic. The Poisson process (memoryless independent clients;
// exponential inter-arrival gaps) is a pure function of its seed, so the
// open-loop benchmark workloads replay identical arrival schedules.

// uniform01 maps one SplitMix64 draw onto (0, 1]: the open lower bound
// keeps math.Log finite.
func uniform01(state *uint64) float64 {
	u := float64(splitmix64(state)>>11) / float64(1<<53) // [0, 1) with 53-bit resolution
	return 1 - u                                         // (0, 1]
}

// PoissonArrivals generates a Poisson arrival process: independent
// exponential inter-arrival gaps with the configured mean, via the
// inverse-CDF transform gap = -Mean·ln(U). It is not safe for concurrent
// use (give each client goroutine its own generator).
type PoissonArrivals struct {
	// Mean is the mean inter-arrival gap (1/λ).
	Mean time.Duration
	// state is the SplitMix64 draw state.
	state uint64
}

// NewPoissonArrivals returns a Poisson process with the given mean gap.
func NewPoissonArrivals(seed uint64, mean time.Duration) *PoissonArrivals {
	if mean <= 0 {
		panic(fmt.Sprintf("workload: poisson mean %v must be positive", mean))
	}
	return &PoissonArrivals{Mean: mean, state: seed*0x9e3779b97f4a7c15 + 1}
}

// Next draws the next exponential gap.
func (p *PoissonArrivals) Next() time.Duration {
	gap := -math.Log(uniform01(&p.state)) * float64(p.Mean)
	return time.Duration(gap)
}
