package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds here). Values below 64 get exact buckets; above that each
// power of two is cut into 64 linear sub-buckets, so a bucket is at most
// 1.6 % wide, and quantile interpolates inside the bucket. The repo's
// internal/latency histogram reports bucket upper bounds at 6.25 %
// resolution: run-to-run differences of a few per cent would read as
// either nothing or a whole bucket step: too coarse to tell a 5 % change
// from none.
//
// A hist is not synchronised: closed-loop callers fill one each, merged
// after the run; the open loop's shared ones sit behind its mutex.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histMaxExp caps the range at 2^41 ns (about 36 minutes); larger
	// samples land in the last bucket.
	histMaxExp  = 41
	histBuckets = histSub + (histMaxExp-histSubBits)*histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(uint64(v)>>uint(exp-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// histBounds returns bucket idx's lower bound and width.
func histBounds(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	exp := idx/histSub + histSubBits - 1
	sub := idx % histSub
	w := int64(1) << uint(exp-histSubBits)
	return float64(int64(histSub+sub) * w), float64(w)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q ≤ 1), linearly interpolated
// inside the bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBounds(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// minTailSamples is how many samples must lie beyond a reported
// percentile (choosing-metrics §1): a p99 needs 1000 samples.
const minTailSamples = 10

// tailQuantile is the value a slice contributes to a tail metric: its
// q-quantile or, when the slice is a little too thin for that, the
// highest percentile that still has minTailSamples beyond it (a second
// of wire-steady holds 1000 ± 30 requests, so about half its slices
// report p98.9x rather than p99.00). A slice whose percentile would fall
// more than 0.2 points short does not qualify.
func tailQuantile(h *hist, q float64) (value float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	reached := min(q, 1-minTailSamples/float64(h.n))
	if reached < q-0.002 {
		return 0, false
	}
	return h.quantile(reached), true
}

// sliceTail is a tail latency of the window: the measured window is cut
// into one-second slices, each contributes its q-quantile (see
// tailQuantile), and the median of those is reported, with how many
// slices qualified. One rule for both loops and for both tails (p90_us
// and p99_us). A machine stall that spoils one second cannot move it;
// anything the program does in at least half the seconds — collections,
// snapshots, lock convoys — does. With no qualifying slice (a -smoke run)
// it is the quantile of the whole window.
func sliceTail(slices []*hist, q float64) (value float64, qualified int) {
	var vals []float64
	for _, s := range slices {
		if v, ok := tailQuantile(s, q); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		var all hist
		for _, s := range slices {
			all.merge(s)
		}
		return all.quantile(q), 0
	}
	return median(vals), len(vals)
}

// median returns the median of vals (mean of the middle two for an even
// count); it sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianInt64 is median over durations in nanoseconds.
func medianInt64(vals []int64) float64 {
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v)
	}
	return median(f)
}
