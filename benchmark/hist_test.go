package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestHistQuantileInterpolates(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %.1f, want %.1f within 2 %%", q, got, want)
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestHistBucketsCoverTheirValues(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123_456, 1 << 30, 1 << 45} {
		lo, w := histBounds(histIndex(v))
		if v < 1<<histMaxExp && (float64(v) < lo || float64(v) >= lo+w) {
			t.Errorf("value %d filed under [%v, %v)", v, lo, lo+w)
		}
		if w > 1 && w/lo > 1.0/histSub+1e-9 {
			t.Errorf("bucket of %d is %.2f %% wide", v, 100*w/lo)
		}
	}
}

// synthSlices builds n slices of perSlice samples: 98.5 % at 100 µs, 1.5 %
// at 900 µs, so every slice's p99 is about 900 µs and its median 100 µs.
func synthSlices(n, perSlice int) []*hist {
	slices := make([]*hist, n)
	for i := range slices {
		slices[i] = &hist{}
		for k := 0; k < perSlice; k++ {
			v := int64(100_000)
			if k%200 < 3 {
				v = 900_000
			}
			slices[i].add(v)
		}
	}
	return slices
}

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol*want }

func TestSliceTailIsTheMedianOfTheSlices(t *testing.T) {
	slices := synthSlices(10, 4000)
	// One machine stall spoils one second: a quarter of the work, at five
	// times the latency. The median of the slices does not move.
	slices[3] = &hist{}
	for k := 0; k < 1000; k++ {
		slices[3].add(500_000 + int64(k%50)*100_000)
	}
	got, qualified := sliceTail(slices, 0.99)
	if !near(got, 900_000, 0.03) || qualified != 10 {
		t.Errorf("tail = %.0f ns from %d slices, want 900000 from 10", got, qualified)
	}
	// What the program does in most seconds does move it, even when a few
	// seconds escape: a stall of 4 ms for 2 % of the operations in six of
	// the ten seconds (a collection, a snapshot).
	for _, i := range []int{0, 1, 4, 5, 7, 8} {
		for k := 0; k < 80; k++ {
			slices[i].add(4_000_000)
		}
	}
	if got, _ := sliceTail(slices, 0.99); got < 3_000_000 {
		t.Errorf("tail = %.0f ns: stalls in six seconds of ten must show", got)
	}
}

func TestMeasurementKeepsTheLatencyOfWhatMissedTheLimit(t *testing.T) {
	const slo = 20 * time.Millisecond
	m := newMeasurement(2)
	for i := 0; i < 980; i++ {
		m.record(0, time.Millisecond, kindRequest, nil, slo)
	}
	for i := 0; i < 10; i++ {
		m.record(0, 35*time.Millisecond, kindRequest, nil, slo) // answered, late
	}
	for i := 0; i < 5; i++ {
		m.record(0, 2*time.Millisecond, kindRequest, errors.New("refused"), slo) // failed fast
	}
	for i := 0; i < 5; i++ {
		m.drop(0, 150*time.Millisecond, slo) // never sent, 150 ms behind schedule
	}
	if m.attempted != 1000 || m.missed() != 20 || m.failed() != 10 {
		t.Errorf("attempted %d missed %d failed %d, want 1000 20 10", m.attempted, m.missed(), m.failed())
	}
	if n := m.slices[0].n; n != 1000 {
		t.Errorf("%d latency samples, want all 1000: a miss must stay in the distribution", n)
	}
	// 2 % of the samples lie at or beyond the limit, so the p99 does too.
	if p99 := m.slices[0].quantile(0.99); p99 < float64(slo) {
		t.Errorf("p99 = %.0f ns, below the %v limit that 2 %% of the operations missed", p99, slo)
	}
	if n := m.kind(kindRequest).n; n != 980 {
		t.Errorf("%d successes by kind, want 980", n)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	// 972 samples, values 1..972 µs: p99 would leave 9.7 beyond it, so
	// the slice reports the highest percentile with ten beyond: the
	// 962nd value.
	var h hist
	for v := int64(1); v <= 972; v++ {
		h.add(v * 1000)
	}
	got, ok := tailQuantile(&h, 0.99)
	if !ok || !near(got, 962_000, 0.01) {
		t.Errorf("tailQuantile = %.0f, %v; want about 962000, true", got, ok)
	}
	// Plenty of samples: the plain p99.
	for v := int64(973); v <= 5000; v++ {
		h.add(v * 1000)
	}
	if got, ok := tailQuantile(&h, 0.99); !ok || !near(got, 4_950_000, 0.01) {
		t.Errorf("tailQuantile = %.0f, %v; want about 4950000, true", got, ok)
	}
	// Far too few: the slice does not qualify, and with no qualifying
	// slice the whole window's p99 is the fallback.
	thin := synthSlices(10, 200)
	if _, ok := tailQuantile(thin[0], 0.99); ok {
		t.Error("a 200-sample slice qualified for a p99")
	}
	if _, qualified := sliceTail(thin, 0.99); qualified != 0 {
		t.Errorf("qualified = %d, want the whole-window fallback", qualified)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{100, 104}); math.Abs(got-4.0/102) > 1e-12 {
		t.Errorf("spread of two sets = %v, want range over median", got)
	}
}
