package workload

import (
	"math"
	"testing"
	"time"
)

// TestPoissonDeterministic pins that a Poisson generator is a pure
// function of its seed: same seed → identical gap sequence, different
// seed → a different one.
func TestPoissonDeterministic(t *testing.T) {
	const n = 1000
	a := NewPoissonArrivals(42, time.Millisecond)
	b := NewPoissonArrivals(42, time.Millisecond)
	c := NewPoissonArrivals(43, time.Millisecond)
	same, diff := true, false
	for i := 0; i < n; i++ {
		ga, gb, gc := a.Next(), b.Next(), c.Next()
		if ga != gb {
			same = false
		}
		if ga != gc {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different gap sequences")
	}
	if !diff {
		t.Fatal("different seeds produced identical gap sequences")
	}
}

// TestPoissonDistribution sanity-checks the exponential shape under a
// fixed seed: positive gaps, sample mean near the configured mean, and
// roughly 1-1/e of gaps below the mean (exponential CDF at the mean).
func TestPoissonDistribution(t *testing.T) {
	const n = 200_000
	mean := time.Millisecond
	g := NewPoissonArrivals(7, mean)
	var sum time.Duration
	below := 0
	for i := 0; i < n; i++ {
		gap := g.Next()
		if gap < 0 {
			t.Fatalf("draw %d: negative gap %v", i, gap)
		}
		sum += gap
		if gap < mean {
			below++
		}
	}
	sampleMean := float64(sum) / n
	if ratio := sampleMean / float64(mean); ratio < 0.98 || ratio > 1.02 {
		t.Fatalf("sample mean %.0fns is %.3f of configured mean %v", sampleMean, ratio, mean)
	}
	want := 1 - 1/math.E
	if got := float64(below) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("fraction of gaps below the mean = %.4f, want ≈ %.4f", got, want)
	}
}

// TestArrivalValidation pins constructor panics on nonsense parameters.
func TestArrivalValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"poisson zero mean", func() { NewPoissonArrivals(1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}
