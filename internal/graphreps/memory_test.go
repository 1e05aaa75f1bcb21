package graphreps

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// Memory budget of the preloaded "Split 4" state: heap bytes and heap
// objects per stored tuple, measured after two forced collections. The
// budgets carry ~10 % headroom over the measured values (amd64,
// go1.24): 540 B and 10.55 objects per tuple. They were 765 B and 16.6
// with a private instance per stateless leaf, container keys held as
// separately allocated slices and a slab slice header in every stripe
// array, and 1 440 B and 28.6 when every node instance carried its own
// stripe array of 112-byte locks. A change that undoes any of those
// layout decisions fails here before any benchmark runs.
const (
	memBudgetBytesPerTuple   = 600
	memBudgetObjectsPerTuple = 11.7
)

// memPreloadSalt and the fill rule mirror the benchmark's graph-single
// preload: every (src, dst) pair is present with probability 2/3, chosen
// by a SplitMix64 stream seeded with seed ^ salt.
const memPreloadSalt = 0x5eed0f5e7

func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

func TestSplit4MemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow allocations; the budget measures the production build")
	}
	if testing.Short() {
		t.Skip("preloads ~44k tuples")
	}
	const keys = 256
	v, err := VariantByName("Split 4")
	if err != nil {
		t.Fatal(err)
	}
	b0, o0 := liveHeap()
	r, err := v.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewRelationGraph(r)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(1) ^ memPreloadSalt
	fill := 2.0 / 3
	limit := uint64(fill * (1 << 32))
	tuples := 0
	for src := int64(0); src < keys; src++ {
		for dst := int64(0); dst < keys; dst++ {
			x := workload.SplitMix64(&state)
			if x&(1<<32-1) < limit && g.InsertEdge(src, dst, int64(x>>40)) {
				tuples++
			}
		}
	}
	b1, o1 := liveHeap()
	runtime.KeepAlive(g)
	bytesPer := float64(int64(b1)-int64(b0)) / float64(tuples)
	objsPer := float64(int64(o1)-int64(o0)) / float64(tuples)
	t.Logf("Split 4, %d tuples: %.0f B and %.2f objects per tuple", tuples, bytesPer, objsPer)
	if bytesPer > memBudgetBytesPerTuple {
		t.Errorf("heap per tuple %.0f B exceeds the budget of %d B", bytesPer, memBudgetBytesPerTuple)
	}
	if objsPer > memBudgetObjectsPerTuple {
		t.Errorf("heap objects per tuple %.2f exceed the budget of %.1f", objsPer, memBudgetObjectsPerTuple)
	}
}
