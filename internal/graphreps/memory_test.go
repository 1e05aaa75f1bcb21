package graphreps

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// Memory budget of the preloaded "Split 4" state: heap bytes and heap
// objects per stored tuple, measured after two forced collections, for
// keys from 0 and for keys offset past 255 (whose boxed values the runtime
// does not share). The budgets carry ~10 % headroom over the larger
// measured values (amd64, go1.24): 481 B and 8.67 objects per tuple from
// 0, 497 B and 9.67 offset. They were 545 B and 10.68 (561 B and 11.68
// offset) while every stripe array allocated its identity prefix string,
// 765 B and 16.6 with a private instance per stateless leaf, container
// keys held as separately allocated slices and a slab slice header in
// every stripe array, and 1 440 B and 28.6 when every node instance
// carried its own stripe array of 112-byte locks. A change that undoes
// any of those layout decisions fails here before any benchmark runs.
const (
	memBudgetBytesPerTuple   = 550
	memBudgetObjectsPerTuple = 10.7
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
		t.Skip("preloads ~44k tuples twice")
	}
	// Keys from 0 box into values the runtime shares; keys offset past
	// 255 box once per stored value, and must fit the same budget.
	for _, offset := range []int64{0, 1000} {
		bytesPer, objsPer := split4Preload(t, offset)
		t.Logf("Split 4, keys from %d: %.0f B and %.2f objects per tuple", offset, bytesPer, objsPer)
		if bytesPer > memBudgetBytesPerTuple {
			t.Errorf("keys from %d: heap per tuple %.0f B exceeds the budget of %d B", offset, bytesPer, memBudgetBytesPerTuple)
		}
		if objsPer > memBudgetObjectsPerTuple {
			t.Errorf("keys from %d: heap objects per tuple %.2f exceed the budget of %.1f", offset, objsPer, memBudgetObjectsPerTuple)
		}
	}
}

// split4Preload fills a fresh Split 4 relation the way the benchmark's
// graph-single preload does, over src and dst in [offset, offset+256),
// and returns the live heap bytes and objects it added per stored tuple.
func split4Preload(t *testing.T, offset int64) (bytesPer, objsPer float64) {
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
	for src := offset; src < offset+keys; src++ {
		for dst := offset; dst < offset+keys; dst++ {
			x := workload.SplitMix64(&state)
			if x&(1<<32-1) < limit && g.InsertEdge(src, dst, int64(x>>40)) {
				tuples++
			}
		}
	}
	b1, o1 := liveHeap()
	runtime.KeepAlive(g)
	return float64(int64(b1)-int64(b0)) / float64(tuples), float64(int64(o1)-int64(o0)) / float64(tuples)
}
