package workload

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// Memory budget of a preloaded social registry: heap bytes and heap
// objects per stored tuple (users + posts + follows), measured after two
// forced collections. The preload is the social-batch benchmark's: 20 000
// composite operations of the default mix over 4 096 users, one
// goroutine, from a fixed seed. The budgets carry ~5 % headroom over the
// measured values (amd64, go1.24): 480 B and 6.87 objects per tuple of
// 13 201. They were 732 B and 8.50 while every skip-list node took the
// 256-byte class with 24 forward pointers, every list allocated a head
// and a tail sentinel of that size, and every insert a value box apart.
const (
	socialBudgetBytesPerTuple   = 505
	socialBudgetObjectsPerTuple = 7.2
)

// socialPreloadSeed mirrors the benchmark's preload stream: seed 1 mixed
// with its preload salt.
const socialPreloadSeed = 1 ^ 0x5eed0f5e7

func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

func TestSocialMemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow allocations; the budget measures the production build")
	}
	if testing.Short() {
		t.Skip("preloads 20 000 composite operations")
	}
	const ops, keys = 20_000, 4096
	b0, o0 := liveHeap()
	s := MustSocial()
	state := uint64(socialPreloadSeed)
	for i := 0; i < ops; i++ {
		SocialOp(s, &state, DefaultSocialMix(), keys)
	}
	b1, o1 := liveHeap()
	tuples := 0
	for _, r := range []*core.Relation{s.Users, s.Posts, s.Follows} {
		rows, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		tuples += len(rows)
	}
	runtime.KeepAlive(s)
	bytesPer := float64(int64(b1)-int64(b0)) / float64(tuples)
	objsPer := float64(int64(o1)-int64(o0)) / float64(tuples)
	t.Logf("social registry, %d tuples: %.0f B and %.2f objects per tuple", tuples, bytesPer, objsPer)
	if bytesPer > socialBudgetBytesPerTuple {
		t.Errorf("heap per tuple %.0f B exceeds the budget of %d B", bytesPer, socialBudgetBytesPerTuple)
	}
	if objsPer > socialBudgetObjectsPerTuple {
		t.Errorf("heap objects per tuple %.2f exceed the budget of %.1f", objsPer, socialBudgetObjectsPerTuple)
	}
}
