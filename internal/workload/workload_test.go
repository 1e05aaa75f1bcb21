package workload

import (
	"sync"
	"testing"

	"repro/internal/graphreps"
)

// fakeGraph counts operations, for harness accounting tests.
type fakeGraph struct {
	mu                         sync.Mutex
	succ, pred, insert, remove int
}

func (f *fakeGraph) FindSuccessors(int64) int {
	f.mu.Lock()
	f.succ++
	f.mu.Unlock()
	return 1
}
func (f *fakeGraph) FindPredecessors(int64) int {
	f.mu.Lock()
	f.pred++
	f.mu.Unlock()
	return 1
}
func (f *fakeGraph) InsertEdge(int64, int64, int64) bool {
	f.mu.Lock()
	f.insert++
	f.mu.Unlock()
	return true
}
func (f *fakeGraph) RemoveEdge(int64, int64) bool {
	f.mu.Lock()
	f.remove++
	f.mu.Unlock()
	return true
}

func TestMixString(t *testing.T) {
	m := Mix{Successors: 70, Predecessors: 0, Inserts: 20, Removes: 10}
	if m.String() != "70-0-20-10" {
		t.Fatalf("Mix.String = %s", m.String())
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("70-0-20-10")
	if err != nil {
		t.Fatal(err)
	}
	want := Mix{Successors: 70, Predecessors: 0, Inserts: 20, Removes: 10}
	if m != want {
		t.Fatalf("ParseMix = %+v", m)
	}
	for _, bad := range []string{"70-0-20", "70-0-20-11", "a-b-c-d", "70-0-20-10-0", "-10-50-40-20"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
}

func TestFigure5Mixes(t *testing.T) {
	mixes := Figure5Mixes()
	if len(mixes) != 4 {
		t.Fatalf("want 4 mixes, got %d", len(mixes))
	}
	want := []string{"70-0-20-10", "35-35-20-10", "0-0-50-50", "45-45-9-1"}
	for i, m := range mixes {
		if m.String() != want[i] {
			t.Errorf("mix %d = %s, want %s", i, m, want[i])
		}
		if !m.valid() {
			t.Errorf("mix %s does not sum to 100", m)
		}
	}
}

func TestRunAccounting(t *testing.T) {
	f := &fakeGraph{}
	cfg := Config{Threads: 3, OpsPerThread: 1000, KeySpace: 64, Seed: 7,
		Mix: Mix{Successors: 70, Predecessors: 0, Inserts: 20, Removes: 10}}
	res := Run(f, cfg)
	total := f.succ + f.pred + f.insert + f.remove
	if total != 3000 || res.Ops != 3000 {
		t.Fatalf("executed %d ops, result says %d, want 3000", total, res.Ops)
	}
	if f.pred != 0 {
		t.Fatalf("mix has 0%% predecessors but %d ran", f.pred)
	}
	// Roughly proportional: successors ≈ 70%.
	if f.succ < 1800 || f.succ > 2400 {
		t.Fatalf("successors = %d, expected ≈ 2100", f.succ)
	}
	if res.Throughput <= 0 || res.Checksum == 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestRunDeterministicChecksumSingleThread(t *testing.T) {
	// One thread ⇒ a fixed seed must give identical op streams.
	mk := func() Result {
		v, err := graphreps.VariantByName("Stick 3")
		if err != nil {
			t.Fatal(err)
		}
		r, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		return Run(MustRelationGraph(r), Config{
			Threads: 1, OpsPerThread: 3000, KeySpace: 32, Seed: 42,
			Mix: Mix{Successors: 50, Predecessors: 25, Inserts: 15, Removes: 10}})
	}
	a, b := mk(), mk()
	if a.Checksum != b.Checksum {
		t.Fatalf("single-thread runs not reproducible: %d vs %d", a.Checksum, b.Checksum)
	}
}

func TestRunOnRealVariantsParallel(t *testing.T) {
	for _, name := range []string{"Stick 1", "Split 3", "Diamond 1"} {
		t.Run(name, func(t *testing.T) {
			v, err := graphreps.VariantByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := v.Build()
			if err != nil {
				t.Fatal(err)
			}
			res := Run(MustRelationGraph(r), Config{
				Threads: 4, OpsPerThread: 500, KeySpace: 16, Seed: 3,
				Mix: Figure5Mixes()[1]})
			if res.Ops != 2000 || res.Throughput <= 0 {
				t.Fatalf("bad result %+v", res)
			}
			// The relation must still be structurally sound afterwards.
			if _, err := r.VerifyWellFormed(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSeries(t *testing.T) {
	v, err := graphreps.VariantByName("Stick 2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{OpsPerThread: 200, KeySpace: 16, Seed: 1, Mix: Figure5Mixes()[0]}
	results := Series(func() GraphOps {
		r, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		return MustRelationGraph(r)
	}, cfg, []int{1, 2, 4})
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %d", len(results))
	}
	for i, k := range []int{1, 2, 4} {
		if results[i].Ops != k*200 {
			t.Fatalf("series %d ops = %d", i, results[i].Ops)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Threads: 0, OpsPerThread: 1, KeySpace: 1, Mix: Figure5Mixes()[0]},
		{Threads: 1, OpsPerThread: 1, KeySpace: 1, Mix: Mix{Successors: 50}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			Run(&fakeGraph{}, cfg)
		}()
	}
}
