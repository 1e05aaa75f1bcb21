package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/linearize"
	"repro/internal/rel"
)

// recordHistory runs `clients` goroutines, each issuing `opsPerClient`
// random operations on r over a tiny key space (to force conflicts), and
// returns the timestamped history. Three values per column let keys both
// share and split the stripes of a striped placement, so same-stripe and
// cross-stripe remove/insert interleavings both occur.
func recordHistory(t *testing.T, r *Relation, clients, opsPerClient int, seed int64) []linearize.Operation {
	t.Helper()
	base := time.Now()
	var mu sync.Mutex
	var history []linearize.Operation
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for i := 0; i < opsPerClient; i++ {
				src, dst := rng.Intn(3), rng.Intn(3)
				var op linearize.Operation
				start := time.Since(base).Nanoseconds()
				switch rng.Intn(4) {
				case 0:
					s, tt := rel.T("src", src, "dst", dst), rel.T("weight", rng.Intn(3))
					ok, err := r.Insert(s, tt)
					if err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					op = linearize.Operation{Client: c, Kind: "insert", Args: []any{s, tt}, Ret: ok}
				case 1:
					s := rel.T("src", src, "dst", dst)
					ok, err := r.Remove(s)
					if err != nil {
						t.Errorf("remove: %v", err)
						return
					}
					op = linearize.Operation{Client: c, Kind: "remove", Args: []any{s}, Ret: ok}
				case 2:
					s := rel.T("src", src)
					out := []string{"dst", "weight"}
					res, err := r.Query(s, out...)
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					op = linearize.Operation{Client: c, Kind: "query", Args: []any{s, out}, Ret: res}
				default:
					s := rel.T("dst", dst)
					out := []string{"src", "weight"}
					res, err := r.Query(s, out...)
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					op = linearize.Operation{Client: c, Kind: "query", Args: []any{s, out}, Ret: res}
				}
				op.Start = start
				op.End = time.Since(base).Nanoseconds()
				mu.Lock()
				history = append(history, op)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return history
}

// TestLinearizabilityOfSynthesizedRelations model-checks real concurrent
// histories from every representation variant against the sequential
// specification of §2 — the paper's central correctness claim.
func TestLinearizabilityOfSynthesizedRelations(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 5
	}
	forEachVariant(t, func(t *testing.T, r *Relation) {
		for round := 0; round < rounds; round++ {
			// Fresh relation per round so histories stay small enough for
			// exhaustive checking.
			h := recordHistory(t, r, 3, 3, int64(round*1000))
			if !linearize.Check(linearize.RelationModel(), h) {
				t.Fatalf("round %d: history not linearizable:\n%v", round, h)
			}
			// Reset the relation for the next round.
			snap, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range snap {
				if _, err := r.Remove(tu.Project([]string{"src", "dst"})); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
