package workload

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graphreps"
)

// TestAuditAllRepresentations drives every named graph representation —
// the twelve Figure 5 variants, the speculative diamond and the
// optimistic-capable stick — and the social schema (optimistic and
// pessimistic) under the well-lockedness auditor, with concurrent single
// operations, batched composites and read-only batches. Instances carry
// stripe arrays only on the nodes their placement puts a lock on, so the
// run checks two things about that layout: every lock the planner, the
// executor or the auditor touches exists (a lock on an array-less
// instance would be a nil dereference), and every container write bumps
// the epoch of the lock it is made under (the auditor's write rule), even
// when the written instance carries no array of its own.
func TestAuditAllRepresentations(t *testing.T) {
	core.SetAudit(true)
	defer core.SetAudit(false)
	const keys = 8
	vs := append(graphreps.Figure5Variants(), graphreps.SpeculativeDiamond(), graphreps.LockFreeReadStick())
	for _, v := range vs {
		t.Run(v.Name, func(t *testing.T) {
			r, err := v.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, mix := range []Mix{Figure5Mixes()[1], Figure5Mixes()[2]} {
				Run(MustRelationGraph(r), Config{Threads: 2, OpsPerThread: 300, KeySpace: keys, Seed: 5, Mix: mix})
			}
			for _, mix := range []BatchMix{DefaultBatchMix(), ReadHeavyBatchMix()} {
				RunBatched(MustRelationBatchGraph(r), Config{Threads: 2, OpsPerThread: 200, KeySpace: keys, Seed: 6}, mix)
			}
			if _, err := r.VerifyWellFormed(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, build := range map[string]func() (*Social, error){"social": NewSocial, "social pessimistic": NewSocialPessimistic} {
		t.Run(name, func(t *testing.T) {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					for i := 0; i < 400; i++ {
						mix := DefaultSocialMix()
						if i%2 == 1 {
							mix = MixedSocialMix()
						}
						SocialOp(s, &seed, mix, keys)
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			for _, r := range []*core.Relation{s.Users, s.Posts, s.Follows} {
				if _, err := r.VerifyWellFormed(); err != nil {
					t.Fatalf("%s: %v", r.Name(), err)
				}
			}
		})
	}
}
