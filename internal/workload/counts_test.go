package workload

import (
	"testing"

	"repro/internal/graphreps"
)

// counts is a plain copy of a LockCounts, comparable with ==.
type counts struct {
	requested, acquired, members                 int64
	roBatches, roAcquired, roRetries, roFallback int64
	occBatches, occWriteLocks, occShared         int64
	occReadSet, occRetries, occFallbacks         int64
	escalations                                  int64
}

func snapshot(c *LockCounts) counts {
	return counts{
		requested: c.Requested.Load(), acquired: c.Acquired.Load(), members: c.Members.Load(),
		roBatches: c.ReadOnlyBatches.Load(), roAcquired: c.ReadOnlyAcquired.Load(),
		roRetries: c.ValidationRetries.Load(), roFallback: c.Fallbacks.Load(),
		occBatches: c.OCCBatches.Load(), occWriteLocks: c.OCCWriteLocks.Load(),
		occShared: c.OCCSharedLocks.Load(), occReadSet: c.OCCReadSet.Load(),
		occRetries: c.OCCRetries.Load(), occFallbacks: c.OCCFallbacks.Load(),
		escalations: c.RootEscalations.Load(),
	}
}

// TestDeterministicLockCounts pins the lock schedule of every execution
// discipline exactly: single-threaded counting passes at seed 1 over the
// social registry (batched = one Registry.Batch per composite, sequential
// = one batch per relational operation), the optimistic read-heavy mixes,
// and the composite graph mix on three Figure 5 representations. One
// thread means no contention, so every count is a pure function of the
// seed and the compiled plans — identical on every machine.
//
// Beyond the exact numbers it asserts the structural rules: a batch never
// out-locks its sequential decomposition, and an uncontended pass never
// sees a read-only lock, a validation retry, a fallback or an OCC shared
// lock. Root escalations are none of those: the social roots are
// demotable, so every new author, user or src and every sequential
// remove that empties a user escalates its root once, and the graph
// representations, whose roots are coarse, striped or speculative, never
// do. A failing count means the scheduler changed; the change that moves
// one updates the constant and says why.
func TestDeterministicLockCounts(t *testing.T) {
	type pass struct {
		name string
		run  func() counts
		want counts
	}
	social := func(grouped bool, mix SocialMix) func() counts {
		return func() counts {
			s := MustSocial()
			s.Grouped = grouped
			s.Counts = &LockCounts{}
			RunSocial(s, Config{Threads: 1, OpsPerThread: 3000, KeySpace: 64, Seed: 1}, mix)
			return snapshot(s.Counts)
		}
	}
	graph := func(variant string, mix BatchMix, ops int, keyspace int64, grouped bool) func() counts {
		return func() counts {
			v, err := graphreps.VariantByName(variant)
			if err != nil {
				t.Fatal(err)
			}
			r, err := v.Build()
			if err != nil {
				t.Fatal(err)
			}
			c := &LockCounts{}
			var g BatchGraphOps
			if grouped {
				bg := MustRelationBatchGraph(r)
				bg.Counts = c
				g = bg
			} else {
				sg, err := NewSequentialRelationBatchGraph(r)
				if err != nil {
					t.Fatal(err)
				}
				sg.Counts = c
				g = sg
			}
			RunBatched(g, Config{Threads: 1, OpsPerThread: ops, KeySpace: keyspace, Seed: 1}, mix)
			return snapshot(c)
		}
	}
	passes := []pass{
		{"registry/batched", social(true, DefaultSocialMix()),
			counts{requested: 5637, acquired: 3979, roBatches: 1181, occBatches: 590, occWriteLocks: 632, occReadSet: 1659, escalations: 194}},
		{"registry/sequential", social(false, DefaultSocialMix()),
			counts{requested: 5366, acquired: 5366, roBatches: 4133, escalations: 1788}},
		{"mixed/batched", social(true, MixedSocialMix()),
			counts{requested: 4508, acquired: 3710, roBatches: 597, occBatches: 1787, occWriteLocks: 2112, occReadSet: 4972, escalations: 192}},
		{"mixed/sequential", social(false, MixedSocialMix()),
			counts{requested: 5864, acquired: 5864, roBatches: 3578, escalations: 926}},
		{"optimistic/social", social(true, ReadHeavySocialMix()),
			counts{requested: 352, acquired: 246, roBatches: 2852, occBatches: 34, occWriteLocks: 34, occReadSet: 62, escalations: 117}},
		{"optimistic/Stick LF", graph("Stick LF", ReadHeavyBatchMix(), 3000, 64, true),
			counts{requested: 495, acquired: 254, members: 6925, roBatches: 2230}},
		{"batch/Stick 1/batched", graph("Stick 1", DefaultBatchMix(), 5000, 512, true),
			counts{requested: 16461, acquired: 4531, members: 12168}},
		{"batch/Split 4/batched", graph("Split 4", DefaultBatchMix(), 5000, 512, true),
			counts{requested: 23988, acquired: 21436, members: 12168}},
		{"batch/Diamond Spec/batched", graph("Diamond Spec", DefaultBatchMix(), 5000, 512, true),
			counts{requested: 41061, acquired: 21421, members: 12168}},
		{"batch/Stick 1/sequential", graph("Stick 1", DefaultBatchMix(), 5000, 512, false),
			counts{members: 12168}},
		{"batch/Split 4/sequential", graph("Split 4", DefaultBatchMix(), 5000, 512, false),
			counts{members: 12168}},
		{"batch/Diamond Spec/sequential", graph("Diamond Spec", DefaultBatchMix(), 5000, 512, false),
			counts{members: 12168}},
	}
	got := map[string]counts{}
	for _, p := range passes {
		t.Run(p.name, func(t *testing.T) {
			c := p.run()
			got[p.name] = c
			if c != p.want {
				t.Errorf("counts\n got %+v\nwant %+v", c, p.want)
			}
			if c.roAcquired != 0 || c.roRetries != 0 || c.roFallback != 0 {
				t.Errorf("read-only batches took %d locks, %d retries, %d fallbacks; want 0",
					c.roAcquired, c.roRetries, c.roFallback)
			}
			if c.occShared != 0 || c.occRetries != 0 || c.occFallbacks != 0 {
				t.Errorf("OCC batches took %d shared locks, %d retries, %d fallbacks; want 0",
					c.occShared, c.occRetries, c.occFallbacks)
			}
		})
	}
	for _, name := range []string{"registry", "mixed"} {
		b, s := got[name+"/batched"], got[name+"/sequential"]
		if b.acquired >= s.acquired {
			t.Errorf("%s: batched acquired %d locks, sequential %d; coalescing must win", name, b.acquired, s.acquired)
		}
	}
}
