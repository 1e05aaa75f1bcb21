package core

import (
	"testing"

	"repro/internal/container"
	"repro/internal/locks"
	"repro/internal/rel"
)

// harvestDelta is the slice of the counter surface one batch moves.
type harvestDelta struct {
	Batches, LocksAcquired, ReadOnlyOptimistic uint64
	OCCCommits, OCCRetries, OCCFallbacks       uint64
	Reads, Writes                              uint64
}

func relationDelta(before, after RelationCounters) harvestDelta {
	return harvestDelta{
		Batches:            after.Batches - before.Batches,
		LocksAcquired:      after.LocksAcquired - before.LocksAcquired,
		ReadOnlyOptimistic: after.ReadOnlyOptimistic - before.ReadOnlyOptimistic,
		OCCCommits:         after.OCCCommits - before.OCCCommits,
		OCCRetries:         after.OCCRetries - before.OCCRetries,
		OCCFallbacks:       after.OCCFallbacks - before.OCCFallbacks,
		Reads:              after.Reads - before.Reads,
		Writes:             after.Writes - before.Writes,
	}
}

// registryDelta is the aggregate's delta; Reads and Writes, which exist
// only per relation, are summed over the breakdown.
func registryDelta(before, after Counters) harvestDelta {
	d := harvestDelta{
		Batches:            after.Batches - before.Batches,
		LocksAcquired:      after.LocksAcquired - before.LocksAcquired,
		ReadOnlyOptimistic: after.ReadOnlyOptimistic - before.ReadOnlyOptimistic,
		OCCCommits:         after.OCCCommits - before.OCCCommits,
		OCCRetries:         after.OCCRetries - before.OCCRetries,
		OCCFallbacks:       after.OCCFallbacks - before.OCCFallbacks,
	}
	for i := range after.Relations {
		d.Reads += after.Relations[i].Reads - before.Relations[i].Reads
		d.Writes += after.Relations[i].Writes - before.Relations[i].Writes
	}
	return d
}

// TestHarvestCountsEveryCommitPath pins counter attribution on every
// commit path, for a Relation.Batch and for a one-relation
// Registry.Batch over the same registry layout. The batch-level cells
// (batches, locks, path totals) land on the relation for Relation.Batch
// and on the registry for Registry.Batch; member reads and writes land on
// the relation either way; the registry aggregate moves identically in
// both modes. The conflicting inserts the validate hook commits are
// standalone writes, so they show in Writes.
func TestHarvestCountsEveryCommitPath(t *testing.T) {
	for _, viaRegistry := range []bool{false, true} {
		name := "Relation.Batch"
		if viaRegistry {
			name = "Registry.Batch"
		}
		t.Run(name, func(t *testing.T) {
			g := NewRegistry()
			dc := edgesDecomp(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap)
			pc := locks.NewPlacement(dc)
			pc.SetStripes(dc.Root, 16)
			for _, e := range dc.Edges {
				if e.Src == dc.Root {
					pc.Place(e, dc.Root, e.Cols...)
				}
			}
			edges, err := g.Synthesize("edges", dc.Spec, WithDecomposition(dc), WithPlacement(pc))
			if err != nil {
				t.Fatal(err)
			}
			dt := edgesDecomp(t, container.HashMap, container.TreeMap)
			tree, err := g.Synthesize("tree", dt.Spec, WithDecomposition(dt), WithPlacement(locks.FineGrained(dt)))
			if err != nil {
				t.Fatal(err)
			}
			readSrc := pickDisjointKey(t, edges, 16)
			writeSrc := pickDisjointKey(t, edges, 16, readSrc)
			mustInsert(t, edges, int(readSrc), 1, 1)
			mustInsert(t, tree, 1, 1, 1)
			next := 100
			conflict := func() { // a standalone write into the batch's read set
				mustInsert(t, edges, int(readSrc), next, next)
				next++
			}

			cases := []struct {
				name string
				r    *Relation
				hook func(attempt int)
				fn   func(tx *Txn) error
				want harvestDelta
			}{
				{
					name: "read-only",
					r:    edges,
					fn:   countIn(edges, readSrc),
					want: harvestDelta{Batches: 1, ReadOnlyOptimistic: 1, Reads: 1},
				},
				{
					name: "read-only fallback",
					r:    edges,
					hook: func(int) { conflict() },
					fn:   countIn(edges, readSrc),
					want: harvestDelta{Batches: 1, LocksAcquired: 2, Reads: 1, Writes: 3},
				},
				{
					name: "occ",
					r:    edges,
					fn:   insertCount(edges, writeSrc, 1, readSrc),
					want: harvestDelta{Batches: 1, LocksAcquired: 1, OCCCommits: 1, Reads: 1, Writes: 1},
				},
				{
					name: "occ retry",
					r:    edges,
					hook: func(attempt int) {
						if attempt == 0 {
							conflict()
						}
					},
					fn:   insertCount(edges, writeSrc, 2, readSrc),
					want: harvestDelta{Batches: 1, LocksAcquired: 2, OCCCommits: 1, OCCRetries: 1, Reads: 1, Writes: 2},
				},
				{
					name: "occ fallback",
					r:    edges,
					hook: func(int) { conflict() },
					fn:   insertCount(edges, writeSrc, 3, readSrc),
					want: harvestDelta{Batches: 1, LocksAcquired: 4, OCCRetries: 2, OCCFallbacks: 1, Reads: 1, Writes: 4},
				},
				{
					name: "2pl",
					r:    tree,
					fn:   insertCount(tree, 2, 2, 1),
					want: harvestDelta{Batches: 1, LocksAcquired: 2, Reads: 1, Writes: 1},
				},
			}
			for _, c := range cases {
				rb, gb := c.r.Harvest(), g.Harvest()
				optimisticValidateHook = c.hook
				if viaRegistry {
					err = g.Batch(c.fn)
				} else {
					err = c.r.Batch(c.fn)
				}
				optimisticValidateHook = nil
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				wantRel := c.want
				if viaRegistry {
					// Registry.Batch owns the batch-level cells.
					wantRel = harvestDelta{Reads: c.want.Reads, Writes: c.want.Writes}
				}
				if got := relationDelta(rb, c.r.Harvest()); got != wantRel {
					t.Errorf("%s: relation delta %+v, want %+v", c.name, got, wantRel)
				}
				if got := registryDelta(gb, g.Harvest()); got != c.want {
					t.Errorf("%s: registry delta %+v, want %+v", c.name, got, c.want)
				}
			}
		})
	}
}

// countIn is a batch body counting r's edges out of src.
func countIn(r *Relation, src int64) func(tx *Txn) error {
	return func(tx *Txn) error {
		_, err := tx.CountIn(r, rel.T("src", src))
		return err
	}
}

// insertCount is a mixed batch body: insert (src, dst, dst) into r, then
// count r's edges out of readSrc.
func insertCount(r *Relation, src int64, dst int, readSrc int64) func(tx *Txn) error {
	return func(tx *Txn) error {
		if _, err := tx.InsertInto(r, rel.T("src", src, "dst", dst), rel.T("weight", dst)); err != nil {
			return err
		}
		_, err := tx.CountIn(r, rel.T("src", readSrc))
		return err
	}
}
