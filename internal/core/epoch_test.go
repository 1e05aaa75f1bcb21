package core

import (
	"testing"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// Epoch correctness: every mutating commit path must bump exactly the
// epoch cells of the instances it writes (begin-bump before the first
// write, end-bump before release), leave every cell even at quiescence,
// and — critically for the optimistic protocol — advance the cells of
// rolled-back writes too, so a torn read of a doomed transaction's state
// can never validate.

// collectEpochs walks the decomposition instance graph of a quiescent
// relation and snapshots every lock's epoch, keyed by lock ID string.
func collectEpochs(r *Relation) map[string]uint64 {
	out := map[string]uint64{}
	seen := map[*Instance]bool{}
	var walk func(inst *Instance)
	walk = func(inst *Instance) {
		if seen[inst] {
			return
		}
		seen[inst] = true
		for i := 0; inst.locks != nil && i < inst.locks.Len(); i++ {
			l := inst.lock(i)
			out[l.ID().String()] = l.Epoch()
		}
		for _, c := range inst.containers {
			c.Scan(func(_ rel.Key, v any) bool {
				walk(v.(*Instance))
				return true
			})
		}
	}
	walk(r.root)
	return out
}

// lockFreeStick builds a fully concurrency-safe stick relation (every
// container concurrent ⇒ OptimisticCapable) under fine-grained placement.
func lockFreeStick(t *testing.T) *Relation {
	t.Helper()
	return stickRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, locks.FineGrained)
}

// epochDelta asserts how each cell moved between two snapshots: cells in
// wantBumped must have advanced by an even, positive amount; all others
// must be unchanged. Every cell must be even (quiescent).
func epochDelta(t *testing.T, before, after map[string]uint64, wantBumped map[string]bool) {
	t.Helper()
	for id, e := range after {
		if e&1 == 1 {
			t.Errorf("lock %s: epoch %d odd at quiescence", id, e)
		}
		b, existed := before[id]
		if !existed {
			// Instance created by the mutation: fresh cells start at 0 and
			// are never bumped while private.
			if e != 0 {
				t.Errorf("lock %s: fresh instance epoch %d, want 0", id, e)
			}
			continue
		}
		switch {
		case wantBumped[id] && e == b:
			t.Errorf("lock %s: epoch unchanged (%d), want bumped", id, e)
		case !wantBumped[id] && e != b:
			t.Errorf("lock %s: epoch moved %d -> %d, want untouched", id, b, e)
		}
	}
}

func TestEpochBumpExactlyTouchedInstances(t *testing.T) {
	r := lockFreeStick(t)
	mustInsert(t, r, 1, 2, 10)

	// A second edge from the same source writes only u(1)'s container (the
	// root entry for src=1 already exists): u(1)'s cell bumps, the root's
	// does not.
	before := collectEpochs(r)
	mustInsert(t, r, 1, 3, 11)
	after := collectEpochs(r)
	uLock := "node1(1)#0" // u's topological index is 1; instance key (src=1)
	if _, ok := after[uLock]; !ok {
		t.Fatalf("expected lock %s to exist; have %v", uLock, after)
	}
	epochDelta(t, before, after, map[string]bool{uLock: true})

	// An edge from a NEW source writes the root's container (new u
	// instance): the root cell bumps, u(1)'s does not.
	before = after
	mustInsert(t, r, 5, 2, 12)
	after = collectEpochs(r)
	epochDelta(t, before, after, map[string]bool{"node0()#0": true})

	// A failed put-if-absent performs no writes: nothing bumps.
	before = after
	if ok, err := r.Insert(rel.T("src", 1, "dst", 2), rel.T("weight", 99)); err != nil || ok {
		t.Fatalf("duplicate insert: ok=%v err=%v", ok, err)
	}
	epochDelta(t, before, collectEpochs(r), nil)

	// Removing (1,3) kills v/w instances below u(1): u(1)'s container is
	// written (and the dying instances' cells, while held, are bumped on
	// their container writes), the root is untouched. The dead instances
	// vanish from the after-walk, so only surviving cells are compared.
	before = collectEpochs(r)
	if ok, err := r.Remove(rel.T("src", 1, "dst", 3)); err != nil || !ok {
		t.Fatalf("remove: ok=%v err=%v", ok, err)
	}
	epochDelta(t, before, collectEpochs(r), map[string]bool{uLock: true})
}

// TestLockNodesOnly pins the lock layout: instances carry stripe arrays
// exactly on the nodes the placement puts a lock on. On the fine stick
// the leaf w (no out-edge, no rule placed there) carries none; under the
// coarse placement only the root does.
func TestLockNodesOnly(t *testing.T) {
	for _, tc := range []struct {
		place func(*decomp.Decomposition) *locks.Placement
		nodes map[string]bool // lock ID node prefixes expected
	}{
		{locks.FineGrained, map[string]bool{"node0": true, "node1": true, "node2": true}},
		{locks.Coarse, map[string]bool{"node0": true}},
	} {
		r := stickRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, tc.place)
		mustInsert(t, r, 1, 2, 10)
		mustInsert(t, r, 1, 3, 11)
		seen := map[string]bool{}
		for id := range collectEpochs(r) {
			seen[id[:5]] = true
		}
		if len(seen) != len(tc.nodes) {
			t.Errorf("lock-bearing nodes %v, want %v", seen, tc.nodes)
		}
		for n := range seen {
			if !tc.nodes[n] {
				t.Errorf("instances of %s carry locks; want only %v", n, tc.nodes)
			}
		}
	}
}

// TestEpochBumpAtPlacementNode pins where a write's epoch bump lands: on
// the lock the write is made under, not on the written instance. Under
// the coarse placement every edge is placed at the root, so a write to
// u(1)'s container alone — whose instance carries no stripe array — must
// still bump the root's cell, or a lock-free reader that recorded the
// root's epoch would validate across it.
func TestEpochBumpAtPlacementNode(t *testing.T) {
	r := stickRel(t, container.ConcurrentHashMap, container.ConcurrentSkipListMap, locks.Coarse)
	mustInsert(t, r, 1, 2, 10)
	before := collectEpochs(r)
	mustInsert(t, r, 1, 3, 11)
	epochDelta(t, before, collectEpochs(r), map[string]bool{"node0()#0": true})
	before = collectEpochs(r)
	if ok, err := r.Remove(rel.T("src", 1, "dst", 3)); err != nil || !ok {
		t.Fatalf("remove: ok=%v err=%v", ok, err)
	}
	epochDelta(t, before, collectEpochs(r), map[string]bool{"node0()#0": true})
}

func mustInsertTuple(t *testing.T, r *Relation, s, tup rel.Tuple) {
	t.Helper()
	if ok, err := r.Insert(s, tup); err != nil || !ok {
		t.Fatalf("insert %v %v: ok=%v err=%v", s, tup, ok, err)
	}
}

// TestEpochRollbackNoStaleValidation drives a registry batch that panics
// mid-apply, forcing the cross-relation undo log to roll every write
// back, and asserts the rollback protocol the optimistic readers depend
// on: all epochs are even again afterwards, and the cells covering the
// rolled-back writes have ADVANCED — a reader that observed the doomed
// intermediate state and validates after the rollback must fail, even
// though the container contents are back to the pre-batch state.
func TestEpochRollbackNoStaleValidation(t *testing.T) {
	g := NewRegistry()
	build := func(name string) *Relation {
		d, err := decomp.NewBuilder(rel.MustSpec([]string{"k", "v"}, rel.FD{From: []string{"k"}, To: []string{"v"}}), "ρ").
			Edge("ρu", "ρ", "u", []string{"k"}, container.ConcurrentHashMap).
			Edge("uv", "u", "v", []string{"v"}, container.Cell).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := g.Synthesize(name, d.Spec, WithDecomposition(d), WithPlacement(locks.FineGrained(d)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := build("a"), build("b")
	mustInsertTuple(t, a, rel.T("k", 1), rel.T("v", 10))

	beforeA, beforeB := collectEpochs(a), collectEpochs(b)
	registryApplyHook = func(relName string, pos int) {
		if pos == 2 {
			panic("epoch-test: forced mid-apply failure")
		}
	}
	defer func() { registryApplyHook = nil }()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("batch did not panic")
			}
		}()
		g.Batch(func(tx *Txn) error {
			// Member 0 empties u(1), which the batch leaves linked until
			// the end of the apply phase; member 1 writes a's root (k=3
			// links a new u(3), so the batch took a's root exclusively);
			// member 2 panics before executing, rolling both back.
			if _, err := tx.RemoveFrom(a, rel.T("k", 1)); err != nil {
				return err
			}
			if _, err := tx.InsertInto(a, rel.T("k", 3), rel.T("v", 30)); err != nil {
				return err
			}
			_, err := tx.InsertInto(b, rel.T("k", 2), rel.T("v", 20))
			return err
		})
	}()

	// Rollback restored the contents...
	got, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(rel.T("k", 1, "v", 10)) {
		t.Fatalf("rollback did not restore a: %v", got)
	}
	// ...but the written cells moved, and everything is even. a's root
	// entry for k=1 was removed and restored: root cell must have advanced.
	afterA, afterB := collectEpochs(a), collectEpochs(b)
	for id, e := range afterA {
		if e&1 == 1 {
			t.Errorf("a lock %s: odd epoch %d after rollback", id, e)
		}
	}
	for id, e := range afterB {
		if e&1 == 1 {
			t.Errorf("b lock %s: odd epoch %d after rollback", id, e)
		}
	}
	for _, id := range []string{"rel1.node0()#0", "rel1.node1(1)#0"} {
		if afterA[id] == beforeA[id] {
			t.Errorf("a lock %s: epoch unchanged (%d) across rolled-back write — a torn read could validate", id, afterA[id])
		}
	}
	// b's insert never applied (the panic preceded it): b untouched.
	for id, e := range afterB {
		if b, ok := beforeB[id]; ok && e != b {
			t.Errorf("b lock %s: epoch moved %d -> %d with no applied write", id, b, e)
		}
	}
}

// TestEpochSingleRelationPanicRollback is the single-relation analog: a
// Relation.Batch whose apply phase panics (put-if-absent violation forced
// via a poisoned member is not constructible, so use the registry hook's
// sibling — a yield callback that panics after a mutation applied).
func TestEpochSingleRelationPanicRollback(t *testing.T) {
	r := lockFreeStick(t)
	mustInsert(t, r, 1, 2, 10)
	before := collectEpochs(r)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("batch did not panic")
			}
		}()
		r.Batch(func(tx *Txn) error {
			if _, err := tx.Insert(rel.T("src", 1, "dst", 7), rel.T("weight", 70)); err != nil {
				return err
			}
			// The query member runs after the insert applied; panicking in
			// its yield unwinds the batch through the undo log.
			return tx.ExecRows(mustPrepareQuery(t, r, []string{"src"}, []string{"dst"}),
				mustRow(r, map[string]int64{"src": 1}), func(rel.Row) bool {
					panic("epoch-test: forced mid-apply failure")
				})
		})
	}()
	got, err := r.Query(rel.T("src", 1), "dst")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rollback did not restore relation: %v", got)
	}
	after := collectEpochs(r)
	for id, e := range after {
		if e&1 == 1 {
			t.Errorf("lock %s: odd epoch %d after rollback", id, e)
		}
	}
	uLock := "node1(1)#0"
	if after[uLock] == before[uLock] {
		t.Errorf("u(1) epoch unchanged (%d) across rolled-back write", after[uLock])
	}
}

func mustPrepareQuery(t *testing.T, r *Relation, bound, out []string) *PreparedQuery {
	t.Helper()
	q, err := r.PrepareQuery(bound, out)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustRow(r *Relation, vals map[string]int64) rel.Row {
	row := r.Schema().NewRow()
	for c, v := range vals {
		row.Set(r.Schema().MustIndex(c), v)
	}
	return row
}
