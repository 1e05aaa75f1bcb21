package core

import (
	"testing"
	"unsafe"

	"repro/internal/container"
	"repro/internal/decomp"
	"repro/internal/locks"
	"repro/internal/rel"
)

// reachable returns, per node name, the distinct instances reachable from
// the root.
func reachable(r *Relation) map[string]map[*Instance]bool {
	out := map[string]map[*Instance]bool{}
	var walk func(inst *Instance)
	walk = func(inst *Instance) {
		seen := out[inst.node.Name]
		if seen == nil {
			seen = map[*Instance]bool{}
			out[inst.node.Name] = seen
		}
		if seen[inst] {
			return
		}
		seen[inst] = true
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

// TestLockedInstanceSize pins the co-allocated shape of a lock-bearing
// one-out-edge node instance — Split 4's w and y, one each per stored
// edge — to the 128-byte size class: the instance, its inline container
// slot and its one-stripe lock array with the 16-byte identity header.
func TestLockedInstanceSize(t *testing.T) {
	if n := unsafe.Sizeof(lockedInstance1{}); n > 128 {
		t.Fatalf("lockedInstance1 is %d bytes, want ≤ 128", n)
	}
}

// TestLockIdentityCounts pins the census crsexplain prints: on Split 4,
// every lock-bearing instance whose bound columns hold small integers
// keeps an exact order-word identity, and an edge with a string source
// makes the u, w and y instances it creates inexact, but not v's.
func TestLockIdentityCounts(t *testing.T) {
	r := splitRel(t, container.ConcurrentHashMap, container.TreeMap, split4Placement)
	for _, e := range []rel.Tuple{rel.T("src", 1, "dst", 2), rel.T("src", 1, "dst", 3), rel.T("src", "a", "dst", 2)} {
		if _, err := r.Insert(e, rel.T("weight", 0)); err != nil {
			t.Fatal(err)
		}
	}
	exact, total := r.LockIdentityCounts()
	want := map[string][2]int{"ρ": {1, 1}, "u": {1, 2}, "v": {2, 2}, "w": {2, 3}, "x": {0, 0}, "y": {2, 3}, "z": {0, 0}}
	for _, n := range r.decomp.Nodes {
		if got := [2]int{exact[n.Index], total[n.Index]}; got != want[n.Name] {
			t.Errorf("node %s: %d of %d identities exact, want %d of %d", n.Name, got[0], got[1], want[n.Name][0], want[n.Name][1])
		}
	}
}

// TestStatelessLeafShared pins the shared-leaf layout: the instances of a
// node with no out-edge and no lock are one object for every valuation,
// and a node the placement locks never shares an instance.
func TestStatelessLeafShared(t *testing.T) {
	split4 := splitRel(t, container.ConcurrentHashMap, container.TreeMap, func(d *decomp.Decomposition) *locks.Placement {
		p := locks.NewPlacement(d)
		p.SetStripes(d.Root, 1024)
		for _, e := range d.Root.Out {
			p.Place(e, d.Root, e.Cols...)
		}
		return p
	})
	for _, tc := range []struct {
		name   string
		r      *Relation
		leaves []string
	}{
		{"Split 4", split4, []string{"x", "z"}},
		{"Diamond Spec", diamondRel(t, true), []string{"w"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r
			// Two tuples that differ in every column: every non-root node
			// has two valuations.
			for _, x := range []rel.Tuple{rel.T("src", 1, "dst", 2, "weight", 3), rel.T("src", 4, "dst", 5, "weight", 6)} {
				if ok, err := r.Insert(x.Project([]string{"src", "dst"}), x.Project([]string{"weight"})); err != nil || !ok {
					t.Fatalf("insert %v: %v %v", x, ok, err)
				}
			}
			reach := reachable(r)
			isLeaf := map[string]bool{}
			for _, name := range tc.leaves {
				isLeaf[name] = true
			}
			for _, n := range r.decomp.Nodes {
				shared := r.leaf[n.Index]
				switch {
				case isLeaf[n.Name]:
					if shared == nil || len(reach[n.Name]) != 1 || !reach[n.Name][shared] {
						t.Errorf("leaf %s: %d instances for two valuations, want the one shared instance", n.Name, len(reach[n.Name]))
					}
				case shared != nil:
					t.Errorf("node %s has a shared instance but is not a stateless leaf", n.Name)
				case n != r.decomp.Root && len(reach[n.Name]) != 2:
					t.Errorf("node %s: %d instances for two valuations, want 2", n.Name, len(reach[n.Name]))
				}
				if r.lockNode[n.Index] && shared != nil {
					t.Errorf("locked node %s shares an instance", n.Name)
				}
			}
			if got, err := r.VerifyWellFormed(); err != nil || len(got) != 2 {
				t.Fatalf("VerifyWellFormed = %v, %v", got, err)
			}
			// Removing one tuple leaves the other's path to the shared leaf.
			if ok, err := r.Remove(rel.T("src", 1, "dst", 2)); err != nil || !ok {
				t.Fatalf("remove: %v %v", ok, err)
			}
			if got, err := r.VerifyWellFormed(); err != nil || len(got) != 1 || !got[0].Equal(rel.T("src", 4, "dst", 5, "weight", 6)) {
				t.Fatalf("after remove, VerifyWellFormed = %v, %v", got, err)
			}
		})
	}
}
