package core

import (
	"testing"

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
