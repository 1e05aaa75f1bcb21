package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/container"
	"repro/internal/rel"
)

// InstanceDOT renders the current decomposition instance as Graphviz DOT
// in the style of Figure 2(b): one graph node per node instance (labelled
// with its bound-column valuation), one edge per container entry
// (labelled with the entry's key valuation), dotted/dashed/solid styling
// matching the static diagram. Like VerifyWellFormed it takes no locks and
// is meant for quiescent relations (tools, tests, documentation).
func (r *Relation) InstanceDOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontsize=10];\n")

	// Instances store no key, and a stateless leaf's one instance stands
	// for every valuation of its node: a graph node is an instance
	// identity (instKey), labelled with the valuation of the node's bound
	// columns read off the path that reached it.
	names := map[instKey]string{}
	counters := make([]int, len(r.decomp.Nodes))

	type entry struct {
		src, dst string
		label    string
		style    string
	}
	var entries []entry
	var walk func(inst *Instance, bound rel.Tuple) string
	walk = func(inst *Instance, bound rel.Tuple) string {
		id := instKey{inst.node.Index, bound.String()}
		if n, ok := names[id]; ok {
			return n
		}
		counters[inst.node.Index]++
		n := fmt.Sprintf("%s%d", inst.node.Name, counters[inst.node.Index])
		names[id] = n
		label := n
		if len(inst.node.A) > 0 {
			label = fmt.Sprintf("%s\\n%s", n, bound.Key(inst.node.A))
		}
		fmt.Fprintf(&b, "  %q [label=\"%s\"];\n", n, strings.ReplaceAll(label, `"`, `\"`))
		for i, e := range inst.node.Out {
			style := "solid"
			switch {
			case e.IsUnitEdge():
				style = "dotted"
			case container.PropertiesOf(e.Container).ConcurrencySafe():
				style = "dashed"
			}
			inst.containers[i].Scan(func(k rel.Key, v any) bool {
				child := walk(v.(*Instance), bound.MustUnion(k.Tuple(e.Cols)))
				entries = append(entries, entry{src: n, dst: child, label: k.String(), style: style})
				return true
			})
		}
		return n
	}
	walk(r.root, rel.T())

	// Deterministic edge order for stable output.
	sort.Slice(entries, func(i, j int) bool {
		a, bb := entries[i], entries[j]
		if a.src != bb.src {
			return a.src < bb.src
		}
		if a.label != bb.label {
			return a.label < bb.label
		}
		return a.dst < bb.dst
	})
	for _, e := range entries {
		fmt.Fprintf(&b, "  %q -> %q [label=%q, style=%s];\n", e.src, e.dst, e.label, e.style)
	}
	b.WriteString("}\n")
	return b.String()
}

// LockIdentityCounts counts, per node index, the node instances that
// carry a stripe array and, of those, the ones whose lock identity is an
// exact order word (locks.Array.ExactID), which keep no prefix string and
// order by one word comparison. Like InstanceDOT it takes no locks and is
// meant for quiescent relations.
func (r *Relation) LockIdentityCounts() (exact, total []int) {
	exact = make([]int, len(r.decomp.Nodes))
	total = make([]int, len(r.decomp.Nodes))
	seen := map[*Instance]bool{}
	var walk func(inst *Instance)
	walk = func(inst *Instance) {
		if seen[inst] {
			return
		}
		seen[inst] = true
		if inst.locks != nil {
			total[inst.node.Index]++
			if inst.locks.ExactID() {
				exact[inst.node.Index]++
			}
		}
		for _, c := range inst.containers {
			c.Scan(func(_ rel.Key, v any) bool {
				walk(v.(*Instance))
				return true
			})
		}
	}
	walk(r.root)
	return exact, total
}
