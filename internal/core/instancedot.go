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

	names := map[*Instance]string{}
	counters := make([]int, len(r.decomp.Nodes))
	// Instances store no key: the label is the valuation of the node's
	// bound columns read off the path that reached the instance.
	nameOf := func(inst *Instance, bound rel.Tuple) string {
		if n, ok := names[inst]; ok {
			return n
		}
		counters[inst.node.Index]++
		n := fmt.Sprintf("%s%d", inst.node.Name, counters[inst.node.Index])
		names[inst] = n
		label := n
		if len(inst.node.A) > 0 {
			label = fmt.Sprintf("%s\\n%s", n, bound.Key(inst.node.A))
		}
		fmt.Fprintf(&b, "  %q [label=\"%s\"];\n", n, strings.ReplaceAll(label, `"`, `\"`))
		return n
	}

	type entry struct {
		src, dst *Instance
		label    string
		style    string
	}
	var entries []entry
	seen := map[*Instance]bool{}
	var walk func(inst *Instance, bound rel.Tuple)
	walk = func(inst *Instance, bound rel.Tuple) {
		if seen[inst] {
			return
		}
		seen[inst] = true
		nameOf(inst, bound)
		for i, e := range inst.node.Out {
			style := "solid"
			switch {
			case e.IsUnitEdge():
				style = "dotted"
			case container.PropertiesOf(e.Container).ConcurrencySafe():
				style = "dashed"
			}
			inst.containers[i].Scan(func(k rel.Key, v any) bool {
				child := v.(*Instance)
				entries = append(entries, entry{src: inst, dst: child, label: k.String(), style: style})
				walk(child, bound.MustUnion(k.Tuple(e.Cols)))
				return true
			})
		}
	}
	walk(r.root, rel.T())

	// Deterministic edge order for stable output.
	sort.Slice(entries, func(i, j int) bool {
		a, bb := entries[i], entries[j]
		if names[a.src] != names[bb.src] {
			return names[a.src] < names[bb.src]
		}
		if a.label != bb.label {
			return a.label < bb.label
		}
		return names[a.dst] < names[bb.dst]
	})
	for _, e := range entries {
		fmt.Fprintf(&b, "  %q -> %q [label=%q, style=%s];\n", names[e.src], names[e.dst], e.label, e.style)
	}
	b.WriteString("}\n")
	return b.String()
}
