package autotune

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/graphreps"
)

// digestFields writes one built representation's five identifying
// fields, each followed by a NUL byte.
func digestFields(t *testing.T, w io.Writer, name, family, desc string, build func() (*core.Relation, error)) {
	t.Helper()
	r, err := build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, f := range []string{name, family, desc, r.Decomposition().String(), r.Placement().String()} {
		fmt.Fprintf(w, "%s\x00", f)
	}
}

// TestRepresentationDigests pins everything the graph representations
// decide — names, families, descriptions, decompositions and placements,
// in order — for the tuner's enumeration and for the named variants.
func TestRepresentationDigests(t *testing.T) {
	cands := EnumerateGraph()
	if len(cands) != 672 {
		t.Fatalf("candidates = %d, want 672", len(cands))
	}
	h := fnv.New64a()
	for _, c := range cands {
		digestFields(t, h, c.Name, c.Family, c.Description, c.Build)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != "538081fc0f01f715" {
		t.Errorf("candidate digest = %s, want 538081fc0f01f715", got)
	}

	h = fnv.New64a()
	vs := append(graphreps.Figure5Variants(), graphreps.SpeculativeDiamond(), graphreps.LockFreeReadStick())
	for _, v := range vs {
		digestFields(t, h, v.Name, v.Family, v.Description, v.Build)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != "85671667e46bb8cf" {
		t.Errorf("variant digest = %s, want 85671667e46bb8cf", got)
	}
}

// TestFigure5VariantsAreEnumerated checks that the named variants are
// points of the tuner's space: each Figure 5 series and Diamond Spec
// builds exactly one candidate's decomposition and placement. Stick LF's
// concurrent middle container puts it outside the space.
func TestFigure5VariantsAreEnumerated(t *testing.T) {
	key := func(build func() (*core.Relation, error)) string {
		r, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return r.Decomposition().String() + "\x00" + r.Placement().String()
	}
	matches := map[string][]string{}
	for _, c := range EnumerateGraph() {
		k := key(c.Build)
		matches[k] = append(matches[k], c.Name)
	}
	for _, v := range append(graphreps.Figure5Variants(), graphreps.SpeculativeDiamond()) {
		if got := matches[key(v.Build)]; len(got) != 1 {
			t.Errorf("%s matches candidates %v, want exactly one", v.Name, got)
		}
	}
	lf := graphreps.LockFreeReadStick()
	if got := matches[key(lf.Build)]; len(got) != 0 {
		t.Errorf("%s matches candidates %v, want none", lf.Name, got)
	}
}
