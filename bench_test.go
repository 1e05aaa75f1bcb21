// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Figure 5 panels:      BenchmarkFigure5_<mix>/<variant>
// Figure 1 table:       BenchmarkFigure1Containers/<kind>/<op>
// Ablations (§4.4/4.5/§5.2/§6.2):
//
//	BenchmarkAblationStripes, BenchmarkAblationSpeculative,
//	BenchmarkAblationSortElision, BenchmarkAblationContainers
//
// Each Figure 5 benchmark iteration performs one graph operation drawn
// from the mix; b.RunParallel spreads iterations over GOMAXPROCS
// goroutines, so ops/sec (reported as the custom metric "ops/s") is the
// aggregate-throughput analog of the paper's y-axis. The thread axis is
// -cpu: go test -run - -bench Figure5 -cpu 1,2,4 regenerates the figure.
package crs_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	crs "repro"
	"repro/internal/container"
	"repro/internal/handcoded"
	"repro/internal/rel"
)

// benchKeySpace is the node-id space of the Figure 5 benchmarks.
const benchKeySpace = 512

func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// benchGraphOps runs mix-distributed operations over g for b.N iterations
// across parallel goroutines and reports aggregate ops/s.
func benchGraphOps(b *testing.B, g crs.GraphOps, mix crs.Mix) {
	b.Helper()
	// Pre-populate so reads have something to find.
	seed := uint64(12345)
	for i := 0; i < 2048; i++ {
		r := splitmix(&seed)
		g.InsertEdge(int64(r%benchKeySpace), int64((r>>32)%benchKeySpace), int64(r>>48))
	}
	var tid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		state := tid.Add(1) * 0x9e3779b97f4a7c15
		var sink int
		for pb.Next() {
			r := splitmix(&state)
			choice := int(r % 100)
			a := int64((r >> 32) % benchKeySpace)
			c := int64((r >> 16) % benchKeySpace)
			switch {
			case choice < mix.Successors:
				sink += g.FindSuccessors(a)
			case choice < mix.Successors+mix.Predecessors:
				sink += g.FindPredecessors(a)
			case choice < mix.Successors+mix.Predecessors+mix.Inserts:
				g.InsertEdge(a, c, int64(r>>40))
			default:
				g.RemoveEdge(a, c)
			}
		}
		_ = sink
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// figure5Panel benchmarks every Figure 5 variant plus the handcoded
// baseline under one mix.
func figure5Panel(b *testing.B, mix crs.Mix) {
	for _, v := range crs.Figure5Variants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			r, err := v.Build()
			if err != nil {
				b.Fatal(err)
			}
			benchGraphOps(b, crs.MustRelationGraph(r), mix)
		})
	}
	b.Run("Handcoded", func(b *testing.B) {
		benchGraphOps(b, handcoded.New(), mix)
	})
}

// BenchmarkFigure5_70_0_20_10 regenerates Figure 5, panel 1 (successor
// heavy, no predecessor queries).
func BenchmarkFigure5_70_0_20_10(b *testing.B) { figure5Panel(b, crs.Figure5Mixes()[0]) }

// BenchmarkFigure5_35_35_20_10 regenerates Figure 5, panel 2 (balanced
// reads, write heavy).
func BenchmarkFigure5_35_35_20_10(b *testing.B) { figure5Panel(b, crs.Figure5Mixes()[1]) }

// BenchmarkFigure5_0_0_50_50 regenerates Figure 5, panel 3 (pure writes).
func BenchmarkFigure5_0_0_50_50(b *testing.B) { figure5Panel(b, crs.Figure5Mixes()[2]) }

// BenchmarkFigure5_45_45_9_1 regenerates Figure 5, panel 4 (read heavy,
// both directions).
func BenchmarkFigure5_45_45_9_1(b *testing.B) { figure5Panel(b, crs.Figure5Mixes()[3]) }

// BenchmarkFigure1Containers measures the primitive container operations
// underlying the Figure 1 taxonomy (lookup / scan / write per kind).
func BenchmarkFigure1Containers(b *testing.B) {
	for _, kind := range []container.Kind{
		container.HashMap, container.TreeMap, container.ConcurrentHashMap,
		container.ConcurrentSkipListMap, container.CopyOnWriteMap,
	} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.Run("lookup", func(b *testing.B) {
				m := container.New(kind, 1)
				for i := 0; i < 1024; i++ {
					m.Write(rel.NewKey(i), i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Lookup(rel.NewKey(i & 1023))
				}
			})
			b.Run("write", func(b *testing.B) {
				m := container.New(kind, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Write(rel.NewKey(i&1023), i)
				}
			})
			b.Run("scan1k", func(b *testing.B) {
				m := container.New(kind, 1)
				for i := 0; i < 1024; i++ {
					m.Write(rel.NewKey(i), i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n := 0
					m.Scan(func(rel.Key, any) bool { n++; return true })
				}
			})
		})
	}
}

// buildStickStriped synthesizes the stick with a root stripe factor k —
// the §4.4 striping ablation subject.
func buildStickStriped(b *testing.B, k int) *crs.Relation {
	b.Helper()
	d, err := crs.NewBuilder(crs.GraphSpec(), "ρ").
		Edge("ρu", "ρ", "u", []string{"src"}, crs.ConcurrentHashMap).
		Edge("uv", "u", "v", []string{"dst"}, crs.TreeMap).
		Edge("vw", "v", "w", []string{"weight"}, crs.Cell).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	p := crs.NewPlacement(d)
	if k > 1 {
		p.SetStripes(d.Root, k)
		p.Place(d.EdgeByName("ρu"), d.Root, "src")
	} else {
		p.Place(d.EdgeByName("ρu"), d.Root)
	}
	r, err := crs.Synthesize(d.Spec, crs.WithDecomposition(d), crs.WithPlacement(p))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationStripes sweeps the §4.4 striping factor on the same
// structure and containers: contention falls as k grows.
func BenchmarkAblationStripes(b *testing.B) {
	for _, k := range []int{1, 4, 64, 1024} {
		k := k
		b.Run(benchName("k", k), func(b *testing.B) {
			r := buildStickStriped(b, k)
			benchGraphOps(b, crs.MustRelationGraph(r), crs.Figure5Mixes()[0])
		})
	}
}

// BenchmarkAblationSpeculative compares the three placement families of
// Figure 3(c)'s discussion on one diamond structure: coarse, striped
// (ψ3), speculative (ψ4).
func BenchmarkAblationSpeculative(b *testing.B) {
	build := func(b *testing.B, mode string) *crs.Relation {
		top := crs.ConcurrentHashMap
		if mode == "coarse" {
			top = crs.HashMap
		}
		d, err := crs.NewBuilder(crs.GraphSpec(), "ρ").
			Edge("ρx", "ρ", "x", []string{"src"}, top).
			Edge("ρy", "ρ", "y", []string{"dst"}, top).
			Edge("xz", "x", "z", []string{"dst"}, crs.TreeMap).
			Edge("yz", "y", "z", []string{"src"}, crs.TreeMap).
			Edge("zw", "z", "w", []string{"weight"}, crs.Cell).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		var p *crs.Placement
		switch mode {
		case "coarse":
			p = crs.CoarsePlacement(d)
		case "striped":
			p = crs.NewPlacement(d)
			p.SetStripes(d.Root, 1024)
			p.Place(d.EdgeByName("ρx"), d.Root, "src")
			p.Place(d.EdgeByName("ρy"), d.Root, "dst")
		case "speculative":
			p = crs.NewPlacement(d)
			p.SetStripes(d.Root, 1024)
			p.PlaceSpeculative(d.EdgeByName("ρx"), d.Root, "src")
			p.PlaceSpeculative(d.EdgeByName("ρy"), d.Root, "dst")
		}
		r, err := crs.Synthesize(d.Spec, crs.WithDecomposition(d), crs.WithPlacement(p))
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	for _, mode := range []string{"coarse", "striped", "speculative"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			r := build(b, mode)
			benchGraphOps(b, crs.MustRelationGraph(r), crs.Figure5Mixes()[1])
		})
	}
}

// BenchmarkAblationSortElision compares successor queries whose lock batch
// arrives pre-sorted (TreeMap scan, §5.2 elision applies) against a
// HashMap top level (batch must be sorted).
func BenchmarkAblationSortElision(b *testing.B) {
	build := func(b *testing.B, top crs.ContainerKind) *crs.Relation {
		d, err := crs.NewBuilder(crs.GraphSpec(), "ρ").
			Edge("ρu", "ρ", "u", []string{"src"}, top).
			Edge("uv", "u", "v", []string{"dst"}, crs.TreeMap).
			Edge("vw", "v", "w", []string{"weight"}, crs.Cell).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		r, err := crs.Synthesize(d.Spec, crs.WithDecomposition(d))
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	for _, tc := range []struct {
		name string
		top  crs.ContainerKind
	}{{"sorted-scan-TreeMap", crs.TreeMap}, {"unsorted-scan-HashMap", crs.HashMap}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			r := build(b, tc.top)
			g := crs.MustRelationGraph(r)
			// Populate a fan of successors under a handful of sources so
			// full-relation scans lock many instances.
			for s := int64(0); s < 16; s++ {
				for d := int64(0); d < 64; d++ {
					g.InsertEdge(s, d, s+d)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Predecessor query scans the top level: the lock batch
				// over u-instances is where sortedness matters.
				g.FindPredecessors(int64(i) % 64)
			}
		})
	}
}

// BenchmarkAblationContainers fixes structure and placement (striped
// stick) and varies only the container selection — the Stick 2/3/4
// comparison of §6.2.
func BenchmarkAblationContainers(b *testing.B) {
	combos := []struct {
		name     string
		top, mid crs.ContainerKind
	}{
		{"CHMofHashMap", crs.ConcurrentHashMap, crs.HashMap},
		{"CHMofTreeMap", crs.ConcurrentHashMap, crs.TreeMap},
		{"CSLofHashMap", crs.ConcurrentSkipListMap, crs.HashMap},
		{"CSLofTreeMap", crs.ConcurrentSkipListMap, crs.TreeMap},
	}
	for _, tc := range combos {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			d, err := crs.NewBuilder(crs.GraphSpec(), "ρ").
				Edge("ρu", "ρ", "u", []string{"src"}, tc.top).
				Edge("uv", "u", "v", []string{"dst"}, tc.mid).
				Edge("vw", "v", "w", []string{"weight"}, crs.Cell).
				Build()
			if err != nil {
				b.Fatal(err)
			}
			p := crs.NewPlacement(d)
			p.SetStripes(d.Root, 1024)
			p.Place(d.EdgeByName("ρu"), d.Root, "src")
			r, err := crs.Synthesize(d.Spec, crs.WithDecomposition(d), crs.WithPlacement(p))
			if err != nil {
				b.Fatal(err)
			}
			benchGraphOps(b, crs.MustRelationGraph(r), crs.Figure5Mixes()[0])
		})
	}
}

// BenchmarkPreparedRowVsTuple isolates the schema-compiled row pipeline
// against the tuple boundary on the same prepared operations: the delta
// is the cost of per-call column-name resolution and tuple assembly that
// the row path eliminates.
func BenchmarkPreparedRowVsTuple(b *testing.B) {
	build := func(b *testing.B) *crs.Relation {
		v, err := crs.GraphVariantByName("Stick 1")
		if err != nil {
			b.Fatal(err)
		}
		r, err := v.Build()
		if err != nil {
			b.Fatal(err)
		}
		g := crs.MustRelationGraph(r)
		seed := uint64(7)
		for i := 0; i < 2048; i++ {
			x := splitmix(&seed)
			g.InsertEdge(int64(x%benchKeySpace), int64((x>>32)%benchKeySpace), int64(x>>48))
		}
		return r
	}
	b.Run("count/row", func(b *testing.B) {
		r := build(b)
		q, err := r.PrepareQuery([]string{"src"}, []string{"dst", "weight"})
		if err != nil {
			b.Fatal(err)
		}
		iSrc := r.Schema().MustIndex("src")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf [3]crs.Value
			row := crs.RowOver(buf[:], 0)
			row.Set(iSrc, int64(i)%benchKeySpace)
			if _, err := q.CountRow(row); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("count/tuple", func(b *testing.B) {
		r := build(b)
		q, err := r.PrepareQuery([]string{"src"}, []string{"dst", "weight"})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := q.Count(crs.T("src", int64(i)%benchKeySpace)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert+remove/row", func(b *testing.B) {
		r := build(b)
		g := crs.MustRelationGraph(r)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := int64(i)%benchKeySpace, int64(i>>9)%benchKeySpace
			g.InsertEdge(src, dst, int64(i))
			g.RemoveEdge(src, dst)
		}
	})
	b.Run("insert+remove/tuple", func(b *testing.B) {
		r := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := int64(i)%benchKeySpace, int64(i>>9)%benchKeySpace
			s := crs.T("src", src, "dst", dst)
			r.Insert(s, crs.T("weight", int64(i)))
			r.Remove(s)
		}
	})
}

// BenchmarkBatchedVsSequential is the batched Figure-5 variant: composite
// graph operations (insert-edge-pair, move-edge as remove+insert, grouped
// successor counts, 2-hop counts) executed as one coalesced two-phase-
// locking transaction per group ("batched") versus one transaction per
// member operation ("sequential"). Both sides run the same prepared row
// pipeline; the delta is the lock-coalescing win — an N-op batch takes
// each physical lock at most once. Contention makes the delta grow: run
// with -cpu 1,4,... to see the scalability side.
func BenchmarkBatchedVsSequential(b *testing.B) {
	build := func(b *testing.B) *crs.Relation {
		d, err := crs.NewBuilder(crs.GraphSpec(), "ρ").
			Edge("ρu", "ρ", "u", []string{"src"}, crs.ConcurrentHashMap).
			Edge("uv", "u", "v", []string{"dst"}, crs.TreeMap).
			Edge("vw", "v", "w", []string{"weight"}, crs.Cell).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		p := crs.NewPlacement(d)
		p.SetStripes(d.Root, 1024)
		p.Place(d.EdgeByName("ρu"), d.Root, "src")
		r, err := crs.Synthesize(d.Spec, crs.WithDecomposition(d), crs.WithPlacement(p))
		if err != nil {
			b.Fatal(err)
		}
		g := crs.MustRelationGraph(r)
		seed := uint64(12345)
		for i := 0; i < 2048; i++ {
			x := splitmix(&seed)
			g.InsertEdge(int64(x%benchKeySpace), int64((x>>32)%benchKeySpace), int64(x>>48))
		}
		return r
	}
	mix := crs.DefaultBatchMix()
	runComposite := func(b *testing.B, g crs.BatchGraphOps) {
		b.Helper()
		var tid atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			state := tid.Add(1) * 0x9e3779b97f4a7c15
			var sink uint64
			for pb.Next() {
				sink += crs.BatchCompositeOp(g, &state, mix, benchKeySpace)
			}
			_ = sink
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "groups/s")
	}
	b.Run("batched", func(b *testing.B) {
		runComposite(b, crs.MustRelationBatchGraph(build(b)))
	})
	b.Run("sequential", func(b *testing.B) {
		g, err := crs.NewSequentialBatchGraph(build(b))
		if err != nil {
			b.Fatal(err)
		}
		runComposite(b, g)
	})
}

// BenchmarkBatchPrimitives isolates the per-composite coalescing deltas
// on an uncontended relation: each sub-benchmark runs one composite
// batched and sequential back to back via -bench filtering.
func BenchmarkBatchPrimitives(b *testing.B) {
	build := func(b *testing.B) *crs.Relation {
		v, err := crs.GraphVariantByName("Split 4")
		if err != nil {
			b.Fatal(err)
		}
		r, err := v.Build()
		if err != nil {
			b.Fatal(err)
		}
		g := crs.MustRelationGraph(r)
		seed := uint64(7)
		for i := 0; i < 2048; i++ {
			x := splitmix(&seed)
			g.InsertEdge(int64(x%benchKeySpace), int64((x>>32)%benchKeySpace), int64(x>>48))
		}
		return r
	}
	type side struct {
		name string
		mk   func(*testing.B) crs.BatchGraphOps
	}
	sides := []side{
		{"batched", func(b *testing.B) crs.BatchGraphOps { return crs.MustRelationBatchGraph(build(b)) }},
		{"sequential", func(b *testing.B) crs.BatchGraphOps {
			g, err := crs.NewSequentialBatchGraph(build(b))
			if err != nil {
				b.Fatal(err)
			}
			return g
		}},
	}
	for _, s := range sides {
		s := s
		b.Run("insertpair/"+s.name, func(b *testing.B) {
			g := s.mk(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := int64(i) % benchKeySpace
				g.InsertEdgePair(src, (src+1)%benchKeySpace, int64(i), src, (src+2)%benchKeySpace, int64(i))
			}
		})
		b.Run("move/"+s.name, func(b *testing.B) {
			g := s.mk(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := int64(i) % benchKeySpace
				g.MoveEdge(src, (src+1)%benchKeySpace, (src+2)%benchKeySpace, int64(i))
			}
		})
		b.Run("countpair/"+s.name, func(b *testing.B) {
			g := s.mk(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.CountSuccessorPair(int64(i)%benchKeySpace, int64(i+1)%benchKeySpace)
			}
		})
		b.Run("twohop/"+s.name, func(b *testing.B) {
			g := s.mk(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.TwoHopCount(int64(i) % benchKeySpace)
			}
		})
	}
}

// BenchmarkHandcodedVsSplit4 is the §6.2 head-to-head: the hand-written
// graph against its synthesized twin.
func BenchmarkHandcodedVsSplit4(b *testing.B) {
	b.Run("Handcoded", func(b *testing.B) {
		benchGraphOps(b, handcoded.New(), crs.Figure5Mixes()[1])
	})
	b.Run("Split4", func(b *testing.B) {
		v, err := crs.GraphVariantByName("Split 4")
		if err != nil {
			b.Fatal(err)
		}
		r, err := v.Build()
		if err != nil {
			b.Fatal(err)
		}
		benchGraphOps(b, crs.MustRelationGraph(r), crs.Figure5Mixes()[1])
	})
}

func benchName(prefix string, k int) string {
	return fmt.Sprintf("%s=%d", prefix, k)
}
