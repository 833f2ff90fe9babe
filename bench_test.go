// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one benchmark family per figure. Sizes are reduced relative to
// the paper's testbed so the suite finishes in minutes; the parameter
// *shapes* (who wins, growth trends, crossovers) are what these benchmarks
// are meant to reproduce — see EXPERIMENTS.md for the side-by-side. The
// full-scale sweeps live in cmd/experiments.
package ordu

import (
	"context"
	"fmt"
	"testing"

	"ordu/internal/collection"
	"ordu/internal/core"
	"ordu/internal/data"
	"ordu/internal/expr"
	"ordu/internal/fixedregion"
	"ordu/internal/geom"
	"ordu/internal/hull"
	"ordu/internal/osskyline"
	"ordu/internal/qp"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
	"ordu/internal/topk"
)

// Bench-scale defaults: the paper's (400K, d=4, k=5, m=50) shrunk to keep
// a full -bench=. run in minutes.
const (
	benchN = 50_000
	benchD = 4
	benchK = 5
	benchM = 30
)

var benchCache = expr.NewCache()

func benchSeeds(d int) []geom.Vector { return expr.Seeds(d, 16) }

// runOp cycles through seed vectors, one query per iteration, and fails
// the benchmark on the first query error: a query that errors out early
// would otherwise look fast. Every benchmark family reports allocations:
// allocs/op is a tracked regression axis alongside ns/op (see
// cmd/benchdiff).
func runOp(b *testing.B, d int, fn func(w geom.Vector) error) {
	b.Helper()
	seeds := benchSeeds(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(seeds[i%len(seeds)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ord and oru adapt the two operators to runOp.
func ord(tree *rtree.Tree, k, m int) func(geom.Vector) error {
	return func(w geom.Vector) error {
		_, err := core.ORDCtx(context.Background(), tree, w, k, m)
		return err
	}
}

func oru(tree *rtree.Tree, k, m int, opts core.ORUOptions) func(geom.Vector) error {
	return func(w geom.Vector) error {
		_, err := core.ORUWithCtx(context.Background(), tree, w, k, m, opts)
		return err
	}
}

// --- Table 2 defaults / Section 6.4 headline ---

func BenchmarkDefaultsORD(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	runOp(b, benchD, ord(tree, benchK, benchM))
}

func BenchmarkDefaultsORU(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	runOp(b, benchD, oru(tree, benchK, benchM, core.ORUOptions{}))
}

// --- Figure 6: case study operators on the NBA 2018-19 slice ---

func BenchmarkFig6CaseStudy(b *testing.B) {
	players := data.NBA2019(2019)
	pts := make([]geom.Vector, len(players))
	for i, p := range players {
		pts[i] = geom.Vector{p.Stats[0], p.Stats[1]}
	}
	tree := rtree.BulkLoad(pts)
	w := geom.Vector{0.43, 0.57}
	ops := []struct {
		name string
		fn   func(geom.Vector) error
	}{
		{"ORD", ord(tree, 2, 6)},
		{"ORU", oru(tree, 2, 6, core.ORUOptions{})},
		{"TopM", func(w geom.Vector) error { topk.TopK(tree, w, 6); return nil }},
		{"OSSSkyline", func(geom.Vector) error { osskyline.TopM(tree, 6); return nil }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op.fn(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: fixed-region output-size spread ---

func BenchmarkFig7FixedRegionTopK(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	seeds := benchSeeds(benchD)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := seeds[i%len(seeds)]
		fixedregion.TopKUnion(tree, w, fixedregion.NewBox(w, 0.2), benchK)
	}
}

// --- Figure 8: ORD and competitors across the parameter sweeps ---

func BenchmarkFig8Cardinality(b *testing.B) {
	for _, n := range []int{10_000, 50_000, 200_000} {
		tree := benchCache.Synthetic(data.IND, n, benchD)
		b.Run(fmt.Sprintf("ORD/n=%d", n), func(b *testing.B) {
			runOp(b, benchD, ord(tree, benchK, benchM))
		})
	}
}

func BenchmarkFig8Dimensionality(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5} {
		tree := benchCache.Synthetic(data.IND, benchN, d)
		b.Run(fmt.Sprintf("ORD/d=%d", d), func(b *testing.B) {
			runOp(b, d, ord(tree, benchK, benchM))
		})
	}
}

func BenchmarkFig8K(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	for _, k := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("ORD/k=%d", k), func(b *testing.B) {
			runOp(b, benchD, ord(tree, k, benchM))
		})
	}
}

func BenchmarkFig8M(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	for _, m := range []int{10, 30, 50} {
		b.Run(fmt.Sprintf("ORD/m=%d", m), func(b *testing.B) {
			runOp(b, benchD, ord(tree, benchK, m))
		})
	}
}

func BenchmarkFig8Competitors(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	b.Run("ORD", func(b *testing.B) {
		runOp(b, benchD, ord(tree, benchK, benchM))
	})
	b.Run("ORD-BSL", func(b *testing.B) {
		runOp(b, benchD, func(w geom.Vector) error { _, err := core.ORDBSL(tree, w, benchK, benchM); return err })
	})
	b.Run("RSB-5", func(b *testing.B) {
		runOp(b, benchD, func(w geom.Vector) error { fixedregion.RSB(tree, w, benchK, benchM, 0.05); return nil })
	})
	b.Run("RSB-10", func(b *testing.B) {
		runOp(b, benchD, func(w geom.Vector) error { fixedregion.RSB(tree, w, benchK, benchM, 0.10); return nil })
	})
}

// --- Figure 9: ORD across distributions and real datasets ---

func BenchmarkFig9Distributions(b *testing.B) {
	for _, dist := range []data.Distribution{data.ANTI, data.COR, data.IND} {
		tree := benchCache.Synthetic(dist, benchN, benchD)
		b.Run(string(dist), func(b *testing.B) {
			runOp(b, benchD, ord(tree, benchK, benchM))
		})
	}
}

func BenchmarkFig9RealDatasets(b *testing.B) {
	for _, name := range []string{"HOTEL", "HOUSE", "NBA"} {
		tree := benchCache.Named(name, 20_000)
		b.Run(name, func(b *testing.B) {
			runOp(b, tree.Dim(), ord(tree, benchK, benchM))
		})
	}
}

// --- Figure 10: ORU and competitors ---

func BenchmarkFig10Cardinality(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		tree := benchCache.Synthetic(data.IND, n, benchD)
		b.Run(fmt.Sprintf("ORU/n=%d", n), func(b *testing.B) {
			runOp(b, benchD, oru(tree, benchK, benchM, core.ORUOptions{}))
		})
	}
}

func BenchmarkFig10Dimensionality(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5, 6} {
		tree := benchCache.Synthetic(data.IND, benchN, d)
		b.Run(fmt.Sprintf("ORU/d=%d", d), func(b *testing.B) {
			runOp(b, d, oru(tree, benchK, benchM, core.ORUOptions{}))
		})
	}
}

func BenchmarkFig10K(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	for _, k := range []int{1, 5} {
		b.Run(fmt.Sprintf("ORU/k=%d", k), func(b *testing.B) {
			runOp(b, benchD, oru(tree, k, benchM, core.ORUOptions{}))
		})
	}
}

func BenchmarkFig10M(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	for _, m := range []int{10, 30} {
		b.Run(fmt.Sprintf("ORU/m=%d", m), func(b *testing.B) {
			runOp(b, benchD, oru(tree, benchK, m, core.ORUOptions{}))
		})
	}
}

func BenchmarkFig10Competitors(b *testing.B) {
	// Smaller setting so the slow baselines stay tractable under -bench.
	tree := benchCache.Synthetic(data.IND, 10_000, benchD)
	const m = 20
	b.Run("ORU", func(b *testing.B) {
		runOp(b, benchD, oru(tree, benchK, m, core.ORUOptions{}))
	})
	b.Run("ORU-BSL", func(b *testing.B) {
		runOp(b, benchD, func(w geom.Vector) error { _, err := core.ORUBSL(tree, w, benchK, m, 0); return err })
	})
	b.Run("JAA-10", func(b *testing.B) {
		runOp(b, benchD, func(w geom.Vector) error { fixedregion.JAA(tree, w, benchK, m, 0.10); return nil })
	})
}

// --- Figure 11: ORU across distributions and real datasets ---

func BenchmarkFig11Distributions(b *testing.B) {
	for _, dist := range []data.Distribution{data.ANTI, data.COR, data.IND} {
		tree := benchCache.Synthetic(dist, benchN, benchD)
		b.Run(string(dist), func(b *testing.B) {
			runOp(b, benchD, oru(tree, benchK, benchM, core.ORUOptions{}))
		})
	}
}

// BenchmarkFig11RealDatasets runs ORU on the real datasets at m = 10, at
// k = 2 and, as `<dataset>/k=5`, at Fig. 11(b)'s k = 5, where the
// all-pairs partition from d = 5 dominates (HOUSE d = 6, NBA d = 8).
func BenchmarkFig11RealDatasets(b *testing.B) {
	for _, name := range []string{"HOTEL", "HOUSE", "NBA"} {
		tree := benchCache.Named(name, 20_000)
		b.Run(name, func(b *testing.B) {
			runOp(b, tree.Dim(), oru(tree, 2, 10, core.ORUOptions{}))
		})
		b.Run(name+"/k=5", func(b *testing.B) {
			runOp(b, tree.Dim(), oru(tree, 5, 10, core.ORUOptions{}))
		})
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// AblationORDSwitch isolates the Section 4.2 enhancements (score-ordered
// fetch with the adaptive rho-bar switch) against the Section 4.1
// preliminary algorithm.
func BenchmarkAblationORDSwitch(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	b.Run("enhanced", func(b *testing.B) {
		runOp(b, benchD, ord(tree, benchK, benchM))
	})
	b.Run("full-skyband", func(b *testing.B) {
		runOp(b, benchD, func(w geom.Vector) error { _, err := core.ORDBSL(tree, w, benchK, benchM); return err })
	})
}

// AblationORUPartitionBypass isolates the small-union shortcut in
// Theorem-1 partitioning.
func BenchmarkAblationORUPartitionBypass(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	b.Run("bypass", func(b *testing.B) {
		runOp(b, benchD, oru(tree, benchK, benchM, core.ORUOptions{}))
	})
	b.Run("always-hull", func(b *testing.B) {
		runOp(b, benchD, oru(tree, benchK, benchM, core.ORUOptions{NoPartitionBypass: true}))
	})
}

// AblationORUGradual isolates the gradual radius/layer expansion of
// Section 5.3.1 against the eager baseline (all layers, all L1 regions).
func BenchmarkAblationORUGradual(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, 10_000, benchD)
	const m = 20
	b.Run("gradual", func(b *testing.B) {
		runOp(b, benchD, oru(tree, benchK, m, core.ORUOptions{}))
	})
	b.Run("eager", func(b *testing.B) {
		runOp(b, benchD, func(w geom.Vector) error { _, err := core.ORUBSL(tree, w, benchK, m, 0); return err })
	})
}

// --- Substrate micro-benchmarks ---

func BenchmarkSubstrateMindist(b *testing.B) {
	seeds := benchSeeds(benchD)
	pts := data.Synthetic(data.IND, 1000, benchD, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := seeds[i%len(seeds)]
		skyband.Mindist(w, pts[i%1000], pts[(i*7+1)%1000])
	}
}

func BenchmarkSubstrateKSkyband(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		skyband.KSkyband(tree, benchK)
	}
}

func BenchmarkSubstrateTopK(b *testing.B) {
	tree := benchCache.Synthetic(data.IND, benchN, benchD)
	runOp(b, benchD, func(w geom.Vector) error { topk.TopK(tree, w, benchK); return nil })
}

func BenchmarkSubstrateRTreeBuild(b *testing.B) {
	pts := data.Synthetic(data.IND, benchN, benchD, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtree.BulkLoad(pts)
	}
}

func BenchmarkSubstrateUpperHull(b *testing.B) {
	pts := data.Synthetic(data.ANTI, 300, benchD, 3)
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hull.ComputeUpper(ids, pts)
	}
}

// --- Flat-core kernel micros: branch-free dominance and the flat tree ---

// BenchmarkDominates measures the branch-free dominance kernel across the
// dimensionalities the paper's testbed covers. The operand stream cycles
// random pairs so the comparison outcomes stay unpredictable — the regime
// the arithmetic flag accumulation is designed for.
func BenchmarkDominates(b *testing.B) {
	for d := 2; d <= 6; d++ {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			pts := data.Synthetic(data.IND, 1024, d, 3)
			b.ReportAllocs()
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if pts[i%1024].Dominates(pts[(i*7+1)%1024]) {
					hits++
				}
			}
			benchSink = hits
		})
	}
}

// BenchmarkKSkyband measures the full k-skyband scan over the flat tree at
// d=2..6 (n shrunk so the high-d bands finish; the skyband grows sharply
// with dimensionality).
func BenchmarkKSkyband(b *testing.B) {
	for d := 2; d <= 6; d++ {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			tree := benchCache.Synthetic(data.IND, 10_000, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				skyband.KSkyband(tree, benchK)
			}
		})
	}
}

// BenchmarkRTreeBulkLoadSTR measures STR bulk construction of the flat
// tree at the paper-scale cardinality.
func BenchmarkRTreeBulkLoadSTR(b *testing.B) {
	pts := data.Synthetic(data.IND, 100_000, benchD, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTree = rtree.BulkLoad(pts)
	}
}

var (
	benchSink int
	benchTree *rtree.Tree
)

// --- Hot-path micro-benchmarks: the workspace-reuse contract in numbers ---

// BenchmarkMindist measures the rho-dominance mindist kernel with a warmed
// workspace (the pruner/IRD steady state): closed-form fast path and exact
// QP fallback separately.
func BenchmarkMindist(b *testing.B) {
	b.Run("fast-path", func(b *testing.B) {
		w := geom.Vector{0.4, 0.3, 0.3}
		ri := geom.Vector{0.5, 0.5, 0.2}
		rj := geom.Vector{0.6, 0.4, 0.3}
		var ws skyband.Workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			skyband.MindistWS(w, ri, rj, &ws)
		}
	})
	b.Run("qp-fallback", func(b *testing.B) {
		// Perpendicular foot outside the simplex: exact projection QP.
		w := geom.Vector{0.01, 0.01, 0.98}
		ri := geom.Vector{0.9, 0.1, 0.3}
		rj := geom.Vector{0.4, 0.6, 0.4}
		var ws skyband.Workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			skyband.MindistWS(w, ri, rj, &ws)
		}
	})
}

// BenchmarkRegionMinDist measures the region mindist QP with a warmed
// workspace (the explorer's push steady state).
func BenchmarkRegionMinDist(b *testing.B) {
	r := region.Full(benchD).With(
		region.Beat(geom.Vector{0.9, 0.2, 0.1, 0.3}, geom.Vector{0.3, 0.8, 0.2, 0.2}),
		region.Beat(geom.Vector{0.9, 0.2, 0.1, 0.3}, geom.Vector{0.2, 0.3, 0.9, 0.1}),
		region.Beat(geom.Vector{0.9, 0.2, 0.1, 0.3}, geom.Vector{0.1, 0.4, 0.2, 0.8}),
	)
	w := geom.Vector{0.1, 0.2, 0.3, 0.4}
	var ws region.Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := r.MinDistWS(w, &ws); !ok {
			b.Fatal("region unexpectedly empty")
		}
	}
}

// BenchmarkQPSolve measures the Goldfarb-Idnani solver itself with a warmed
// workspace, on a simplex projection with active inequality constraints.
func BenchmarkQPSolve(b *testing.B) {
	pr := &qp.Problem{
		P:   []float64{1.2, -0.3, 0.1, 0.2},
		EqA: [][]float64{{1, 1, 1, 1}},
		EqB: []float64{1},
		InA: [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}},
		InB: []float64{0, 0, 0, 0},
	}
	var ws qp.Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.Solve(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Live-dataset mutation path ---

// MutationCollectionChurn measures the raw storage + R-tree cost of one
// insert/delete pair at steady-state size.
func BenchmarkMutationCollectionChurn(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			col, err := collection.FromPoints(data.Synthetic(data.IND, n, benchD, 11))
			if err != nil {
				b.Fatal(err)
			}
			fresh := data.Synthetic(data.IND, 4096, benchD, 99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := col.NewID()
				if err := col.Insert(id, fresh[i%len(fresh)]); err != nil {
					b.Fatal(err)
				}
				col.Delete(id)
			}
		})
	}
}
