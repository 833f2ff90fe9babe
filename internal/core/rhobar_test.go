package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/hull"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// irdRhoBar is the rho-bar estimate's stopping rule run on IRD (itself
// checked against Definition 1 by TestIRDMatchesOracle and FuzzIRD): feed
// the k = 1 releases into hull.Extremes and stop at the first of the
// checkpoints target, target+8, ... where the count reaches target, or
// report +Inf and exhaustion once IRD runs dry.
func irdRhoBar(t *testing.T, tree *rtree.Tree, w geom.Vector, target int) (float64, bool, int) {
	t.Helper()
	ird := skyband.NewIRD(tree, w, 1)
	x := hull.NewExtremes(tree.Dim())
	next := target
	for n := 1; ; n++ {
		rel, ok, err := ird.NextCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return math.Inf(1), true, n - 1
		}
		x.Add(rel.ID, rel.Point)
		if n == next {
			if x.MemberCount() >= target {
				return rel.Radius, false, n
			}
			next += 8
		}
	}
}

// TestRhoBarMatchesIRD: from hull.PairwiseDim up, estimateRhoBar takes its
// skyline records from ORD's scan instead of IRD, and must stop where
// IRD's stopping rule stops — the same radius bits, exhaustion and record
// count — at d = 5 to 8, on continuous, clamped, tie-heavy and duplicated
// data. At n = 30 the skyline runs dry before the larger targets, and
// some estimates stop past their first two checkpoints, so the scan is
// asked again for twice as many records.
func TestRhoBarMatchesIRD(t *testing.T) {
	gens := []struct {
		name string
		gen  func(rng *rand.Rand, n, d int) []geom.Vector
	}{
		{"IND", randPoints},
		{"ANTI", antiPoints},
		{"COR", func(rng *rand.Rand, n, d int) []geom.Vector { return data.Synthetic(data.COR, n, d, rng.Int63()) }},
		{"GRID", func(rng *rand.Rand, n, d int) []geom.Vector { return gridPoints(n, d, rng.Int63()) }},
		{"DUP", dupPoints},
	}
	type dataset struct {
		name string
		pts  []geom.Vector
		rng  *rand.Rand
	}
	var sets []dataset
	for gi, g := range gens {
		for d := hull.PairwiseDim; d <= 8; d++ {
			for _, n := range []int{30, 300, 3000} {
				rng := rand.New(rand.NewSource(int64(10000*gi + 100*d + n)))
				sets = append(sets, dataset{fmt.Sprintf("%s/d=%d/n=%d", g.name, d, n), g.gen(rng, n, d), rng})
			}
		}
	}
	sets = append(sets,
		dataset{"NBA", data.NBA(0, 1), rand.New(rand.NewSource(1))},
		dataset{"HOUSE", data.House(20_000, 2), rand.New(rand.NewSource(2))},
	)
	exhausted, doubled := 0, 0
	for _, s := range sets {
		tree := rtree.BulkLoad(s.pts)
		w := geom.RandSimplex(s.rng, tree.Dim())
		for _, target := range []int{5, 10, 20, 40} {
			wantRho, wantEx, wantN := irdRhoBar(t, tree, w, target)
			rho, ex, n, err := estimateRhoBar(context.Background(), tree, w, target)
			if err != nil {
				t.Fatalf("%s target %d: %v", s.name, target, err)
			}
			if math.Float64bits(rho) != math.Float64bits(wantRho) || ex != wantEx || n != wantN {
				t.Fatalf("%s target %d: (rho %v, exhausted %v, fetched %d), IRD stops at (%v, %v, %d)",
					s.name, target, rho, ex, n, wantRho, wantEx, wantN)
			}
			if ex {
				exhausted++
			} else if n > target+8 {
				doubled++
			}
		}
	}
	if exhausted == 0 || doubled == 0 {
		t.Fatalf("%d estimates ran the skyline dry and %d asked the scan twice, want both", exhausted, doubled)
	}
}

// TestRhoBarCancelled: the estimate's ORD scan polls ctx like ORD itself.
func TestRhoBarCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tree := rtree.BulkLoad(randPoints(rng, 2000, hull.PairwiseDim))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := estimateRhoBar(ctx, tree, geom.RandSimplex(rng, hull.PairwiseDim), 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
