package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
	"ordu/internal/topk"
)

// checkWitnesses is Definition 2's soundness check at each region's
// reported witness: the witness lies within MinDist of the seed, the
// region's top-k scores in its listed order there, and no record outside
// the top-k outscores its k-th.
func checkWitnesses(t *testing.T, name string, pts []geom.Vector, w geom.Vector, res *ORUResult) {
	t.Helper()
	for ri, reg := range res.Regions {
		v := reg.Witness
		if v == nil {
			t.Fatalf("%s region %d: no witness", name, ri)
		}
		if dist := v.Dist(w); dist > reg.MinDist+1e-9 {
			t.Fatalf("%s region %d: witness at %.12g from the seed, MinDist %.12g", name, ri, dist, reg.MinDist)
		}
		in := map[int]bool{}
		kth, prev := 0.0, 0.0
		for i, r := range reg.TopK {
			in[r.ID] = true
			s := r.Point.Dot(v)
			if i > 0 && s > prev+1e-9 {
				t.Fatalf("%s region %d: rank %d scores %.12g at the witness, above rank %d's %.12g", name, ri, i+1, s, i, prev)
			}
			if i == 0 || s < kth {
				kth = s
			}
			prev = s
		}
		for _, r := range topk.BruteTopK(pts, v, len(reg.TopK)) {
			if !in[r.ID] && r.Score > kth+1e-9 {
				t.Fatalf("%s region %d: record %d scores %.12g at the witness, above the region's k-th %.12g", name, ri, r.ID, r.Score, kth)
			}
		}
	}
}

// TestORUAnswersWithinRhoBar: the candidates are complete only within
// rho-bar, so an exploration that confirms m records past it must restart
// with a larger estimate. On this query the first estimate's exploration
// reaches rho 0.139378 with record 4285 tenth; the answer over the whole
// 2-skyband has rho 0.132969 with 4490 tenth.
func TestORUAnswersWithinRhoBar(t *testing.T) {
	ctx := context.Background()
	pts := data.NBA(10000, 1)
	tree := rtree.BulkLoad(pts)
	rng := rand.New(rand.NewSource(9))
	var w geom.Vector
	for i := 0; i < 99; i++ {
		w = geom.RandSimplex(rng, 8)
	}
	const k, m = 2, 10
	got, err := ORUWithCtx(ctx, tree, w, k, m, ORUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := skyband.KSkybandForCtx(ctx, tree, w, k)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExplorer(cands, w, k, nil)
	if !ex.seed() {
		t.Fatal("full-skyband explorer has no seed region")
	}
	if complete, err := ex.explore(ctx, m); err != nil || !complete {
		t.Fatalf("full-skyband explorer: complete %v, err %v", complete, err)
	}
	want := ex.result()
	if !reflect.DeepEqual(got.Records, want.Records) || math.Abs(got.Rho-want.Rho) > 1e-9 {
		t.Fatalf("ORU answers rho %.6g with %v; the full 2-skyband gives rho %.6g with %v", got.Rho, recordIDs(got.Records), want.Rho, recordIDs(want.Records))
	}
	if want.Records[m-1].ID != 4490 {
		t.Fatalf("full-skyband answer's 10th record is %d, want 4490", want.Records[m-1].ID)
	}
	checkWitnesses(t, "NBA", pts, w, got)
}

func recordIDs(rs []Record) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// TestORUWitnessSound: every region's reported witness passes the
// Definition-2 check, below and from hull.PairwiseDim.
func TestORUWitnessSound(t *testing.T) {
	sets := []struct {
		name string
		pts  []geom.Vector
		k, m int
	}{
		{"IND d=3", data.Synthetic(data.IND, 3000, 3, 1), 3, 12},
		{"ANTI d=4", data.Synthetic(data.ANTI, 2000, 4, 1), 2, 10},
		{"ANTI d=5", data.Synthetic(data.ANTI, 2000, 5, 1), 2, 10},
		{"NBA d=8", data.NBA(5000, 1), 2, 10},
	}
	rng := rand.New(rand.NewSource(151))
	for _, s := range sets {
		tree := rtree.BulkLoad(s.pts)
		for q := 0; q < 4; q++ {
			w := geom.RandSimplex(rng, tree.Dim())
			res, err := ORUWithCtx(context.Background(), tree, w, s.k, s.m, ORUOptions{})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			checkWitnesses(t, s.name, s.pts, w, res)
		}
	}
}

// gridPoints draws every coordinate from {0, 1/4, 1/2, 3/4, 1}: exact ties
// everywhere and, at n = 3000, many exact duplicates.
func gridPoints(n, d int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = float64(rng.Intn(5)) / 4
		}
		pts[i] = p
	}
	return pts
}

// TestORUGridDuplicates: on grid data with exact duplicates, at d = 2 to 6,
// ORU returns m records and every region passes the witness check. Below
// d = 5 the partitions run on vertex lists; from d = 5 without. The seeds
// are grids whose 2-skyband holds at least m records and on which ORU
// answers (on others, a few copies of the all-ones corner top the whole
// domain, and ErrInsufficientData is the right answer); below d = 5 they
// are the first three such seeds at about one record per grid cell, n =
// 5^d, with m = 4 at d = 2, where the 5x5 grid's 2-skyband rarely reaches
// 10. Some later d = 4 seeds (29, 30 and 34 at n = 625) fail the witness
// check on a known defect that the vertex lists neither cause nor fix: the
// jittered L_upd hull can miss an adjacency between grid records.
//
// Copies of a record must share an upper-hull layer: split across
// successive layers, as the Builder splits them, a third copy lands past
// layer k-1, where Theorem 1 never looks, and every query on the d=5 grids
// fails with ErrInsufficientData.
func TestORUGridDuplicates(t *testing.T) {
	const k = 2
	grids := []struct {
		d, n, m int
		seed    int64
	}{
		{2, 25, 4, 1}, {2, 25, 4, 4}, {2, 25, 4, 5},
		{3, 125, 10, 23}, {3, 125, 10, 24}, {3, 125, 10, 26},
		{4, 625, 10, 6}, {4, 625, 10, 7}, {4, 625, 10, 9},
		{5, 3000, 10, 3}, {5, 3000, 10, 6}, {5, 3000, 10, 8}, {6, 3000, 10, 1}, {6, 3000, 10, 2},
	}
	for _, g := range grids {
		pts := gridPoints(g.n, g.d, g.seed)
		tree := rtree.BulkLoad(pts)
		if n := len(skyband.KSkyband(tree, k)); n < g.m {
			t.Fatalf("d=%d seed %d: the 2-skyband holds %d records, fewer than m", g.d, g.seed, n)
		}
		rng := rand.New(rand.NewSource(g.seed))
		for q := 0; q < 5; q++ {
			w := geom.RandSimplex(rng, g.d)
			res, err := ORUWithCtx(context.Background(), tree, w, k, g.m, ORUOptions{})
			if err != nil {
				t.Fatalf("d=%d seed %d query %d: %v", g.d, g.seed, q, err)
			}
			if len(res.Records) != g.m {
				t.Fatalf("d=%d seed %d query %d: %d records, want %d", g.d, g.seed, q, len(res.Records), g.m)
			}
			checkWitnesses(t, "grid", pts, w, res)
		}
	}
}
