package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/raceflag"
	"ordu/internal/rtree"
)

// region2D is one maximal interval [lo, hi] of t on which the ordered
// top-k at w = (t, 1−t) is fixed.
type region2D struct {
	lo, hi  float64
	top     []int
	minDist float64
}

// oracleORU2D returns the order-sensitive top-k regions of a 2-d dataset,
// straight from Definition 2, in increasing distance from the seed
// (t0, 1−t0). The preference domain is the segment w = (t, 1−t), t in
// [0, 1], and a record's score is linear in t, so the ordered top-k
// changes only where two scores cross: the top-k at each interval's
// midpoint holds on the whole interval, and neighbours with equal lists
// merge. The distance between (t, 1−t) and the seed is √2·|t − t0|.
func oracleORU2D(pts []geom.Vector, t0 float64, k int) []region2D {
	cuts := []float64{0, 1}
	for i, p := range pts {
		for _, q := range pts[i+1:] {
			// score(t) = x1 + t·(x0 − x1); the lines cross where equal.
			dp, dq := p[0]-p[1], q[0]-q[1]
			if t := (q[1] - p[1]) / (dp - dq); t > 0 && t < 1 {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Float64s(cuts)
	ids := make([]int, len(pts))
	var regs []region2D
	for c := 1; c < len(cuts); c++ {
		lo, hi := cuts[c-1], cuts[c]
		if !(hi > lo) {
			continue
		}
		t := (lo + hi) / 2
		for i := range ids {
			ids[i] = i
		}
		score := func(i int) float64 { return t*pts[i][0] + (1-t)*pts[i][1] }
		sort.Slice(ids, func(a, b int) bool { return score(ids[a]) > score(ids[b]) })
		if n := len(regs); n > 0 && slices.Equal(regs[n-1].top, ids[:k]) {
			regs[n-1].hi = hi
			continue
		}
		regs = append(regs, region2D{lo: lo, hi: hi, top: slices.Clone(ids[:k])})
	}
	for i := range regs {
		r := &regs[i]
		switch {
		case t0 < r.lo:
			r.minDist = math.Sqrt2 * (r.lo - t0)
		case t0 > r.hi:
			r.minDist = math.Sqrt2 * (t0 - r.hi)
		}
	}
	sort.SliceStable(regs, func(a, b int) bool { return regs[a].minDist < regs[b].minDist })
	return regs
}

// checkORU2D runs ORUWithCtx over pts and checks it against oracleORU2D.
// The oracle's answer takes regions in increasing distance until their
// top-k lists hold m distinct records; rho is the last one's distance.
//   - ErrInsufficientData comes back exactly when all regions together
//     hold fewer than m records;
//   - the record set is the oracle's and Rho is within 1e-9 of its rho;
//   - every oracle region closer than rho − 1e-9 is reported, with its
//     ordered top-k and a MinDist within 1e-9;
//   - every reported region is an oracle region, at a MinDist within 1e-9.
//
// It reports whether ORU answered.
func checkORU2D(t *testing.T, name string, pts []geom.Vector, w geom.Vector, k, m int) bool {
	t.Helper()
	regs := oracleORU2D(pts, w[0], k)
	want := map[int]bool{}
	rho := math.Inf(1)
	for _, r := range regs {
		for _, id := range r.top {
			want[id] = true
		}
		if len(want) >= m {
			rho = r.minDist
			break
		}
	}

	res, err := ORUWithCtx(context.Background(), rtree.BulkLoad(pts, rtree.WithFanout(4)), w, k, m, ORUOptions{})
	if math.IsInf(rho, 1) {
		if !errors.Is(err, ErrInsufficientData) {
			t.Fatalf("%s: the regions hold %d records for m = %d, want ErrInsufficientData, got %v", name, len(want), m, err)
		}
		return false
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := idSet(res.Records)
	if len(got) != len(res.Records) {
		t.Fatalf("%s: a record is returned twice: %v", name, res.Records)
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("%s: id %d missing from %v", name, id, res.Records)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	if math.Abs(res.Rho-rho) > 1e-9 {
		t.Fatalf("%s: rho %.12g, want %.12g", name, res.Rho, rho)
	}
	byTop := make(map[string]region2D, len(regs))
	for _, r := range regs {
		byTop[fmt.Sprint(r.top)] = r
	}
	reported := make(map[string]float64, len(res.Regions))
	for _, reg := range res.Regions {
		top := make([]int, len(reg.TopK))
		for i, r := range reg.TopK {
			top[i] = r.ID
		}
		key := fmt.Sprint(top)
		o, ok := byTop[key]
		if !ok {
			t.Fatalf("%s: reported top-k %s holds nowhere in the domain", name, key)
		}
		if math.Abs(reg.MinDist-o.minDist) > 1e-9 {
			t.Fatalf("%s: top-k %s at MinDist %.12g, want %.12g", name, key, reg.MinDist, o.minDist)
		}
		reported[key] = reg.MinDist
	}
	for _, r := range regs {
		if r.minDist >= rho-1e-9 {
			break
		}
		if _, ok := reported[fmt.Sprint(r.top)]; !ok {
			t.Fatalf("%s: top-k %v on t in [%g, %g] at MinDist %.12g < rho %.12g not reported", name, r.top, r.lo, r.hi, r.minDist, rho)
		}
	}
	return true
}

// TestORUMatchesOracle2D runs ORU at d = 2 against oracleORU2D on tie-free
// data: IND, a correlated band and an anticorrelated band kept inside the
// unit square without clamping, at k = 1–4 and m = k…k+7. Clamped data such
// as antiPoints' waits for a tie rule: its records with x0 = 1 all tie at
// w = (1, 0), where ORU reports top-k lists that hold only at that corner.
func TestORUMatchesOracle2D(t *testing.T) {
	gens := []struct {
		name string
		gen  func(u, v float64) geom.Vector
	}{
		{"IND", func(u, v float64) geom.Vector { return geom.Vector{u, v} }},
		{"COR", func(u, v float64) geom.Vector { return geom.Vector{0.1 + 0.8*u, 0.1 + 0.8*u + 0.2*(v-0.5)} }},
		{"ANTI", func(u, v float64) geom.Vector { return geom.Vector{0.1 + 0.8*u, 0.9 - 0.8*u + 0.2*(v-0.5)} }},
	}
	trials := 200
	if raceflag.Enabled {
		trials = 30
	}
	rng := rand.New(rand.NewSource(2021))
	answered := 0
	for trial := 0; trial < trials; trial++ {
		g := gens[trial%len(gens)]
		n := 20 + rng.Intn(60)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = g.gen(rng.Float64(), rng.Float64())
		}
		w := geom.RandSimplex(rng, 2)
		k := 1 + rng.Intn(4)
		m := k + rng.Intn(8)
		if checkORU2D(t, fmt.Sprintf("trial %d/%s/n=%d/k=%d/m=%d", trial, g.name, n, k, m), pts, w, k, m) {
			answered++
		}
	}
	if answered < trials/2 {
		t.Fatalf("only %d of %d trials were answered; the oracle checks too little", answered, trials)
	}
}
