package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/raceflag"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// oracleRadii returns every record's inflection radius straight from
// Definition 1: the k-th largest mindist over the records that outscore
// it, where a record of equal score counts only when it dominates outright
// (mindist +Inf), or 0 with fewer than k of them. +Inf marks the records
// outside the k-skyband, which no radius admits.
func oracleRadii(w geom.Vector, pts []geom.Vector, k int) []float64 {
	radii := make([]float64, len(pts))
	var ws skyband.Workspace
	for i, p := range pts {
		si := p.Dot(w)
		var mds []float64
		for j, q := range pts {
			if sj := q.Dot(w); j != i && sj >= si && (sj > si || q.Dominates(p)) {
				mds = append(mds, skyband.MindistWS(w, p, q, &ws))
			}
		}
		radii[i] = skyband.InflectionRadius(mds, k)
	}
	return radii
}

// checkORD runs ORDCtx over pts and checks it against oracleRadii. The
// expected answer is the m records of smallest finite radius:
//   - each returned radius is within 1e-9 of its record's oracle radius,
//     and the radii never decrease;
//   - the record set is the expected one, except among records whose
//     oracle radius lies within 1e-12 of the m-th (a score tie's rounding
//     size mindist, or bit-equal radii, may pick either);
//   - Rho is the m-th returned radius;
//   - ErrInsufficientData comes back exactly when fewer than m radii are
//     finite.
func checkORD(t *testing.T, name string, tree *rtree.Tree, pts []geom.Vector, w geom.Vector, k, m int) {
	t.Helper()
	radii := oracleRadii(w, pts, k)
	var finite []float64
	for _, r := range radii {
		if !math.IsInf(r, 1) {
			finite = append(finite, r)
		}
	}
	sort.Float64s(finite)

	res, err := ORDCtx(context.Background(), tree, w, k, m)
	if len(finite) < m {
		if !errors.Is(err, ErrInsufficientData) {
			t.Fatalf("%s: %d finite radii for m = %d, want ErrInsufficientData, got %v", name, len(finite), m, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %d finite radii for m = %d: %v", name, len(finite), m, err)
	}
	if len(res.Records) != m || len(res.Radii) != m {
		t.Fatalf("%s: %d records and %d radii, want m = %d", name, len(res.Records), len(res.Radii), m)
	}
	mth := finite[m-1]
	got := make(map[int]bool, m)
	for i, rec := range res.Records {
		if rec.ID < 0 || rec.ID >= len(pts) || got[rec.ID] {
			t.Fatalf("%s: record %d: id %d out of range or returned twice", name, i, rec.ID)
		}
		got[rec.ID] = true
		if want := radii[rec.ID]; math.Abs(res.Radii[i]-want) > 1e-9 {
			t.Fatalf("%s: record %d: id %d at radius %g, oracle %g", name, i, rec.ID, res.Radii[i], want)
		}
		if i > 0 && res.Radii[i] < res.Radii[i-1] {
			t.Fatalf("%s: radii decrease at %d: %g after %g", name, i, res.Radii[i], res.Radii[i-1])
		}
		if radii[rec.ID] > mth+1e-12 {
			t.Fatalf("%s: id %d (oracle radius %g) returned, m-th smallest radius is %g", name, rec.ID, radii[rec.ID], mth)
		}
	}
	for id, r := range radii {
		if r < mth-1e-12 && !got[id] {
			t.Fatalf("%s: id %d (oracle radius %g) missing, m-th smallest radius is %g", name, id, r, mth)
		}
	}
	if math.Float64bits(res.Rho) != math.Float64bits(res.Radii[m-1]) {
		t.Fatalf("%s: Rho %g, m-th radius %g", name, res.Rho, res.Radii[m-1])
	}
}

// TestORDMatchesOracle runs ORD on continuous and degenerate data — exact
// duplicates, 5-level grids and clamped ANTI, whose records pile up on the
// unit faces — at d = 2, 3, 4 and 8, k = 1, 2 and 5, m = k and m = 4k+6,
// against oracleRadii. Fanout 4 puts many node entries through the
// scanner's push-time pruning; fanout 32 is close to the default.
func TestORDMatchesOracle(t *testing.T) {
	gens := []struct {
		name string
		gen  func(rng *rand.Rand, n, d int) []geom.Vector
	}{
		{"IND", randPoints},
		{"DUP", dupPoints},
		{"GRID", func(rng *rand.Rand, n, d int) []geom.Vector { return gridPoints(n, d, rng.Int63()) }},
		{"ANTI", func(rng *rand.Rand, n, d int) []geom.Vector { return data.Synthetic(data.ANTI, n, d, rng.Int63()) }},
	}
	for gi, g := range gens {
		for _, c := range []struct{ d, n int }{{2, 400}, {3, 400}, {4, 300}, {8, 120}} {
			for _, k := range []int{1, 2, 5} {
				for _, fanout := range []int{4, 32} {
					rng := rand.New(rand.NewSource(int64(1000*gi + 100*c.d + 10*k + fanout)))
					pts := g.gen(rng, c.n, c.d)
					w := geom.RandSimplex(rng, c.d)
					tree := rtree.BulkLoad(pts, rtree.WithFanout(fanout))
					for _, m := range []int{k, 4*k + 6} {
						checkORD(t, fmt.Sprintf("%s/d=%d/k=%d/fanout=%d/m=%d", g.name, c.d, k, fanout, m), tree, pts, w, k, m)
					}
				}
			}
		}
	}
}

// FuzzORD decodes a tiny dataset and runs ORD over it against oracleRadii.
// The first byte picks d in 2–8, k in 1–3 and the R-tree fanout in 3–6
// (small fanouts put node entries in the BBS heap even at n ≤ 48); the
// second picks m in k to k+23; the next d bytes give a strictly positive
// seed. Each record then starts with a control byte: copy an earlier
// record (exact duplicates), a 5-level grid point (exact score ties), or a
// point on a 256-level grid.
func FuzzORD(f *testing.F) {
	f.Add([]byte{0, 3, 1, 1, 2, 10, 20, 1, 0, 4, 0, 1, 4, 2})
	f.Add([]byte{13, 0, 9, 9, 9, 1, 0, 1, 2, 3, 4, 0, 4, 3, 2, 1, 0, 2, 2, 2, 2, 4, 1, 4, 4, 0, 0, 8})
	f.Add([]byte{20, 7, 5, 9, 200, 3, 17, 200, 100, 2, 255, 0, 2, 0, 255, 2, 128, 128, 0, 5, 1, 1, 3, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			t.Skip("no shape or m byte")
		}
		d := 2 + int(in[0])%7
		k := 1 + int(in[0])/7%3
		fanout := 3 + int(in[0])/21%4
		m := k + int(in[1])%24
		in = in[2:]
		if len(in) < d {
			t.Skip("no seed")
		}
		w := make(geom.Vector, d)
		sum := 0.0
		for j := range w {
			w[j] = float64(in[j]) + 1
			sum += w[j]
		}
		for j := range w {
			w[j] /= sum
		}
		in = in[d:]
		var pts []geom.Vector
		for len(pts) < 48 && len(in) > 0 {
			c := in[0]
			in = in[1:]
			if c%4 == 0 && len(pts) > 0 {
				pts = append(pts, append(geom.Vector(nil), pts[int(c/4)%len(pts)]...))
				continue
			}
			if len(in) < d {
				break
			}
			p := make(geom.Vector, d)
			for j := range p {
				if c%4 == 1 {
					p[j] = float64(in[j]%5) / 4
				} else {
					p[j] = float64(in[j]) / 255
				}
			}
			in = in[d:]
			pts = append(pts, p)
		}
		if len(pts) == 0 {
			t.Skip("no records")
		}
		checkORD(t, fmt.Sprintf("d=%d k=%d m=%d n=%d", d, k, m, len(pts)), rtree.BulkLoad(pts, rtree.WithFanout(fanout)), pts, w, k, m)
	})
}

// TestORDScanAllocs is the scan's allocation gate. A warmed ORDCtx on
// BenchmarkDefaultsORD's shape (the same IND 50K×4 tree and 16 seeds, k=5,
// m=30) allocates its result, the candidate heap and the growth of the
// scan's heap and buffers, about 58 times per query, but nothing per heap
// entry or per mindist; per-entry allocation would cost over a thousand.
func TestORDScanAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tree := rtree.BulkLoad(data.Synthetic(data.IND, 50_000, 4, 7_2021))
	rng := rand.New(rand.NewSource(4016))
	seeds := make([]geom.Vector, 16)
	for i := range seeds {
		seeds[i] = geom.RandSimplex(rng, 4)
	}
	ctx := context.Background()
	i := 0
	query := func() {
		if _, err := ORDCtx(ctx, tree, seeds[i%len(seeds)], 5, 30); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range seeds {
		query()
	}
	avg := testing.AllocsPerRun(3*len(seeds), query)
	t.Logf("%.1f allocations per query", avg)
	if avg > 116 {
		t.Fatalf("warmed ORDCtx allocates %.1f times per query, want at most 116", avg)
	}
}
