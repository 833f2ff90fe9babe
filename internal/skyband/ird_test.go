package skyband

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// bruteRadii returns every record's inflection radius straight from the
// definition: the k-th largest mindist over the records that outscore it
// (a record of equal score counts only when it dominates outright, with
// mindist +Inf), or 0 with fewer than k of them. A record is in the
// rho-skyband exactly when its radius is below rho, and +Inf marks the
// records outside the k-skyband.
func bruteRadii(w geom.Vector, pts []geom.Vector, k int) []float64 {
	radii := make([]float64, len(pts))
	var ws Workspace
	for i, p := range pts {
		si := p.Dot(w)
		var mds []float64
		for j, q := range pts {
			if sj := q.Dot(w); j != i && sj >= si && (sj > si || q.Dominates(p)) {
				mds = append(mds, MindistWS(w, p, q, &ws))
			}
		}
		radii[i] = InflectionRadius(mds, k)
	}
	return radii
}

// checkIRD drains IRD over pts and checks the whole release sequence
// against the brute-force oracle:
//   - radii never decrease, and each is within 1e-9 of its record's brute
//     radius;
//   - the released set is the k-skyband;
//   - the brute radii of the releases never decrease either, so the ids of
//     each distinct radius come out as one run, in any order within it.
//     The slack of 1e-12 is for score ties: a record tied with one fetched
//     before it picks up a mindist of rounding size (about 1e-17) where
//     the definition gives none;
//   - after every release j the released set lies inside the rho-skyband
//     just above rel[j-1] and holds every member whose radius is below
//     rel[j-1] - 1e-12, so no release came early or late.
func checkIRD(t *testing.T, name string, tree *rtree.Tree, pts []geom.Vector, w geom.Vector, k int) {
	t.Helper()
	radii := bruteRadii(w, pts, k)
	skyband := bruteKSkyband(pts, k)
	var members []int // k-skyband ids by brute radius
	for id := range skyband {
		members = append(members, id)
	}
	sort.Ints(members)
	sort.SliceStable(members, func(a, b int) bool { return radii[members[a]] < radii[members[b]] })

	ird := NewIRD(tree, w, k)
	released := map[int]bool{}
	var last Released
	maxBrute, next := 0.0, 0
	for j := 0; ; j++ {
		r, ok, err := ird.NextCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r.ID < 0 || r.ID >= len(pts) || released[r.ID] {
			t.Fatalf("%s: release %d: id %d out of range or released twice", name, j, r.ID)
		}
		if want := radii[r.ID]; math.Abs(r.Radius-want) > 1e-9 {
			t.Fatalf("%s: release %d: id %d at radius %g, brute %g", name, j, r.ID, r.Radius, want)
		}
		if j > 0 && (r.Radius < last.Radius || radii[r.ID] < radii[last.ID]-1e-12) {
			t.Fatalf("%s: release %d: id %d at radius %g (brute %g) after id %d at %g (brute %g)",
				name, j, r.ID, r.Radius, radii[r.ID], last.ID, last.Radius, radii[last.ID])
		}
		released[r.ID] = true
		last = r
		maxBrute = math.Max(maxBrute, radii[r.ID])
		// Membership starts strictly past the inflection radius, so probe
		// just above it, as TestIRDPrefixProperty does.
		if above := r.Radius*(1+1e-9) + 1e-12; maxBrute >= above {
			t.Fatalf("%s: after release %d (radius %g) the released set leaves the rho-skyband just above it (brute radius %g)", name, j, r.Radius, maxBrute)
		}
		for ; next < len(members) && radii[members[next]] < r.Radius-1e-12; next++ {
			if !released[members[next]] {
				t.Fatalf("%s: after release %d (radius %g) id %d with radius %g is still held back", name, j, r.Radius, members[next], radii[members[next]])
			}
		}
	}
	if len(released) != len(skyband) {
		t.Fatalf("%s: released %d records, k-skyband has %d", name, len(released), len(skyband))
	}
	for id := range skyband {
		if !released[id] {
			t.Fatalf("%s: k-skyband member %d never released", name, id)
		}
	}
}

// dupRecords draws n records from a pool of n/4 distinct IND points, so
// most records share their coordinates with several others.
func dupRecords(rng *rand.Rand, n, d int) []geom.Vector {
	pool := randPoints(rng, n/4, d)
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = append(geom.Vector(nil), pool[rng.Intn(len(pool))]...)
	}
	return pts
}

// TestIRDMatchesOracle drains IRD on continuous and degenerate data —
// exact duplicates, 5-level grids and clamped ANTI, whose records pile up
// on the unit faces — at d = 2, 3, 4 and 8 and k = 1, 2 and 5, against the
// brute-force oracle of checkIRD.
func TestIRDMatchesOracle(t *testing.T) {
	gens := []struct {
		name string
		gen  func(rng *rand.Rand, n, d int) []geom.Vector
	}{
		{"IND", randPoints},
		{"DUP", dupRecords},
		{"GRID", func(rng *rand.Rand, n, d int) []geom.Vector { return tiePoints(rng, n, d, 5) }},
		{"ANTI", func(rng *rand.Rand, n, d int) []geom.Vector { return data.Synthetic(data.ANTI, n, d, rng.Int63()) }},
	}
	for gi, g := range gens {
		for _, c := range []struct{ d, n int }{{2, 400}, {3, 400}, {4, 300}, {8, 120}} {
			for _, k := range []int{1, 2, 5} {
				name := fmt.Sprintf("%s/d=%d/k=%d", g.name, c.d, k)
				rng := rand.New(rand.NewSource(int64(1000*gi + 10*c.d + k)))
				pts := g.gen(rng, c.n, c.d)
				w := geom.RandSimplex(rng, c.d)
				checkIRD(t, name, rtree.BulkLoad(pts), pts, w, k)
			}
		}
	}
}

// FuzzIRD decodes a tiny dataset and drains IRD over it against the
// brute-force oracle of checkIRD. The first byte picks d in 2–8, k in 1–3
// and the R-tree fanout in 3–6 (small fanouts put node entries in the BBS
// heap even at n ≤ 48); the next d bytes give a strictly positive seed.
// Each record then starts with a control byte: copy an earlier record
// (exact duplicates), a 5-level grid point (exact score ties), or a point
// on a 256-level grid.
func FuzzIRD(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 10, 20, 1, 0, 4, 0, 1, 4, 2})
	f.Add([]byte{13, 9, 9, 9, 1, 0, 1, 2, 3, 4, 0, 4, 3, 2, 1, 0, 2, 2, 2, 2, 4, 1, 4, 4, 0, 0, 8})
	f.Add([]byte{20, 5, 9, 200, 3, 17, 200, 100, 2, 255, 0, 2, 0, 255, 2, 128, 128, 0, 5, 1, 1, 3, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			t.Skip("no shape byte")
		}
		d := 2 + int(in[0])%7
		k := 1 + int(in[0])/7%3
		fanout := 3 + int(in[0])/21%4
		in = in[1:]
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
		checkIRD(t, fmt.Sprintf("d=%d k=%d n=%d", d, k, len(pts)), rtree.BulkLoad(pts, rtree.WithFanout(fanout)), pts, w, k)
	})
}
