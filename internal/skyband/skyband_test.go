package skyband

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/rtree"
)

func randPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// bruteKSkyband is the O(n^2) reference.
func bruteKSkyband(pts []geom.Vector, k int) map[int]bool {
	out := map[int]bool{}
	for i, p := range pts {
		dom := 0
		for j, q := range pts {
			if i != j && q.Dominates(p) {
				dom++
			}
		}
		if dom < k {
			out[i] = true
		}
	}
	return out
}

// bruteRhoSkyband counts rho-dominators exhaustively.
func bruteRhoSkyband(w geom.Vector, pts []geom.Vector, k int, rho float64) map[int]bool {
	out := map[int]bool{}
	for i, p := range pts {
		dom := 0
		si := p.Dot(w)
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Dot(w) > si && Mindist(w, p, q) >= rho {
				dom++
			} else if q.Dot(w) == si && q.Dominates(p) {
				dom++
			}
		}
		if dom < k {
			out[i] = true
		}
	}
	return out
}

func idsOf(ms []Member) []int {
	ids := make([]int, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	sort.Ints(ids)
	return ids
}

func sameSet(t *testing.T, got []int, want map[int]bool, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", label, len(got), len(want))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("%s: unexpected id %d", label, id)
		}
	}
}

func TestKSkybandMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{2, 3, 4} {
		for _, k := range []int{1, 3, 5} {
			pts := randPoints(rng, 300, d)
			tr := rtree.BulkLoad(pts)
			got := idsOf(KSkyband(tr, k))
			want := bruteKSkyband(pts, k)
			sameSet(t, got, want, "k-skyband")
		}
	}
}

func TestKSkybandScoreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := randPoints(rng, 500, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.Vector{0.2, 0.5, 0.3}
	ms, err := KSkybandForCtx(context.Background(), tr, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Point.Dot(w) > ms[i-1].Point.Dot(w)+1e-12 {
			t.Fatalf("emission not in decreasing score order at %d", i)
		}
	}
}

func TestMindistAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		d := 2 + rng.Intn(4)
		w := geom.RandSimplex(rng, d)
		ri := geom.Vector(randPoints(rng, 1, d)[0])
		rj := geom.Vector(randPoints(rng, 1, d)[0])
		if rj.Dot(w) < ri.Dot(w) {
			ri, rj = rj, ri
		}
		md := Mindist(w, ri, rj)
		if math.IsInf(md, 1) {
			// rj must outscore ri for every sampled vector.
			for s := 0; s < 2000; s++ {
				v := geom.RandSimplex(rng, d)
				if ri.Dot(v) > rj.Dot(v)+1e-12 {
					t.Fatalf("iter %d: mindist=Inf but ri wins at %v", iter, v)
				}
			}
			continue
		}
		// Within radius md (minus slack), rj must outscore ri.
		for s := 0; s < 2000; s++ {
			v := geom.RandSimplex(rng, d)
			if v.Dist(w) < md-1e-9 && ri.Dot(v) > rj.Dot(v)+1e-12 {
				t.Fatalf("iter %d: ri outscores rj at dist %g < mindist %g",
					iter, v.Dist(w), md)
			}
		}
		// There must be a tie point at distance ~md: verify via dense
		// sampling that some vector close to distance md has a near-tie.
		// (Weaker check: mindist is not absurdly large.)
		if md > geom.MaxSimplexDist(w)+1e-9 {
			t.Fatalf("iter %d: mindist %g exceeds domain diameter", iter, md)
		}
	}
}

func TestMindistDominance(t *testing.T) {
	w := geom.Vector{0.5, 0.5}
	ri := geom.Vector{0.2, 0.3}
	rj := geom.Vector{0.4, 0.5}
	if !math.IsInf(Mindist(w, ri, rj), 1) {
		t.Error("dominating record must have infinite mindist")
	}
}

func TestMindistHandComputed(t *testing.T) {
	// d=2: records (1,0) and (0,1). Tie at v=(0.5,0.5).
	// From w=(0.7,0.3): ri=(0,1) scores 0.3, rj=(1,0) scores 0.7.
	w := geom.Vector{0.7, 0.3}
	ri := geom.Vector{0, 1}
	rj := geom.Vector{1, 0}
	want := w.Dist(geom.Vector{0.5, 0.5})
	if got := Mindist(w, ri, rj); math.Abs(got-want) > 1e-9 {
		t.Errorf("Mindist = %g, want %g", got, want)
	}
}

// TestMindistAtLeastMatchesMindistWS: the threshold test answers exactly
// MindistWS(...) >= rho at rho equal to the computed mindist, one ulp
// either side of it, half and twice it. The pairs are random IND and ANTI
// records in score order at d = 2-8, outright dominance, exact duplicates,
// near-duplicates whose difference is parallel to the all-ones vector at
// 1e-10 and at 1 ulp, and qpFallbackInput. A fresh workspace shows which
// path ran (its projection buffer stays nil until the projection runs), so
// the test also requires pairs whose foot lies inside the simplex, pairs
// whose foot lies outside that the closed-form bound settles, and pairs
// that need the projection.
func TestMindistAtLeastMatchesMindistWS(t *testing.T) {
	type pair struct{ w, ri, rj geom.Vector }
	rng := rand.New(rand.NewSource(146))
	var pairs []pair
	for d := 2; d <= 8; d++ {
		for _, pts := range [][]geom.Vector{randPoints(rng, 80, d), data.Synthetic(data.ANTI, 80, d, rng.Int63())} {
			for i := 0; i+1 < len(pts); i += 2 {
				w := geom.RandSimplex(rng, d)
				ri, rj := pts[i], pts[i+1]
				if rj.Dot(w) < ri.Dot(w) {
					ri, rj = rj, ri
				}
				dom := append(geom.Vector(nil), ri...)
				dom[rng.Intn(d)] += 0.1
				dup := append(geom.Vector(nil), ri...)
				pairs = append(pairs, pair{w, ri, rj}, pair{w, ri, dom}, pair{w, ri, dup})
				for _, eps := range []float64{1e-10, 0} {
					near := append(geom.Vector(nil), ri...)
					if eps > 0 {
						near[0] += eps
						near[1] -= eps
					} else {
						near[0] = math.Nextafter(near[0], 2)
						near[1] = math.Nextafter(near[1], -1)
					}
					if near.Dot(w) < ri.Dot(w) {
						pairs = append(pairs, pair{w, near, ri})
					} else {
						pairs = append(pairs, pair{w, ri, near})
					}
				}
			}
		}
	}
	w, ri, rj := qpFallbackInput()
	pairs = append(pairs, pair{w, ri, rj})

	var inside, bounded, projected int
	for n, p := range pairs {
		var ws Workspace
		md := MindistWS(p.w, p.ri, p.rj, &ws)
		footOutside := ws.a != nil
		for _, rho := range []float64{md, math.Nextafter(md, math.Inf(1)), math.Nextafter(md, math.Inf(-1)), 0.5 * md, 2 * md} {
			var fresh Workspace
			got := mindistAtLeast(p.w, p.ri, p.rj, rho, &fresh)
			if want := md >= rho; got != want {
				t.Fatalf("pair %d (w=%v ri=%v rj=%v): mindistAtLeast(rho=%v) = %v, MindistWS = %v", n, p.w, p.ri, p.rj, rho, got, md)
			}
			switch {
			case !footOutside:
				inside++
			case fresh.a == nil:
				bounded++
			default:
				projected++
			}
		}
	}
	t.Logf("%d pairs, %d tests: foot inside %d, outside settled by the bound %d, projected %d", len(pairs), inside+bounded+projected, inside, bounded, projected)
	if inside == 0 || bounded == 0 || projected == 0 {
		t.Fatalf("paths not all covered: foot inside %d, outside settled by the bound %d, projected %d", inside, bounded, projected)
	}
}

func TestInflectionRadius(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		mindists []float64
		k        int
		want     float64
	}{
		{[]float64{}, 1, 0},
		{[]float64{0.5}, 2, 0},
		{[]float64{0.5}, 1, 0.5},
		{[]float64{0.1, 0.3, 0.2}, 1, 0.3},
		{[]float64{0.1, 0.3, 0.2}, 2, 0.2},
		{[]float64{0.1, 0.3, 0.2}, 3, 0.1},
		{[]float64{inf, 0.4}, 1, inf},
		{[]float64{inf, 0.4}, 2, 0.4},
	}
	for _, c := range cases {
		if got := InflectionRadius(c.mindists, c.k); got != c.want {
			t.Errorf("InflectionRadius(%v, %d) = %g, want %g", c.mindists, c.k, got, c.want)
		}
	}
}

func TestRhoSkybandExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := randPoints(rng, 400, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	k := 5

	// rho = 0 gives exactly the top-k.
	got := idsOf(rhoSkyband(t, tr, w, k, 0))
	scores := make([]float64, len(pts))
	for i, p := range pts {
		scores[i] = p.Dot(w)
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	want := map[int]bool{}
	for _, id := range order[:k] {
		want[id] = true
	}
	sameSet(t, got, want, "rho=0 skyband vs top-k")

	// rho = +Inf gives the whole k-skyband.
	got = idsOf(rhoSkyband(t, tr, w, k, math.Inf(1)))
	sameSet(t, got, bruteKSkyband(pts, k), "rho=Inf skyband vs k-skyband")
}

func TestRhoSkybandMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 6; iter++ {
		d := 2 + iter%3
		pts := randPoints(rng, 150, d)
		tr := rtree.BulkLoad(pts)
		w := geom.RandSimplex(rng, d)
		k := 1 + iter%3
		rho := 0.05 + 0.1*rng.Float64()
		got := idsOf(rhoSkyband(t, tr, w, k, rho))
		want := bruteRhoSkyband(w, pts, k, rho)
		sameSet(t, got, want, "rho-skyband vs brute")
	}
}

func TestRhoSkybandMonotonicInRho(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pts := randPoints(rng, 300, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	prev := map[int]bool{}
	first := true
	for _, rho := range []float64{0, 0.02, 0.05, 0.1, 0.2, 0.5, 1} {
		cur := map[int]bool{}
		for _, m := range rhoSkyband(t, tr, w, 3, rho) {
			cur[m.ID] = true
		}
		if !first {
			for id := range prev {
				if !cur[id] {
					t.Fatalf("rho-skyband not monotone: id %d lost at rho=%g", id, rho)
				}
			}
		}
		prev, first = cur, false
	}
}

func TestIRDOrderAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 4; iter++ {
		d := 2 + iter%3
		k := 1 + iter
		pts := randPoints(rng, 200, d)
		tr := rtree.BulkLoad(pts)
		w := geom.RandSimplex(rng, d)

		ird := NewIRD(tr, w, k)
		var rel []Released
		for {
			r, ok, err := ird.NextCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rel = append(rel, r)
		}
		// Released radii must be non-decreasing.
		for i := 1; i < len(rel); i++ {
			if rel[i].Radius < rel[i-1].Radius-1e-12 {
				t.Fatalf("IRD radii not sorted: %g before %g", rel[i-1].Radius, rel[i].Radius)
			}
		}
		// The released set must be exactly the k-skyband.
		want := bruteKSkyband(pts, k)
		ids := make([]int, len(rel))
		for i, r := range rel {
			ids[i] = r.ID
		}
		sort.Ints(ids)
		sameSet(t, ids, want, "IRD releases vs k-skyband")
		// Radii must match the brute-force inflection radii.
		for _, r := range rel {
			var mds []float64
			si := r.Point.Dot(w)
			for j, q := range pts {
				if j == r.ID {
					continue
				}
				if q.Dot(w) > si {
					mds = append(mds, Mindist(w, r.Point, q))
				}
			}
			want := InflectionRadius(mds, k)
			if math.Abs(want-r.Radius) > 1e-9 {
				t.Fatalf("IRD radius for id %d = %g, brute = %g", r.ID, r.Radius, want)
			}
		}
	}
}

func TestIRDPrefixProperty(t *testing.T) {
	// The first j releases must form the rho-skyband for the j-th radius.
	rng := rand.New(rand.NewSource(28))
	pts := randPoints(rng, 250, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	k := 3
	ird := NewIRD(tr, w, k)
	var rel []Released
	for i := 0; i < 30; i++ {
		r, ok, err := ird.NextCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rel = append(rel, r)
	}
	if len(rel) < 10 {
		t.Fatalf("too few releases: %d", len(rel))
	}
	j := 10
	// Membership starts strictly past the inflection radius (at the radius
	// itself the k-th dominating interval still covers it), so probe just
	// above the release radius.
	rho := rel[j-1].Radius*(1+1e-9) + 1e-12
	want := bruteRhoSkyband(w, pts, k, rho)
	// All releases with radius <= rho must be in want and vice versa.
	got := map[int]bool{}
	for _, r := range rel[:j] {
		got[r.ID] = true
	}
	// There may be ties at radius rho; allow got to be a subset of want
	// with |want| >= j, and require every got member in want.
	if len(want) < j {
		t.Fatalf("rho-skyband at release radius has %d < %d records", len(want), j)
	}
	for id := range got {
		if !want[id] {
			t.Fatalf("released id %d not in rho-skyband at its radius", id)
		}
	}
}

func TestScannerVisitsAllWithoutPruner(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := randPoints(rng, 100, 2)
	tr := rtree.BulkLoad(pts)
	w := geom.Vector{0.6, 0.4}
	sc := NewScanner(tr, w)
	var prev float64 = math.Inf(1)
	count := 0
	for {
		_, p, ok := sc.Next(nil)
		if !ok {
			break
		}
		s := p.Dot(w)
		if s > prev+1e-12 {
			t.Fatal("scanner emitted out of score order")
		}
		prev = s
		count++
	}
	if count != len(pts) {
		t.Fatalf("scanner emitted %d of %d", count, len(pts))
	}
}

func TestRhoDominates(t *testing.T) {
	w := geom.Vector{0.5, 0.5}
	hi := geom.Vector{0.9, 0.8}
	lo := geom.Vector{0.1, 0.2}
	if !RhoDominates(w, hi, lo, 0.1) {
		t.Error("dominating record must rho-dominate at any radius")
	}
	if RhoDominates(w, lo, hi, 0.1) {
		t.Error("lower-scoring record cannot rho-dominate")
	}
	// Incomparable pair: (1,0) vs (0.4,0.55): scores 0.5 vs 0.475.
	a := geom.Vector{1, 0}
	b := geom.Vector{0.4, 0.55}
	md := Mindist(w, b, a)
	if !RhoDominates(w, a, b, md-1e-9) {
		t.Error("should dominate below mindist")
	}
	if RhoDominates(w, a, b, md+1e-6) {
		t.Error("should not dominate above mindist")
	}
}

// rhoSkyband is RhoSkybandCtx under a context that is never cancelled.
func rhoSkyband(t *testing.T, tr *rtree.Tree, w geom.Vector, k int, rho float64) []Member {
	t.Helper()
	out, err := RhoSkybandCtx(context.Background(), tr, w, k, rho)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
