package fixedregion

import (
	"math"
	"math/rand"
	"sort"
	"testing"

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

// boxVertices lists the vertices of b's box intersected with the simplex,
// rebuilt from its Center and Side: at a vertex every coordinate but one
// sits at one of its bounds, and the free one takes the remaining mass
// within its own bounds (up to rdomTol, the slack Feasible gives the bound
// sums). A vertex may be listed more than once.
func boxVertices(b *BoxRegion) []geom.Vector {
	d := len(b.Center)
	lo, hi := make([]float64, d), make([]float64, d)
	for i, c := range b.Center {
		lo[i] = math.Max(0, c-b.Side/2)
		hi[i] = math.Min(1, c+b.Side/2)
	}
	var out []geom.Vector
	for free := 0; free < d; free++ {
		for mask := 0; mask < 1<<d; mask++ {
			if mask&(1<<free) != 0 {
				continue
			}
			v := make(geom.Vector, d)
			rest := 1.0
			for i := range v {
				if i == free {
					continue
				}
				v[i] = lo[i]
				if mask&(1<<i) != 0 {
					v[i] = hi[i]
				}
				rest -= v[i]
			}
			if rest < lo[free]-rdomTol || rest > hi[free]+rdomTol {
				continue
			}
			v[free] = rest
			out = append(out, v)
		}
	}
	return out
}

// minAtVertices is the minimum of a.v over the vertices vs of a polytope,
// which is its minimum over the polytope. ok is false when vs is empty:
// the box misses the simplex.
func minAtVertices(vs []geom.Vector, a geom.Vector) (float64, bool) {
	if len(vs) == 0 {
		return 0, false
	}
	lo := math.Inf(1)
	for _, v := range vs {
		lo = math.Min(lo, a.Dot(v))
	}
	return lo, true
}

// rDominatesAtVertices decides R-dominance at the vertices vs of the
// region ([20]): the linear score difference ri - rj is non-negative over
// the polytope exactly when it is at every vertex, and positive somewhere
// exactly when it is at some vertex.
func rDominatesAtVertices(vs []geom.Vector, ri, rj geom.Vector) bool {
	diff := ri.Sub(rj)
	some := false
	for _, v := range vs {
		s := diff.Dot(v)
		if s < -rdomTol {
			return false
		}
		some = some || s > rdomTol
	}
	return some
}

func TestMinOver(t *testing.T) {
	simplex := NewBox(geom.Vector{0.5, 0.5}, 4)
	// min of v1 over the simplex is 0, min of -v1 is -1.
	if v, ok := simplex.MinOver(geom.Vector{1, 0}); !ok || math.Abs(v) > 1e-9 {
		t.Errorf("min v1 = %g ok=%v", v, ok)
	}
	if v, ok := simplex.MinOver(geom.Vector{-1, 0}); !ok || math.Abs(v+1) > 1e-9 {
		t.Errorf("min -v1 = %g ok=%v", v, ok)
	}
	// Over a box around (0.5,0.5) with side 0.2, min v1 = 0.4.
	boxed := NewBox(geom.Vector{0.5, 0.5}, 0.2)
	if v, ok := boxed.MinOver(geom.Vector{1, 0}); !ok || math.Abs(v-0.4) > 1e-9 {
		t.Errorf("boxed min v1 = %g ok=%v", v, ok)
	}
}

func TestRDominates(t *testing.T) {
	box := NewBox(geom.Vector{0.5, 0.5}, 0.2)
	hi := geom.Vector{0.8, 0.8}
	lo := geom.Vector{0.3, 0.3}
	if !RDominatesBox(box, hi, lo) {
		t.Error("coordinate dominance must imply R-dominance")
	}
	if RDominatesBox(box, lo, hi) {
		t.Error("reverse R-dominance")
	}
	// R-dominance is strict: an exact copy scores the same everywhere.
	if RDominatesBox(box, hi, hi.Clone()) {
		t.Error("a record must not R-dominate its exact copy")
	}
	// Incomparable records: a=(1,0) beats b=(0.4,0.5) exactly when
	// v1/v2 >= 5/6, i.e. v1 >= 5/11 ~ 0.4545. Within the box v1 ranges
	// [0.4, 0.6]: neither R-dominates the other.
	a := geom.Vector{1, 0}
	b := geom.Vector{0.4, 0.5}
	if RDominatesBox(box, a, b) || RDominatesBox(box, b, a) {
		t.Error("incomparable-within-R records must not R-dominate")
	}
	// A narrow box on a's side: a R-dominates b.
	narrow := NewBox(geom.Vector{0.8, 0.2}, 0.1)
	if !RDominatesBox(narrow, a, b) {
		t.Error("a must R-dominate b in the narrow box")
	}
}

// TestRSkybandMatchesBrute checks RSkyband against the definition: a
// record belongs exactly when fewer than k others dominate or R-dominate
// it. Each trial also holds an exact copy of its best record at w; a copy
// neither dominates nor R-dominates its original, so both must stay.
func TestRSkybandMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 4; trial++ {
		d := 2 + trial%3
		k := 1 + trial%2
		pts := randPoints(rng, 150, d)
		w := geom.RandSimplex(rng, d)
		best := 0
		for i, p := range pts {
			if p.Dot(w) > pts[best].Dot(w) {
				best = i
			}
		}
		pts = append(pts, pts[best].Clone())
		tr := rtree.BulkLoad(pts)
		box := NewBox(w, 0.15)
		verts := boxVertices(box)
		got := RSkyband(tr, w, box, k)
		gotIDs := map[int]bool{}
		for _, g := range got {
			gotIDs[g.ID] = true
		}
		if !gotIDs[best] || !gotIDs[len(pts)-1] {
			t.Fatalf("trial %d: best record %d in %v, its copy in %v", trial, best, gotIDs[best], gotIDs[len(pts)-1])
		}
		for i, p := range pts {
			dom := 0
			for j, q := range pts {
				if i != j && (q.Dominates(p) || rDominatesAtVertices(verts, q, p)) {
					dom++
				}
			}
			want := dom < k
			if want != gotIDs[i] {
				t.Fatalf("trial %d: id %d membership %v, want %v", trial, i, gotIDs[i], want)
			}
		}
	}
}

func TestTopKUnionMatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	d := 3
	pts := randPoints(rng, 120, d)
	tr := rtree.BulkLoad(pts)
	w := geom.Vector{0.3, 0.4, 0.3}
	boxReg := NewBox(w, 0.2)
	reg := boxReg.Region()
	k := 2
	got := TopKUnion(tr, w, boxReg, k)
	gotIDs := map[int]bool{}
	for _, g := range got {
		gotIDs[g.ID] = true
	}
	// Every sampled in-region top-k record must be reported.
	for s := 0; s < 4000; s++ {
		v := geom.RandDirichlet(rng, w, 80)
		if !reg.Contains(v) {
			continue
		}
		type sc struct {
			id int
			s  float64
		}
		all := make([]sc, len(pts))
		for i, p := range pts {
			all[i] = sc{i, p.Dot(v)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
		for r := 0; r < k; r++ {
			if !gotIDs[all[r].id] {
				t.Fatalf("sampled top-%d record %d at %v unreported", r+1, all[r].id, v)
			}
		}
	}
}

func TestRSBConvergesNearM(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := randPoints(rng, 2000, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	k, m := 3, 25
	res := RSB(tr, w, k, m, 0.10)
	if res.Trials < 1 {
		t.Fatal("no trials recorded")
	}
	// Convergence is best-effort; it must either land within tolerance or
	// exhaust the bracket. Check the reported achieved size is consistent.
	if res.Achieved != len(res.Records) {
		t.Fatalf("achieved %d but %d records", res.Achieved, len(res.Records))
	}
	if res.Achieved < m-m/2 || res.Achieved > 3*m {
		t.Errorf("RSB wildly off target: achieved %d for m=%d after %d trials",
			res.Achieved, m, res.Trials)
	}
}

func TestJAARunsAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := randPoints(rng, 500, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	k, m := 2, 10
	res := JAA(tr, w, k, m, 0.10)
	if res.Trials < 1 {
		t.Fatal("no trials recorded")
	}
	if res.Achieved != len(res.Records) {
		t.Fatalf("achieved %d but %d records", res.Achieved, len(res.Records))
	}
}
