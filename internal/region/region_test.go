package region

import (
	"math"
	"math/rand"
	"testing"

	"ordu/internal/geom"
)

// empty reports whether r has no feasible point, through the one
// feasible-point routine.
func empty(r Region) bool {
	var ws Workspace
	_, ok := r.FeasiblePointWS(&ws)
	return !ok
}

// minDist is MinDistWS on a fresh workspace.
func minDist(r Region, w geom.Vector) (float64, geom.Vector, bool) {
	var ws Workspace
	return r.MinDistWS(w, &ws)
}

// feasiblePoint is FeasiblePointWS on a fresh workspace.
func feasiblePoint(r Region) (geom.Vector, bool) {
	var ws Workspace
	return r.FeasiblePointWS(&ws)
}

func TestFullSimplex(t *testing.T) {
	r := Full(3)
	if empty(r) {
		t.Fatal("full simplex reported empty")
	}
	w := geom.Vector{0.2, 0.3, 0.5}
	d, c, ok := minDist(r, w)
	if !ok || d > 1e-9 {
		t.Fatalf("mindist from interior point = %g", d)
	}
	if !w.Equal(geom.Vector(c)) && w.Dist(geom.Vector(c)) > 1e-9 {
		t.Fatalf("closest = %v", c)
	}
	if !r.Contains(w) {
		t.Error("Contains(w) = false")
	}
	if r.Contains(geom.Vector{0.9, 0.9, 0.9}) {
		t.Error("off-simplex point contained")
	}
}

func TestBeatHalfspace(t *testing.T) {
	r := geom.Vector{0.8, 0.2}
	q := geom.Vector{0.2, 0.8}
	h := Beat(r, q)
	// r beats q where v1 >= v2.
	if h.A.Dot(geom.Vector{0.9, 0.1}) < h.B {
		t.Error("r should beat q at (0.9,0.1)")
	}
	if h.A.Dot(geom.Vector{0.1, 0.9}) >= h.B {
		t.Error("r should lose at (0.1,0.9)")
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	base := Full(2).With(Halfspace{A: geom.Vector{1, 0}, B: 0.3})
	ext1 := base.With(Halfspace{A: geom.Vector{0, 1}, B: 0.5})
	ext2 := base.With(Halfspace{A: geom.Vector{-1, 0}, B: -0.4})
	if len(base.Hs) != 1 || len(ext1.Hs) != 2 || len(ext2.Hs) != 2 {
		t.Fatalf("halfspace counts: %d %d %d", len(base.Hs), len(ext1.Hs), len(ext2.Hs))
	}
	// ext1 requires v2 >= 0.5 and v1 >= 0.3; ext2 requires v1 in [0.3,0.4].
	if empty(ext1) || empty(ext2) {
		t.Fatal("feasible regions reported empty")
	}
}

func TestEmptyRegion(t *testing.T) {
	// v1 >= 0.8 and v2 >= 0.8 cannot hold on the 1-simplex.
	r := Full(2).With(
		Halfspace{A: geom.Vector{1, 0}, B: 0.8},
		Halfspace{A: geom.Vector{0, 1}, B: 0.8},
	)
	if !empty(r) {
		t.Fatal("infeasible region not detected")
	}
	if _, _, ok := minDist(r, geom.Vector{0.5, 0.5}); ok {
		t.Fatal("MinDist on empty region returned ok")
	}
}

func TestMinDistHandComputed(t *testing.T) {
	// Region v1 >= 0.75 on the 1-simplex; from w=(0.5,0.5) the closest
	// point is (0.75,0.25) at distance 0.25*sqrt(2).
	r := Full(2).With(Halfspace{A: geom.Vector{1, 0}, B: 0.75})
	d, c, ok := minDist(r, geom.Vector{0.5, 0.5})
	if !ok {
		t.Fatal("region empty")
	}
	want := 0.25 * math.Sqrt2
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("mindist = %g, want %g", d, want)
	}
	if math.Abs(c[0]-0.75) > 1e-9 {
		t.Fatalf("closest = %v", c)
	}
}

// TestEmptinessAgreesWithVertices cross-checks the QP-based emptiness
// test against brute-force vertex enumeration on random halfspace
// systems: a region is empty exactly when it has no vertex. A region the
// QP calls empty may still show a vertex within the enumeration's 1e-9
// slack when it is razor-thin; the converse is a failure.
func TestEmptinessAgreesWithVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 200; iter++ {
		d := 2 + rng.Intn(4)
		r := Full(d)
		nh := 1 + rng.Intn(4)
		for i := 0; i < nh; i++ {
			a := make(geom.Vector, d)
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			r = r.With(Halfspace{A: a, B: rng.NormFloat64() * 0.3})
		}
		qpEmpty := empty(r)
		if noVertex := len(bruteVertices(d, r.Hs, 1e-9)) == 0; noVertex && !qpEmpty {
			t.Fatalf("iter %d: the QP finds a point, but the region has no vertex", iter)
		}
	}
}

func TestFeasiblePointIsInside(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for iter := 0; iter < 100; iter++ {
		d := 2 + rng.Intn(4)
		r := Full(d)
		for i := 0; i < 3; i++ {
			a := make(geom.Vector, d)
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			r = r.With(Halfspace{A: a, B: -math.Abs(rng.NormFloat64()) * 0.1})
		}
		p, ok := feasiblePoint(r)
		if !ok {
			continue
		}
		if !r.Contains(p) {
			t.Fatalf("iter %d: feasible point %v not contained", iter, p)
		}
	}
}

func TestBox(t *testing.T) {
	c := geom.Vector{0.4, 0.6}
	r := Box(c, 0.2)
	if !r.Contains(geom.Vector{0.45, 0.55}) {
		t.Error("box must contain points near its centre")
	}
	if r.Contains(geom.Vector{0.7, 0.3}) {
		t.Error("box must exclude far points")
	}
	// A huge box is the whole simplex.
	big := Box(c, 5)
	if len(big.Hs) != 0 {
		t.Errorf("oversized box kept %d constraints", len(big.Hs))
	}
}
