package fixedregion

import (
	"math"
	"math/rand"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/raceflag"
)

// TestBoxMinOverMatchesVertices cross-checks the closed-form box
// minimiser against the minimum over the box's vertices on random boxes
// and objectives.
func TestBoxMinOverMatchesVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for iter := 0; iter < 300; iter++ {
		d := 2 + rng.Intn(5)
		c := geom.RandSimplex(rng, d)
		side := 0.05 + 0.5*rng.Float64()
		box := NewBox(c, side)
		a := make(geom.Vector, d)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		gv, gok := box.MinOver(a)
		vv, vok := minAtVertices(boxVertices(box), a)
		if gok != vok {
			t.Fatalf("iter %d: greedy ok=%v, vertices ok=%v (side=%g)", iter, gok, vok, side)
		}
		if gok && math.Abs(gv-vv) > 1e-7 {
			t.Fatalf("iter %d: greedy %g, vertices %g", iter, gv, vv)
		}
	}
}

// TestBoxRDominanceMatchesGeneral cross-checks the closed-form
// R-dominance test against R-dominance decided at the box's vertices.
func TestBoxRDominanceMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for iter := 0; iter < 200; iter++ {
		d := 2 + rng.Intn(3)
		c := geom.RandSimplex(rng, d)
		box := NewBox(c, 0.1+0.3*rng.Float64())
		ri := make(geom.Vector, d)
		rj := make(geom.Vector, d)
		for i := 0; i < d; i++ {
			ri[i] = rng.Float64()
			rj[i] = rng.Float64()
		}
		if RDominatesBox(box, ri, rj) != rDominatesAtVertices(boxVertices(box), ri, rj) {
			t.Fatalf("iter %d: closed-form and vertex R-dominance disagree", iter)
		}
	}
}

// TestBoxRDominanceNoAllocs gates RDominatesBox at zero allocations per
// call on a warm box, on both outcomes: a record that R-dominates (both
// MinOver calls run) and one that does not.
func TestBoxRDominanceNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	box := NewBox(geom.Vector{0.4, 0.3, 0.2, 0.1}, 0.2)
	hi := geom.Vector{0.9, 0.8, 0.7, 0.6}
	lo := geom.Vector{0.5, 0.4, 0.3, 0.2}
	if !RDominatesBox(box, hi, lo) || RDominatesBox(box, lo, hi) {
		t.Fatal("fixture records do not R-dominate as expected")
	}
	for _, c := range []struct {
		name   string
		ri, rj geom.Vector
	}{{"dominates", hi, lo}, {"does not dominate", lo, hi}} {
		if n := testing.AllocsPerRun(100, func() { RDominatesBox(box, c.ri, c.rj) }); n != 0 {
			t.Errorf("RDominatesBox (%s) allocates %.1f times per call, want 0", c.name, n)
		}
	}
}

func TestBoxFeasibility(t *testing.T) {
	// A tiny box at a simplex corner that excludes the simplex plane.
	b := NewBox(geom.Vector{0.05, 0.05, 0.05}, 0.02)
	if b.Feasible() {
		t.Error("box far below the simplex plane reported feasible")
	}
	if _, ok := b.MinOver(geom.Vector{1, 0, 0}); ok {
		t.Error("MinOver on infeasible box returned ok")
	}
	if NewBox(geom.Vector{0.3, 0.3, 0.4}, 0.1).Feasible() != true {
		t.Error("centred box must be feasible")
	}
}
