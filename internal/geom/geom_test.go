package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	v := Vector{1, 2, 3}
	u := Vector{4, 5, 6}
	if got := v.Dot(u); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched dims")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestSubAddScale(t *testing.T) {
	v := Vector{3, 4}
	u := Vector{1, 1}
	if got := v.Sub(u); !got.Equal(Vector{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Add(u); !got.Equal(Vector{4, 5}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Scale(2); !got.Equal(Vector{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestNormDist(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %g, want 5", got)
	}
	if got := v.Dist(Vector{0, 0}); got != 5 {
		t.Errorf("Dist = %g, want 5", got)
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Vector
		want bool
	}{
		{Vector{2, 2}, Vector{1, 1}, true},
		{Vector{2, 1}, Vector{1, 1}, true},
		{Vector{1, 1}, Vector{1, 1}, false}, // no self-domination
		{Vector{2, 0}, Vector{1, 1}, false},
		{Vector{1, 2}, Vector{2, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.want {
			t.Errorf("%v dominates %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesAntisymmetric(t *testing.T) {
	f := func(a, b [3]float64) bool {
		v, u := Vector(a[:]), Vector(b[:])
		return !(v.Dominates(u) && u.Dominates(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		v := RandSimplex(rng, 5)
		if !OnSimplex(v) {
			t.Fatalf("RandSimplex produced off-simplex vector %v", v)
		}
	}
}

func TestRandDirichletConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Vector{0.25, 0.25, 0.25, 0.25}
	sumDist := 0.0
	const n = 200
	for i := 0; i < n; i++ {
		v := RandDirichlet(rng, c, 400)
		if !OnSimplex(v) {
			t.Fatalf("off-simplex Dirichlet draw %v", v)
		}
		sumDist += v.Dist(c)
	}
	if avg := sumDist / n; avg > 0.1 {
		t.Errorf("high-concentration Dirichlet too spread: avg dist %g", avg)
	}
}

func TestNormalizeToSimplex(t *testing.T) {
	v, err := NormalizeToSimplex(Vector{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{0.25, 0.25, 0.5}) {
		t.Errorf("got %v", v)
	}
	if _, err := NormalizeToSimplex(Vector{0, 0}); err == nil {
		t.Error("expected error for zero vector")
	}
	if _, err := NormalizeToSimplex(Vector{-1, 2}); err == nil {
		t.Error("expected error for negative weight")
	}
}

func TestValidatePreference(t *testing.T) {
	if err := ValidatePreference(Vector{0.5, 0.5}, 2); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	if err := ValidatePreference(Vector{0.5, 0.5}, 3); err == nil {
		t.Error("wrong dimension accepted")
	}
	if err := ValidatePreference(Vector{0.9, 0.9}, 2); err == nil {
		t.Error("off-simplex vector accepted")
	}
	// Boundary rows: the sum is checked within SimplexSumTol (1e-6), each
	// component against -SimplexTol (-1e-9).
	for _, c := range []struct {
		w  Vector
		ok bool
	}{
		{Vector{0.5, 0.5 + 5e-7}, true},
		{Vector{0.5, 0.5 - 5e-7}, true},
		{Vector{0.5, 0.5 + 2e-6}, false},
		{Vector{0.5, 0.5 - 2e-6}, false},
		{Vector{-5e-10, 1}, true},
		{Vector{-2e-9, 1}, false},
	} {
		if err := ValidatePreference(c.w, 2); (err == nil) != c.ok {
			t.Errorf("ValidatePreference(%v) = %v, want accepted %v", c.w, err, c.ok)
		}
	}
}

func TestMaxSimplexDist(t *testing.T) {
	// From the barycentre of the 1-simplex, both vertices are at distance
	// sqrt(0.5^2+0.5^2).
	w := Vector{0.5, 0.5}
	want := math.Sqrt(0.5)
	if got := MaxSimplexDist(w); math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxSimplexDist = %g, want %g", got, want)
	}
	// From a vertex, the farthest point is another vertex at distance sqrt(2).
	w = Vector{1, 0, 0}
	if got := MaxSimplexDist(w); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("MaxSimplexDist = %g, want sqrt(2)", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Vector{0, 0}, Vector{2, 3})
	if r.Area() != 6 {
		t.Errorf("Area = %g", r.Area())
	}
	if !r.Contains(Vector{1, 1}) || r.Contains(Vector{3, 1}) {
		t.Error("Contains misbehaves")
	}
	s := NewRect(Vector{1, 1}, Vector{4, 2})
	if !r.Intersects(s) {
		t.Error("rectangles should intersect")
	}
	u := r.Union(s)
	if !u.Lo.Equal(Vector{0, 0}) || !u.Hi.Equal(Vector{4, 3}) {
		t.Errorf("Union = %v", u)
	}
	if got := r.Enlargement(s); math.Abs(got-6) > 1e-12 {
		t.Errorf("Enlargement = %g, want 6", got)
	}
	if !r.TopCorner().Equal(Vector{2, 3}) {
		t.Error("TopCorner wrong")
	}
}

func TestRectExtend(t *testing.T) {
	r := NewRect(Vector{0, 0}, Vector{1, 1})
	r2 := r.Clone()
	r2.Extend(NewRect(Vector{-1, 0.5}, Vector{0.5, 2}))
	if !r2.Lo.Equal(Vector{-1, 0}) || !r2.Hi.Equal(Vector{1, 2}) {
		t.Errorf("Extend = %v", r2)
	}
	// Clone isolation: extending the clone must not touch the original.
	if !r.Lo.Equal(Vector{0, 0}) || !r.Hi.Equal(Vector{1, 1}) {
		t.Error("Extend through clone mutated original")
	}
}

func TestNewRectPanicsOnBadCorners(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRect(Vector{1, 0}, Vector{0, 1})
}

func TestPointRect(t *testing.T) {
	p := Vector{0.3, 0.7}
	r := PointRect(p)
	if r.Area() != 0 || !r.Contains(p) {
		t.Error("PointRect misbehaves")
	}
}
