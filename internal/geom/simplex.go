package geom

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// SimplexTol is how far below zero a preference component may fall. A
// component computed as one minus the others (or projected onto the
// simplex by a solver working to 1e-10) can land a few rounding errors
// below zero; a genuinely negative weight is far larger than 1e-9.
const SimplexTol = 1e-9

// SimplexSumTol is how far a preference vector's sum may stray from one.
// It is looser than SimplexTol because clients write weights as decimal
// text with a fixed number of digits: 1/3 written as 0.3333333 three times
// sums to about 1 - 1e-7.
const SimplexSumTol = 1e-6

// OnSimplex reports whether v is a valid preference vector: components no
// lower than -SimplexTol that sum to one within SimplexSumTol.
func OnSimplex(v Vector) bool {
	if len(v) == 0 {
		return false
	}
	s := 0.0
	for _, x := range v {
		if x < -SimplexTol {
			return false
		}
		s += x
	}
	return math.Abs(s-1) <= SimplexSumTol
}

// ValidatePreference returns a descriptive error if w is not a valid
// preference vector of dimension d.
func ValidatePreference(w Vector, d int) error {
	if len(w) != d {
		return fmt.Errorf("geom: preference vector has dimension %d, want %d", len(w), d)
	}
	if !OnSimplex(w) {
		return fmt.Errorf("geom: preference vector %v is not on the unit simplex", w)
	}
	return nil
}

// NormalizeToSimplex rescales a non-negative vector so its components sum to
// one. It returns an error for zero or negative input.
func NormalizeToSimplex(v Vector) (Vector, error) {
	s := 0.0
	for _, x := range v {
		if x < 0 {
			return nil, fmt.Errorf("geom: negative weight %g", x)
		}
		s += x
	}
	if s <= 0 {
		return nil, fmt.Errorf("geom: cannot normalize zero preference vector")
	}
	return v.Scale(1 / s), nil
}

// RandSimplex draws a uniformly distributed point on the (d-1)-simplex using
// the standard exponential-spacings construction.
func RandSimplex(rng *rand.Rand, d int) Vector {
	v := make(Vector, d)
	s := 0.0
	for i := range v {
		v[i] = rng.ExpFloat64()
		s += v[i]
	}
	for i := range v {
		v[i] /= s
	}
	return v
}

// RandDirichlet draws a point on the simplex from a symmetric Dirichlet
// distribution centred at c with concentration alpha (larger alpha means the
// draws cluster more tightly around c). It is used to simulate
// review-mined preference vectors, which are noisy estimates around a
// user's latent preference.
func RandDirichlet(rng *rand.Rand, c Vector, alpha float64) Vector {
	v := make(Vector, len(c))
	s := 0.0
	for i := range v {
		// Gamma(alpha*c_i) via Marsaglia-Tsang; shape may be < 1.
		v[i] = gammaSample(rng, math.Max(alpha*c[i], 1e-3))
		s += v[i]
	}
	if s <= 0 {
		return c.Clone()
	}
	for i := range v {
		v[i] /= s
	}
	return v
}

// gammaSample draws from Gamma(shape, 1) using Marsaglia-Tsang, with the
// usual boost for shape < 1.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// simplexConsts caches, per dimension, the constant constraint rows that
// every simplex-restricted QP in the library shares: the all-ones equality
// row (sum v = 1), the d axis rows e_i (v_i >= 0), and the barycentre.
// The cached slices are shared and MUST be treated as read-only; qp.Solve
// only reads constraint rows, so sharing them across goroutines is safe.
type simplexConsts struct {
	ones       []float64
	axes       [][]float64
	axesZeros  []float64 // d zeros: the right-hand sides of the axis rows
	barycentre Vector
}

var simplexCache sync.Map // dim -> *simplexConsts

func simplexFor(d int) *simplexConsts {
	if c, ok := simplexCache.Load(d); ok {
		return c.(*simplexConsts)
	}
	c := &simplexConsts{
		ones:       make([]float64, d),
		axes:       make([][]float64, d),
		axesZeros:  make([]float64, d),
		barycentre: make(Vector, d),
	}
	for i := 0; i < d; i++ {
		c.ones[i] = 1
		e := make([]float64, d)
		e[i] = 1
		c.axes[i] = e
		c.barycentre[i] = 1 / float64(d)
	}
	actual, _ := simplexCache.LoadOrStore(d, c)
	return actual.(*simplexConsts)
}

// SimplexOnes returns the cached all-ones row of dimension d (the normal of
// the constraint sum v = 1). Shared storage: read-only.
func SimplexOnes(d int) []float64 { return simplexFor(d).ones }

// SimplexAxes returns the cached axis rows e_0..e_{d-1} (the normals of the
// non-negativity constraints v_i >= 0). Shared storage: read-only.
func SimplexAxes(d int) [][]float64 { return simplexFor(d).axes }

// SimplexZeros returns a cached slice of d zeros (the right-hand sides of
// the non-negativity constraints). Shared storage: read-only.
func SimplexZeros(d int) []float64 { return simplexFor(d).axesZeros }

// SimplexBarycentre returns the cached barycentre (1/d, ..., 1/d). Shared
// storage: read-only.
func SimplexBarycentre(d int) Vector { return simplexFor(d).barycentre }

// MaxSimplexDist returns the distance from w to the farthest point of the
// simplex, i.e. the largest meaningful expansion radius: past it, the
// rho-ball covers the entire preference domain (footnote 2 of the paper).
// The farthest point of a simplex from any interior point is one of its
// vertices e_i.
func MaxSimplexDist(w Vector) float64 {
	best := 0.0
	for i := range w {
		// distance to vertex e_i
		s := 0.0
		for j := range w {
			x := w[j]
			if j == i {
				x -= 1
			}
			s += x * x
		}
		if s > best {
			best = s
		}
	}
	return math.Sqrt(best)
}
