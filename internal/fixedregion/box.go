package fixedregion

import (
	"math"

	"ordu/internal/geom"
	"ordu/internal/region"
)

// The fixed-region tolerances. Coordinates and preference vectors are of
// order 1 (the unit cube and the simplex).
const (
	// rdomTol is the rounding slack of the R-dominance tests and of the
	// box's simplex test: a minimum score difference above -rdomTol counts
	// as non-negative, a maximum above rdomTol as strictly positive, and
	// bound sums within rdomTol of 1 meet the simplex. In the closed form
	// each is a sum of d terms of order 1, whose rounding is a few 1e-16,
	// so rdomTol leaves three orders of headroom.
	rdomTol = 1e-12
	// massTol is the simplex mass MinOver's greedy fill may leave over.
	// Feasible has already checked that the upper bounds sum to at least
	// 1 - rdomTol, so the fill leaves at most about rdomTol plus rounding;
	// massTol sits three orders above, so rounding never trips it.
	massTol = 1e-9
)

// BoxRegion is a hypercube preference region around a centre, intersected
// with the simplex. It carries the interval bounds explicitly so that
// linear minimisation — the workhorse of R-dominance tests — runs in
// closed form (a fractional-knapsack argument) instead of a general LP.
//
// MinOver and RDominatesBox reuse the box's scratch, so a box is not
// goroutine-safe: RSB, JAA and the experiments build one box per call.
type BoxRegion struct {
	Center geom.Vector
	Side   float64
	lo, hi []float64

	diff  []float64 // RDominatesBox's score-difference vector
	order []int     // MinOver's coordinates by increasing coefficient
}

// NewBox builds the hypercube region |v_i - c_i| <= side/2 on the simplex.
func NewBox(c geom.Vector, side float64) *BoxRegion {
	d := len(c)
	b := &BoxRegion{Center: c.Clone(), Side: side, lo: make([]float64, d), hi: make([]float64, d),
		diff: make([]float64, d), order: make([]int, d)}
	for i := 0; i < d; i++ {
		b.lo[i] = math.Max(0, c[i]-side/2)
		b.hi[i] = math.Min(1, c[i]+side/2)
	}
	return b
}

// Region converts the box to the general halfspace representation used by
// the region-partitioning machinery.
func (b *BoxRegion) Region() region.Region {
	return region.Box(b.Center, b.Side)
}

// Feasible reports whether the box intersects the simplex.
func (b *BoxRegion) Feasible() bool {
	sumLo, sumHi := 0.0, 0.0
	for i := range b.lo {
		sumLo += b.lo[i]
		sumHi += b.hi[i]
	}
	return sumLo <= 1+rdomTol && sumHi >= 1-rdomTol
}

// MinOver minimises a.v over the box-simplex intersection in closed form:
// starting from the interval lower bounds, the remaining simplex mass is
// assigned greedily to the coordinates with the smallest coefficients.
// ok is false when the region is empty.
//
//ordlint:noalloc
func (b *BoxRegion) MinOver(a geom.Vector) (float64, bool) {
	if !b.Feasible() {
		return 0, false
	}
	d := len(a)
	rem := 1.0
	val := 0.0
	for i := 0; i < d; i++ {
		val += a[i] * b.lo[i]
		rem -= b.lo[i]
	}
	if rem < 0 {
		return 0, false
	}
	if cap(b.order) < d {
		b.order = make([]int, d)
	}
	order := b.order[:d]
	for i := range order {
		order[i] = i
	}
	// Insertion sort by coefficient: the algorithm sort.Slice itself runs
	// below 13 elements, so ties keep the order they had, with no closure
	// or swapper to allocate.
	for i := 1; i < d; i++ {
		for j := i; j > 0 && a[order[j]] < a[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, i := range order {
		if rem <= 0 {
			break
		}
		room := b.hi[i] - b.lo[i]
		take := math.Min(room, rem)
		val += a[i] * take
		rem -= take
	}
	if rem > massTol {
		return 0, false // box too small to absorb the simplex mass
	}
	return val, true
}

// RDominatesBox reports whether ri R-dominates rj over the box ([20]): ri
// scores at least as high as rj everywhere in the box, and strictly higher
// somewhere. Both are decided by the closed-form minimiser, once on the
// score difference and once on its negation.
//
//ordlint:noalloc
func RDominatesBox(b *BoxRegion, ri, rj geom.Vector) bool {
	d := len(ri)
	if cap(b.diff) < d {
		b.diff = make([]float64, d)
	}
	diff := geom.Vector(b.diff[:d])
	for i := range diff {
		diff[i] = ri[i] - rj[i]
	}
	lo, ok := b.MinOver(diff)
	if !ok || lo < -rdomTol {
		return false
	}
	for i := range diff {
		diff[i] = -diff[i]
	}
	hi, ok := b.MinOver(diff)
	if !ok {
		return false
	}
	return -hi > rdomTol
}
