// Package skyband implements the dominance-side machinery of the paper:
// rho-dominance tests (Section 3), mindist and inflection-radius
// computation (Section 4.1), the score-ordered progressive BBS variant that
// both ORD and ORU build on (Sections 4.2, 5.3.2), plain skyline/k-skyband
// retrieval, and the incremental rho-skyband module IRD (Section 5.3.2).
package skyband

import (
	"math"
	"slices"

	"ordu/internal/geom"
	"ordu/internal/qp"
)

// Workspace holds the QP solver state and scratch of Mindist's
// exact-projection fallback, so the pruners and IRD can run millions of
// rho-dominance tests without heap allocations after warm-up. The zero
// value is ready for use. Not goroutine-safe: one Workspace per worker.
type Workspace struct {
	qp qp.Workspace
	a  []float64
	pr qp.Problem
	v  []float64 // active-set projection: candidate point
	fr []bool    // active-set projection: free-coordinate mask
}

// Tolerances of the closed-form pass shared by MindistWS and
// mindistAtLeast, for records of unit-scale coordinates.
const (
	// parallelTol bounds |a - mean(a)*1|^2, the squared part of a = ri - rj
	// off the all-ones vector: below it (a part under 1e-9) the score gap
	// a.v counts as one constant on the whole simplex.
	parallelTol = 1e-18
	// zeroGapTol bounds that constant gap: a few ulps of a unit-scale score
	// are a rounding-level tie, not a win.
	zeroGapTol = 1e-15
	// footSlack is how far below zero a coordinate of the closed-form foot
	// may round and still count as inside the simplex: rounding noise of the
	// O(d) pass, two orders below package qp's 1e-10 feasibility tolerance.
	footSlack = 1e-12
)

// Mindist returns rho_{i,j}: the largest radius at which rj still
// rho-dominates ri around the seed w, i.e. the minimum distance from w to
// the intersection of the score-tie hyperplane U_v(ri) = U_v(rj) with the
// preference simplex (Section 4.1). It returns +Inf when rj outscores ri on
// the entire preference domain (in particular when rj dominates ri).
//
// The caller must ensure U_w(rj) >= U_w(ri); otherwise rj never
// rho-dominates ri and the notion is undefined.
//
// The computation first tries the closed form for the foot of the
// perpendicular within the simplex's supporting hyperplane; only when that
// foot leaves the simplex does it fall back to the QP solver, mirroring how
// the paper uses QuadProg++ for the general case.
func Mindist(w, ri, rj geom.Vector) float64 {
	var ws Workspace
	return MindistWS(w, ri, rj, &ws)
}

// MindistWS is Mindist with a caller-supplied workspace: the closed-form
// fast path is allocation-free by construction, and the QP fallback reuses
// the workspace's constraint system and solver buffers, so warmed-up calls
// allocate nothing.
//
//ordlint:noalloc
func MindistWS(w, ri, rj geom.Vector, ws *Workspace) float64 {
	return mindistBound(w, ri, rj, noBound, ws)
}

// noBound is +Inf: no closed-form bound reaches it, so mindistBound
// returns the exact mindist. A variable rather than a math.Inf call keeps
// MindistWS inlinable.
var noBound = math.Inf(1)

// mindistAtLeast reports MindistWS(w, ri, rj, ws) >= rho, the adaptive
// rho-dominance test, without the exact projection whenever the closed
// form settles it: the distance from w to the tie hyperplane within
// sum(v) = 1 is a lower bound on the mindist (the simplex-constrained set
// is a subset of that hyperplane) and equals it when the foot is inside.
//
//ordlint:noalloc
func mindistAtLeast(w, ri, rj geom.Vector, rho float64, ws *Workspace) bool {
	return mindistBound(w, ri, rj, rho, ws) >= rho
}

// mindistBound returns rho_{i,j}, except that once the closed-form lower
// bound reaches rho it returns that bound (so the result is >= rho exactly
// when the mindist is). MindistWS passes rho = +Inf and always gets the
// mindist itself.
//
//ordlint:noalloc
func mindistBound(w, ri, rj geom.Vector, rho float64, ws *Workspace) float64 {
	d := len(w)
	// Single allocation-free pass: dominance check, hyperplane coefficient
	// aggregates (a = ri - rj), and a.w.
	dominates, strict := true, false
	aw, asum, a2 := 0.0, 0.0, 0.0
	for i := 0; i < d; i++ {
		ai := ri[i] - rj[i]
		if ai > 0 {
			dominates = false
		} else if ai < 0 {
			strict = true
		}
		aw += ai * w[i]
		asum += ai
		a2 += ai * ai
	}
	if dominates && strict {
		return math.Inf(1)
	}
	// Project a onto the simplex's supporting hyperplane sum(v)=1.
	mean := asum / float64(d)
	proj2 := a2 - asum*mean
	if proj2 < parallelTol {
		// a is (numerically) parallel to the all-ones vector: the score gap
		// is constant over the whole domain.
		if math.Abs(aw) < zeroGapTol {
			return 0 // identical scores everywhere; degenerate tie
		}
		return math.Inf(1)
	}
	dist := math.Abs(aw) / math.Sqrt(proj2)
	if dist >= rho {
		return dist
	}
	// Foot of the perpendicular: v* = w - (aw/proj2) * (a - mean*1).
	alpha := aw / proj2
	feasible := true
	for i := 0; i < d; i++ {
		if w[i]-alpha*(ri[i]-rj[i]-mean) < -footSlack {
			feasible = false
			break
		}
	}
	if feasible {
		return dist
	}
	// Foot outside the simplex: exact projection onto the constrained set.
	if cap(ws.a) < d {
		ws.a = make([]float64, d)
	}
	a := ws.a[:d]
	amin, amax := math.Inf(1), math.Inf(-1)
	for i := 0; i < d; i++ {
		a[i] = ri[i] - rj[i]
		amin = math.Min(amin, a[i])
		amax = math.Max(amax, a[i])
	}
	// O(d) infeasibility pre-check: the tie hyperplane a·v = 0 meets the
	// simplex only if a takes both signs (or a zero); otherwise rj outscores
	// ri on the whole domain and no solver call is needed.
	if amin > 0 || amax < 0 {
		return math.Inf(1)
	}
	// Specialized two-constraint active-set projection: with only sum(v)=1
	// and a·v=0 as equalities, each free-set subproblem is a closed-form 2x2
	// solve, so the projection runs in O(d) per iteration with no matrix
	// factorization. It verifies its own KKT conditions; the general QP
	// solver below remains as the fallback for the rare non-converged case.
	if qd, ok := projectTieSimplex(w, a, ws); ok {
		return qd
	}
	pr := &ws.pr
	pr.P = w
	pr.EqA = append(pr.EqA[:0], geom.SimplexOnes(d), a)
	pr.EqB = append(pr.EqB[:0], 1, 0)
	pr.InA = geom.SimplexAxes(d) // shared read-only rows
	pr.InB = geom.SimplexZeros(d)
	_, qdist, err := ws.qp.Solve(pr)
	if err != nil {
		// The hyperplane misses the simplex entirely: rj wins everywhere.
		return math.Inf(1)
	}
	return qdist
}

// projectTieSimplex computes the distance from w to its Euclidean projection
// onto {v : v >= 0, sum(v) = 1, a.v = 0} by primal active set. On the free
// coordinates F the stationarity condition is v_i = w_i + lambda + mu*a_i
// with (lambda, mu) from the 2x2 normal equations of the two equality
// constraints; negative coordinates are clamped to the boundary en masse
// (Michelot-style), and a clamped coordinate whose multiplier has the wrong
// sign is released one per iteration. The returned distance is exact (the
// full KKT system is verified before returning); ok=false means the
// iteration cap or a degenerate free set was hit and the caller must use
// the general solver.
//
//ordlint:noalloc
func projectTieSimplex(w, a []float64, ws *Workspace) (float64, bool) {
	d := len(w)
	if cap(ws.v) < d {
		ws.v = make([]float64, d)
		ws.fr = make([]bool, d)
	}
	v := ws.v[:d]
	fr := ws.fr[:d]
	for i := range fr {
		fr[i] = true
	}
	free := d
	for iter := 0; iter < 4*d+8; iter++ {
		var m, sw, sa, saw, saa float64
		for i := 0; i < d; i++ {
			if !fr[i] {
				continue
			}
			m++
			sw += w[i]
			sa += a[i]
			saw += a[i] * w[i]
			saa += a[i] * a[i]
		}
		det := m*saa - sa*sa // >= 0 by Cauchy-Schwarz; 0 iff a constant on F
		var lam, mu float64
		if det <= 1e-14*(m*saa+sa*sa) || saa == 0 { //ordlint:allow floatcmp — exact zero guards the all-zero row
			if saa > 1e-24 {
				// a is a nonzero constant on the free set: a.v = 0 and
				// sum(v) = 1 conflict on F alone. Let the general solver
				// sort out which boundary resolves it.
				return 0, false
			}
			// a vanishes on F: plain simplex projection of the free block.
			lam = (1 - sw) / m
		} else {
			b1 := 1 - sw
			b2 := -saw
			lam = (b1*saa - b2*sa) / det
			mu = (m*b2 - sa*b1) / det
		}
		clamped := false
		for i := 0; i < d; i++ {
			if !fr[i] {
				v[i] = 0
				continue
			}
			v[i] = w[i] + lam + mu*a[i]
			if v[i] < -1e-12 {
				fr[i] = false
				free--
				clamped = true
			}
		}
		if clamped {
			if free == 0 {
				return 0, false
			}
			continue
		}
		// Dual feasibility: a clamped coordinate with positive would-be
		// value wants back in; release the worst violator and re-solve.
		rel, relV := -1, 1e-10
		for i := 0; i < d; i++ {
			if fr[i] {
				continue
			}
			if g := w[i] + lam + mu*a[i]; g > relV {
				relV = g
				rel = i
			}
		}
		if rel >= 0 {
			fr[rel] = true
			free++
			continue
		}
		var dist2 float64
		for i := 0; i < d; i++ {
			dv := v[i] - w[i]
			dist2 += dv * dv
		}
		return math.Sqrt(dist2), true
	}
	return 0, false
}

// InflectionRadius computes the inflection radius of a record given the
// mindists contributed by its higher-scoring competitors (Figure 2(a)):
// each competitor rho-dominates the record on the interval [0, mindist], so
// the record joins the rho-skyband once fewer than k intervals remain, i.e.
// at the k-th largest mindist. With fewer than k competitors the record is
// in every rho-skyband (radius 0); +Inf means it never joins (it is
// dominated outright by at least k others).
func InflectionRadius(mindists []float64, k int) float64 {
	if len(mindists) < k {
		return 0
	}
	ds := append([]float64(nil), mindists...)
	return InflectionRadiusInPlace(ds, k)
}

// InflectionRadiusInPlace is InflectionRadius over a caller-owned buffer:
// it sorts mindists in place (no copy, no allocation), which is what ORD's
// hot loops want — they rebuild the buffer per candidate anyway.
//
//ordlint:noalloc
func InflectionRadiusInPlace(mindists []float64, k int) float64 {
	if len(mindists) < k {
		return 0
	}
	slices.Sort(mindists) //ordlint:allow noalloc — slices.Sort is an in-place pdqsort
	return mindists[len(mindists)-k]
}

// RhoDominates reports whether rj rho-dominates ri at radius rho around w.
// Records tied in score for w never dominate each other.
func RhoDominates(w, rj, ri geom.Vector, rho float64) bool {
	sj, si := rj.Dot(w), ri.Dot(w)
	if sj < si {
		return false
	}
	// Exact equality here only defends the definitional corner: two scores
	// computed by the same Dot over coincident (or permuted-equal) records
	// are bit-identical, and such genuine ties must not count as dominance
	// unless rj dominates ri outright. A near-tie from distinct records
	// falls through, which is the intended strict comparison.
	if sj == si && !rj.Dominates(ri) { //ordlint:allow floatcmp — definitional tie guard on identically computed scores
		return false
	}
	return Mindist(w, ri, rj) >= rho
}
