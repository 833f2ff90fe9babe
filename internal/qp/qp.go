// Package qp solves the convex quadratic programs that arise throughout the
// paper's geometry: minimise the squared Euclidean distance from a target
// point p to a polyhedron given by linear equalities and inequalities.
//
//	min  1/2 ||x - p||^2
//	s.t. EqA[i] . x  = EqB[i]   for all equality rows
//	     InA[j] . x >= InB[j]   for all inequality rows
//
// This is exactly the problem class the paper delegates to QuadProg++ [26]
// (Goldfarb-Idnani [31]): the mindist from the seed vector w to the
// intersection of a score-tie hyperplane with the preference simplex
// (Section 4.1), and the mindist from w to a top-region polytope
// (Section 5.3.1). The solver below is the Goldfarb-Idnani dual active-set
// method specialised to an identity Hessian, which makes every step a plain
// projection computable with a small Gram-matrix solve.
//
// Because the dual method starts from the unconstrained optimum and adds
// violated constraints one at a time, it needs no feasible starting point
// and detects infeasibility as a by-product; region-emptiness tests across
// the library rely on that.
//
// The solver state (solution vector, active set, Gram scratch) lives in a
// Workspace so that the QP-heavy callers — region mindists, hull membership
// tests, rho-dominance — can run millions of solves without heap traffic: a
// warmed-up Workspace.Solve performs zero allocations. A Workspace is NOT
// goroutine-safe; give each worker its own.
package qp

import (
	"errors"
	"math"

	"ordu/internal/linalg"
)

// ErrInfeasible is returned when the constraint set is empty.
var ErrInfeasible = errors.New("qp: infeasible constraint system")

// ErrNumeric is returned when the active-set iteration fails to converge,
// which indicates a degenerate or ill-scaled input.
var ErrNumeric = errors.New("qp: failed to converge")

// Problem describes one projection QP. Rows of EqA/InA must all have the
// same dimension as P. The solver only reads the rows, so callers may share
// row slices across problems (and across goroutines).
type Problem struct {
	P   []float64   // target point to project
	EqA [][]float64 // equality constraint normals
	EqB []float64   // equality right-hand sides
	InA [][]float64 // inequality constraint normals (InA[j].x >= InB[j])
	InB []float64   // inequality right-hand sides
}

const (
	// tol is the solver's one zero threshold: a constraint is violated when
	// its slack is below -tol, a step direction whose squared norm is at
	// most tol is no direction (the constraint is implied by the active
	// set), and only a dual ratio term above tol bounds a partial step.
	// Every input here is O(1): preference weights and record coordinates
	// in [0, 1], rows that are differences of such records. Double
	// rounding costs about 1e-16 per operation, so 1e-10 leaves six orders
	// of magnitude for what accumulates over d <= 8 coordinates and one
	// solve's active-set steps. It is also ten times finer than
	// geom.SimplexTol, so a projection onto the simplex (components >=
	// -tol) passes the preference check. The price: a region without
	// interior whose faces lie within tol of each other solves as feasible.
	tol     = 1e-10
	maxIter = 10000
)

// activeEntry is one working constraint of the active set.
type activeEntry struct {
	idx int
	sgn float64
	u   float64 // dual variable (kept >= 0 for inequalities)
}

// Workspace holds every buffer of one Goldfarb-Idnani solve — solution
// vector, active set, Gram-matrix scratch and the linear-algebra workspace —
// so repeated solves allocate nothing once the buffers have grown to the
// problem size. The zero value is ready for use.
//
// Not goroutine-safe: one Workspace per worker. The solution slice returned
// by Solve aliases the workspace and is valid only until its next Solve;
// callers that retain it must copy.
type Workspace struct {
	lin      linalg.Workspace
	x        []float64
	nq       []float64
	z        []float64
	r        []float64
	gb       []float64
	active   []activeEntry
	cols     []float64   // flat k x d active-column buffer
	gramFlat []float64   // flat k x k Gram matrix
	gramRows [][]float64 // row headers into gramFlat
	actFlag  []bool      // per-constraint active marks for the violation scan

	// Current problem, valid during one Solve call.
	pr     *Problem
	d      int
	ne, ni int
}

// Solve returns the feasible point x closest to pr.P and its distance from
// pr.P. It returns ErrInfeasible when the constraints admit no solution.
// The returned x is freshly allocated; use Workspace.Solve on the hot path.
func Solve(pr *Problem) (x []float64, dist float64, err error) {
	var ws Workspace
	return ws.Solve(pr)
}

// Feasible reports whether the constraint system of pr admits any solution,
// ignoring the objective.
func Feasible(pr *Problem) bool {
	_, _, err := Solve(pr)
	return err == nil
}

// Solve is the workspace form of the package-level Solve. The returned x
// aliases the workspace's solution buffer: it is valid until the next Solve
// on the same workspace and must be copied if retained.
//
//ordlint:noalloc
func (ws *Workspace) Solve(pr *Problem) (x []float64, dist float64, err error) {
	d := len(pr.P)
	ws.pr, ws.d, ws.ne, ws.ni = pr, d, len(pr.EqA), len(pr.InA)
	ws.x = grow(ws.x, d)
	copy(ws.x, pr.P)
	ws.active = ws.active[:0]

	// Install equalities first.
	for i := 0; i < ws.ne; i++ {
		sgn := 1.0
		if ws.slack(i, 1) > tol {
			sgn = -1
		}
		if err := ws.addConstraint(i, sgn); err != nil {
			ws.pr = nil
			return nil, 0, err
		}
	}
	// Then repeatedly add the most violated inequality. The scan marks the
	// active set once per pass (instead of probing it per constraint) and
	// evaluates slacks directly against InA/InB, keeping the dot product in
	// a tight inlinable loop.
	if cap(ws.actFlag) < ws.ne+ws.ni {
		ws.actFlag = make([]bool, ws.ne+ws.ni)
	}
	for iter := 0; iter < maxIter; iter++ {
		flag := ws.actFlag[:ws.ne+ws.ni]
		for i := range flag {
			flag[i] = false
		}
		for _, a := range ws.active {
			flag[a.idx] = true
		}
		worst, q := -tol, -1
		xv := ws.x
		for ii := 0; ii < ws.ni; ii++ {
			if flag[ws.ne+ii] {
				continue
			}
			n := pr.InA[ii]
			s := -pr.InB[ii]
			for j := 0; j < d; j++ {
				s += n[j] * xv[j]
			}
			if s < worst {
				worst, q = s, ws.ne+ii
			}
		}
		if q < 0 {
			dist = 0.0
			for j := 0; j < d; j++ {
				dd := ws.x[j] - pr.P[j]
				dist += dd * dd
			}
			ws.pr = nil
			return ws.x, math.Sqrt(dist), nil
		}
		if err := ws.addConstraint(q, 1); err != nil {
			ws.pr = nil
			return nil, 0, err
		}
	}
	ws.pr = nil
	return nil, 0, ErrNumeric
}

// Feasible is the workspace form of the package-level Feasible.
//
//ordlint:noalloc
func (ws *Workspace) Feasible(pr *Problem) bool {
	_, _, err := ws.Solve(pr)
	return err == nil
}

// grow returns a slice of length n reusing s's storage when possible.
//
//ordlint:noalloc
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// normal returns the normal vector of constraint i; constraints are
// indexed equalities first, then inequalities. The returned slice aliases
// the Problem matrices installed by Solve: it is read-only and valid until
// the next Solve call on the same Workspace.
//
//ordlint:noalloc
func (ws *Workspace) normal(i int) []float64 {
	if i < ws.ne {
		return ws.pr.EqA[i]
	}
	return ws.pr.InA[i-ws.ne]
}

//
//ordlint:noalloc
func (ws *Workspace) rhs(i int) float64 {
	if i < ws.ne {
		return ws.pr.EqB[i]
	}
	return ws.pr.InB[i-ws.ne]
}

// slack evaluates the working constraint sign*n.x >= sign*b at the current
// x. sign is -1 when an equality is being approached from above (n.x > b),
// so that the working constraint is violated in the standard direction.
//
//ordlint:noalloc
func (ws *Workspace) slack(i int, sgn float64) float64 {
	n := ws.normal(i)
	s := -ws.rhs(i) * sgn
	for j := 0; j < ws.d; j++ {
		s += sgn * n[j] * ws.x[j]
	}
	return s
}

// solveGram computes r = (N^T N)^{-1} N^T nq and z = nq - N r for the
// current active normals N (columns sgn*normal). r is nil when the active
// set is empty; both returned slices alias workspace buffers.
//
//ordlint:noalloc
func (ws *Workspace) solveGram(nq []float64) (r []float64, z []float64, ok bool) {
	d, k := ws.d, len(ws.active)
	ws.z = grow(ws.z, d)
	z = ws.z
	copy(z, nq)
	if k == 0 {
		return nil, z, true
	}
	ws.cols = grow(ws.cols, k*d)
	for a := 0; a < k; a++ {
		na := ws.normal(ws.active[a].idx)
		sgn := ws.active[a].sgn
		col := ws.cols[a*d : (a+1)*d]
		for j := 0; j < d; j++ {
			col[j] = sgn * na[j]
		}
	}
	ws.gramFlat = grow(ws.gramFlat, k*k)
	if cap(ws.gramRows) < k {
		ws.gramRows = make([][]float64, k)
	}
	G := ws.gramRows[:k]
	ws.gb = grow(ws.gb, k)
	for a := 0; a < k; a++ {
		G[a] = ws.gramFlat[a*k : (a+1)*k]
		ca := ws.cols[a*d : (a+1)*d]
		for bI := 0; bI < k; bI++ {
			cb := ws.cols[bI*d : (bI+1)*d]
			s := 0.0
			for j := 0; j < d; j++ {
				s += ca[j] * cb[j]
			}
			G[a][bI] = s
		}
		s := 0.0
		for j := 0; j < d; j++ {
			s += ca[j] * nq[j]
		}
		ws.gb[a] = s
	}
	ws.r = grow(ws.r, k)
	if err := ws.lin.Solve(G, ws.gb, ws.r); err != nil {
		return nil, nil, false
	}
	r = ws.r
	for a := 0; a < k; a++ {
		ca := ws.cols[a*d : (a+1)*d]
		for j := 0; j < d; j++ {
			z[j] -= r[a] * ca[j]
		}
	}
	return r, z, true
}

// addConstraint runs the GI inner loop until constraint q (with working
// sign sgn) is satisfied or infeasibility is proven.
//
//ordlint:noalloc
func (ws *Workspace) addConstraint(q int, sgn float64) error {
	d := ws.d
	ws.nq = grow(ws.nq, d)
	nq := ws.nq
	n := ws.normal(q)
	for j := 0; j < d; j++ {
		nq[j] = sgn * n[j]
	}
	uq := 0.0 // dual variable of q, accumulated across partial steps
	for iter := 0; iter < maxIter; iter++ {
		s := ws.slack(q, sgn)
		if s >= -tol {
			if q < ws.ne {
				// Equalities stay active so later steps preserve them,
				// unless they are linearly dependent on the current
				// active set (then they are already implied).
				_, z, ok := ws.solveGram(nq)
				if !ok {
					return ErrNumeric
				}
				zz := 0.0
				for j := 0; j < d; j++ {
					zz += z[j] * z[j]
				}
				if zz > tol {
					ws.active = append(ws.active, activeEntry{idx: q, sgn: sgn, u: uq})
				}
			}
			return nil
		}
		r, z, ok := ws.solveGram(nq)
		if !ok {
			return ErrNumeric
		}
		zz := 0.0
		for j := 0; j < d; j++ {
			zz += z[j] * z[j]
		}
		t2 := math.Inf(1)
		if zz > tol {
			t2 = -s / zz
		}
		// Partial step bound from active inequality duals.
		t1 := math.Inf(1)
		drop := -1
		for a := range ws.active {
			if ws.active[a].idx < ws.ne {
				continue // equalities are never dropped
			}
			if r != nil && r[a] > tol {
				if lim := ws.active[a].u / r[a]; lim < t1 {
					t1, drop = lim, a
				}
			}
		}
		t := math.Min(t1, t2)
		if math.IsInf(t, 1) {
			return ErrInfeasible
		}
		// Dual update (and primal when a step direction exists).
		for a := range ws.active {
			if r != nil {
				ws.active[a].u -= t * r[a]
			}
		}
		uq += t
		if zz > tol {
			for j := 0; j < d; j++ {
				ws.x[j] += t * z[j]
			}
		}
		// t is math.Min(t1, t2): comparing against the stored copy asks
		// which branch produced it, not whether two computed quantities
		// coincide numerically.
		if t == t2 && !math.IsInf(t2, 1) { //ordlint:allow floatcmp — branch discrimination on a stored copy
			ws.active = append(ws.active, activeEntry{idx: q, sgn: sgn, u: uq})
			return nil
		}
		// Partial step: drop the blocking constraint and retry q with
		// the accumulated dual uq, exactly as in Goldfarb-Idnani.
		ws.active = append(ws.active[:drop], ws.active[drop+1:]...)
	}
	return ErrNumeric
}
