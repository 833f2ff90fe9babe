// Package lp implements a small dense two-phase simplex solver for the
// linear programs used by the fixed-region baselines ([20], [54]) and by the
// test suite to cross-check the QP solver's feasibility verdicts.
//
// The solved form is
//
//	min  c . x
//	s.t. EqA x  = EqB
//	     InA x <= InB
//	     x >= 0
//
// which matches the preference domain: variables are simplex coordinates and
// hence naturally non-negative. Slack variables convert inequalities to
// equalities; phase one minimises the sum of artificial variables; Bland's
// rule guarantees termination.
package lp

import (
	"errors"
	"math"
)

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means a finite optimum was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Problem is one linear program. C has one entry per variable; EqA/InA rows
// must have the same width as C.
type Problem struct {
	C   []float64
	EqA [][]float64
	EqB []float64
	InA [][]float64
	InB []float64
}

// ErrIteration is returned if the simplex method exceeds its iteration
// budget, which indicates a malformed problem.
var ErrIteration = errors.New("lp: iteration limit exceeded")

const (
	// eps is the simplex method's zero threshold: a reduced cost below
	// -eps enters, only a column entry above eps can pivot, ratios within
	// eps of each other tie (Bland's rule then takes the lowest basis
	// index), and phase one's drive-out treats entries within eps as zero.
	// The tableau starts from O(1) coefficients (simplex rows, region rows
	// that are differences of records in [0, 1], box bounds) but is
	// rewritten in place by every pivot, so its rounding error grows with
	// the pivot count, unlike the QP's, which recomputes its slacks from
	// the inputs each step. eps is therefore ten times looser than qp's tol.
	eps = 1e-9
	// phaseOneTol is the largest artificial-variable sum phase one may end
	// at for the system to count as feasible. A feasible system drives the
	// sum to zero up to rounding, but the sum adds one residue per
	// artificial, each up to about eps after the pivots, so the bound sits
	// two orders above eps.
	phaseOneTol = 1e-7
	maxIter     = 50000
)

// Solve returns the optimal variable assignment and objective value.
// The returned x is nil unless the status is Optimal.
func Solve(pr *Problem) (x []float64, val float64, status Status, err error) {
	n := len(pr.C)
	mEq, mIn := len(pr.EqA), len(pr.InA)
	m := mEq + mIn

	// Standard form columns: n structural + mIn slacks + m artificials.
	total := n + mIn + m
	// Tableau rows: m constraint rows; we keep A, b and a basis index list.
	A := make([][]float64, m)
	b := make([]float64, m)
	for i := 0; i < mEq; i++ {
		A[i] = make([]float64, total)
		copy(A[i], pr.EqA[i])
		b[i] = pr.EqB[i]
	}
	for i := 0; i < mIn; i++ {
		r := mEq + i
		A[r] = make([]float64, total)
		copy(A[r], pr.InA[i])
		A[r][n+i] = 1 // slack
		b[r] = pr.InB[i]
	}
	// Make every b non-negative, then install artificial basis.
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		if b[i] < 0 {
			for j := 0; j < n+mIn; j++ {
				A[i][j] = -A[i][j]
			}
			b[i] = -b[i]
		}
		A[i][n+mIn+i] = 1
		basis[i] = n + mIn + i
	}

	// pivot performs a standard pivot on (row, col).
	pivot := func(row, col int) {
		inv := 1 / A[row][col]
		for j := 0; j < total; j++ {
			A[row][j] *= inv
		}
		b[row] *= inv
		for i := 0; i < m; i++ {
			if i == row {
				continue
			}
			f := A[i][col]
			// Skipping only exactly-zero multipliers is a pure optimisation:
			// any nonzero f, however small, must still be eliminated.
			if f == 0 { //ordlint:allow floatcmp — exact-zero fast path, not a tolerance decision
				continue
			}
			for j := 0; j < total; j++ {
				A[i][j] -= f * A[row][j]
			}
			b[i] -= f * b[row]
		}
		basis[row] = col
	}

	// runSimplex minimises the reduced costs for objective obj over the
	// allowed columns [0, limit).
	runSimplex := func(obj []float64, limit int) (float64, Status, error) {
		for iter := 0; iter < maxIter; iter++ {
			// Reduced costs: z_j - c_j with Bland's rule (first negative).
			y := make([]float64, m) // c_B components via basis
			for i := 0; i < m; i++ {
				y[i] = obj[basis[i]]
			}
			enter := -1
			for j := 0; j < limit; j++ {
				inBasis := false
				for _, bj := range basis {
					if bj == j {
						inBasis = true
						break
					}
				}
				if inBasis {
					continue
				}
				red := obj[j]
				for i := 0; i < m; i++ {
					red -= y[i] * A[i][j]
				}
				if red < -eps {
					enter = j
					break
				}
			}
			if enter < 0 {
				val := 0.0
				for i := 0; i < m; i++ {
					val += obj[basis[i]] * b[i]
				}
				return val, Optimal, nil
			}
			// Ratio test, Bland's rule ties by smallest basis index.
			leave, best := -1, math.Inf(1)
			for i := 0; i < m; i++ {
				if A[i][enter] > eps {
					ratio := b[i] / A[i][enter]
					if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
						leave, best = i, ratio
					}
				}
			}
			if leave < 0 {
				return 0, Unbounded, nil
			}
			pivot(leave, enter)
		}
		return 0, Optimal, ErrIteration
	}

	// Phase one: minimise sum of artificials.
	phase1 := make([]float64, total)
	for j := n + mIn; j < total; j++ {
		phase1[j] = 1
	}
	v1, st, errS := runSimplex(phase1, total)
	if errS != nil {
		return nil, 0, Infeasible, errS
	}
	if st != Optimal || v1 > phaseOneTol {
		return nil, 0, Infeasible, nil
	}
	// Drive any remaining artificial variables out of the basis.
	for i := 0; i < m; i++ {
		if basis[i] >= n+mIn {
			swapped := false
			for j := 0; j < n+mIn; j++ {
				if math.Abs(A[i][j]) > eps {
					pivot(i, j)
					swapped = true
					break
				}
			}
			if !swapped {
				// Redundant row; harmless — the artificial stays basic at 0.
				_ = swapped
			}
		}
	}

	// Phase two over structural + slack columns only.
	phase2 := make([]float64, total)
	copy(phase2, pr.C)
	v2, st, errS := runSimplex(phase2, n+mIn)
	if errS != nil {
		return nil, 0, Infeasible, errS
	}
	if st != Optimal {
		return nil, 0, st, nil
	}
	x = make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = b[i]
		}
	}
	return x, v2, Optimal, nil
}

// FeasiblePoint returns any feasible point of the system, or ok=false when
// the system is infeasible.
func FeasiblePoint(pr *Problem) (x []float64, ok bool) {
	zero := &Problem{
		C:   make([]float64, len(pr.C)),
		EqA: pr.EqA, EqB: pr.EqB,
		InA: pr.InA, InB: pr.InB,
	}
	x, _, st, err := Solve(zero)
	if err != nil || st != Optimal {
		return nil, false
	}
	return x, true
}
