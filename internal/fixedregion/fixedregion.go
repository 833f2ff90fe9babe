// Package fixedregion adapts the fixed-preference-region techniques of
// Ciaccia & Martinenghi [20] and Mouratidis & Tang [54] into ORD/ORU
// look-alikes, exactly as the paper does for its evaluation (Sections 6.2,
// 6.3): a hypercube region R around the seed is sized by a volume
// heuristic, the R-skyband (for RSB) or the fixed-region top-k union (for
// JAA) is computed, and R is re-estimated over repeated trials until the
// output lands within a tolerance of the requested m. The trial loop is the
// source of the orders-of-magnitude slowdown the paper reports — these
// methods are not output-size specified by design.
package fixedregion

import (
	"math"

	"ordu/internal/core"
	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// rPruner prunes points R-dominated by at least K registered records,
// using the closed-form hypercube dominance test.
type rPruner struct {
	box  *BoxRegion
	k    int
	recs []geom.Vector
}

func (r *rPruner) Add(p geom.Vector) { r.recs = append(r.recs, p) }

func (r *rPruner) Prune(p geom.Vector) bool {
	count := 0
	for _, rec := range r.recs {
		if rec.Dominates(p) {
			count++
		} else if RDominatesBox(r.box, rec, p) {
			count++
		}
		if count >= r.k {
			return true
		}
	}
	return false
}

// RSkyband computes the R-skyband over the index: the records R-dominated
// by fewer than k others ([54]'s index-based module). The scan visits
// entries in decreasing score for the region's reference point w, which
// must belong to reg so that the BBS invariant holds (an R-dominator
// scores at least as high everywhere in R, hence at w).
func RSkyband(tree *rtree.Tree, w geom.Vector, box *BoxRegion, k int) []skyband.Member {
	sc := skyband.NewScanner(tree, w)
	pr := &rPruner{box: box, k: k}
	var out []skyband.Member
	for {
		id, p, ok := sc.Next(pr)
		if !ok {
			return out
		}
		pr.Add(p)
		out = append(out, skyband.Member{ID: id, Point: p})
	}
}

// Result is the outcome of a trial-based fixed-region simulation.
type Result struct {
	Records []core.Record
	// Side is the final hypercube side length.
	Side float64
	// Trials counts how many R resizings (full executions) were needed.
	Trials int
	// Achieved is the final output size (within the tolerance of m, when
	// convergence succeeded).
	Achieved int
}

// expectedSkybandSize is the estimate k ln^(d-1)(n) / (d-1)! of [30], used
// by the paper to size the initial hypercube.
func expectedSkybandSize(n, d, k int) float64 {
	num := float64(k) * math.Pow(math.Log(float64(n)), float64(d-1))
	den := 1.0
	for i := 2; i <= d-1; i++ {
		den *= float64(i)
	}
	return num / den
}

// sideTol is the width at which trialLoop's bracket on the hypercube side
// counts as collapsed. The bracket's ends give outputs below and above
// m's tolerance window (or sit at the domain's bounds), so inside a
// bracket that narrow the output jumps across the window at one threshold
// side, and no further resize can land in it.
const sideTol = 1e-9

// trialLoop drives the R re-estimation: run computes the output size for a
// hypercube side; the loop stops when the size is within tolFrac of m or
// the side interval collapses.
func trialLoop(w geom.Vector, n, d, k, m int, tolFrac float64, run func(side float64) int) (side float64, trials, achieved int) {
	exp := expectedSkybandSize(n, d, k)
	if exp < float64(m) {
		exp = float64(m)
	}
	// Initial side from the volume ratio of the desired output to the
	// expected skyband cardinality; the preference domain has d-1
	// intrinsic dimensions and diameter sqrt(2).
	side = math.Sqrt2 * math.Pow(float64(m)/exp, 1/float64(d-1))
	lo, hi := 0.0, 4.0 // side bounds bracketing the whole domain
	tol := int(math.Max(1, tolFrac*float64(m)))
	var out int
	for trials = 1; trials <= 64; trials++ {
		out = run(side)
		if out >= m-tol && out <= m+tol {
			return side, trials, out
		}
		if out < m {
			lo = side
		} else {
			hi = side
		}
		if hi-lo < sideTol {
			return side, trials, out
		}
		// Proportional re-estimation as in the paper, kept inside the
		// bisection bracket for guaranteed convergence.
		next := side * math.Pow(float64(m)/math.Max(float64(out), 1), 1/float64(d-1))
		if next <= lo || next >= hi {
			next = (lo + hi) / 2
		}
		side = next
	}
	return side, trials - 1, out
}

// RSB simulates ORD with the fixed-region R-skyband technique: repeated
// R-skyband computations with hypercube re-estimation until the output
// size is within tolFrac (e.g. 0.05 or 0.10) of m.
func RSB(tree *rtree.Tree, w geom.Vector, k, m int, tolFrac float64) *Result {
	var last []skyband.Member
	side, trials, achieved := trialLoop(w, tree.Len(), tree.Dim(), k, m, tolFrac, func(side float64) int {
		last = RSkyband(tree, w, NewBox(w, side), k)
		return len(last)
	})
	res := &Result{Side: side, Trials: trials, Achieved: achieved}
	for _, mb := range last {
		res.Records = append(res.Records, core.Record{ID: mb.ID, Point: mb.Point})
	}
	return res
}

// TopKUnion computes the fixed-region top-k operator of [54] for the given
// hypercube region: the distinct records appearing in the top-k result of
// at least one preference vector in the region.
func TopKUnion(tree *rtree.Tree, w geom.Vector, box *BoxRegion, k int) []core.Record {
	cands := RSkyband(tree, w, box, k)
	recs, _, err := core.EnumerateWithin(cands, w, k, box.Region())
	if err != nil {
		return nil
	}
	return recs
}

// JAA simulates ORU with the fixed-region top-k technique of [54]:
// repeated fixed-region top-k computations with hypercube re-estimation
// until the distinct-record count is within tolFrac of m.
func JAA(tree *rtree.Tree, w geom.Vector, k, m int, tolFrac float64) *Result {
	var last []core.Record
	side, trials, achieved := trialLoop(w, tree.Len(), tree.Dim(), k, m, tolFrac, func(side float64) int {
		last = TopKUnion(tree, w, NewBox(w, side), k)
		return len(last)
	})
	return &Result{Records: last, Side: side, Trials: trials, Achieved: achieved}
}
