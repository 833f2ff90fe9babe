package hull

import (
	"ordu/internal/geom"
	"ordu/internal/qp"
)

// PairwiseDim is the dimension from which ORU answers its hull questions
// pairwise instead of through the incremental convex hull. By the Upper
// Bound Theorem the facet count of a d-dimensional hull grows like
// n^(d/2), while at these dimensions almost every ORU candidate is
// extreme (on average 17.8 of 18.2 on NBA at d=8, k=2, m=10) and
// co-facet adjacency already covers most member pairs. So at
// d >= PairwiseDim:
//
//   - Layers peels each layer with one feasibility QP per remaining record
//     (see Layers);
//   - ORU's rho-bar estimate counts extreme records with the same QP
//     (Extremes) instead of Builder.MemberCount;
//   - Theorem-1 partitioning constrains every candidate against all others
//     instead of building the L_upd hull.
//
// Below it the Builder serves all three.
const PairwiseDim = 5

// topTest is the exact top-1 membership criterion every hull path shares:
// is there a preference vector v on the simplex with (p - q).v >= 0 for
// every q in others? One feasibility QP over the simplex rows plus one row
// per q; the solver's scratch and the row buffer are reused across calls.
type topTest struct {
	ws     qp.Workspace
	pr     qp.Problem
	diff   []float64
	others [][]float64 // canTopAmong's point list
}

// canTop runs the test. The flat difference buffer is sized up front, so
// the row headers stay valid while it fills.
//
//ordlint:noalloc
func (t *topTest) canTop(p []float64, others [][]float64) bool {
	if len(others) == 0 {
		return true
	}
	d := len(p)
	pr := &t.pr
	pr.P = geom.SimplexOnes(d) // any target; only feasibility matters
	pr.EqA = append(pr.EqA[:0], geom.SimplexOnes(d))
	pr.EqB = append(pr.EqB[:0], 1)
	pr.InA = append(pr.InA[:0], geom.SimplexAxes(d)...)
	pr.InB = append(pr.InB[:0], geom.SimplexZeros(d)...)
	if need := len(others) * d; cap(t.diff) < need {
		t.diff = make([]float64, need) //ordlint:allow noalloc — scratch growth, amortised across calls
	}
	flat := t.diff[:0]
	for _, q := range others {
		lo := len(flat)
		for j := 0; j < d; j++ {
			flat = append(flat, p[j]-q[j])
		}
		pr.InA = append(pr.InA, flat[lo:len(flat):len(flat)])
		pr.InB = append(pr.InB, 0)
	}
	return t.ws.Feasible(pr)
}

// canTopAmong is canTop for pts[i] against every other point of pts except
// its exact duplicates, which impose no constraint on it.
func (t *topTest) canTopAmong(pts [][]float64, i int) bool {
	others := t.others[:0]
	for j, q := range pts {
		if j != i && !equalVec(pts[i], q) {
			others = append(others, q)
		}
	}
	t.others = others
	return t.canTop(pts[i], others)
}

// jitterInto writes p's jittered working coordinates (the ones the Builder
// inserts) into dst.
func jitterInto(dst []float64, p geom.Vector) {
	for j := range dst {
		dst[j] = p[j] + jitterScale*jitter(p, j)
	}
}

// equalVec reports whether two coordinate vectors are identical.
func equalVec(a, b []float64) bool {
	for j := range a {
		if a[j] != b[j] { //ordlint:allow floatcmp — exact duplicates, by definition
			return false
		}
	}
	return true
}

// peelPairwise extracts the upper-hull layer of the given records (ids
// ascending, pts parallel) by the pairwise criterion on their jittered
// coordinates, so exact duplicates share the outcome. Every member's Adj
// row lists all other members.
func peelPairwise(ids []int, pts []geom.Vector) *Upper {
	d := len(pts[0])
	jit := make([]float64, len(pts)*d)
	jpts := make([][]float64, len(pts))
	for i, p := range pts {
		jpts[i] = jit[i*d : (i+1)*d : (i+1)*d]
		jitterInto(jpts[i], p)
	}
	var t topTest
	u := &Upper{}
	for i := range jpts {
		if t.canTopAmong(jpts, i) {
			u.MemberIDs = append(u.MemberIDs, ids[i])
		}
	}
	nm := len(u.MemberIDs)
	u.adjOff = make([]int32, 1, nm+1)
	u.adjIDs = make([]int, 0, nm*(nm-1))
	for a := range u.MemberIDs {
		u.adjIDs = append(u.adjIDs, u.MemberIDs[:a]...)
		u.adjIDs = append(u.adjIDs, u.MemberIDs[a+1:]...)
		u.adjOff = append(u.adjOff, int32(len(u.adjIDs)))
	}
	return u
}

// Extremes counts the extreme records of a growing point set: the records
// that score at least as high as every other record for some preference
// vector, i.e. the upper-hull members that Builder.MemberCount counts. A
// record whose coordinates equal an earlier record's is not counted, as
// the Builder does not count it either. ORU's rho-bar estimate polls
// MemberCount at d >= PairwiseDim, where one QP per record is far cheaper
// than maintaining the hull.
type Extremes struct {
	dim  int
	pts  [][]float64 // jittered coordinates of the distinct records
	test topTest
}

// NewExtremes returns an empty counter for d-dimensional records.
func NewExtremes(d int) *Extremes { return &Extremes{dim: d} }

// Add inserts one record. id is unused: the signature matches Builder.Add,
// so ORU's rho-bar estimate drives either counter.
func (x *Extremes) Add(id int, p geom.Vector) {
	w := make([]float64, x.dim)
	jitterInto(w, p)
	for _, q := range x.pts {
		if equalVec(w, q) {
			return
		}
	}
	x.pts = append(x.pts, w)
}

// MemberCount returns the number of extreme records added so far.
func (x *Extremes) MemberCount() int {
	count := 0
	for i := range x.pts {
		if x.test.canTopAmong(x.pts, i) {
			count++
		}
	}
	return count
}
