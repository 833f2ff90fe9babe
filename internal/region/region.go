// Package region represents convex polytopes in the preference domain: the
// top-regions C(r) of Lemma 2, their refinements under Theorem 1, and the
// fixed preference polytopes R of the baseline techniques [20, 54]. A
// region is the unit simplex intersected with a list of halfspace rows
// A.v >= B; a refinement appends rows.
//
// Emptiness, mindist and probe questions are projection QPs. Each call
// assembles its QP in a caller-supplied Workspace: the cached simplex rows,
// then the region's rows, then any probe rows. A warmed Workspace makes the
// whole path allocation-free. A Workspace is NOT goroutine-safe; use one
// per worker.
//
// Below d = 5 a region can also carry a vertex list (Vertices), updated by
// clipping as rows are appended. It answers the minimum of a linear
// function over the region with a few dot products, which settles
// dominance over the region and most overlap tests without a QP.
package region

import (
	"ordu/internal/geom"
	"ordu/internal/qp"
)

// Halfspace is one linear constraint A.v >= B over preference vectors.
type Halfspace struct {
	A geom.Vector
	B float64
}

// Beat returns the halfspace of preference vectors for which record r
// scores at least as high as record q: (r - q).v >= 0. It is the building
// block of every top-region in the paper.
func Beat(r, q geom.Vector) Halfspace {
	return Halfspace{A: r.Sub(q), B: 0}
}

// Region is a convex polytope in the preference domain: the unit simplex
// intersected with the listed halfspaces.
type Region struct {
	Dim int
	Hs  []Halfspace
}

// Full returns the whole preference domain (the unit simplex).
func Full(d int) Region {
	return Region{Dim: d}
}

// With returns a new region additionally constrained by the given
// halfspaces. The receiver is unchanged; the halfspace slice is copied so
// regions can be extended independently along different search branches
// (only the Halfspace headers are copied; the normal vectors themselves
// are shared).
func (r Region) With(hs ...Halfspace) Region {
	out := Region{
		Dim: r.Dim,
		Hs:  make([]Halfspace, 0, len(r.Hs)+len(hs)),
	}
	out.Hs = append(out.Hs, r.Hs...)
	out.Hs = append(out.Hs, hs...)
	return out
}

// containsSlack is how far Contains lets a point violate a halfspace. A
// region's witness is a QP solution on the region's boundary: it meets the
// active rows only to the solver's feasibility tolerance (1e-10 in package
// qp) plus the rounding of a d-term dot product, so the slack must sit above
// that for a region to contain its own witness; 1e-9 leaves an order of
// magnitude of headroom.
const containsSlack = 1e-9

// Contains reports whether v satisfies every constraint, up to
// containsSlack.
func (r Region) Contains(v geom.Vector) bool {
	if !geom.OnSimplex(v) {
		return false
	}
	for _, h := range r.Hs {
		if h.A.Dot(v) < h.B-containsSlack {
			return false
		}
	}
	return true
}

// Workspace carries the QP solver state and the assembled constraint
// system of region queries, so repeated ProbeMinDist calls perform no heap
// allocations after warm-up. The zero value is ready for use. Not
// goroutine-safe: one Workspace per worker.
type Workspace struct {
	qp qp.Workspace
	pr qp.Problem
}

// problemWS assembles the QP constraint system for the region into the
// workspace's reusable Problem: the cached simplex rows (shared, read-only)
// followed by the region's halfspace rows.
//
//ordlint:noalloc
func (r Region) problemWS(target geom.Vector, ws *Workspace) *qp.Problem {
	d := r.Dim
	pr := &ws.pr
	pr.P = target
	pr.EqA = append(pr.EqA[:0], geom.SimplexOnes(d))
	pr.EqB = append(pr.EqB[:0], 1)
	pr.InA = append(pr.InA[:0], geom.SimplexAxes(d)...)
	pr.InB = append(pr.InB[:0], geom.SimplexZeros(d)...)
	for _, h := range r.Hs {
		pr.InA = append(pr.InA, h.A)
		pr.InB = append(pr.InB, h.B)
	}
	return pr
}

// MinDistWS returns the minimum distance from w to the region and the
// closest point; ok is false when the region is empty. w must have the
// region's dimensionality. It is ProbeMinDist with no extra rows.
//
//ordlint:noalloc
func (r Region) MinDistWS(w geom.Vector, ws *Workspace) (dist float64, closest geom.Vector, ok bool) {
	return r.ProbeMinDist(nil, w, ws)
}

// ProbeMinDist answers both of the region layer's questions about r
// intersected with extra halfspaces: the closest point to w and its
// distance, or ok=false when the intersection is empty. The extra rows are
// appended to the workspace's assembled constraint system directly, without
// materialising the combined region. Emptiness does not depend on w, but a
// w already deep inside r (a cached witness of a prior solve) starts the
// solver with most constraints satisfied, cutting its active-set
// iterations. The returned closest point aliases the workspace's solution
// buffer: it is valid until the workspace's next use and must be copied if
// retained.
//
//ordlint:noalloc
func (r Region) ProbeMinDist(hs []Halfspace, w geom.Vector, ws *Workspace) (dist float64, closest geom.Vector, ok bool) {
	pr := r.problemWS(w, ws)
	for _, h := range hs {
		pr.InA = append(pr.InA, h.A)
		pr.InB = append(pr.InB, h.B)
	}
	x, d2, err := ws.qp.Solve(pr)
	if err != nil {
		return 0, nil, false
	}
	return d2, x, true
}

// FeasiblePointWS returns a point of the region (the projection of the
// simplex barycentre), or ok=false when the region is empty. The returned
// point aliases the workspace and must be copied if retained.
//
//ordlint:noalloc
func (r Region) FeasiblePointWS(ws *Workspace) (geom.Vector, bool) {
	_, x, ok := r.MinDistWS(geom.SimplexBarycentre(r.Dim), ws)
	return x, ok
}

// Box returns the region |v_i - c_i| <= side/2 intersected with the
// simplex: the hypercube preference polytope the fixed-region adaptations
// are fed (Section 6.1).
func Box(c geom.Vector, side float64) Region {
	d := len(c)
	r := Region{Dim: d}
	var hs []Halfspace
	for i := 0; i < d; i++ {
		lo := c[i] - side/2
		hi := c[i] + side/2
		e := make(geom.Vector, d)
		e[i] = 1
		ne := make(geom.Vector, d)
		ne[i] = -1
		if lo > 0 {
			hs = append(hs, Halfspace{A: e, B: lo})
		}
		if hi < 1 {
			hs = append(hs, Halfspace{A: ne, B: -hi})
		}
	}
	return r.With(hs...)
}
