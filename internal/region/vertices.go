package region

import (
	"math"

	"ordu/internal/geom"
)

// maxVertices caps a vertex list; past it Clip gives the list up. The
// regions ORU partitions at d = 4 have about ten vertices, so the cap only
// bounds what a list that no longer pays for itself can cost.
const maxVertices = 256

// rowBits is the width of a point's tight-row mask: Clip accepts row
// indices below it.
const rowBits = 256

// clipTol is how close to a row's hyperplane a point counts as on it: Clip
// keeps points with slack at least -clipTol and marks the row tight on
// points within clipTol of the plane. A point's slack carries the rounding
// of a d-term dot product plus what it inherited from the crossings that
// made it, a few 1e-16 on data in the unit cube, so clipTol sits three
// orders of magnitude above that noise and a vertex on a row is recognised
// as tight instead of being cut or duplicated. It also sits four orders
// below the margin (core's witnessMargin, 1e-8) that every decision taken
// from the list must clear, so the list's inexactness cannot flip one.
const clipTol = 1e-12

// rowMask is a fixed-width set of row indices. In d dimensions, axis row
// v_i >= 0 is row i and a region's halfspace j is row d+j.
type rowMask [rowBits / 64]uint64

func (m *rowMask) set(row int) { m[row>>6] |= 1 << (row & 63) }

// atLeast reports whether m holds at least n rows, clearing one set bit
// per step until it has seen n.
func (m *rowMask) atLeast(n int) bool {
	for _, w := range m {
		for ; w != 0 && n > 0; w &= w - 1 {
			n--
		}
	}
	return n <= 0
}

// Vertices is the vertex list of a region below the dimensions where it
// stops paying (ORU keeps one for d <= 4): a list of points of the
// polytope that includes every one of its vertices, each with the rows it
// is tight on. The minimum of a linear function over the region is its
// minimum over the list, a few dot products instead of an LP. The list is
// maintained by clipping, one row at a time. The zero value is an empty
// list; Reset starts it from the simplex. Buffers are reused across Reset,
// CopyFrom and Clip, so a warmed list allocates nothing.
type Vertices struct {
	d     int
	pts   []float64 // point i is pts[i*d : (i+1)*d]
	tight []rowMask // rows point i is tight on
	slack []float64 // Clip scratch: each point's slack on the clipped row
}

// Reset makes the list the d corners of the unit simplex. Corner j is tight
// on every axis row v_i >= 0 with i != j. d must not exceed rowBits.
//
//ordlint:noalloc
func (vl *Vertices) Reset(d int) {
	vl.d = d
	vl.pts = vl.pts[:0]
	vl.tight = vl.tight[:0]
	for j := 0; j < d; j++ {
		var m rowMask
		for i := 0; i < d; i++ {
			x := 1.0
			if i != j {
				m.set(i)
				x = 0
			}
			vl.pts = append(vl.pts, x)
		}
		vl.tight = append(vl.tight, m)
	}
}

// CopyFrom makes the list a copy of src, reusing the receiver's buffers.
//
//ordlint:noalloc
func (vl *Vertices) CopyFrom(src *Vertices) {
	vl.d = src.d
	vl.pts = append(vl.pts[:0], src.pts...)
	vl.tight = append(vl.tight[:0], src.tight...)
}

// Clip intersects the region with halfspace h, whose row index (for the
// tight masks) is row. Points with slack below -clipTol go; the rest stay,
// and those within clipTol of the plane become tight on row. Each pair of a
// point strictly inside and one strictly outside that share at least d-2
// tight rows adds the point where the segment between them crosses the
// plane, tight on their shared rows and on row. Every edge of the polytope
// joins two such points, so no new vertex is missed; the pairs that are not
// edges add points of the polytope that are not vertices, which leaves
// every minimum unchanged.
//
// Clip reports false when it gives the list up, leaving it unusable: the
// list would pass maxVertices, row is at least rowBits, or no point is
// strictly inside, which leaves at most the on-plane face: a region that
// is empty or lower-dimensional. A row that holds with equality on the
// whole simplex is the exception; it changes nothing.
//
//ordlint:noalloc
func (vl *Vertices) Clip(h Halfspace, row int) bool {
	if row < 0 || row >= rowBits {
		return false
	}
	d, n := vl.d, len(vl.tight)
	slack := vl.slack[:0]
	in, out := 0, 0
	for i := 0; i < n; i++ {
		s := vl.slackOf(h, i*d)
		slack = append(slack, s)
		switch {
		case s > clipTol:
			in++
		case s < -clipTol:
			out++
		default:
			vl.tight[i].set(row)
		}
	}
	vl.slack = slack
	if in == 0 {
		// Every point is on or outside the plane. Only a row that holds
		// with equality on the whole simplex, such as the zero row of two
		// duplicate records, leaves the region as it was; it adds no tight
		// row either.
		return out == 0 && trivialOnSimplex(h)
	}
	if out == 0 {
		return true
	}
	// Swap the points outside to the tail, [keep, n).
	keep := n
	for i := 0; i < keep; {
		if slack[i] >= -clipTol {
			i++
			continue
		}
		keep--
		for c := 0; c < d; c++ {
			vl.pts[i*d+c], vl.pts[keep*d+c] = vl.pts[keep*d+c], vl.pts[i*d+c]
		}
		vl.tight[i], vl.tight[keep] = vl.tight[keep], vl.tight[i]
		slack[i], slack[keep] = slack[keep], slack[i]
	}
	size := keep
	for i := 0; i < keep; i++ {
		if slack[i] <= clipTol {
			continue
		}
		for j := keep; j < n; j++ {
			m := vl.tight[i]
			for w := range m {
				m[w] &= vl.tight[j][w]
			}
			if !m.atLeast(d - 2) {
				continue
			}
			if size++; size > maxVertices {
				return false
			}
			t := slack[i] / (slack[i] - slack[j])
			for c := 0; c < d; c++ {
				pi, pj := vl.pts[i*d+c], vl.pts[j*d+c]
				vl.pts = append(vl.pts, pi+t*(pj-pi))
			}
			m.set(row)
			vl.tight = append(vl.tight, m)
		}
	}
	// Drop the points outside: the crossings move down over them.
	vl.pts = append(vl.pts[:keep*d], vl.pts[n*d:]...)
	vl.tight = append(vl.tight[:keep], vl.tight[n:]...)
	return true
}

// Min returns the minimum of a.v over the listed points: the exact minimum
// of the linear function over the region, up to clipTol. It is +Inf for an
// empty list.
//
//ordlint:noalloc
func (vl *Vertices) Min(a geom.Vector) float64 {
	low := math.Inf(1)
	for off := 0; off < len(vl.pts); off += vl.d {
		low = min(low, vl.slackOf(Halfspace{A: a}, off))
	}
	return low
}

// Screen settles from the list alone whether the region meets the
// intersection of the halfspaces hs. miss: one halfspace is violated by
// more than margin at every listed point, so it misses the whole region.
// meet: one listed point satisfies every halfspace with more than margin
// to spare. When neither holds, the list cannot tell.
//
//ordlint:noalloc
func (vl *Vertices) Screen(hs []Halfspace, margin float64) (miss, meet bool) {
	for _, h := range hs {
		high := math.Inf(-1)
		for off := 0; off < len(vl.pts); off += vl.d {
			high = max(high, vl.slackOf(h, off))
		}
		if high < -margin {
			return true, false
		}
	}
	for off := 0; off < len(vl.pts); off += vl.d {
		clears := true
		for _, h := range hs {
			if vl.slackOf(h, off) <= margin {
				clears = false
				break
			}
		}
		if clears {
			return false, true
		}
	}
	return false, false
}

// trivialOnSimplex reports whether h.A.v = h.B, within clipTol, at every
// point of the simplex: on it, A.v - B = sum_j (A_j - A_0) v_j + (A_0 - B).
func trivialOnSimplex(h Halfspace) bool {
	for _, a := range h.A {
		if math.Abs(a-h.A[0]) > clipTol {
			return false
		}
	}
	return math.Abs(h.A[0]-h.B) <= clipTol
}

// slackOf returns h.A.p - h.B at the listed point p that starts at
// pts[off].
func (vl *Vertices) slackOf(h Halfspace, off int) float64 {
	s := -h.B
	for j, a := range h.A {
		s += a * vl.pts[off+j]
	}
	return s
}
