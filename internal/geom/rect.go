package geom

import "fmt"

// Rect is an axis-aligned rectangle (minimum bounding rectangle) in data
// space, described by its low and high corners.
type Rect struct {
	Lo, Hi Vector
}

// NewRect returns a rectangle spanning the given corners. It panics if the
// corners disagree in dimension or ordering; MBRs are internal structures,
// so malformed input is a programming error.
func NewRect(lo, hi Vector) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: rect corners of dims %d and %d", len(lo), len(hi))) //ordlint:allow nopanic — documented precondition; caller bug, not data-dependent
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: rect lo[%d]=%g > hi[%d]=%g", i, lo[i], i, hi[i])) //ordlint:allow nopanic — documented precondition; caller bug, not data-dependent
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Vector) Rect {
	return Rect{Lo: p, Hi: p}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// TopCorner returns the corner with the maximum value in every dimension.
// BBS represents index entries by this corner: it upper-bounds the score of
// every record in the subtree for any non-negative preference vector.
func (r Rect) TopCorner() Vector { return r.Hi }

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p Vector) bool {
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s overlap (boundaries included).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make(Vector, len(r.Lo))
	hi := make(Vector, len(r.Hi))
	for i := range lo {
		lo[i] = min(r.Lo[i], s.Lo[i])
		hi[i] = max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Extend grows r in place to cover s.
func (r *Rect) Extend(s Rect) {
	for i := range r.Lo {
		r.Lo[i] = min(r.Lo[i], s.Lo[i])
		r.Hi[i] = max(r.Hi[i], s.Hi[i])
	}
}

// Area returns the d-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Enlargement returns the increase in area of r needed to include s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}
