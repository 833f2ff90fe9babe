package hull

import (
	"fmt"
	"sort"

	"ordu/internal/geom"
)

// Layers lazily maintains the upper-hull layers of a record set: layer 0 is
// the upper hull of all records, layer t the upper hull of what remains
// after peeling layers 0..t-1 (Section 5.1 of the paper, with the paper's
// 1-based L_i corresponding to Layer(i-1)). ORU computes layers on its
// candidate set strictly on demand, so construction does no work.
//
// At d >= PairwiseDim a layer is peeled without a hull: a remaining record
// is a member when it can score at least as high as every other remaining
// record somewhere on the simplex, the Builder's own membership criterion,
// tested with one QP per record on the Builder's jittered coordinates.
// Exact duplicates share a layer. Each member's Adj lists every other
// member of its layer, a superset of co-facet adjacency and so still a
// superset of the rows that define its top-region C(r).
type Layers struct {
	points    map[int]geom.Vector
	remaining map[int]bool
	dim       int
	layers    []*Upper
	layerOf   map[int]int

	// Peeling scratch, reused across Layer calls (the Upper extraction
	// copies what it keeps, so the buffers are free to reuse). The builder
	// is pooled across layers: each peel Resets it instead of paying for a
	// fresh one.
	idsBuf []int
	ptsBuf []geom.Vector
	b      *Builder
}

// NewLayers prepares lazy layer computation over the given records.
func NewLayers(ids []int, points []geom.Vector) *Layers {
	if len(ids) != len(points) {
		panic("hull: ids and points length mismatch") //ordlint:allow nopanic — documented precondition; caller bug, not data-dependent
	}
	ls := &Layers{
		points:    make(map[int]geom.Vector, len(ids)),
		remaining: make(map[int]bool, len(ids)),
		layerOf:   make(map[int]int),
	}
	for i, id := range ids {
		if _, dup := ls.points[id]; dup {
			panic(fmt.Sprintf("hull: duplicate id %d", id)) //ordlint:allow nopanic — documented precondition; caller bug, not data-dependent
		}
		ls.points[id] = points[i]
		ls.remaining[id] = true
	}
	if len(points) > 0 {
		ls.dim = len(points[0])
	}
	return ls
}

// Layer returns layer t (0-based), computing shallower layers as needed.
// It returns nil when fewer than t+1 non-empty layers exist.
func (ls *Layers) Layer(t int) *Upper {
	for len(ls.layers) <= t {
		if len(ls.remaining) == 0 {
			return nil
		}
		ids := ls.idsBuf[:0]
		for id := range ls.remaining {
			ids = append(ids, id)
		}
		sort.Ints(ids) // deterministic insertion order
		pts := ls.ptsBuf[:0]
		for _, id := range ids {
			pts = append(pts, ls.points[id])
		}
		ls.idsBuf = ids
		ls.ptsBuf = pts
		var u *Upper
		if ls.dim >= PairwiseDim {
			u = peelPairwise(ids, pts)
		} else {
			if ls.b == nil {
				ls.b = NewBuilder(ls.dim)
			} else {
				ls.b.Reset(ls.dim)
			}
			for i, id := range ids {
				ls.b.Add(id, pts[i])
			}
			u = ls.b.Upper()
		}
		if len(u.MemberIDs) == 0 {
			// Cannot happen for non-empty input (the degenerate fallback
			// returns maximal points), but guard against infinite loops.
			panic("hull: empty layer over non-empty remainder") //ordlint:allow nopanic — unreachable-invariant guard against infinite loop
		}
		li := len(ls.layers)
		for _, id := range u.MemberIDs {
			delete(ls.remaining, id)
			ls.layerOf[id] = li
		}
		ls.layers = append(ls.layers, u)
	}
	return ls.layers[t]
}

// LayerOf returns the layer index of id, peeling deeper layers if
// necessary. ok is false when the id is unknown.
func (ls *Layers) LayerOf(id int) (int, bool) {
	if _, known := ls.points[id]; !known {
		return 0, false
	}
	// Each iteration either resolves the id or peels one more non-empty
	// layer, so the layer count bounds the loop: at most one layer per point.
	for len(ls.layers) <= len(ls.points) {
		if li, done := ls.layerOf[id]; done {
			return li, true
		}
		if ls.Layer(len(ls.layers)) == nil {
			return 0, false
		}
	}
	return 0, false
}

// Point returns the coordinates of a record.
func (ls *Layers) Point(id int) geom.Vector { return ls.points[id] }

// Computed returns how many layers have been materialised so far.
func (ls *Layers) Computed() int { return len(ls.layers) }
