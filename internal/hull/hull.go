// Package hull is the library's computational-geometry core, replacing the
// role Qhull [9] plays in the paper's implementation. It computes upper
// hulls of d-dimensional point sets in the form ORU consumes: the members,
// i.e. the records that are top-1 for some preference vector (Section 5.1),
// and each member's adjacency set A(r), whose "r beats a" rows bound r's
// top-region C(r).
//
// The algorithm is the incremental beneath-beyond construction: a full
// convex hull is grown point by point, starting from a synthetic simplex of
// d+1 sentinel points placed strictly below the data (every real point
// strictly dominates every sentinel, so sentinels can never lie on an upper
// facet, while guaranteeing full dimensionality for arbitrarily small or
// degenerate inputs). Points are deterministically jittered by a hash of
// their coordinates to enforce general position, which the paper assumes
// throughout; the outputs are record ids.
//
// From PairwiseDim up, ORU's layers and rho-bar count use no hull at all:
// one feasibility QP per record answers the same membership question.
package hull

import (
	"fmt"
	"math"
	"sort"

	"ordu/internal/geom"
	"ordu/internal/linalg"
)

// Upper is the upper hull of a point set: its members and their adjacency,
// in compressed row form.
type Upper struct {
	// MemberIDs lists the ids of the records on the upper hull, ascending:
	// the records that are top-1 for at least one preference vector.
	MemberIDs []int
	adjOff    []int32 // row offsets into adjIDs; len(MemberIDs)+1
	adjIDs    []int   // concatenated adjacency rows (member ids, sorted)
}

// Adj returns the members adjacent to id, ascending: the set A(r) of the
// paper. It is nil for a non-member. The row aliases u and must not be
// modified.
func (u *Upper) Adj(id int) []int {
	i := sort.SearchInts(u.MemberIDs, id)
	if i >= len(u.MemberIDs) || u.MemberIDs[i] != id {
		return nil
	}
	return u.adjIDs[u.adjOff[i]:u.adjOff[i+1]]
}

// facet is one simplicial facet of the full hull under construction.
type facet struct {
	verts     []int // d internal point indices, sorted
	normal    []float64
	offset    float64
	neighbors []*facet // neighbors[i] shares all verts except verts[i]
	dead      bool
	visitTag  int
}

// Builder incrementally constructs a convex hull of points in 2 to 9
// dimensions and extracts its upper hull. Below PairwiseDim it is the
// engine behind ORU's layers, its L_upd hulls and the incremental hull of
// its rho-bar estimation (Section 5.3); from PairwiseDim up only tests and
// ComputeUpper use it. A Builder reuses its insertion scratch
// (visible/horizon lists, the ridge-matching map, facet structs from the
// free list) across Add calls; it is not goroutine-safe.
type Builder struct {
	dim     int
	pts     [][]float64 // jittered working coordinates; sentinels first
	ids     []int       // external id per point; -1 for sentinels
	facets  []*facet
	tag     int
	started bool
	// interior is a point strictly inside the initial simplex, used to
	// orient facet normals outward.
	interior []float64

	// Insertion scratch, reused across Add calls.
	lin        linalg.Workspace
	visible    []*facet
	horizon    []ridge
	newFacets  []*facet
	pending    map[ridgeKey]facetSlot // sub-ridges awaiting their partner facet
	fpts       [][]float64
	ridgeVerts []int // backing storage for the current horizon's ridge verts
	vertBuf    []int
	freeFacets []*facet

	// Point arena: Add copies incoming coordinates into fixed-size chunks
	// that Reset rewinds instead of freeing, so a pooled builder stops
	// allocating per point once warm.
	chunks   [][]float64
	chunkI   int
	chunkOff int

	// Membership-test scratch (canTopIdx), reused across calls.
	top    topTest
	nbrPts [][]float64

	// Membership-pass scratch (members): per-internal-index generation
	// stamps, the packed co-facet pair list, and the member ordering buffer.
	gen         int
	fastStamp   []int
	hullStamp   []int
	nbrBuf      []int
	memberStamp []int
	pairBuf     []int64
	pairBuf2    []int64
	pairCnt     []int32
	extBuf      []int
}

// ridgeKey is a sub-ridge (up to 8 sorted vertex indices, -1 padded) as a
// comparable map key: hashing it allocates nothing, unlike a string key.
type ridgeKey [8]int32

// ridge is one horizon ridge during insertion: d-1 vertices (sorted),
// stored as a range into the builder's flat ridgeVerts buffer (offsets stay
// valid across buffer growth), shared with a non-visible facet.
type ridge struct {
	lo, hi  int
	outside *facet
}

// facetSlot identifies a neighbor slot of a facet awaiting its partner
// while wiring new facets along sub-ridges.
type facetSlot struct {
	f *facet
	i int
}

// NewBuilder returns a hull builder for d-dimensional points, 2 <= d <= 9.
// It panics outside that range: a ridge of a 9-d facet has 8 vertices, the
// most a ridgeKey holds.
func NewBuilder(d int) *Builder {
	checkDim(d)
	return &Builder{dim: d}
}

// checkDim enforces the Builder's documented dimension range.
func checkDim(d int) {
	if d < 2 || d > 9 {
		panic(fmt.Sprintf("hull: dimension %d outside 2..9", d)) //ordlint:allow nopanic — documented precondition; caller bug, not data-dependent
	}
}

// The hull's tolerances. Coordinates are of order 1 (the paper's datasets
// lie in the unit cube), and package qp, which decides membership for the
// vertices the facet test below cannot settle, accepts a row violated by
// at most 1e-10.
const (
	// jitterScale bounds the perturbation Add applies to every coordinate
	// to put the input in general position: each coordinate moves by less
	// than 1e-9, so a score at any simplex vector moves by less than 1e-9.
	// Records tied on the original coordinates (collinear, grid and
	// coplanar points) typically end up about 1e-9 apart in score: three
	// orders above visEps, so insert sees a tied point clearly beyond or
	// beneath a facet instead of deciding by rounding, and ten times the
	// QP's tolerance, so the membership QP, which runs on the same jittered
	// coordinates, mostly resolves a tie the way the jitter does. Exact
	// duplicates get equal jitter and stay coincident.
	jitterScale = 1e-9
	// visEps is how far beyond a facet's hyperplane a point must lie for
	// insert to see the facet. Normals have unit length, so it is a
	// distance: three orders above the rounding of a d-term dot product on
	// unit-cube data (a few 1e-16) and three below the jitter's offsets. A
	// point on a facet, such as an exact duplicate of a vertex, sees
	// nothing and lands inside.
	visEps = 1e-12
	// normalSignTol is how negative a coordinate of a facet's unit normal
	// may be for MemberCount and Upper to take the facet's vertices as
	// members without a QP. Clamping such a normal to its non-negative part
	// and scaling it onto the simplex gives a vector at which each vertex
	// of the facet trails no other point by more than visEps plus about
	// d·1e-12, well inside the QP's 1e-10 tolerance: the shortcut accepts
	// no vertex on weaker evidence than the QP would. Anything more
	// negative goes to the QP, which decides it.
	normalSignTol = 1e-12
)

// Reset returns the builder to its empty state for dimension d, retaining
// the facet free list, the point arena and every scratch buffer. A pooled
// builder Reset between hulls constructs each one without re-paying the
// allocation cost of a fresh Builder — the pattern ORU's partition loop
// relies on. Outputs of earlier Upper calls remain valid (they do not alias
// builder state); points previously Added are forgotten. Like NewBuilder
// it panics unless 2 <= d <= 9.
func (b *Builder) Reset(d int) {
	checkDim(d)
	// Every facet still on the list is unreachable after the reset: recycle
	// alive and not-yet-compacted dead ones alike. (Dead facets referenced
	// by alive neighbors were dropped from the list at compaction time and
	// stay out of the pool.)
	for _, f := range b.facets {
		b.freeFacet(f)
	}
	b.facets = b.facets[:0]
	b.dim = d
	b.pts = b.pts[:0]
	b.ids = b.ids[:0]
	b.started = false
	b.chunkI = 0
	b.chunkOff = 0
}

// allocPoint carves one d-vector from the point arena. The returned slice
// aliases the builder's chunk arena: it stays valid (and keeps its contents)
// until the builder is garbage-collected — Reset recycles the arena cursor
// but never frees or overwrites chunks mid-build, so points handed out
// during one build remain stable for that build's lifetime.
//
//ordlint:noalloc
func (b *Builder) allocPoint() []float64 {
	const chunkFloats = 2048
	// Advance past an exhausted chunk (every chunk holds chunkFloats
	// floats, so the next recycled chunk always fits a point).
	if b.chunkI < len(b.chunks) && b.chunkOff+b.dim > len(b.chunks[b.chunkI]) && b.chunkI+1 < len(b.chunks) {
		b.chunkI++
		b.chunkOff = 0
	}
	if b.chunkI >= len(b.chunks) || b.chunkOff+b.dim > len(b.chunks[b.chunkI]) {
		sz := chunkFloats
		if b.dim > sz {
			sz = b.dim
		}
		b.chunks = append(b.chunks, make([]float64, sz)) //ordlint:allow noalloc — arena growth: amortised over the chunk's point count
		b.chunkI = len(b.chunks) - 1
		b.chunkOff = 0
	}
	c := b.chunks[b.chunkI]
	w := c[b.chunkOff : b.chunkOff+b.dim : b.chunkOff+b.dim]
	b.chunkOff += b.dim
	return w
}

// jitter deterministically perturbs coordinate j of a point based on the
// point's coordinate bits, enforcing general position while keeping results
// reproducible across runs and across subsets.
func jitter(p geom.Vector, j int) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range p {
		h ^= math.Float64bits(x)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	h ^= uint64(j+1) * 0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	// Map to (-1, 1).
	return (float64(h%(1<<52))/float64(1<<52) - 0.5) * 2
}

// Add inserts one point with its external id. Points may arrive in any
// order; duplicates (by jittered coordinates) simply land inside the hull.
func (b *Builder) Add(id int, p geom.Vector) {
	if len(p) != b.dim {
		panic(fmt.Sprintf("hull: point dim %d, builder dim %d", len(p), b.dim)) //ordlint:allow nopanic — documented precondition; caller bug, not data-dependent
	}
	w := b.allocPoint()
	jitterInto(w, p)
	if !b.started {
		b.bootstrap(w)
	}
	b.ids = append(b.ids, id)
	b.pts = append(b.pts, w)
	b.insert(len(b.pts) - 1)
}

// bootstrap creates the sentinel simplex strictly below the first point.
func (b *Builder) bootstrap(first []float64) {
	d := b.dim
	span := 4.0
	for _, x := range first {
		if a := math.Abs(x); a > span/4 {
			span = 4 * a
		}
	}
	base := b.allocPoint()
	for j := range base {
		base[j] = first[j] - span
	}
	// Sentinels: base, and base - span*e_i for i = 0..d-1.
	b.pts = append(b.pts[:0], base)
	b.ids = append(b.ids[:0], -1)
	for i := 0; i < d; i++ {
		s := b.allocPoint()
		copy(s, base)
		s[i] -= span
		// Tiny asymmetry to keep the sentinel simplex in general position
		// with respect to jittered data points.
		s[(i+1)%d] -= span * 0.01 * float64(i+1)
		b.pts = append(b.pts, s)
		b.ids = append(b.ids, -1)
	}
	if cap(b.interior) < d {
		b.interior = make([]float64, d)
	}
	b.interior = b.interior[:d]
	for j := range b.interior {
		b.interior[j] = 0
	}
	for _, p := range b.pts {
		for j := range p {
			b.interior[j] += p[j] / float64(d+1)
		}
	}
	// Initial facets: all d-subsets of the d+1 sentinels.
	fs := b.facets[:0]
	for skip := 0; skip <= d; skip++ {
		verts := b.vertBuf[:0]
		for v := 0; v <= d; v++ {
			if v != skip {
				verts = append(verts, v)
			}
		}
		b.vertBuf = verts[:0]
		f, err := b.newFacet(verts)
		if err != nil {
			panic("hull: degenerate sentinel simplex: " + err.Error()) //ordlint:allow nopanic — unreachable invariant: sentinels are constructed in general position
		}
		fs = append(fs, f)
	}
	// Wire neighbors: facet skipping i and facet skipping j share all
	// vertices except i and j.
	for i, fi := range fs {
		for k, v := range fi.verts {
			// Neighbor opposite v: the facet that skips v.
			fi.neighbors[k] = fs[v]
			_ = i
		}
	}
	b.facets = fs
	b.started = true
}

// allocFacet returns a facet from the free list (buffers retained, fields
// reset) or a fresh one.
//
//ordlint:noalloc
func (b *Builder) allocFacet() *facet {
	if n := len(b.freeFacets); n > 0 {
		f := b.freeFacets[n-1]
		b.freeFacets = b.freeFacets[:n-1]
		f.dead = false
		f.visitTag = 0
		return f
	}
	return &facet{} //ordlint:allow noalloc — free-list miss: the pool grows by one here, by design
}

// freeFacet recycles a facet. The caller must guarantee nothing still
// points to it (see the compaction pass in insert).
//
//ordlint:noalloc
func (b *Builder) freeFacet(f *facet) {
	for i := range f.neighbors {
		f.neighbors[i] = nil
	}
	f.dead = true
	b.freeFacets = append(b.freeFacets, f)
}

// newFacet builds a facet through the given vertex indices, oriented away
// from the interior point. The facet struct and its buffers come from the
// builder's free list when available.
//
//ordlint:noalloc
func (b *Builder) newFacet(verts []int) (*facet, error) {
	d := b.dim
	f := b.allocFacet()
	f.verts = append(f.verts[:0], verts...)
	sort.Ints(f.verts)
	if cap(b.fpts) < d {
		b.fpts = make([][]float64, d)
	}
	pts := b.fpts[:d]
	for i, v := range f.verts {
		pts[i] = b.pts[v]
	}
	if cap(f.normal) < d {
		f.normal = make([]float64, d)
	}
	n := f.normal[:d]
	f.normal = n
	c, err := b.lin.HyperplaneThrough(pts, n)
	if err != nil {
		b.freeFacet(f)
		return nil, err
	}
	// Orient outward.
	s := -c
	for j := 0; j < d; j++ {
		s += n[j] * b.interior[j]
	}
	if s > 0 {
		for j := range n {
			n[j] = -n[j]
		}
		c = -c
	}
	// Normalise for stable eps comparisons.
	mag := 0.0
	for _, x := range n {
		mag += x * x
	}
	mag = math.Sqrt(mag)
	if mag < 1e-300 {
		b.freeFacet(f)
		return nil, linalg.ErrSingular
	}
	for j := range n {
		n[j] /= mag
	}
	f.offset = c / mag
	if cap(f.neighbors) < d {
		f.neighbors = make([]*facet, d)
	}
	f.neighbors = f.neighbors[:d]
	for i := range f.neighbors {
		f.neighbors[i] = nil
	}
	return f, nil
}

// insert adds internal point index pi to the hull.
func (b *Builder) insert(pi int) {
	p := b.pts[pi]
	// Collect visible facets by full scan (robust and fast enough at the
	// candidate-set sizes ORU operates on).
	visible := b.visible[:0]
	b.tag++
	for _, f := range b.facets {
		if f.dead {
			continue
		}
		s := -f.offset
		for j := range p {
			s += f.normal[j] * p[j]
		}
		if s > visEps {
			f.visitTag = b.tag
			visible = append(visible, f)
		}
	}
	b.visible = visible
	if len(visible) == 0 {
		return // interior point
	}
	// Horizon ridges: (visible facet, vertex-opposite-index) pairs whose
	// neighbor is not visible.
	horizon := b.horizon[:0]
	rv := b.ridgeVerts[:0]
	for _, f := range visible {
		for i, nb := range f.neighbors {
			if nb == nil || nb.visitTag == b.tag {
				continue
			}
			lo := len(rv)
			for k, v := range f.verts {
				if k != i {
					rv = append(rv, v)
				}
			}
			horizon = append(horizon, ridge{lo: lo, hi: len(rv), outside: nb})
		}
	}
	b.horizon = horizon
	b.ridgeVerts = rv
	// Build new facets: ridge + p.
	newFacets := b.newFacets[:0]
	// The pending map takes a sorted sub-ridge (d-1 <= 8 vertices including
	// p) to the facet+slot waiting for its partner.
	if b.pending == nil {
		b.pending = make(map[ridgeKey]facetSlot)
	}
	clear(b.pending)
	pending := b.pending
	for _, r := range horizon {
		verts := append(append(b.vertBuf[:0], rv[r.lo:r.hi]...), pi)
		b.vertBuf = verts[:0]
		nf, err := b.newFacet(verts)
		if err != nil {
			// Degenerate ridge (jitter should prevent this); skip the facet.
			continue
		}
		// Wire across the horizon: nf's slot opposite p links to r.outside.
		for i, v := range nf.verts {
			if v == pi {
				nf.neighbors[i] = r.outside
			}
		}
		// r.outside's slot that pointed to a visible facet now points to nf.
		for i, nb := range r.outside.neighbors {
			if nb != nil && nb.visitTag == b.tag {
				// Check the shared ridge matches r's vertices.
				if matchesExcept(r.outside.verts, i, rv[r.lo:r.hi]) {
					r.outside.neighbors[i] = nf
					break
				}
			}
		}
		// Wire among new facets via sub-ridges containing p.
		for i, v := range nf.verts {
			if v == pi {
				continue
			}
			key := ridgeKeyOf(nf.verts, i)
			if other, ok := pending[key]; ok {
				nf.neighbors[i] = other.f
				other.f.neighbors[other.i] = nf
				delete(pending, key)
			} else {
				pending[key] = facetSlot{f: nf, i: i}
			}
		}
		newFacets = append(newFacets, nf)
	}
	for _, f := range visible {
		f.dead = true
	}
	// Compact the facet list occasionally to keep scans cheap, returning
	// dead facets that nothing references to the free list. A degenerate
	// ridge (skipped above) can leave an alive facet pointing at a dead
	// one, so dead facets referenced by alive neighbors are merely dropped
	// from the list, never recycled.
	b.facets = append(b.facets, newFacets...)
	b.newFacets = newFacets[:0]
	if len(b.facets) > 64 {
		alive := 0
		for _, f := range b.facets {
			if !f.dead {
				alive++
			}
		}
		if alive*2 < len(b.facets) {
			b.tag++
			for _, f := range b.facets {
				if f.dead {
					continue
				}
				for _, nb := range f.neighbors {
					if nb != nil && nb.dead {
						nb.visitTag = b.tag // referenced: keep out of the free list
					}
				}
			}
			kept := make([]*facet, 0, alive)
			for _, f := range b.facets {
				if !f.dead {
					kept = append(kept, f)
				} else if f.visitTag != b.tag {
					b.freeFacet(f)
				}
			}
			b.facets = kept
		}
	}
}

// ridgeKeyOf packs the sub-ridge of verts that skips index skip into a
// fixed array key (-1 padded). Callers guarantee len(verts)-1 <= 8.
//
//ordlint:noalloc
func ridgeKeyOf(verts []int, skip int) ridgeKey {
	key := ridgeKey{-1, -1, -1, -1, -1, -1, -1, -1}
	w := 0
	for k, v := range verts {
		if k == skip {
			continue
		}
		key[w] = int32(v)
		w++
	}
	return key
}

// matchesExcept reports whether verts with index skip removed equals want
// (both sorted).
func matchesExcept(verts []int, skip int, want []int) bool {
	if len(verts)-1 != len(want) {
		return false
	}
	wi := 0
	for k, v := range verts {
		if k == skip {
			continue
		}
		if v != want[wi] {
			return false
		}
		wi++
	}
	return true
}

// MemberCount counts the real points currently on the upper hull without
// extracting it: it runs Upper's membership pass and skips the row
// emission. Repeated calls reuse the builder's stamp and pair buffers —
// this is the polling primitive of the rho-bar estimation loop below
// PairwiseDim.
func (b *Builder) MemberCount() int {
	if !b.started {
		return 0
	}
	return b.members()
}

// Upper extracts the current upper hull.
//
// Membership uses the exact local criterion rather than facet-normal signs:
// a hull vertex r is top-1 for some preference vector iff there is a v on
// the simplex with (r - q).v >= 0 for every hull vertex q adjacent to r in
// the full facet graph (beating all neighbours of a convex-hull vertex
// means beating everything, for any linear objective). This correctly
// captures records that win only near the boundary of the preference
// domain, whose incident facets all have mixed-sign normals; a vertex of a
// facet with non-negative normal is a member without the test. Adjacency
// is the full-hull co-facet relation restricted to members, which is
// exactly the constraint set defining the top-region C(r): any record
// tying r at the top for some v shares a hull facet with r.
func (b *Builder) Upper() *Upper {
	u := &Upper{}
	if !b.started {
		return u
	}
	b.members()
	n := len(b.pts)
	member := b.memberStamp[:n]
	gen := b.gen
	pairs := b.pairBuf
	// Emit members ordered by external id, rows filtered to members.
	ext := b.extBuf[:0]
	for v := 0; v < n; v++ {
		if member[v] == gen {
			ext = append(ext, v)
		}
	}
	sort.Slice(ext, func(a, c int) bool { return b.ids[ext[a]] < b.ids[ext[c]] })
	u.MemberIDs = make([]int, 0, len(ext))
	u.adjOff = make([]int32, 1, len(ext)+1)
	for _, v := range ext {
		u.MemberIDs = append(u.MemberIDs, b.ids[v])
		lo := sort.Search(len(pairs), func(k int) bool { return pairs[k] >= int64(v)<<32 })
		row0 := len(u.adjIDs)
		for k := lo; k < len(pairs) && int(pairs[k]>>32) == v; k++ {
			if o := int(uint32(pairs[k])); member[o] == gen {
				u.adjIDs = append(u.adjIDs, b.ids[o])
			}
		}
		sort.Ints(u.adjIDs[row0:])
		u.adjOff = append(u.adjOff, int32(len(u.adjIDs)))
	}
	b.extBuf = ext[:0]
	return u
}

// members is the membership pass Upper and MemberCount share. One sweep
// over the facets stamps the hull vertices and the certain members
// (vertices of a facet with non-negative normal) and collects the co-facet
// pairs of real vertices; two counting-sort passes group the pairs into
// deduplicated per-vertex runs, and every other hull vertex runs the QP
// membership test against its run. On return memberStamp[v] == gen marks
// the members and pairBuf holds the sorted pairs (v<<32 | o); it returns
// the member count.
func (b *Builder) members() int {
	n := len(b.pts)
	if cap(b.fastStamp) < n {
		b.fastStamp = make([]int, 2*n)
		b.hullStamp = make([]int, 2*n)
		b.memberStamp = make([]int, 2*n)
	}
	fast := b.fastStamp[:n]
	hullv := b.hullStamp[:n]
	member := b.memberStamp[:n]
	b.gen++
	gen := b.gen
	// One facet sweep: stamp hull/fast vertices and pack the co-facet pairs
	// (v, o) of real vertices for sorting into per-vertex adjacency runs.
	pairs := b.pairBuf[:0]
	for _, f := range b.facets {
		if f.dead {
			continue
		}
		nonneg := true
		for _, x := range f.normal {
			if x < -normalSignTol {
				nonneg = false
				break
			}
		}
		for _, v := range f.verts {
			if b.ids[v] < 0 {
				continue
			}
			hullv[v] = gen
			if nonneg {
				fast[v] = gen
			}
			for _, o := range f.verts {
				if o != v && b.ids[o] >= 0 {
					pairs = append(pairs, int64(v)<<32|int64(o))
				}
			}
		}
	}
	// Sort the pairs by (v, o) with a stable two-pass LSD counting sort —
	// first on the low word (the neighbour), then on the high word (the
	// source vertex). Both words are vertex indices below n, so two linear
	// passes leave the pairs fully sorted with no comparison sort at all.
	if cap(b.pairCnt) < n+1 {
		b.pairCnt = make([]int32, 2*(n+1))
	}
	cnt := b.pairCnt[:n+1]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, p := range pairs {
		cnt[int(uint32(p))+1]++
	}
	for v := 0; v < n; v++ {
		cnt[v+1] += cnt[v]
	}
	if cap(b.pairBuf2) < len(pairs) {
		b.pairBuf2 = make([]int64, len(pairs)*2)
	}
	tmp := b.pairBuf2[:len(pairs)]
	for _, p := range pairs {
		o := int(uint32(p))
		tmp[cnt[o]] = p
		cnt[o]++
	}
	for i := range cnt {
		cnt[i] = 0
	}
	for _, p := range tmp {
		cnt[int(p>>32)+1]++
	}
	for v := 0; v < n; v++ {
		cnt[v+1] += cnt[v]
	}
	dst := pairs // pass 2 writes back into the append buffer (tmp is separate)
	for _, p := range tmp {
		v := int(p >> 32)
		dst[cnt[v]] = p
		cnt[v]++
	}
	// Dedup in place (facets share ridges, so pairs repeat).
	w := 0
	for i, p := range dst {
		if i == 0 || p != dst[w-1] {
			dst[w] = p
			w++
		}
	}
	b.pairBuf2 = tmp[:0]
	pairs = dst[:w]
	b.pairBuf = pairs
	// Membership: walk the per-vertex runs.
	count := 0
	i := 0
	for v := 0; v < n; v++ {
		lo := i
		for i < len(pairs) && int(pairs[i]>>32) == v {
			i++
		}
		if hullv[v] != gen {
			continue
		}
		if fast[v] != gen {
			nbrs := b.nbrBuf[:0]
			for k := lo; k < i; k++ {
				nbrs = append(nbrs, int(uint32(pairs[k])))
			}
			b.nbrBuf = nbrs[:0]
			if !b.canTopIdx(v, nbrs) {
				continue
			}
		}
		member[v] = gen
		count++
	}
	return count
}

// canTopIdx is canTop over internal point indices: can point v score at
// least as high as all of nbrs somewhere on the simplex?
//
//ordlint:noalloc
func (b *Builder) canTopIdx(v int, nbrs []int) bool {
	others := b.nbrPts[:0]
	for _, o := range nbrs {
		others = append(others, b.pts[o])
	}
	b.nbrPts = others
	return b.top.canTop(b.pts[v], others)
}

// ComputeUpper computes the upper hull of the given records in one shot.
// ids and points run in parallel.
func ComputeUpper(ids []int, points []geom.Vector) *Upper {
	if len(ids) != len(points) {
		panic("hull: ids and points length mismatch") //ordlint:allow nopanic — documented precondition; caller bug, not data-dependent
	}
	if len(ids) == 0 {
		return &Upper{}
	}
	b := NewBuilder(len(points[0]))
	for i, id := range ids {
		b.Add(id, points[i])
	}
	return b.Upper()
}
