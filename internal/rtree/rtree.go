// Package rtree implements the in-memory spatial index that the paper
// assumes over the dataset D (Section 3): an R-tree with STR bulk loading
// for static construction and quadratic-split insertion/deletion for
// dynamic maintenance. Branch-and-bound algorithms (BBS, BBR, and the
// paper's score-ordered variants) traverse it through a cursor API of
// NodeRef handles; range and point queries support predicate push-down
// (e.g. the range-then-ORD composition in Section 3) and dominance
// counting for the OSS-skyline baseline.
//
// Layout: the tree is cache-conscious. Nodes live in flat backing arrays
// indexed by int32 NodeRef — per-node level/count stripes, one
// capacity-strided int32 stripe for the entry payloads (child refs at
// internal nodes, packed point slots at leaves), and a rectangle arena
// holding the MBRs of internal entries as contiguous float64 runs. Point
// coordinates live in fixed-size packed chunks, d floats per record, so
// dominance and score kernels sweep contiguous memory; STR bulk load
// assigns slots in leaf order, making each leaf's points one contiguous
// run.
//
// Slot stability: a record's packed slot never moves and a chunk is never
// reallocated, so vectors handed out by LeafPoint/Point stay valid for the
// record's lifetime even as the tree churns. The slots hold the only copy
// of each record: internal/collection stores no points and hands out these
// views. Rectangle views returned by ChildLo/ChildHi alias the rect arena
// and are invalidated by mutations.
package rtree

import (
	"fmt"

	"ordu/internal/geom"
	"ordu/internal/narrow"
)

// DefaultFanout is the default maximum number of entries per node. The
// paper's datasets are memory-resident, so a moderately wide fanout
// balances heap pressure in branch-and-bound traversals against tree depth.
const DefaultFanout = 32

// pointChunk is the number of packed point slots per storage chunk. 1024
// slots keeps chunks around 32 KiB at d=4 — large enough for contiguous
// kernel sweeps, small enough that a near-empty tree stays cheap.
const pointChunk = 1024

// NodeRef is a handle to a node in the tree's flat node arena. NilNode
// marks the absence of a node (empty tree, no split).
type NodeRef int32

// NilNode is the null NodeRef.
const NilNode NodeRef = -1

// orphan is one entry detached by Guttman condensation, queued for
// reinsertion: either a subtree (child >= 0) or a single record slot.
type orphan struct {
	child NodeRef // NilNode for leaf entries
	slot  int32   // packed point slot, valid when child == NilNode
}

// Tree is an in-memory R-tree over point data.
type Tree struct {
	dim     int
	fanout  int
	minFill int
	entCap  int // fanout+1: room for the transient overflow entry before a split
	size    int
	root    NodeRef

	// Node arena, struct-of-arrays: node n's entries occupy the int32 run
	// ents[n*entCap : n*entCap+count[n]]; internal nodes additionally own
	// rect segment rseg[n] of the rect arena, 2*dim floats per entry.
	level     []int16
	count     []int16
	ents      []int32
	rseg      []int32
	rects     []float64
	nsegs     int
	freeNodes []int32
	freeSegs  []int32

	// Packed point storage: slot s lives in chunk s/pointChunk at offset
	// (s%pointChunk)*dim. Chunks are allocated once and never reallocated.
	chunks    [][]float64
	idAt      []int // slot -> id, -1 for free slots
	slotOf    map[int]int32
	freeSlots []int32

	// Mutation scratch (single-writer, like the rest of the write API).
	zeroEnts []int32
	sRefs    []int32
	sRects   []float64
	g1, g2   []int
	rest     []int
	r1, r2   []float64
	nrLo     []float64
	nrHi     []float64
	orphans  []orphan
}

// Option configures tree construction.
type Option func(*Tree)

// WithFanout sets the maximum node fanout (minimum 4).
func WithFanout(f int) Option {
	return func(t *Tree) {
		if f < 4 {
			f = 4
		}
		t.fanout = f
		t.minFill = f * 2 / 5
	}
}

// New returns an empty tree for points of the given dimensionality.
func New(dim int, opts ...Option) *Tree {
	t := &Tree{
		dim:     dim,
		fanout:  DefaultFanout,
		minFill: DefaultFanout * 2 / 5,
		slotOf:  make(map[int]int32),
		root:    NilNode,
	}
	for _, o := range opts {
		o(t)
	}
	t.entCap = t.fanout + 1
	t.zeroEnts = make([]int32, t.entCap)
	t.nrLo = make([]float64, dim)
	t.nrHi = make([]float64, dim)
	t.r1 = make([]float64, 2*dim)
	t.r2 = make([]float64, 2*dim)
	t.root = t.newNode(0)
	return t
}

// Dim returns the dimensionality of the indexed points.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels in the tree (1 for a leaf-only tree).
func (t *Tree) Height() int { return int(t.level[t.root]) + 1 }

// Root returns the root node for branch-and-bound traversal; it is NilNode
// only for an empty tree.
func (t *Tree) Root() NodeRef {
	if t.size == 0 {
		return NilNode
	}
	return t.root
}

// Level returns the level of a node; 0 is a leaf.
func (t *Tree) Level(n NodeRef) int { return int(t.level[n]) }

// Count returns the number of entries in a node.
func (t *Tree) Count(n NodeRef) int { return int(t.count[n]) }

// Child returns the i-th child of an internal node. The caller keeps
// i < Count(n), as every traversal loop does.
func (t *Tree) Child(n NodeRef, i int) NodeRef {
	return NodeRef(t.ents[int(n)*t.entCap+i])
}

// ChildLo returns the low corner of the i-th entry MBR of an internal
// node. The vector is a view into the rect arena: valid until the next
// mutation, read-only.
func (t *Tree) ChildLo(n NodeRef, i int) geom.Vector {
	rb := t.rb(n, i)
	return geom.Vector(t.rects[rb : rb+t.dim : rb+t.dim])
}

// ChildHi returns the high (top) corner of the i-th entry MBR of an
// internal node — the score upper bound BBS orders by. The vector is a
// view into the rect arena: valid until the next mutation, read-only.
func (t *Tree) ChildHi(n NodeRef, i int) geom.Vector {
	rb := t.rb(n, i) + t.dim
	return geom.Vector(t.rects[rb : rb+t.dim : rb+t.dim])
}

// LeafID returns the record id of the i-th entry of a leaf. The caller
// keeps i < Count(n), as every traversal loop does.
func (t *Tree) LeafID(n NodeRef, i int) int {
	return t.idAt[t.ents[int(n)*t.entCap+i]]
}

// LeafPoint returns the point of the i-th entry of a leaf (i < Count(n)).
// The vector aliases the packed chunk storage: it stays valid until the
// record is deleted (slot stability), but must be treated as read-only.
func (t *Tree) LeafPoint(n NodeRef, i int) geom.Vector {
	return t.slotVec(t.ents[int(n)*t.entCap+i])
}

// Point returns the point stored under id. The vector aliases the packed
// chunk storage (copy it to retain across deletions).
func (t *Tree) Point(id int) (geom.Vector, bool) {
	slot, ok := t.slotOf[id]
	if !ok {
		return nil, false
	}
	return t.slotVec(slot), true
}

// Bounds returns the exact minimum bounding rectangle of the indexed points
// (the root MBR) and true, or a zero rectangle and false for an empty tree.
// The returned rectangle is a copy; mutating it does not affect the tree.
func (t *Tree) Bounds() (geom.Rect, bool) {
	if t.size == 0 {
		return geom.Rect{}, false
	}
	lo := make(geom.Vector, t.dim)
	hi := make(geom.Vector, t.dim)
	t.computeNodeRect(t.root, lo, hi)
	return geom.Rect{Lo: lo, Hi: hi}, true
}

// eb returns the entry base offset of a node in the ents stripe.
func (t *Tree) eb(n NodeRef) int { return int(n) * t.entCap }

// rb returns the rect base offset of entry i of an internal node.
func (t *Tree) rb(n NodeRef, i int) int {
	return (int(t.rseg[n])*t.entCap + i) * 2 * t.dim
}

// slotVec returns the packed vector of a slot, capacity-capped so appends
// by a caller can never clobber the neighbouring slot.
func (t *Tree) slotVec(slot int32) geom.Vector {
	lo := (int(slot) % pointChunk) * t.dim
	hi := lo + t.dim
	return geom.Vector(t.chunks[int(slot)/pointChunk][lo:hi:hi])
}

// allocSlot copies p into a free (or fresh) slot and indexes it under id.
// Growing past the int32 slot capacity fails with narrow.ErrTooLarge
// before the arena wraps.
func (t *Tree) allocSlot(id int, p geom.Vector) (int32, error) {
	var slot int32
	if k := len(t.freeSlots); k > 0 {
		slot = t.freeSlots[k-1]
		t.freeSlots = t.freeSlots[:k-1]
		t.idAt[slot] = id
	} else {
		var err error
		slot, err = narrow.Index32(len(t.idAt))
		if err != nil {
			return 0, fmt.Errorf("rtree: slot arena: %w", err)
		}
		if int(slot)/pointChunk == len(t.chunks) {
			t.chunks = append(t.chunks, make([]float64, pointChunk*t.dim))
		}
		t.idAt = append(t.idAt, id)
	}
	copy(t.slotVec(slot), p)
	t.slotOf[id] = slot
	return slot, nil
}

// dropSlot unindexes id and returns its slot to the free list.
func (t *Tree) dropSlot(id int, slot int32) {
	delete(t.slotOf, id)
	t.idAt[slot] = -1
	t.freeSlots = append(t.freeSlots, slot)
}

// newNode takes a node off the free list (or extends the arenas) and
// prepares it at the given level, allocating a rect segment for internal
// nodes.
//
//ordlint:bounded — the node arena is bounded by the record count, which allocSlot gates at 2^31
func (t *Tree) newNode(lvl int) NodeRef {
	var n NodeRef
	if k := len(t.freeNodes); k > 0 {
		n = NodeRef(t.freeNodes[k-1])
		t.freeNodes = t.freeNodes[:k-1]
		t.level[n] = int16(lvl)
		t.count[n] = 0
	} else {
		n = NodeRef(len(t.level))
		t.level = append(t.level, int16(lvl))
		t.count = append(t.count, 0)
		t.rseg = append(t.rseg, -1)
		t.ents = append(t.ents, t.zeroEnts...)
	}
	if lvl > 0 {
		t.rseg[n] = t.allocSeg()
	}
	return n
}

// freeNode recycles a node and its rect segment. The caller must already
// have detached it from its parent; child subtrees are not freed.
func (t *Tree) freeNode(n NodeRef) {
	if t.rseg[n] >= 0 {
		t.freeSegs = append(t.freeSegs, t.rseg[n])
		t.rseg[n] = -1
	}
	t.count[n] = 0
	t.freeNodes = append(t.freeNodes, int32(n))
}

// allocSeg takes a rect segment off the free list or extends the arena.
//
//ordlint:bounded — one segment per internal node: the count is gated transitively by the node arena
func (t *Tree) allocSeg() int32 {
	if k := len(t.freeSegs); k > 0 {
		s := t.freeSegs[k-1]
		t.freeSegs = t.freeSegs[:k-1]
		return s
	}
	s := int32(t.nsegs)
	t.nsegs++
	t.rects = append(t.rects, make([]float64, t.entCap*2*t.dim)...)
	return s
}

// insEntry is an entry in flight during insertion: a record slot (child ==
// NilNode, lo and hi aliasing its packed point) or a subtree with its MBR.
type insEntry struct {
	child  NodeRef
	slot   int32
	lo, hi []float64
}

// Insert adds a point under the given id. It returns an error when the id is
// already present or the dimensionality disagrees.
//
//ordlint:writer — allocates a slot and mutates the node arenas
func (t *Tree) Insert(id int, p geom.Vector) error {
	if len(p) != t.dim {
		return fmt.Errorf("rtree: point dim %d, tree dim %d", len(p), t.dim)
	}
	if _, dup := t.slotOf[id]; dup {
		return fmt.Errorf("rtree: duplicate id %d", id)
	}
	slot, err := t.allocSlot(id, p)
	if err != nil {
		return err
	}
	t.size++
	pv := t.slotVec(slot)
	split := t.insert(t.root, insEntry{child: NilNode, slot: slot, lo: pv, hi: pv}, 0)
	if split >= 0 {
		t.growRoot(split)
	}
	return nil
}

// growRoot replaces the root with a new internal node over {old root,
// split sibling}.
func (t *Tree) growRoot(split NodeRef) {
	old := t.root
	nr := t.newNode(int(t.level[old]) + 1)
	t.count[nr] = 2
	t.ents[t.eb(nr)] = int32(old)
	t.ents[t.eb(nr)+1] = int32(split)
	t.setEntryRectFromChild(nr, 0)
	t.setEntryRectFromChild(nr, 1)
	t.root = nr
}

// insert places e at the target level, returning a new sibling ref if n
// split (NilNode otherwise).
func (t *Tree) insert(n NodeRef, e insEntry, lvl int) NodeRef {
	if int(t.level[n]) == lvl {
		i := int(t.count[n])
		t.count[n]++
		t.writeEntry(n, i, e)
		if int(t.count[n]) > t.fanout {
			return t.splitNode(n)
		}
		return NilNode
	}
	// Choose subtree with least enlargement, ties by smallest area.
	best, bestEnl, bestArea := -1, 0.0, 0.0
	cnt := int(t.count[n])
	for i := 0; i < cnt; i++ {
		enl, area := t.entryEnlArea(n, i, e.lo, e.hi)
		// The equality arm is a heuristic tie-break (least area among equal
		// enlargements, typically both exactly zero for containment); either
		// outcome yields a correct, merely differently balanced tree.
		if best < 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) { //ordlint:allow floatcmp — heuristic tie-break, both outcomes valid
			best, bestEnl, bestArea = i, enl, area
		}
	}
	child := NodeRef(t.ents[t.eb(n)+best])
	split := t.insert(child, e, lvl)
	t.setEntryRectFromChild(n, best)
	if split >= 0 {
		i := int(t.count[n])
		t.count[n]++
		t.ents[t.eb(n)+i] = int32(split)
		t.setEntryRectFromChild(n, i)
		if int(t.count[n]) > t.fanout {
			return t.splitNode(n)
		}
	}
	return NilNode
}

// writeEntry stores e as entry i of node n. The callers keep i < entCap:
// they write within the split/overflow window.
func (t *Tree) writeEntry(n NodeRef, i int, e insEntry) {
	if e.child >= 0 {
		t.ents[t.eb(n)+i] = int32(e.child)
		rb := t.rb(n, i)
		copy(t.rects[rb:rb+t.dim], e.lo)
		copy(t.rects[rb+t.dim:rb+2*t.dim], e.hi)
	} else {
		t.ents[t.eb(n)+i] = e.slot
	}
}

// entryEnlArea returns the area enlargement of entry i's MBR needed to
// include [lo,hi], plus the entry's current area — the insertion
// subtree-choice keys.
//
//ordlint:noalloc
func (t *Tree) entryEnlArea(n NodeRef, i int, lo, hi []float64) (enl, area float64) {
	rb := t.rb(n, i)
	d := t.dim
	area, ua := 1.0, 1.0
	for j := 0; j < d; j++ {
		l, h := t.rects[rb+j], t.rects[rb+d+j]
		area *= h - l
		ua *= max(h, hi[j]) - min(l, lo[j])
	}
	return ua - area, area
}

// setEntryRectFromChild recomputes entry i's MBR from its child node. The
// callers keep i < Count(n): the entry was just written or scanned.
func (t *Tree) setEntryRectFromChild(n NodeRef, i int) {
	rb := t.rb(n, i)
	child := NodeRef(t.ents[t.eb(n)+i])
	t.computeNodeRect(child, t.rects[rb:rb+t.dim], t.rects[rb+t.dim:rb+2*t.dim])
}

// computeNodeRect writes the MBR of node n into lo and hi (each dim
// floats), accumulating entries in slot order — the same fold the legacy
// implementation's nodeRect performed, bit for bit.
//
//ordlint:noalloc
func (t *Tree) computeNodeRect(n NodeRef, lo, hi []float64) {
	cnt := int(t.count[n])
	d := t.dim
	eb := t.eb(n)
	if t.level[n] == 0 {
		p := t.slotVec(t.ents[eb])
		copy(lo, p)
		copy(hi, p)
		for i := 1; i < cnt; i++ {
			q := t.slotVec(t.ents[eb+i])
			for j := 0; j < d; j++ {
				lo[j] = min(lo[j], q[j])
				hi[j] = max(hi[j], q[j])
			}
		}
		return
	}
	rb := t.rb(n, 0)
	copy(lo, t.rects[rb:rb+d])
	copy(hi, t.rects[rb+d:rb+2*d])
	for i := 1; i < cnt; i++ {
		rb = t.rb(n, i)
		for j := 0; j < d; j++ {
			lo[j] = min(lo[j], t.rects[rb+j])
			hi[j] = max(hi[j], t.rects[rb+d+j])
		}
	}
}

// splitNode performs a quadratic split of an overfull node in place,
// returning the new sibling. The seed choice, force-assignment and
// preference tie-breaks replicate the legacy implementation exactly.
func (t *Tree) splitNode(n NodeRef) NodeRef {
	cnt := int(t.count[n])
	d := t.dim
	stride := 2 * d
	leaf := t.level[n] == 0
	// Gather the entries into owned scratch: payload refs plus one packed
	// rect per entry (points doubled into degenerate rects at leaves).
	refs := t.sRefs[:0]
	rects := t.sRects[:0]
	for i := 0; i < cnt; i++ {
		v := t.ents[t.eb(n)+i]
		refs = append(refs, v)
		if leaf {
			p := t.slotVec(v)
			rects = append(rects, p...)
			rects = append(rects, p...)
		} else {
			rb := t.rb(n, i)
			rects = append(rects, t.rects[rb:rb+stride]...)
		}
	}
	t.sRefs, t.sRects = refs, rects

	// Pick seeds: the pair wasting the most area.
	s1, s2, worst := 0, 1, -1.0
	for i := 0; i < cnt; i++ {
		for j := i + 1; j < cnt; j++ {
			ua, ai, aj := 1.0, 1.0, 1.0
			for x := 0; x < d; x++ {
				li, hi := rects[i*stride+x], rects[i*stride+d+x]
				lj, hj := rects[j*stride+x], rects[j*stride+d+x]
				ua *= max(hi, hj) - min(li, lj)
				ai *= hi - li
				aj *= hj - lj
			}
			if waste := ua - ai - aj; waste > worst {
				s1, s2, worst = i, j, waste
			}
		}
	}
	g1 := append(t.g1[:0], s1)
	g2 := append(t.g2[:0], s2)
	copy(t.r1, rects[s1*stride:(s1+1)*stride])
	copy(t.r2, rects[s2*stride:(s2+1)*stride])
	rest := t.rest[:0]
	for i := 0; i < cnt; i++ {
		if i != s1 && i != s2 {
			rest = append(rest, i)
		}
	}
	for len(rest) > 0 {
		// Force assignment when one group must absorb all remaining entries
		// to reach minimum fill.
		if len(g1)+len(rest) <= t.minFill {
			g1 = append(g1, rest...)
			break
		}
		if len(g2)+len(rest) <= t.minFill {
			g2 = append(g2, rest...)
			break
		}
		// Pick the entry with the greatest preference difference.
		pick, pref := -1, -1.0
		for i, ei := range rest {
			d1 := enlargeOf(t.r1, rects[ei*stride:(ei+1)*stride], d)
			d2 := enlargeOf(t.r2, rects[ei*stride:(ei+1)*stride], d)
			if df := abs(d1 - d2); df > pref {
				pick, pref = i, df
			}
		}
		ei := rest[pick]
		rest = append(rest[:pick], rest[pick+1:]...)
		er := rects[ei*stride : (ei+1)*stride]
		if enlargeOf(t.r1, er, d) <= enlargeOf(t.r2, er, d) { //ordlint:allow floatcmp — heuristic tie-break, both outcomes valid
			g1 = append(g1, ei)
			extendRect(t.r1, er, d)
		} else {
			g2 = append(g2, ei)
			extendRect(t.r2, er, d)
		}
	}
	t.g1, t.g2, t.rest = g1, g2, rest[:0]

	s := t.newNode(int(t.level[n]))
	t.writeGroup(n, g1, refs, rects, leaf)
	t.writeGroup(s, g2, refs, rects, leaf)
	return s
}

// writeGroup overwrites node n's entries with the gathered entries listed
// in group.
func (t *Tree) writeGroup(n NodeRef, group []int, refs []int32, rects []float64, leaf bool) {
	stride := 2 * t.dim
	t.count[n] = int16(len(group))
	for i, gi := range group {
		t.ents[t.eb(n)+i] = refs[gi]
		if !leaf {
			rb := t.rb(n, i)
			copy(t.rects[rb:rb+stride], rects[gi*stride:(gi+1)*stride])
		}
	}
}

// enlargeOf returns the area enlargement of packed rect r (lo|hi, d each)
// needed to include e.
//
//ordlint:noalloc
func enlargeOf(r, e []float64, d int) float64 {
	area, ua := 1.0, 1.0
	for j := 0; j < d; j++ {
		area *= r[d+j] - r[j]
		ua *= max(r[d+j], e[d+j]) - min(r[j], e[j])
	}
	return ua - area
}

// extendRect grows packed rect r in place to cover e.
//
//ordlint:noalloc
func extendRect(r, e []float64, d int) {
	for j := 0; j < d; j++ {
		r[j] = min(r[j], e[j])
		r[d+j] = max(r[d+j], e[d+j])
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Delete removes the point stored under id. It returns false when the id is
// unknown. Underfull nodes are condensed by reinsertion, as in Guttman's
// original algorithm.
//
//ordlint:writer — detaches entries and recycles nodes and slots
func (t *Tree) Delete(id int) bool {
	slot, ok := t.slotOf[id]
	if !ok {
		return false
	}
	p := t.slotVec(slot)
	orphans := t.orphans[:0]
	removed := t.remove(t.root, id, p, &orphans)
	if !removed {
		t.orphans = orphans[:0]
		return false
	}
	t.dropSlot(id, slot)
	t.size--
	// Collapse a root with a single internal child.
	for t.level[t.root] > 0 && t.count[t.root] == 1 {
		old := t.root
		t.root = NodeRef(t.ents[t.eb(old)])
		t.freeNode(old)
	}
	if t.level[t.root] > 0 && t.count[t.root] == 0 {
		t.freeNode(t.root)
		t.root = t.newNode(0)
	}
	// Reinsert orphaned entries at their original level.
	for _, o := range orphans {
		t.reinsertEntry(o)
	}
	t.orphans = orphans[:0]
	return true
}

// remove descends along MBRs containing p, removes the leaf entry of id,
// and condenses underfull nodes into orphans on the way back up.
func (t *Tree) remove(n NodeRef, id int, p geom.Vector, orphans *[]orphan) bool {
	cnt := int(t.count[n])
	eb := t.eb(n)
	if t.level[n] == 0 {
		for i := 0; i < cnt; i++ {
			if t.idAt[t.ents[eb+i]] == id {
				t.removeEntryAt(n, i)
				return true
			}
		}
		return false
	}
	for i := 0; i < cnt; i++ {
		if !t.entryContains(n, i, p) {
			continue
		}
		child := NodeRef(t.ents[eb+i])
		if t.remove(child, id, p, orphans) {
			if int(t.count[child]) < t.minFill {
				// Condense: orphan the whole child for reinsertion.
				ccnt := int(t.count[child])
				ceb := t.eb(child)
				if t.level[child] == 0 {
					for j := 0; j < ccnt; j++ {
						*orphans = append(*orphans, orphan{child: NilNode, slot: t.ents[ceb+j]})
					}
				} else {
					for j := 0; j < ccnt; j++ {
						*orphans = append(*orphans, orphan{child: NodeRef(t.ents[ceb+j])})
					}
				}
				t.freeNode(child)
				t.removeEntryAt(n, i)
			} else {
				t.setEntryRectFromChild(n, i)
			}
			return true
		}
	}
	return false
}

// removeEntryAt deletes entry i of node n, shifting later entries (and
// their rects, at internal nodes) down one position. The callers keep
// i < Count(n): i comes from a match scan over the node.
func (t *Tree) removeEntryAt(n NodeRef, i int) {
	cnt := int(t.count[n])
	eb := t.eb(n)
	copy(t.ents[eb+i:eb+cnt-1], t.ents[eb+i+1:eb+cnt])
	if t.level[n] > 0 {
		stride := 2 * t.dim
		rb := t.rb(n, 0)
		copy(t.rects[rb+i*stride:rb+(cnt-1)*stride], t.rects[rb+(i+1)*stride:rb+cnt*stride])
	}
	t.count[n]--
}

// entryContains reports whether entry i's MBR contains p (borders
// included).
//
//ordlint:noalloc
func (t *Tree) entryContains(n NodeRef, i int, p []float64) bool {
	rb := t.rb(n, i)
	d := t.dim
	for j, x := range p {
		if x < t.rects[rb+j] || x > t.rects[rb+d+j] {
			return false
		}
	}
	return true
}

// reinsertEntry inserts an orphan back at its original level; if the tree
// shrank below that level, the orphan's children are grafted individually.
func (t *Tree) reinsertEntry(o orphan) {
	var e insEntry
	lvl := 0
	if o.child >= 0 {
		lvl = int(t.level[o.child]) + 1
		if int(t.level[t.root]) < lvl {
			// Degenerate: tree shrank below the orphan's level; graft children.
			c := o.child
			ccnt := int(t.count[c])
			ceb := t.eb(c)
			kids := make([]orphan, 0, ccnt)
			if t.level[c] == 0 {
				for j := 0; j < ccnt; j++ {
					kids = append(kids, orphan{child: NilNode, slot: t.ents[ceb+j]})
				}
			} else {
				for j := 0; j < ccnt; j++ {
					kids = append(kids, orphan{child: NodeRef(t.ents[ceb+j])})
				}
			}
			t.freeNode(c)
			for _, k := range kids {
				t.reinsertEntry(k)
			}
			return
		}
		// The stored parent rect of a subtree always equals its recomputed
		// MBR, so re-deriving it here reproduces the legacy entry bit for bit.
		t.computeNodeRect(o.child, t.nrLo, t.nrHi)
		e = insEntry{child: o.child, lo: t.nrLo, hi: t.nrHi}
	} else {
		pv := t.slotVec(o.slot)
		e = insEntry{child: NilNode, slot: o.slot, lo: pv, hi: pv}
	}
	split := t.insert(t.root, e, lvl)
	if split >= 0 {
		t.growRoot(split)
	}
}
