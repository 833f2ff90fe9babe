package skyband

import (
	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// Pruner decides whether a candidate point (a record, or the top corner of
// an index node, which score-bounds its whole subtree) can be excluded from
// a progressive scan. BBS's correctness requires only that a pruned point
// could never belong to the result, given the records emitted so far.
//
// Scanner.Next tests an entry when it would push it and again when it pops
// it, as BBS does, so a pruner must be monotone: once it prunes a point it
// prunes it for the rest of the scan (registering records and shrinking a
// radius only ever prune more). An entry rejected at push is gone for
// good, so one scan must be driven by one pruner throughout.
type Pruner interface {
	Prune(p geom.Vector) bool
}

// scanEntry is one element of the branch-and-bound heap: an index node or a
// record, keyed by the (upper bound of) score for the scan's seed vector.
type scanEntry struct {
	score float64
	sum   float64 // coordinate sum; breaks score ties so that a dominating
	// record is always popped before the record it dominates
	node rtree.NodeRef // NilNode for records
	id   int
	pt   geom.Vector // record point, or node top corner
	seq  uint64
}

// Less orders the scan max-heap: higher score first, larger coordinate sum
// on ties. The remaining keys — lexicographically larger point, then nodes
// before records, then smaller id — extend the comparison to a strict
// total order on records, so the emission sequence of a scan is a
// property of the dataset alone, not of heap internals.
func (e scanEntry) Less(o scanEntry) bool {
	if e.score != o.score { //ordlint:allow floatcmp — tie-break on stored keys
		return e.score > o.score
	}
	if e.sum != o.sum { //ordlint:allow floatcmp — tie-break on stored keys
		return e.sum > o.sum
	}
	for j := range e.pt {
		if e.pt[j] != o.pt[j] { //ordlint:allow floatcmp — tie-break on stored keys
			return e.pt[j] > o.pt[j]
		}
	}
	if (e.node == rtree.NilNode) != (o.node == rtree.NilNode) {
		// A node whose top corner coincides with a record's point must be
		// expanded first, so the record emission sequence never runs ahead
		// of an unexpanded subtree with an equal bound.
		return o.node == rtree.NilNode
	}
	return e.id < o.id
}

// scanKey is the heap's view of one pushed entry: the two keys that settle
// almost every comparison, and the slab slot holding the entry. It holds no
// pointer, so sifting it moves 24 bytes with no write barrier; only keys
// tied on both fall back to scanEntry.Less on the slab.
type scanKey struct {
	score float64
	sum   float64
	slot  int32
}

// Scanner is the paper's amended BBS (Sections 4.2, 5.3.2): it visits index
// nodes and records in decreasing (upper bound of) score for the seed w,
// using a max-heap, and emits the records that survive a caller-supplied
// pruner. The visiting order guarantees that no record emitted later can
// dominate (or rho-dominate, for any rho) one emitted earlier, which is the
// property BBS's correctness rests on.
//
// The heap orders scanKeys; the entries themselves stay put in slab, whose
// vacated slots are reused through free. The zero value is an empty scan;
// Reset starts a new one on the same buffers.
type Scanner struct {
	tree    *rtree.Tree
	w       geom.Vector
	keys    []scanKey   // max-heap in scan order
	slab    []scanEntry // entries by slot; a slot is fixed while its key is in keys
	free    []int32     // vacant slots of slab
	top     geom.Vector // the root's top corner
	seq     uint64
	visited int // heap pops, for instrumentation

	// Observers, used by IRD to maintain lower-bound inflection radii for
	// the not-yet-considered part of the dataset (set S in the paper). They
	// take the entry's fields by value, so no entry escapes to the heap.
	onPush func(seq uint64, pt geom.Vector)
	onPop  func(seq uint64)
}

// freshEntries is the room a fresh scanner's buffers start with.
const freshEntries = 64

// NewScanner starts a scan of tree in decreasing score order for w.
func NewScanner(tree *rtree.Tree, w geom.Vector) *Scanner {
	s := &Scanner{}
	s.Reset(tree, w)
	return s
}

// Reset starts a new scan of tree for w on s's buffers, dropping the
// observers. A nil tree leaves s empty and holding no reference to any
// dataset, which is how a pooled scanner is put away.
func (s *Scanner) Reset(tree *rtree.Tree, w geom.Vector) {
	clear(s.slab) // stale entries would pin the last dataset's points
	s.tree, s.w = tree, w
	if s.slab == nil {
		// A fresh scanner: any index past one leaf pushes this many
		// entries, so start with room for them rather than grow to it.
		s.keys = make([]scanKey, 0, freshEntries)
		s.slab = make([]scanEntry, 0, freshEntries)
		s.free = make([]int32, 0, freshEntries)
	}
	s.keys, s.slab, s.free = s.keys[:0], s.slab[:0], s.free[:0]
	s.seq, s.visited = 0, 0
	s.onPush, s.onPop = nil, nil
	if tree == nil {
		return
	}
	root := tree.Root()
	if root == rtree.NilNode {
		return
	}
	// The root's top corner, built in scratch as topk.Searcher builds it.
	d := tree.Dim()
	if cap(s.top) < d {
		s.top = make(geom.Vector, d)
	}
	top := s.top[:d]
	leaf := tree.Level(root) == 0
	for i, cnt := 0, tree.Count(root); i < cnt; i++ {
		hi := tree.LeafPoint(root, i)
		if !leaf {
			hi = tree.ChildHi(root, i)
		}
		if i == 0 {
			copy(top, hi)
			continue
		}
		for j, v := range hi {
			top[j] = max(top[j], v)
		}
	}
	s.pushNode(root, top)
}

// Footprint returns the bytes s's buffers hold, the figure a pool's
// retention cap is checked against.
func (s *Scanner) Footprint() int {
	const keyBytes, entryBytes = 24, 64
	return cap(s.keys)*keyBytes + cap(s.slab)*entryBytes + cap(s.free)*4 + cap(s.top)*8
}

// before orders the key heap: scanEntry.Less, settled on the keys alone
// unless they tie.
func (s *Scanner) before(a, b scanKey) bool {
	if a.score != b.score { //ordlint:allow floatcmp — tie-break on stored keys
		return a.score > b.score
	}
	if a.sum != b.sum { //ordlint:allow floatcmp — tie-break on stored keys
		return a.sum > b.sum
	}
	return s.slab[a.slot].Less(s.slab[b.slot])
}

// push adds e under a free or a new slot.
//
//ordlint:bounded — one slot per entry in the heap at once: at most the tree's entries, whose count the tree gates below 2^31
func (s *Scanner) push(e scanEntry) {
	e.seq = s.seq
	s.seq++
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[slot] = e
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, e)
	}
	// Sift up by moving a hole rather than swapping.
	k := scanKey{score: e.score, sum: e.sum, slot: slot}
	h := append(s.keys, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(k, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	s.keys = h
	if s.onPush != nil {
		s.onPush(e.seq, e.pt)
	}
}

// pop removes the first entry in scan order and frees its slot; the entry
// is returned by value, since a later push may reuse the slot.
func (s *Scanner) pop() scanEntry {
	h := s.keys
	first := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	// Sift the last key down from the root, moving a hole.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if r := c + 1; r < n && s.before(h[r], h[c]) {
			c = r
		}
		if !s.before(h[c], last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	s.keys = h
	s.free = append(s.free, first.slot)
	return s.slab[first.slot]
}

func (s *Scanner) pushNode(n rtree.NodeRef, top geom.Vector) {
	s.push(scanEntry{score: s.w.Dot(top), sum: top.Sum(), node: n, pt: top})
}

func (s *Scanner) pushRecord(id int, p geom.Vector) {
	s.push(scanEntry{score: s.w.Dot(p), sum: p.Sum(), node: rtree.NilNode, id: id, pt: p})
}

// Next returns the next surviving record in decreasing score order. The
// pruner may be nil, in which case every record is emitted (that is BBR's
// ranked retrieval). Every registered record was emitted before an
// expanded node was popped, so it outscores the node's children: Next
// tests each child with the pruner and pushes only the survivors, then
// tests each entry again when popping it, since the pruner may have grown
// stronger meanwhile. Pass the same pruner on every call of one scan (see
// Pruner). ok is false when the scan is exhausted. The returned point
// aliases the tree's storage (no copy is made); it stays valid for the
// lifetime of the tree and must be copied if retained beyond it.
func (s *Scanner) Next(pruner Pruner) (id int, p geom.Vector, ok bool) {
	for len(s.keys) > 0 {
		e := s.pop()
		s.visited++
		if s.onPop != nil {
			s.onPop(e.seq)
		}
		if pruner != nil && pruner.Prune(e.pt) {
			continue
		}
		if e.node == rtree.NilNode {
			return e.id, e.pt, true
		}
		t := s.tree
		cnt := t.Count(e.node)
		if t.Level(e.node) == 0 {
			for i := 0; i < cnt; i++ {
				if pt := t.LeafPoint(e.node, i); pruner == nil || !pruner.Prune(pt) {
					s.pushRecord(t.LeafID(e.node, i), pt)
				}
			}
		} else {
			for i := 0; i < cnt; i++ {
				if top := t.ChildHi(e.node, i); pruner == nil || !pruner.Prune(top) {
					s.pushNode(t.Child(e.node, i), top)
				}
			}
		}
	}
	return 0, nil, false
}

// Visited returns the number of heap pops performed, a proxy for I/O in
// the paper's disk-based analysis. Entries the pruner rejects at push are
// never pushed, so they are not counted.
func (s *Scanner) Visited() int { return s.visited }
