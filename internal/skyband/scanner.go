package skyband

import (
	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/xheap"
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
// on ties (typed xheap element, no per-push boxing). The remaining keys —
// lexicographically larger point, then nodes before records, then smaller
// id — extend the comparison to a strict total order on records, so the
// emission sequence of a scan is a property of the dataset alone, not of
// heap internals.
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

// Scanner is the paper's amended BBS (Sections 4.2, 5.3.2): it visits index
// nodes and records in decreasing (upper bound of) score for the seed w,
// using a max-heap, and emits the records that survive a caller-supplied
// pruner. The visiting order guarantees that no record emitted later can
// dominate (or rho-dominate, for any rho) one emitted earlier, which is the
// property BBS's correctness rests on.
type Scanner struct {
	tree    *rtree.Tree
	w       geom.Vector
	h       xheap.Heap[scanEntry]
	seq     uint64
	visited int // heap pops, for instrumentation

	// Observers, used by IRD to maintain lower-bound inflection radii for
	// the not-yet-considered part of the dataset (set S in the paper). They
	// take the entry's fields by value, so no entry escapes to the heap.
	onPush func(seq uint64, pt geom.Vector)
	onPop  func(seq uint64)
}

// NewScanner starts a scan of tree in decreasing score order for w.
func NewScanner(tree *rtree.Tree, w geom.Vector) *Scanner {
	s := &Scanner{tree: tree, w: w}
	if root := tree.Root(); root != rtree.NilNode {
		b, _ := tree.Bounds()
		s.pushNode(root, b.TopCorner())
	}
	return s
}

func (s *Scanner) push(e scanEntry) {
	e.seq = s.seq
	s.seq++
	s.h.Push(e)
	if s.onPush != nil {
		s.onPush(e.seq, e.pt)
	}
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
	for s.h.Len() > 0 {
		e := s.h.Pop()
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
