package skyband

import (
	"context"
	"fmt"
	"math"

	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/xheap"
)

// IRD is the incremental rho-skyband module of Section 5.3.2. It serves
// "get next" calls, each returning the record that joins the rho-skyband at
// the immediately larger radius around the seed w, together with that
// radius (the record's inflection radius).
//
// Internally it drives the score-ordered BBS scanner to fetch k-skyband
// members progressively into set T. Only higher-scoring records can
// rho-dominate a record, and those are all fetched before it, so its
// inflection radius against T is exact on arrival. Records are released
// once their inflection radius is no larger than a lower bound rho_ on the
// inflection radius of anything not yet fetched: the minimum, over the BBS
// heap contents (set S), of each entry's inflection radius against T. A
// child the scan's k-skyband pruner rejects before pushing it is dominated
// by k records of T, so its radius is +Inf and leaving it out of S changes
// no bound.
//
// Each entry's radius is kept exact against a prefix T[:tVersion] of the
// fetched records, which is a valid lower bound because T only grows. An
// entry extends its prefix only when it blocks a release, and only over the
// records it has not seen, so every (entry, fetched record) pair costs at
// most one mindist. A fetched record's radius is finished from its own
// heap entry the same way.
type IRD struct {
	w  geom.Vector
	k  int
	sc *Scanner
	pr *SkybandPruner

	t       []Member             // fetched k-skyband records, in decreasing score order
	pending xheap.Heap[pendItem] // fetched but not yet released, keyed by inflection radius
	bounds  xheap.Heap[*boundEntry]
	live    map[uint64]*boundEntry // scanner seq -> entry still in the BBS heap
	popped  *boundEntry            // entry of the scanner's last pop
	slab    []float64              // backs the entries' k-slot top lists

	// ws backs every mindist computation; IRD is single-goroutine, so
	// owning one workspace is safe. The mindists allocate nothing once
	// warm, but every scanner push allocates one bound entry (its k slots
	// come from slab).
	ws Workspace

	exhausted bool
}

// Released is one output of IRD: a record and the radius at which it joins
// the rho-skyband.
type Released struct {
	ID     int
	Point  geom.Vector
	Radius float64
}

type pendItem struct {
	rec Member
	rho float64
}

// Less orders the pending min-heap by inflection radius.
func (p pendItem) Less(o pendItem) bool { return p.rho < o.rho }

// boundEntry shadows one BBS heap entry: a record, or a node whose top
// corner stands for every record below it.
type boundEntry struct {
	pt       geom.Vector
	top      []float64 // the k largest mindists to T[:tVersion], ascending
	tVersion int
	// bound is the heap key: the entry's radius when it was last advanced
	// in the heap. The popped record's entry is finished while it still
	// sits in the heap as dead, so its key must not follow top.
	bound float64
	dead  bool
}

// Less orders the bound min-heap by the stored lower bound.
func (e *boundEntry) Less(o *boundEntry) bool { return e.bound < o.bound }

// NewIRD starts an incremental rho-skyband computation around w.
func NewIRD(tree *rtree.Tree, w geom.Vector, k int) *IRD {
	ird := &IRD{
		w:    w,
		k:    k,
		pr:   NewSkybandPruner(k),
		live: make(map[uint64]*boundEntry),
	}
	ird.sc = NewScanner(tree, w)
	ird.sc.onPush = func(seq uint64, pt geom.Vector) {
		if len(ird.slab) < k {
			ird.slab = make([]float64, 256*k)
		}
		be := &boundEntry{pt: pt, top: ird.slab[:0:k]}
		ird.slab = ird.slab[k:]
		ird.live[seq] = be
		ird.bounds.Push(be)
	}
	ird.sc.onPop = func(seq uint64) {
		// The root is pushed before the hooks are set and has no entry; it
		// is a node, so fetch never reads it as popped.
		ird.popped = ird.live[seq]
		if ird.popped != nil {
			ird.popped.dead = true
			delete(ird.live, seq)
		}
	}
	return ird
}

// radius is e's inflection radius against T[:e.tVersion]: the k-th largest
// mindist, or 0 while fewer than k records were seen. A record that
// dominates e's point has mindist +Inf.
func (ird *IRD) radius(e *boundEntry) float64 {
	if len(e.top) < ird.k {
		return 0
	}
	return e.top[0]
}

// advance extends e over T[e.tVersion:], one mindist per record, until its
// radius is at least x or it has seen all of T, and returns the radius.
func (ird *IRD) advance(e *boundEntry, x float64) float64 {
	r := ird.radius(e)
	for ; r < x && e.tVersion < len(ird.t); e.tVersion++ {
		e.top = keepLargest(e.top, ird.k, MindistWS(ird.w, e.pt, ird.t[e.tVersion].Point, &ird.ws))
		r = ird.radius(e)
	}
	return r
}

// keepLargest adds v to top, the at most k largest values so far in
// ascending order.
func keepLargest(top []float64, k int, v float64) []float64 {
	if len(top) < k {
		top = append(top, v)
		for i := len(top) - 1; i > 0 && top[i-1] > top[i]; i-- {
			top[i-1], top[i] = top[i], top[i-1]
		}
	} else if v > top[0] {
		top[0] = v
		for i := 1; i < k && top[i] < top[i-1]; i++ {
			top[i-1], top[i] = top[i], top[i-1]
		}
	}
	return top
}

// boundsClear reports whether every not-yet-fetched record provably has
// inflection radius at least x. It advances the heap's minimum entry until
// that entry's radius reaches x; an entry that has seen all of T and is
// still below x is exact, so the answer is then no and IRD must fetch.
func (ird *IRD) boundsClear(x float64) bool {
	for ird.bounds.Len() > 0 {
		top := *ird.bounds.Peek()
		if top.dead {
			ird.bounds.Pop()
			continue
		}
		if top.bound >= x {
			return true // heap min >= x, so every entry is
		}
		top.bound = ird.advance(top, x)
		ird.bounds.Fix(0)
		if top.bound < x {
			return false
		}
	}
	return true // S is empty: nothing unfetched remains
}

// fetch advances the underlying k-skyband scan by one record. It returns
// false when the scan is exhausted.
func (ird *IRD) fetch() bool {
	id, p, ok := ird.sc.Next(ird.pr)
	if !ok {
		ird.exhausted = true
		return false
	}
	// The scanner popped p's own entry last; its key stays put, see
	// boundEntry.bound.
	rho := ird.advance(ird.popped, math.Inf(1))
	ird.pr.Add(p)
	m := Member{ID: id, Point: p}
	ird.t = append(ird.t, m)
	if !math.IsInf(rho, 1) {
		ird.pending.Push(pendItem{rec: m, rho: rho})
	}
	return true
}

// NextCtx releases the rho-skyband member with the smallest remaining
// inflection radius; ok is false once the entire k-skyband is exhausted.
// A single release can internally fetch thousands of k-skyband records,
// each paying one mindist per earlier record its heap entry has not yet
// seen, so the fetch loop itself polls ctx every few iterations and aborts
// with an error wrapping ctx.Err(). The returned record's Point aliases the
// dataset's storage (it is not a copy); it stays valid for the lifetime of
// the underlying tree and must be copied if retained beyond it.
func (ird *IRD) NextCtx(ctx context.Context) (Released, bool, error) {
	for i := 0; ; i++ {
		if i%64 == 0 {
			select {
			case <-ctx.Done():
				return Released{}, false, fmt.Errorf("skyband: retrieval cancelled: %w", ctx.Err())
			default:
			}
		}
		if ird.pending.Len() > 0 {
			if ird.exhausted || ird.boundsClear(ird.pending.Peek().rho) {
				it := ird.pending.Pop()
				return Released{ID: it.rec.ID, Point: it.rec.Point, Radius: it.rho}, true, nil
			}
		}
		if ird.exhausted {
			return Released{}, false, nil
		}
		ird.fetch()
	}
}
