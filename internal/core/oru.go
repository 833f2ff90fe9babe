package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"ordu/internal/geom"
	"ordu/internal/hull"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
	"ordu/internal/xheap"
)

// ErrBudgetExceeded is returned by budgeted baselines (ORU-BSL) when the
// region budget is exhausted before the answer is complete, mirroring the
// paper's "fails to terminate within reasonable time" entries.
var ErrBudgetExceeded = errors.New("core: region budget exceeded")

// regionNode is one node of the implicit tree of Section 5.3.1: a
// preference region with its known (order-sensitive) top-i result.
//
// The node owns the whole constraint storage of its region: hsBuf backs
// reg.Hs and hsBack is one contiguous float64 run holding every normal
// vector (inherited parent rows are deep-copied in, new beat rows carved
// after them). Nothing outside the node references either buffer — a
// child copies all rows into its own backing — so recycling a node safely
// reuses both, and the QP assembly sweeps one contiguous run per region.
//
// Below hull.PairwiseDim a node that can still be partitioned also keeps
// the vertex list of its region in vl, pooled with the node: a root clips
// the simplex by its rows, a child clips its parent's list by its own new
// rows. verts is false when the node has no list (d >= PairwiseDim, a
// top list k deep, or a list given up by Clip); the node and its subtree
// then partition without one.
type regionNode struct {
	reg     region.Region
	hsBuf   []region.Halfspace // pooled header array backing reg.Hs
	hsBack  []float64          // pooled contiguous normals of reg.Hs rows
	vl      region.Vertices
	verts   bool
	top     []int
	deepest int // deepest layer index among the top records
	mindist float64
	witness geom.Vector // the point of the region closest to the seed
	final   bool        // candidates ran out inside the region: top is final
}

// Less orders the exploration min-heap by mindist (exact comparison of
// stored keys), ties going to the lexicographically smaller top list. Each
// node of the implicit tree has its own top list and a child's extends its
// parent's, so the order is total, and it does not depend on when — or in
// which batch — a node was pushed.
func (n *regionNode) Less(o *regionNode) bool {
	if n.mindist != o.mindist { //ordlint:allow floatcmp — tie-break on stored keys
		return n.mindist < o.mindist
	}
	for i := 0; i < len(n.top) && i < len(o.top); i++ {
		if n.top[i] != o.top[i] {
			return n.top[i] < o.top[i]
		}
	}
	return len(n.top) < len(o.top)
}

// exploreWS is the per-worker scratch of the region search: the QP-backed
// region workspace, the partition candidate/visited sets and buffers, and a
// regionNode free list. One exploreWS per goroutine; partition only ever
// touches the workspace it is handed (and reads the explorer's L_upd memo).
// Workspaces come from wsPool and outlive the query that used them, so
// nothing in one may be reachable from a result.
type exploreWS struct {
	reg     region.Workspace
	inTop   map[int]bool
	cand    map[int]bool
	visited map[int]bool
	queue   []int
	ids     []int
	others  []int
	hs      []region.Halfspace
	// floodBack backs the probe-and-discard beat normals of the Set (ii)
	// flood (beatAllScratch); invalidated probe to probe, never retained.
	floodBack []float64
	// kids is the pooled children slice handed out by partition; callers
	// consume it (push every child) before the next partition call on the
	// same workspace, which reuses it.
	kids []*regionNode
	free []*regionNode
	hb   *hull.Builder // pooled L_upd hull builder (Reset per partition)
	key  []byte        // memo key of the union being partitioned
	// built holds the L_upd hulls this slot built during the current batch,
	// for the main goroutine to add to the memo once the batch is done.
	built map[string]*hull.Upper
	// byScore and diff are prune's scratch: the union in descending score
	// at the region's witness, and one member's point minus another's.
	byScore []scoredID
	diff    geom.Vector
}

var wsPool sync.Pool

// acquireWS returns a pooled exploreWS, or a new one.
func acquireWS() *exploreWS {
	if ws, ok := wsPool.Get().(*exploreWS); ok {
		return ws
	}
	return &exploreWS{}
}

// releaseWS returns ws to wsPool, unless its buffers outgrew
// skyband.MaxPooledBytes. The caller is done with every node ws handed out.
func releaseWS(ws *exploreWS) {
	clear(ws.kids[:cap(ws.kids)]) // handed-out children belong to the query
	ws.kids = ws.kids[:0]
	if ws.footprint() > skyband.MaxPooledBytes {
		return
	}
	wsPool.Put(ws)
}

// releaseSlots releases the batch slots explore acquired.
func releaseSlots(slots []*exploreWS) {
	for _, ws := range slots {
		releaseWS(ws)
	}
}

// footprint returns about how many bytes ws keeps: its free nodes with
// their buffers, the hull builder and the scratch slices. The union maps,
// bounded by the candidate count, are left out.
func (ws *exploreWS) footprint() int {
	const (
		nodeBytes = 200 // a regionNode's own fields
		hsBytes   = 32  // one region.Halfspace header
	)
	n := (cap(ws.queue)+cap(ws.ids)+cap(ws.others)+cap(ws.kids)+cap(ws.free)+cap(ws.floodBack)+cap(ws.diff))*8 +
		cap(ws.hs)*hsBytes + cap(ws.key) + cap(ws.byScore)*16
	for _, nd := range ws.free {
		n += nodeBytes + cap(nd.hsBuf)*hsBytes + (cap(nd.hsBack)+cap(nd.top)+cap(nd.witness))*8 + nd.vl.Footprint()
	}
	if ws.hb != nil {
		n += ws.hb.Footprint()
	}
	return n
}

// node returns a recycled regionNode (fields reset, buffers retained) or a
// fresh one.
func (ws *exploreWS) node() *regionNode {
	if n := len(ws.free); n > 0 {
		nd := ws.free[n-1]
		ws.free = ws.free[:n-1]
		return nd
	}
	return &regionNode{}
}

// recycle returns a node to the free list. Callers must be done with every
// field: the region value (and its node-owned constraint buffers), top
// slice and witness buffer will be reused. The constraint buffers are
// node-private by construction (children deep-copy every row).
func (ws *exploreWS) recycle(n *regionNode) {
	if n.reg.Hs != nil {
		n.hsBuf = n.reg.Hs[:0]
	}
	n.reg = region.Region{}
	n.verts = false
	n.top = n.top[:0]
	n.final = false
	ws.free = append(ws.free, n)
}

// explorer walks the implicit region tree best-first by mindist from the
// seed, partitioning regions by Theorem 1 until their top-k is known. It is
// shared by ORU (ball mode: expand until m distinct records) and by the
// fixed-region JAA adaptation (clip mode: enumerate every region
// intersecting a given polytope).
type explorer struct {
	w      geom.Vector
	k      int
	layers *hull.Layers
	h      xheap.Heap[*regionNode]
	pushed map[int]bool   // layer-0 members whose top-region was pushed
	clip   *region.Region // nil: unrestricted (ball mode)
	stats  Stats
	ws     *exploreWS // main-goroutine scratch (batch slot 0, root pushes), pooled
	width  int        // regions partitioned per batch: GOMAXPROCS at construction
	// ahead holds the heap keys (mindist and top list) of partitioned
	// regions that joined a batch behind its first and that no finalization
	// has passed yet: the speculative partitions, should the search stop now.
	ahead []regionNode

	outSet   map[int]bool
	records  []Record
	regions  []TopKRegion
	budget   int  // max partitionings; 0 = unlimited
	noBypass bool // ablation: always build L_upd hulls, even for tiny unions
	// memo holds every L_upd hull built so far, keyed by its candidate
	// union: regions with the same top set in another order share their
	// union. Batched partitions only read it; the main goroutine fills it
	// between batches.
	memo map[string]*hull.Upper
}

// newExplorer builds an explorer over the candidate records, on a pooled
// workspace that releaseExplorer puts back.
func newExplorer(cands []skyband.Member, w geom.Vector, k int, clip *region.Region) *explorer {
	ids := make([]int, len(cands))
	pts := make([]geom.Vector, len(cands))
	for i, c := range cands {
		ids[i] = c.ID
		pts[i] = c.Point
	}
	ws := acquireWS()
	return &explorer{
		w:      w,
		k:      k,
		layers: hull.NewLayers(ids, pts),
		pushed: make(map[int]bool),
		clip:   clip,
		ws:     ws,
		outSet: make(map[int]bool),
		width:  runtime.GOMAXPROCS(0),
		memo:   make(map[string]*hull.Upper),
	}
}

// releaseExplorer recycles the nodes left on e's heap and returns e's
// workspace to the pool. e's records and regions stay the caller's: they
// hold no pooled memory.
func releaseExplorer(e *explorer) {
	for _, n := range e.h.Items() {
		e.ws.recycle(n)
	}
	e.h.Reset()
	releaseWS(e.ws)
	e.ws = nil
}

// seed pushes the layer-0 top-region containing the start point (the seed
// vector for ORU; a point of the clip polytope for JAA).
func (e *explorer) seed() bool {
	l0 := e.layers.Layer(0)
	if l0 == nil || len(l0.MemberIDs) == 0 {
		return false
	}
	at := e.w
	if e.clip != nil && !e.clip.Contains(at) {
		p, ok := e.clip.FeasiblePointWS(&e.ws.reg)
		if !ok {
			return false
		}
		at = p // aliases e.ws.reg; read only before pushL1 resolves on it
	}
	best, bestScore := -1, math.Inf(-1)
	for _, id := range l0.MemberIDs {
		if s := e.layers.Point(id).Dot(at); s > bestScore {
			best, bestScore = id, s
		}
	}
	e.pushL1(best)
	return true
}

// pushL1 pushes the top-region of a layer-0 member, once.
func (e *explorer) pushL1(id int) {
	if e.pushed[id] {
		return
	}
	e.pushed[id] = true
	l0 := e.layers.Layer(0)
	n := e.ws.node()
	e.buildNodeRegion(n, region.Full(len(e.w)), id, l0.Adj(id))
	n.top = append(n.top, id)
	n.deepest = 0
	e.clipVerts(n, nil)
	e.push(n)
}

// buildNodeRegion assembles child's region — the parent's rows followed by
// the "id beats o" rows for every o in others — inside the child's own
// pooled buffers: the Halfspace headers go into hsBuf and every normal
// vector (inherited rows included) is deep-copied into one contiguous run
// of hsBack. Deep-copying severs all aliasing between parent and child, so
// recycling either node reuses its buffers without corrupting the other,
// and the QP assembly reads one contiguous float64 run per region.
//
//ordlint:noalloc
func (e *explorer) buildNodeRegion(child *regionNode, parent region.Region, id int, others []int) {
	d := len(e.w)
	need := (len(parent.Hs) + len(others)) * d
	back := child.hsBack
	if cap(back) < need {
		back = make([]float64, need) //ordlint:allow noalloc — pool growth, amortised across the node's reuses
	}
	back = back[:cap(back)]
	hs := child.hsBuf[:0]
	if rows := len(parent.Hs) + len(others); cap(hs) < rows {
		hs = make([]region.Halfspace, 0, rows) //ordlint:allow noalloc — pool growth, amortised across the node's reuses
	}
	off := 0
	for _, h := range parent.Hs {
		a := back[off : off+d : off+d]
		copy(a, h.A)
		hs = append(hs, region.Halfspace{A: a, B: h.B})
		off += d
	}
	p := e.layers.Point(id)
	for _, o := range others {
		q := e.layers.Point(o)
		a := back[off : off+d : off+d]
		for j := 0; j < d; j++ {
			a[j] = p[j] - q[j]
		}
		hs = append(hs, region.Halfspace{A: a, B: 0})
		off += d
	}
	child.reg = region.Region{Dim: d, Hs: hs}
	child.hsBuf = hs
	child.hsBack = back
}

// clipVerts gives n the vertex list of its region when it may be
// partitioned below hull.PairwiseDim: parent's list (the simplex for a
// root, parent nil) clipped by the rows n.reg adds to parent's region. n
// gets no list when parent has none or Clip gives it up.
//
//ordlint:noalloc
func (e *explorer) clipVerts(n, parent *regionNode) {
	n.verts = false
	d := len(e.w)
	if d >= hull.PairwiseDim || len(n.top) >= e.k {
		return
	}
	from := 0
	if parent == nil {
		n.vl.Reset(d)
	} else if parent.verts {
		n.vl.CopyFrom(&parent.vl)
		from = len(parent.reg.Hs)
	} else {
		return
	}
	for i := from; i < len(n.reg.Hs); i++ {
		if !n.vl.Clip(n.reg.Hs[i], d+i) {
			return
		}
	}
	n.verts = true
}

// resolve computes the node's exact mindist and witness (within the clip,
// when set) on ws. It reports false — and recycles the node to ws — when the
// region is empty. The node's stored mindist must be a valid lower bound on
// entry (the parent's mindist for partition children, 0 for roots): the
// child region is a subset of its parent's, so its true mindist can never
// be smaller, and clamping absorbs the solver's last-ulp noise — keeping the
// finalization order provably monotone.
func (e *explorer) resolve(n *regionNode, ws *exploreWS) bool {
	var clipHs []region.Halfspace
	if e.clip != nil {
		clipHs = e.clip.Hs
	}
	dist, closest, ok := n.reg.ProbeMinDist(clipHs, e.w, &ws.reg)
	if !ok {
		ws.recycle(n)
		return false
	}
	if dist < n.mindist {
		dist = n.mindist
	}
	n.mindist = dist
	// closest aliases the workspace's solution buffer; copy it into the
	// node's own (reused) witness buffer.
	n.witness = append(n.witness[:0], closest...)
	return true
}

// push resolves a root-level region and enqueues it; empty regions are
// dropped (and their nodes recycled). Roots have no parent bound to
// inherit, so their lower bound is 0.
func (e *explorer) push(n *regionNode) {
	n.mindist = 0
	if e.resolve(n, e.ws) {
		e.h.Push(n)
	}
}

// explore runs the best-first loop. With targetM > 0 it stops as soon as
// that many distinct records are confirmed; with targetM == 0 it exhausts
// the heap (clip mode / full enumeration). It reports whether the target
// was reached (always true for targetM == 0 unless the budget tripped).
//
// Up to e.width regions are partitioned concurrently, the parallelisation
// of Section 6.4: finding the next-ranked records in one region is
// independent of every other region. Partitioning emits no output; only
// finalizations (Case 2) must follow global mindist order. The loop
// therefore batches the open (Case-1) regions at the heap top and drains
// the whole batch, pushing every child, before the next final region is
// popped. At width 1 it is the one-pop-at-a-time best-first loop.
//
// A batch may partition a region that the one-at-a-time order would not
// have reached before the answer completed. Such speculative partitions
// never materialise a hull layer (see joins) and are left out of
// RegionsPartitioned (see finalize), so output and Stats are the same at
// every width.
func (e *explorer) explore(ctx context.Context, targetM int) (complete bool, err error) {
	// One exploreWS per batch slot, so concurrent partitions never share
	// scratch; slot 0 runs on this goroutine with the main workspace.
	slots := make([]*exploreWS, e.width)
	slots[0] = e.ws
	for i := 1; i < len(slots); i++ {
		ws := acquireWS()
		slots[i] = ws
	}
	defer releaseSlots(slots[1:])
	batch := make([]*regionNode, 0, e.width)
	children := make([][]*regionNode, e.width)
	var wg sync.WaitGroup
	for e.h.Len() > 0 {
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		batch = batch[:0]
		for len(batch) < e.width && e.h.Len() > 0 && e.joins(*e.h.Peek(), batch) {
			batch = append(batch, e.pop())
		}
		if len(batch) == 0 {
			// The heap top is a final (Case-2) region.
			e.finalize(e.pop())
			if targetM > 0 && len(e.records) >= targetM {
				e.stats.RegionsPartitioned -= len(e.ahead)
				return true, nil
			}
			continue
		}
		if e.budget > 0 && e.stats.RegionsPartitioned+len(batch) > e.budget {
			return false, ErrBudgetExceeded
		}
		e.stats.RegionsPartitioned += len(batch)
		// Materialise every layer a batched partition may read up front, so
		// the partitions only read shared explorer state. Nodes recycled on
		// this goroutine collect in e.ws.free; each helper slot takes a
		// share, so its children come from the pool too.
		deepest := 0
		for _, n := range batch {
			deepest = max(deepest, n.deepest)
		}
		e.layers.Layer(deepest + 1) // nil past the last layer; that is fine
		share := len(e.ws.free) / len(batch)
		for _, ws := range slots[1:len(batch)] {
			keep := len(e.ws.free) - share
			ws.free = append(ws.free, e.ws.free[keep:]...)
			e.ws.free = e.ws.free[:keep]
		}
		for i := 1; i < len(batch); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				children[i] = e.partition(batch[i], slots[i])
			}(i)
		}
		children[0] = e.partition(batch[0], slots[0])
		wg.Wait()
		// The batch is done: publish the hulls its partitions built.
		for _, ws := range slots[:len(batch)] {
			maps.Copy(e.memo, ws.built)
			clear(ws.built)
		}
		for i, n := range batch {
			if i > 0 {
				e.ahead = append(e.ahead, regionNode{mindist: n.mindist, top: slices.Clone(n.top)})
			}
			if n.final {
				// Re-queue it, keeping its key, to be finalized short in
				// mindist order.
				e.h.Push(n)
				continue
			}
			e.ws.recycle(n) // children re-derive everything they need
			for _, c := range children[i] {
				e.h.Push(c)
			}
		}
	}
	return targetM == 0, nil
}

// joins reports whether the heap top n may join the batch being collected.
// Only open regions (top list shorter than k, candidates not exhausted)
// are partitioned. Past the first, a region joins only if the hull layer
// its partition reads is one the first region's partition materialises
// anyway or one already computed.
func (e *explorer) joins(n *regionNode, batch []*regionNode) bool {
	if n.final || len(n.top) >= e.k {
		return false
	}
	return len(batch) == 0 || n.deepest <= batch[0].deepest || n.deepest+1 < e.layers.Computed()
}

// pop removes and returns the heap top — a pooled node, the caller's until
// it finalizes or recycles it. A top-1 region first extends the root level
// lazily along its layer-0 adjacency — under k = 1 too, where the region is
// also finalized immediately.
func (e *explorer) pop() *regionNode {
	n := e.h.Pop()
	if len(n.top) == 1 {
		l0 := e.layers.Layer(0)
		for _, a := range l0.Adj(n.top[0]) {
			e.pushL1(a)
		}
	}
	return n
}

// partition applies Theorem 1 to a popped region: the next-ranked record
// anywhere in it comes from the candidate union (see union). It returns one
// resolved child per next record whose region is not empty. When no next
// record exists it marks n final instead. All scratch state comes from ws
// (one per goroutine); the layers structure and the memo are only read.
func (e *explorer) partition(n *regionNode, ws *exploreWS) []*regionNode {
	ids := e.union(n, ws)
	if len(ids) == 0 {
		// The top list cannot grow further (only possible when the
		// candidate set is smaller than k).
		n.final = true
		return nil
	}
	if n.verts {
		ids = e.prune(n, ws, ids)
	}
	// L_upd: the upper hull of the candidate union; its top-regions
	// partition n.reg by the identity of the next-ranked record (Lemma 2).
	var memberIDs []int
	adjOf := func(id int) []int { return nil }
	// From hull.PairwiseDim up the facet count of an upper hull grows so
	// fast (Upper Bound Theorem) that the all-pairs formulation wins for any
	// union size the search produces in practice.
	bypass := 8
	if len(e.w) >= hull.PairwiseDim {
		bypass = 1 << 30
	}
	if e.noBypass {
		bypass = 0
	}
	if len(ids) <= bypass {
		// Small unions: skip the hull and constrain each candidate against
		// all the others. Non-extreme candidates simply yield empty child
		// regions, which resolve discards — same partition, fewer QPs than
		// the hull's membership tests would cost.
		memberIDs = ids
		adjOf = func(id int) []int {
			others := ws.others[:0]
			for _, o := range ids {
				if o != id {
					others = append(others, o)
				}
			}
			ws.others = others
			return others
		}
	} else {
		// The memo key is the sorted union, varint-encoded; looking it up
		// with string(key) does not allocate, storing it copies it.
		key := ws.key[:0]
		for _, id := range ids {
			key = binary.AppendVarint(key, int64(id))
		}
		ws.key = key
		upd := e.memo[string(key)]
		if upd == nil {
			// Pooled builder: the facet free list and point arena stay warm
			// across the thousands of partition calls of one exploration.
			if ws.hb == nil {
				ws.hb = hull.NewBuilder(len(e.w))
			} else {
				ws.hb.Reset(len(e.w))
			}
			for _, id := range ids {
				ws.hb.Add(id, e.layers.Point(id))
			}
			upd = ws.hb.Upper()
			ws.built[string(key)] = upd
		}
		memberIDs = upd.MemberIDs
		adjOf = upd.Adj
	}
	children := ws.kids[:0]
	for _, id := range memberIDs {
		child := ws.node()
		e.buildNodeRegion(child, n.reg, id, adjOf(id))
		// Resolving here, on the slot's own workspace, keeps the children's
		// QPs inside the parallel batch; empty children are dropped.
		child.mindist = n.mindist
		if !e.resolve(child, ws) {
			continue
		}
		child.deepest = n.deepest
		if li, ok := e.layers.LayerOf(id); ok && li > child.deepest {
			child.deepest = li
		}
		if cap(child.top) < e.k {
			child.top = make([]int, 0, e.k) // top lists never outgrow k
		}
		child.top = append(append(child.top, n.top...), id)
		e.clipVerts(child, n)
		children = append(children, child)
	}
	ws.kids = children
	return children
}

// union returns, sorted, the candidate union of Theorem 1 for a popped
// region: Set (i), the records adjacent to a top member in its own layer,
// and Set (ii), the next-layer records whose top-region overlaps the
// region. The slice is ws.ids.
func (e *explorer) union(n *regionNode, ws *exploreWS) []int {
	if ws.inTop == nil {
		ws.inTop = make(map[int]bool)
		ws.cand = make(map[int]bool)
		ws.visited = make(map[int]bool)
		ws.built = make(map[string]*hull.Upper)
	}
	inTop := ws.inTop
	clear(inTop)
	for _, id := range n.top {
		inTop[id] = true
	}
	cand := ws.cand
	clear(cand)
	// Set (i): adjacent records of each top member within its layer.
	for _, id := range n.top {
		li, ok := e.layers.LayerOf(id)
		if !ok {
			continue
		}
		u := e.layers.Layer(li)
		for _, a := range u.Adj(id) {
			if !inTop[a] {
				cand[a] = true
			}
		}
	}
	// Set (ii): next-layer records whose top-region overlaps n.reg. The
	// top-regions of a layer tile the preference domain, so the members
	// overlapping a convex region form a connected patch of the adjacency
	// graph: start from the member that tops the region's witness point
	// and flood outward, running the overlap test only along the frontier
	// instead of for every member of the layer.
	if lnext := e.layers.Layer(n.deepest + 1); lnext != nil && len(lnext.MemberIDs) > 0 {
		start, bestScore := -1, math.Inf(-1)
		for _, id := range lnext.MemberIDs {
			if s := e.layers.Point(id).Dot(n.witness); s > bestScore {
				start, bestScore = id, s
			}
		}
		visited := ws.visited
		clear(visited)
		visited[start] = true
		queue := append(ws.queue[:0], start)
		for qi := 0; qi < len(queue); qi++ {
			id := queue[qi]
			ws.hs, ws.floodBack = beatAllScratch(e.layers, id, lnext.Adj(id), ws.hs[:0], ws.floodBack)
			if e.floodMisses(n, ws) {
				continue
			}
			cand[id] = true
			for _, a := range lnext.Adj(id) {
				if !visited[a] {
					visited[a] = true
					queue = append(queue, a)
				}
			}
		}
		ws.queue = queue[:0]
	}
	ids := ws.ids[:0]
	for id := range cand {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ws.ids = ids
	return ids
}

// floodMisses reports whether n.reg misses the top-region of a flood
// member, given by its beat rows ws.hs. Three tests run in order of cost,
// each settling only what it proves:
//   - Witness screen: n.witness is a point of n.reg (its mindist
//     projection); when it clears every beat row by witnessMargin, the
//     two overlap. The flood's start member always passes: it maximises
//     the dot product at the witness, which is exactly its beat system.
//   - Vertex screen (when n has a vertex list): a beat row violated by
//     more than witnessMargin at every listed point misses n.reg; a listed
//     point that clears every beat row by witnessMargin meets it.
//   - The QP probe, projecting the witness rather than the barycentre:
//     the witness already satisfies every row of n.reg, so the solver's
//     active set only has to chase the new beat rows.
//
// The margin keeps both screens strictly conservative w.r.t. the solver's
// own tolerance, so marginal cases still go to the QP, which settles them
// exactly as it would without the screens.
func (e *explorer) floodMisses(n *regionNode, ws *exploreWS) bool {
	if witnessInside(n.witness, ws.hs) {
		return false
	}
	if n.verts {
		if miss, meet := n.vl.Screen(ws.hs, witnessMargin); miss || meet {
			return miss
		}
	}
	_, _, ok := n.reg.ProbeMinDist(ws.hs, n.witness, &ws.reg)
	return !ok
}

// scoredID is a union member with its score at a region's witness.
type scoredID struct {
	score float64
	id    int
}

// prune drops from the sorted union ids every member s that a kept member
// r beats everywhere in n.reg: the minimum of (p_r - p_s).v over n's vertex
// list exceeds witnessMargin. It returns the kept members, sorted, in ids'
// backing array.
//
// Dropping s changes no child. s's own child is empty. Inside n.reg the
// row "id beats s" follows from "id beats r", so every other child keeps
// the same polytope; only its QP rows change. Dominance over the region is
// transitive, and a member outscores every member it beats at the witness,
// a point of the region. So, visiting the members in descending score
// there, testing each against the kept members alone still drops every
// member that some union member beats.
func (e *explorer) prune(n *regionNode, ws *exploreWS, ids []int) []int {
	byScore := ws.byScore[:0]
	for _, id := range ids {
		byScore = append(byScore, scoredID{e.layers.Point(id).Dot(n.witness), id})
	}
	slices.SortFunc(byScore, func(a, b scoredID) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	ws.byScore = byScore
	diff := ws.diff[:0]
	kept := ids[:0]
	for _, s := range byScore {
		ps := e.layers.Point(s.id)
		beaten := false
		for _, r := range kept {
			diff = append(diff[:0], e.layers.Point(r)...)
			for j := range diff {
				diff[j] -= ps[j]
			}
			if n.vl.Min(diff) > witnessMargin {
				beaten = true
				break
			}
		}
		if !beaten {
			kept = append(kept, s.id)
		}
	}
	ws.diff = diff
	sort.Ints(kept)
	return kept
}

// beatAllScratch is beatAll with the normal vectors carved from a reusable
// scratch buffer instead of a fresh backing array: for probe-and-discard
// overlap tests whose halfspaces are never retained past the probe. It
// returns the (possibly grown) scratch buffer for the caller to keep; the
// emitted halfspaces alias it and are invalidated by the next call with the
// same buffer.
//
//ordlint:noalloc
func beatAllScratch(ls *hull.Layers, id int, others []int, hs []region.Halfspace, back []float64) ([]region.Halfspace, []float64) {
	if len(others) == 0 {
		return hs, back
	}
	p := ls.Point(id)
	d := len(p)
	if cap(back) < len(others)*d {
		back = make([]float64, len(others)*d*2) //ordlint:allow noalloc — scratch growth, amortised across probes
	}
	back = back[:cap(back)]
	for i, o := range others {
		q := ls.Point(o)
		a := back[i*d : (i+1)*d : (i+1)*d]
		for j := 0; j < d; j++ {
			a[j] = p[j] - q[j]
		}
		hs = append(hs, region.Halfspace{A: a, B: 0})
	}
	return hs, back
}

// witnessMargin is the slack by which witnessInside requires the witness to
// satisfy every halfspace. It must stay well above the QP's feasibility
// tolerance (1e-10 in package qp): a row the witness meets only within the
// solver's tolerance may be one the QP declares infeasible together with the
// region's other rows, so the screen would certify a child the probe drops.
// Borderline cases go to the QP, which settles them exactly as it would
// without the screen.
//
// The vertex-list tests (prune's in-region dominance and floodMisses's
// vertex screen) decide by the same margin, for the same reason. The list
// itself is exact up to region's clipping tolerance, 1e-12: clipping
// treats a point within 1e-12 of a row's plane as on it, three orders above
// the rounding of the slacks it compares, and four below this margin, so
// no decision taken from a list turns on the list's own inexactness.
const witnessMargin = 1e-8

// witnessInside reports whether the point clearly (by witnessMargin)
// satisfies every halfspace — a sufficient certificate that a region
// containing the point still intersects the halfspaces.
//
//ordlint:noalloc
func witnessInside(w geom.Vector, hs []region.Halfspace) bool {
	for _, h := range hs {
		s := -h.B
		for j, a := range h.A {
			s += a * w[j]
		}
		if s <= witnessMargin {
			return false
		}
	}
	return true
}

// finalize records a completed region and its newly confirmed records, then
// recycles the node. The retained TopKRegion keeps n.witness by reference,
// so the witness buffer is detached (left to the output) before the node
// returns to the free list; the node keeps its constraint buffers. Batched
// partitions that order no later than n in the heap are ones the
// one-at-a-time order reaches before n, so they leave e.ahead.
func (e *explorer) finalize(n *regionNode) {
	e.stats.RegionsFinalized++
	e.ahead = slices.DeleteFunc(e.ahead, func(a regionNode) bool { return !n.Less(&a) })
	tk := make([]Record, len(n.top))
	for i, id := range n.top {
		tk[i] = Record{ID: id, Point: e.layers.Point(id)}
		if !e.outSet[id] {
			e.outSet[id] = true
			e.records = append(e.records, Record{ID: id, Point: e.layers.Point(id)})
		}
	}
	e.regions = append(e.regions, TopKRegion{TopK: tk, MinDist: n.mindist, Witness: n.witness})
	n.witness = nil
	e.ws.recycle(n)
}

// estimateRhoBar produces the initial radius overestimate of Section 5.3:
// the radius at which the incremental rho-skyline's upper hull first holds
// `target` extreme vertices. exhausted reports that the skyline ran dry
// first (the returned radius is then +Inf, i.e. the whole k-skyband is the
// candidate set).
//
// The skyline records arrive in increasing inflection radius. The vertex
// count cannot reach the target before `target` of them arrived; past
// that, the exact (QP-backed) count is checked only every few records
// (atCheckpoint) — overshooting the stop by a handful of skyline records
// merely loosens the (already over-) estimate.
//
// Below hull.PairwiseDim the records come one at a time from IRD (Section
// 5.3.2) into an incremental hull: there the count needs 1.5–2.5× target
// records, and IRD pays only for the ones it releases. From PairwiseDim up
// almost every skyline record is extreme, so the count nearly always stops
// at its first checkpoint. There the records come from ORD's own scan at
// k = 1 (ordScan), whose output is the same sequence found with
// rho-bar-dominance pruning: it is asked for the first two checkpoints'
// worth, and for twice as many while the count falls short. The records
// are counted with one QP each (hull.Extremes).
func estimateRhoBar(ctx context.Context, tree *rtree.Tree, w geom.Vector, target int) (rhoBar float64, exhausted bool, fetched int, err error) {
	d := tree.Dim()
	if d < hull.PairwiseDim {
		ird := skyband.NewIRD(tree, w, 1)
		b := hull.NewBuilder(d)
		for {
			rel, ok, err := ird.NextCtx(ctx)
			if err != nil {
				return 0, false, fetched, err
			}
			if !ok {
				return math.Inf(1), true, fetched, nil
			}
			fetched++
			b.Add(rel.ID, rel.Point)
			if atCheckpoint(fetched, target) && b.MemberCount() >= target {
				return rel.Radius, false, fetched, nil
			}
		}
	}
	x := hull.NewExtremes(d)
	st := acquireOrd()
	for want := target + 8; ; want *= 2 {
		cs, _, err := st.scan(ctx, tree, w, 1, want)
		if err != nil {
			releaseOrd(st)
			return 0, false, fetched, err
		}
		// A larger request's answer extends the smaller one's (the prefix
		// property ORDResult documents), so only the new records are added.
		for _, c := range cs[fetched:] {
			fetched++
			x.Add(c.rec.ID, c.rec.Point)
			if atCheckpoint(fetched, target) && x.MemberCount() >= target {
				releaseOrd(st)
				return c.rho, false, fetched, nil
			}
		}
		if len(cs) < want {
			releaseOrd(st)
			return math.Inf(1), true, fetched, nil
		}
	}
}

// atCheckpoint reports whether the rho-bar estimate checks its vertex
// count after the n-th skyline record: at target, target+8, ....
func atCheckpoint(n, target int) bool {
	return n >= target && (n-target)%8 == 0
}

// ORUOptions tune the complete ORU algorithm; the zero value is the
// configuration evaluated in the paper.
type ORUOptions struct {
	// NoPartitionBypass disables the small-union shortcut in Theorem-1
	// partitioning (used by the ablation benchmarks): every partitioning
	// builds an explicit L_upd upper hull, so d may be at most 9, the
	// most hull.NewBuilder takes.
	NoPartitionBypass bool
}

// ORUWithCtx computes the paper's second operator (Definition 2): the
// records in the top-k result of at least one preference vector within
// distance rho of w, for the minimum rho yielding exactly m records —
// reporting, as a by-product, every order-sensitive top-k result with its
// region.
//
// This is the complete algorithm of Section 5.3: rho-bar estimation via the
// incremental rho-skyline (from IRD below hull.PairwiseDim, from one ORD
// scan at k = 1 from it up), candidate restriction to the rho-bar-skyband,
// and best-first exploration of the implicit region tree with lazily
// computed upper-hull layers, partitioning GOMAXPROCS regions at a time.
// The candidates are complete only within rho-bar, so when the estimate
// proves too small — the exploration cannot confirm m records, or confirms
// them past rho-bar (a few percent of NBA d=8 queries) — the estimation
// target is doubled and the search restarted, preserving exactness. The
// rho-bar estimation, the candidate retrieval and the exploration all poll
// ctx and abort with an error wrapping ctx.Err() once it is done.
func ORUWithCtx(ctx context.Context, tree *rtree.Tree, w geom.Vector, k, m int, opts ORUOptions) (*ORUResult, error) {
	if err := validate(tree, w, k, m); err != nil {
		return nil, err
	}
	target := m
	for {
		rhoBar, exhausted, fetched, err := estimateRhoBar(ctx, tree, w, target)
		if err != nil {
			return nil, err
		}
		cands, err := skyband.RhoSkybandCtx(ctx, tree, w, k, rhoBar)
		if err != nil {
			return nil, err
		}
		ex := newExplorer(cands, w, k, nil)
		ex.noBypass = opts.NoPartitionBypass
		ex.stats.Fetched = fetched + len(cands)
		if ex.seed() {
			complete, exErr := ex.explore(ctx, m)
			if exErr != nil {
				releaseExplorer(ex)
				return nil, exErr
			}
			if complete {
				if res := ex.result(); res.Rho <= rhoBar {
					res.Stats.LayersComputed = ex.layers.Computed()
					releaseExplorer(ex)
					return res, nil
				}
			}
		}
		releaseExplorer(ex)
		if exhausted {
			return nil, ErrInsufficientData
		}
		target *= 2
	}
}

// result assembles the ORUResult from the explorer state.
func (e *explorer) result() *ORUResult {
	res := &ORUResult{
		Records: e.records,
		Regions: e.regions,
		Stats:   e.stats,
	}
	if len(e.regions) > 0 {
		res.Rho = e.regions[len(e.regions)-1].MinDist
	}
	return res
}

// EnumerateWithin enumerates every (order-sensitive) top-k result
// attainable for a preference vector inside the clip polytope, over the
// given candidate records (which must be a superset of all records
// appearing in such top-k results, e.g. the clip's R-skyband [54]). It
// powers the fixed-region JAA adaptation used as the paper's ORU
// competitor (Section 6.3).
func EnumerateWithin(cands []skyband.Member, w geom.Vector, k int, clip region.Region) ([]Record, []TopKRegion, error) {
	ex := newExplorer(cands, w, k, &clip)
	if !ex.seed() {
		releaseExplorer(ex)
		return nil, nil, nil
	}
	_, err := ex.explore(context.Background(), 0)
	records, regions := ex.records, ex.regions
	releaseExplorer(ex)
	if err != nil {
		return nil, nil, err
	}
	return records, regions, nil
}

// ORUBSL is the paper's ORU baseline: it uses the same rho-bar estimate,
// but materialises every upper-hull layer of the entire candidate set
// upfront, pushes every layer-1 top-region, and partitions all of them
// exhaustively before reporting the m-sized union of top-k records of the
// closest regions — no gradual expansion in either radius or layer depth.
// budget caps the number of partitionings (0 = unlimited); when exceeded,
// ErrBudgetExceeded is returned, the analogue of the paper's DNF entries.
func ORUBSL(tree *rtree.Tree, w geom.Vector, k, m int, budget int) (*ORUResult, error) {
	if err := validate(tree, w, k, m); err != nil {
		return nil, err
	}
	rhoBar, _, fetched, err := estimateRhoBar(context.Background(), tree, w, m)
	if err != nil {
		return nil, err
	}
	cands, err := skyband.RhoSkybandCtx(context.Background(), tree, w, k, rhoBar)
	if err != nil {
		return nil, err
	}
	ex := newExplorer(cands, w, k, nil)
	ex.stats.Fetched = fetched + len(cands)
	ex.budget = budget
	// Materialise all layers upfront (the baseline's defining waste).
	for t := 0; ex.layers.Layer(t) != nil; t++ {
	}
	ex.stats.LayersComputed = ex.layers.Computed()
	l0 := ex.layers.Layer(0)
	if l0 == nil {
		releaseExplorer(ex)
		return nil, ErrInsufficientData
	}
	for _, id := range l0.MemberIDs {
		ex.pushL1(id)
	}
	// Exhaust the heap: partition everything reachable.
	_, err = ex.explore(context.Background(), 0)
	regions, stats := ex.regions, ex.stats
	releaseExplorer(ex)
	if err != nil {
		return nil, err
	}
	// Sort finalized regions by mindist and take the union until m records.
	sort.Slice(regions, func(i, j int) bool {
		return regions[i].MinDist < regions[j].MinDist
	})
	res := &ORUResult{Stats: stats}
	seen := map[int]bool{}
	for _, reg := range regions {
		res.Regions = append(res.Regions, reg)
		for _, r := range reg.TopK {
			if !seen[r.ID] {
				seen[r.ID] = true
				res.Records = append(res.Records, r)
			}
		}
		res.Rho = reg.MinDist
		if len(res.Records) >= m {
			break
		}
	}
	if len(res.Records) < m {
		return nil, ErrInsufficientData
	}
	return res, nil
}
