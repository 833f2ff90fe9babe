package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
	"ordu/internal/xheap"
)

// cand is a candidate record with its inflection radius.
type cand struct {
	rec   Record
	rho   float64
	score float64
}

// Less orders the candidate max-heap by inflection radius: the root is the
// eviction victim. Ties break towards evicting the lower-scoring record,
// then the larger id, keeping ORD and ORD-BSL deterministic and mutually
// consistent. Exact comparisons of stored sort keys: both sides are
// previously computed values, so bitwise (in)equality is the deterministic
// tie-break, not a numeric boundary test.
func (c cand) Less(o cand) bool {
	if c.rho != o.rho { //ordlint:allow floatcmp — tie-break on stored keys
		return c.rho > o.rho
	}
	if c.score != o.score { //ordlint:allow floatcmp — tie-break on stored keys
		return c.score < o.score
	}
	return c.rec.ID > o.rec.ID
}

// ORDCtx computes the paper's first operator (Definition 1): the records
// rho-dominated by fewer than k others for the minimum radius rho around w
// that yields exactly m records.
//
// This is the fully-enhanced algorithm of Section 4.2 (ordScan). The
// retrieval polls ctx every few fetches and aborts with an error wrapping
// ctx.Err() once the context is done.
func ORDCtx(ctx context.Context, tree *rtree.Tree, w geom.Vector, k, m int) (*ORDResult, error) {
	if err := validate(tree, w, k, m); err != nil {
		return nil, err
	}
	out, stats, err := ordScan(ctx, tree, w, k, m)
	if err != nil {
		return nil, err
	}
	if len(out) < m {
		return nil, ErrInsufficientData
	}
	res := &ORDResult{Stats: stats, Records: make([]Record, len(out)), Radii: make([]float64, len(out))}
	for i, c := range out {
		res.Records[i] = c.rec
		res.Radii[i] = c.rho
	}
	res.Rho = res.Radii[len(res.Radii)-1]
	return res, nil
}

// ordScan is ORD's retrieval (Section 4.2) on pooled state: it returns
// ordState.scan's candidates, copied out of the pool.
func ordScan(ctx context.Context, tree *rtree.Tree, w geom.Vector, k, m int) ([]cand, Stats, error) {
	st := acquireOrd()
	out, stats, err := st.scan(ctx, tree, w, k, m)
	out = slices.Clone(out)
	releaseOrd(st)
	return out, stats, err
}

// ordState is the pooled state of ORD's retrieval: the scanner, the
// rho-bar pruner, the candidate heap, the mindist workspace and buffer,
// and the sorted output. One goroutine uses it at a time.
type ordState struct {
	sc    skyband.Scanner
	pr    skyband.RhoPruner
	cands xheap.Heap[cand]
	ws    skyband.Workspace
	mds   []float64
	out   []cand
}

var ordPool sync.Pool

// acquireOrd returns a pooled ordState, or a new one.
func acquireOrd() *ordState {
	if st, ok := ordPool.Get().(*ordState); ok {
		return st
	}
	return &ordState{}
}

// releaseOrd drops st's references to the dataset and returns it to
// ordPool, unless its buffers outgrew skyband.MaxPooledBytes.
func releaseOrd(st *ordState) {
	st.sc.Reset(nil, nil)
	st.pr.Reset(nil, 0)
	st.cands.Reset()
	clear(st.out)
	if st.footprint() > skyband.MaxPooledBytes {
		return
	}
	ordPool.Put(st)
}

// footprint returns the bytes st's buffers hold.
func (st *ordState) footprint() int {
	const candBytes = 48
	return st.sc.Footprint() + st.pr.Footprint() + (cap(st.cands.Items())+cap(st.out))*candBytes + cap(st.mds)*8
}

// scan is ORD's retrieval (Section 4.2): a progressive k-skyband retrieval
// in decreasing score order for w, whose dominance test switches to
// adaptive rho-bar-dominance once m+1 candidates have been fetched;
// rho-bar (the largest inflection radius among the best m candidates)
// shrinks as better candidates arrive, making the retrieval increasingly
// selective until the heap dries up. It returns the kept candidates in
// byRadius order: the m records of smallest inflection radius, or every
// record of finite radius when fewer exist. The slice is st's own scratch,
// valid until st's next scan or release. ORDCtx and ORU's rho-bar estimate
// from hull.PairwiseDim up share it. It polls ctx every cancelEvery
// fetches.
func (st *ordState) scan(ctx context.Context, tree *rtree.Tree, w geom.Vector, k, m int) ([]cand, Stats, error) {
	st.sc.Reset(tree, w)
	st.pr.Reset(w, k)
	st.cands.Reset()
	for i := 0; ; i++ {
		if i%cancelEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, Stats{}, err
			}
		}
		id, p, ok := st.sc.Next(&st.pr)
		if !ok {
			break
		}
		// Exact inflection radius: all already-fetched records (and only
		// they) score at least as high as p.
		var rho float64
		rho, st.mds = inflectionAgainst(w, p, &st.pr, k, &st.ws, st.mds)
		st.pr.Add(p)
		if math.IsInf(rho, 1) || rho >= st.pr.Rho {
			// Cannot enter the current rho-bar-skyband (possible on the
			// exact boundary); it still remains a registered dominator.
			continue
		}
		st.cands.Push(cand{rec: Record{ID: id, Point: p}, rho: rho, score: p.Dot(w)})
		if st.cands.Len() > m {
			st.cands.Pop() // evict the largest inflection radius
			st.pr.Rho = st.cands.Peek().rho
		}
	}
	st.out = append(st.out[:0], st.cands.Items()...)
	byRadius(st.out)
	return st.out, Stats{HeapPops: st.sc.Visited(), Fetched: st.pr.Size()}, nil
}

// byRadius sorts candidates by increasing inflection radius, ties going to
// the higher score, then the smaller id: the output order of ORD and
// ORD-BSL.
func byRadius(cs []cand) {
	slices.SortFunc(cs, func(a, b cand) int {
		if a.rho != b.rho { //ordlint:allow floatcmp — tie-break on stored keys
			return cmp.Compare(a.rho, b.rho)
		}
		if a.score != b.score { //ordlint:allow floatcmp — tie-break on stored keys
			return cmp.Compare(b.score, a.score)
		}
		return cmp.Compare(a.rec.ID, b.rec.ID)
	})
}

// inflectionAgainst computes the inflection radius of p against the records
// registered in the pruner (exactly the higher-scoring fetched records). It
// reuses the caller's mindist buffer (returned grown) and workspace, so the
// per-record cost is allocation-free after warm-up.
func inflectionAgainst(w geom.Vector, p geom.Vector, pruner *skyband.RhoPruner, k int, ws *skyband.Workspace, mds []float64) (float64, []float64) {
	recs := pruner.Records()
	if len(recs) < k {
		return 0, mds
	}
	mds = mds[:0]
	for _, r := range recs {
		mds = append(mds, skyband.MindistWS(w, p, r, ws))
	}
	return skyband.InflectionRadiusInPlace(mds, k), mds
}

// ORDBSL is the preliminary approach of Section 4.1: compute the entire
// k-skyband, derive every member's inflection radius, and keep the m
// smallest. It serves as the paper's ORD-BSL baseline and as a reference
// implementation for testing the enhanced algorithm.
func ORDBSL(tree *rtree.Tree, w geom.Vector, k, m int) (*ORDResult, error) {
	if err := validate(tree, w, k, m); err != nil {
		return nil, err
	}
	members, err := skyband.KSkybandForCtx(context.Background(), tree, w, k)
	if err != nil {
		return nil, err
	}
	if len(members) < m {
		return nil, ErrInsufficientData
	}
	out := make([]cand, 0, len(members))
	var ws skyband.Workspace
	var mds []float64
	for i, mem := range members {
		// Members arrive in decreasing score order: competitors are the
		// earlier ones.
		mds = mds[:0]
		for j := 0; j < i; j++ {
			mds = append(mds, skyband.MindistWS(w, mem.Point, members[j].Point, &ws))
		}
		rho := skyband.InflectionRadiusInPlace(mds, k)
		if math.IsInf(rho, 1) {
			continue
		}
		out = append(out, cand{
			rec:   Record{ID: mem.ID, Point: mem.Point},
			rho:   rho,
			score: mem.Point.Dot(w),
		})
	}
	if len(out) < m {
		return nil, ErrInsufficientData
	}
	byRadius(out)
	out = out[:m]
	res := &ORDResult{Stats: Stats{Fetched: len(members)}}
	for _, c := range out {
		res.Records = append(res.Records, c.rec)
		res.Radii = append(res.Radii, c.rho)
	}
	res.Rho = res.Radii[len(res.Radii)-1]
	return res, nil
}
