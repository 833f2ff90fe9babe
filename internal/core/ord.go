package core

import (
	"context"
	"math"
	"sort"

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
// This is the fully-enhanced algorithm of Section 4.2: a progressive
// k-skyband retrieval in decreasing score order for w, whose dominance test
// switches to adaptive rho-bar-dominance once m+1 candidates have been
// fetched; rho-bar (the largest inflection radius among the best m
// candidates) shrinks as better candidates arrive, making the retrieval
// increasingly selective until the heap dries up. The retrieval polls ctx
// every few fetches and aborts with an error wrapping ctx.Err() once the
// context is done.
func ORDCtx(ctx context.Context, tree *rtree.Tree, w geom.Vector, k, m int) (*ORDResult, error) {
	if err := validate(tree, w, k, m); err != nil {
		return nil, err
	}
	sc := skyband.NewScanner(tree, w)
	pruner := skyband.NewRhoPruner(w, k)
	var cands xheap.Heap[cand]
	// Single-goroutine scratch: one mindist workspace and one reusable
	// per-candidate mindist buffer for the whole retrieval.
	var ws skyband.Workspace
	var mds []float64

	for i := 0; ; i++ {
		if i%cancelEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		id, p, ok := sc.Next(pruner)
		if !ok {
			break
		}
		// Exact inflection radius: all already-fetched records (and only
		// they) score at least as high as p.
		var rho float64
		rho, mds = inflectionAgainst(w, p, pruner, k, &ws, mds)
		pruner.Add(p)
		if math.IsInf(rho, 1) || rho >= pruner.Rho {
			// Cannot enter the current rho-bar-skyband (possible on the
			// exact boundary); it still remains a registered dominator.
			continue
		}
		cands.Push(cand{rec: Record{ID: id, Point: p}, rho: rho, score: p.Dot(w)})
		if cands.Len() > m {
			cands.Pop() // evict the largest inflection radius
			pruner.Rho = cands.Peek().rho
		}
	}
	if cands.Len() < m {
		return nil, ErrInsufficientData
	}
	res := &ORDResult{Stats: Stats{HeapPops: sc.Visited(), Fetched: pruner.Size()}}
	out := make([]cand, cands.Len())
	copy(out, cands.Items())
	sort.Slice(out, func(i, j int) bool {
		if out[i].rho != out[j].rho { //ordlint:allow floatcmp — tie-break on stored keys
			return out[i].rho < out[j].rho
		}
		if out[i].score != out[j].score { //ordlint:allow floatcmp — tie-break on stored keys
			return out[i].score > out[j].score
		}
		return out[i].rec.ID < out[j].rec.ID
	})
	for _, c := range out {
		res.Records = append(res.Records, c.rec)
		res.Radii = append(res.Radii, c.rho)
	}
	res.Rho = res.Radii[len(res.Radii)-1]
	return res, nil
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].rho != out[j].rho { //ordlint:allow floatcmp — tie-break on stored keys
			return out[i].rho < out[j].rho
		}
		if out[i].score != out[j].score { //ordlint:allow floatcmp — tie-break on stored keys
			return out[i].score > out[j].score
		}
		return out[i].rec.ID < out[j].rec.ID
	})
	out = out[:m]
	res := &ORDResult{Stats: Stats{Fetched: len(members)}}
	for _, c := range out {
		res.Records = append(res.Records, c.rec)
		res.Radii = append(res.Radii, c.rho)
	}
	res.Rho = res.Radii[len(res.Radii)-1]
	return res, nil
}
