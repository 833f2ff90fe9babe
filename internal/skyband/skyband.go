package skyband

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// Member is a record returned by a skyband computation.
type Member struct {
	ID    int
	Point geom.Vector
}

// KSkyband computes the k-skyband of the indexed dataset with the
// score-ordered BBS variant (visiting entries in decreasing score for a
// strictly positive reference vector, which preserves BBS's correctness
// invariant that no later record can dominate an earlier one). Members are
// returned in decreasing score order for the uniform vector.
func KSkyband(tree *rtree.Tree, k int) []Member {
	d := tree.Dim()
	w := make(geom.Vector, d)
	for i := range w {
		w[i] = 1 / float64(d)
	}
	out, _ := KSkybandForCtx(context.Background(), tree, w, k) //ordlint:allow senterr — context.Background never cancels, so the error is structurally nil
	return out
}

// KSkybandForCtx computes the k-skyband visiting entries in decreasing
// score for the given seed; the result set is independent of the seed, but
// the emission order follows it. The seed's zero components are handled by
// the scanner's coordinate-sum tie-break. A k-skyband scan visits the whole
// index in the worst case, so the retrieval polls ctx every few fetches and
// aborts with an error wrapping ctx.Err() once the context is done.
func KSkybandForCtx(ctx context.Context, tree *rtree.Tree, w geom.Vector, k int) ([]Member, error) {
	// At radius +Inf rho-dominance is plain dominance (see RhoPruner.Reset).
	return scan(ctx, tree, w, k, math.Inf(1))
}

// Skyline computes the traditional skyline (the 1-skyband).
func Skyline(tree *rtree.Tree) []Member {
	return KSkyband(tree, 1)
}

// RhoSkybandCtx computes the rho-skyband for a fixed radius rho around w:
// the records rho-dominated by fewer than k others (Definition of Section
// 3). It is the building block the complete ORD algorithm improves upon,
// and the reference the tests validate ORD against. The rho-skyband can
// hold a large fraction of an anticorrelated dataset, making this the
// longest single phase of ORU, so the retrieval polls ctx every few fetches
// and aborts with an error wrapping ctx.Err() once the context is done.
func RhoSkybandCtx(ctx context.Context, tree *rtree.Tree, w geom.Vector, k int, rho float64) ([]Member, error) {
	return scan(ctx, tree, w, k, rho)
}

// scan emits every record rho-dominated at rho by fewer than k others, in
// decreasing score for w, registering each with the pruner as it goes: the
// one scan loop of both skyband kinds. Its scanner and pruner come from
// scanPool and go back on every exit; the result is the caller's.
func scan(ctx context.Context, tree *rtree.Tree, w geom.Vector, k int, rho float64) ([]Member, error) {
	st := acquireScan()
	st.sc.Reset(tree, w)
	st.pr.Reset(w, k)
	st.pr.Rho = rho
	var out []Member
	for i := 0; ; i++ {
		if i%64 == 0 {
			select {
			case <-ctx.Done():
				releaseScan(st)
				return nil, fmt.Errorf("skyband: retrieval cancelled: %w", ctx.Err())
			default:
			}
		}
		id, p, ok := st.sc.Next(&st.pr)
		if !ok {
			releaseScan(st)
			return out, nil
		}
		st.pr.Add(p)
		out = append(out, Member{ID: id, Point: p})
	}
}

// MaxPooledBytes caps the scratch a pool keeps: an object whose buffers
// hold more is dropped on release instead of pooled, so one pathological
// query does not stay pinned in memory for the queries after it. An
// oru-nba8-shaped ORU query (NBA d = 8, k = 2, m = 10) leaves an explorer
// workspace of 1–3 MB and BenchmarkDefaultsORU's about half the time less
// than 9 MB, while ANTI 50K×4 at k = 5 leaves 30–250 MB and duplicate-heavy
// data at d = 5 over 100 MB within 20 partitions. Pooling
// BenchmarkDefaultsORU's larger workspaces too (a 64 MB cap) saved under
// 6% of its allocations.
const MaxPooledBytes = 8 << 20

// scanState is the pooled state of one scan: the scanner's key heap, slab
// and free list, and the pruner's record list and workspace.
type scanState struct {
	sc Scanner
	pr RhoPruner
}

var scanPool sync.Pool

// acquireScan returns a pooled scanState, or a new one.
func acquireScan() *scanState {
	if st, ok := scanPool.Get().(*scanState); ok {
		return st
	}
	return &scanState{}
}

// releaseScan drops st's references to the dataset and returns it to
// scanPool, unless its buffers outgrew MaxPooledBytes.
func releaseScan(st *scanState) {
	st.sc.Reset(nil, nil)
	st.pr.Reset(nil, 0)
	if st.sc.Footprint()+st.pr.Footprint() > MaxPooledBytes {
		return
	}
	scanPool.Put(st)
}
