package skyband

import (
	"context"
	"fmt"

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
	return scan(ctx, tree, w, NewSkybandPruner(k))
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
	pr := NewRhoPruner(w, k)
	pr.Rho = rho
	return scan(ctx, tree, w, pr)
}

// scan emits every record surviving pr in decreasing score for w,
// registering each with pr as it goes: the one scan loop of both skyband
// kinds.
func scan(ctx context.Context, tree *rtree.Tree, w geom.Vector, pr interface {
	Pruner
	Add(p geom.Vector)
}) ([]Member, error) {
	sc := NewScanner(tree, w)
	var out []Member
	for i := 0; ; i++ {
		if i%64 == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("skyband: retrieval cancelled: %w", ctx.Err())
			default:
			}
		}
		id, p, ok := sc.Next(pr)
		if !ok {
			return out, nil
		}
		pr.Add(p)
		out = append(out, Member{ID: id, Point: p})
	}
}
