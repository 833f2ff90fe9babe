package hull

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// clampedPoints draws coordinates around 0.5 and clamps them to [0, 1], so
// about a fifth of all coordinates sit exactly on a bound.
func clampedPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = min(1, max(0, 0.5+0.4*rng.NormFloat64()))
		}
		pts[i] = p
	}
	return pts
}

// builderPeel peels layers with a fresh Builder hull per layer: the
// reference for the pairwise peel.
func builderPeel(ids []int, pts []geom.Vector) []*Upper {
	var layers []*Upper
	for len(ids) > 0 {
		u := ComputeUpper(ids, pts)
		layers = append(layers, u)
		var restIDs []int
		var restPts []geom.Vector
		for i, id := range ids {
			if !slices.Contains(u.MemberIDs, id) {
				restIDs = append(restIDs, id)
				restPts = append(restPts, pts[i])
			}
		}
		ids, pts = restIDs, restPts
	}
	return layers
}

// TestPairwiseLayersMatchBuilder: at d >= PairwiseDim, Layers peels by one
// QP per record. On inputs without exact duplicates it must find the same
// members per layer as a Builder peel, and its adjacency must contain the
// Builder's co-facet adjacency.
func TestPairwiseLayersMatchBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	gens := map[string]func(n, d int) []geom.Vector{
		"random":  func(n, d int) []geom.Vector { return randPoints(rng, n, d) },
		"ANTI":    func(n, d int) []geom.Vector { return data.Synthetic(data.ANTI, n, d, rng.Int63()) },
		"clamped": func(n, d int) []geom.Vector { return clampedPoints(rng, n, d) },
	}
	for _, name := range []string{"random", "ANTI", "clamped"} {
		for _, d := range []int{5, 6, 8} {
			for trial := 0; trial < 2; trial++ {
				pts := gens[name](40, d)
				ids := seqIDs(len(pts))
				want := builderPeel(ids, pts)
				ls := NewLayers(ids, pts)
				for li, wl := range want {
					got := ls.Layer(li)
					if got == nil {
						t.Fatalf("%s d=%d trial %d: pairwise peel ends at layer %d of %d", name, d, trial, li, len(want))
					}
					if !reflect.DeepEqual(got.MemberIDs, wl.MemberIDs) {
						t.Fatalf("%s d=%d trial %d layer %d: pairwise members %v, Builder %v", name, d, trial, li, got.MemberIDs, wl.MemberIDs)
					}
					for _, id := range wl.MemberIDs {
						for _, o := range wl.Adj(id) {
							if !slices.Contains(got.Adj(id), o) {
								t.Fatalf("%s d=%d trial %d layer %d: Builder adj %d-%d missing from pairwise row %v", name, d, trial, li, id, o, got.Adj(id))
							}
						}
					}
				}
				if ls.Layer(len(want)) != nil {
					t.Fatalf("%s d=%d trial %d: pairwise peel has more than the Builder's %d layers", name, d, trial, len(want))
				}
			}
		}
	}
}

// TestPairwiseLayersShareDuplicates: exact duplicates impose no constraint
// on each other, so every copy lands in the same layer and each copy's Adj
// row lists the others.
func TestPairwiseLayersShareDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	d := 6
	pool := randPoints(rng, 20, d)
	var pts []geom.Vector
	for i := 0; i < 3; i++ {
		pts = append(pts, pool...)
	}
	ls := NewLayers(seqIDs(len(pts)), pts)
	for id := range pool {
		l0, _ := ls.LayerOf(id)
		for c := 1; c < 3; c++ {
			copyID := id + c*len(pool)
			if lc, _ := ls.LayerOf(copyID); lc != l0 {
				t.Fatalf("record %d on layer %d, its copy %d on layer %d", id, l0, copyID, lc)
			}
			found := false
			for _, o := range ls.Layer(l0).Adj(id) {
				found = found || o == copyID
			}
			if !found {
				t.Fatalf("copy %d missing from Adj[%d]", copyID, id)
			}
		}
	}
}

// TestExtremesMatchMemberCount: on the IRD fetch order ORU's rho-bar
// estimate consumes, the pairwise count equals Builder.MemberCount at every
// checkpoint of the estimate's stopping rule (m = 10: the 10th fetch, then
// every 8th) up to 34 fetches.
func TestExtremesMatchMemberCount(t *testing.T) {
	nba := data.NBA(5000, 1)
	for _, d := range []int{5, 6, 7, 8} {
		sets := map[string][]geom.Vector{"IND": data.Synthetic(data.IND, 5000, d, int64(d))}
		proj := make([]geom.Vector, len(nba))
		for i, p := range nba {
			proj[i] = p[:d]
		}
		sets["NBA"] = proj
		for name, pts := range sets {
			tree := rtree.BulkLoad(pts)
			rng := rand.New(rand.NewSource(int64(143 + d)))
			for q := 0; q < 2; q++ {
				w := geom.RandSimplex(rng, d)
				ird := skyband.NewIRD(tree, w, 1)
				b, x := NewBuilder(d), NewExtremes(d)
				for fetched := 1; fetched <= 34; fetched++ {
					rel, ok, err := ird.NextCtx(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					b.Add(rel.ID, rel.Point)
					x.Add(rel.ID, rel.Point)
					if fetched >= 10 && (fetched-10)%8 == 0 {
						if got, want := x.MemberCount(), b.MemberCount(); got != want {
							t.Fatalf("%s d=%d query %d after %d fetches: pairwise count %d, Builder %d", name, d, q, fetched, got, want)
						}
					}
				}
			}
		}
	}
}

// TestExtremesSkipDuplicates: a record whose coordinates equal an earlier
// one's is not counted, as the Builder does not count it.
func TestExtremesSkipDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	pts := randPoints(rng, 30, 5)
	b, x := NewBuilder(5), NewExtremes(5)
	for i := 0; i < 2; i++ {
		for id, p := range pts {
			b.Add(id+i*len(pts), p)
			x.Add(id+i*len(pts), p)
		}
	}
	if got, want := x.MemberCount(), b.MemberCount(); got != want {
		t.Fatalf("pairwise count %d, Builder %d", got, want)
	}
}
