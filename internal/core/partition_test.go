package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/hull"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// TestPartitionMemoMatchesFreshHull: every L_upd hull the explorer keeps in
// its memo must equal the upper hull of the same candidate union built from
// scratch, and regions sharing a union must find it there instead of
// building it again. With NoPartitionBypass every partition with candidates
// builds or looks up a hull, so at width 1 (no speculative partitions) the
// memo holds fewer entries than RegionsPartitioned exactly when lookups hit.
func TestPartitionMemoMatchesFreshHull(t *testing.T) {
	cases := []struct {
		name string
		gen  func(*rand.Rand, int, int) []geom.Vector
		d    int
	}{{"IND/d=4", randPoints, 4}, {"ANTI/d=3", antiPoints, 3}}
	const n, k, m = 2000, 5, 20
	for _, c := range cases {
		rng := rand.New(rand.NewSource(int64(40 + c.d)))
		tr := rtree.BulkLoad(c.gen(rng, n, c.d))
		w := geom.RandSimplex(rng, c.d)
		rhoBar, _, _, err := estimateRhoBar(context.Background(), tr, w, m)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := skyband.RhoSkybandCtx(context.Background(), tr, w, k, rhoBar)
		if err != nil {
			t.Fatal(err)
		}
		ex := newExplorer(cands, w, k, nil)
		ex.noBypass = true
		ex.width = 1
		if !ex.seed() {
			t.Fatalf("%s: nothing to explore", c.name)
		}
		if _, err := ex.explore(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d partitions, %d distinct L_upd unions", c.name, ex.stats.RegionsPartitioned, len(ex.memo))
		if len(ex.memo) >= ex.stats.RegionsPartitioned {
			t.Errorf("%s: %d memo entries for %d partitions: no union was reused",
				c.name, len(ex.memo), ex.stats.RegionsPartitioned)
		}
		for key, upd := range ex.memo {
			b := hull.NewBuilder(c.d)
			for rest := []byte(key); len(rest) > 0; {
				id, sz := binary.Varint(rest)
				rest = rest[sz:]
				b.Add(int(id), ex.layers.Point(int(id)))
			}
			fresh := b.Upper()
			if !slices.Equal(upd.MemberIDs, fresh.MemberIDs) {
				t.Fatalf("%s: memo members %v, fresh hull %v", c.name, upd.MemberIDs, fresh.MemberIDs)
			}
			for _, id := range fresh.MemberIDs {
				if got := upd.Adj(id); !slices.Equal(got, fresh.Adj(id)) {
					t.Fatalf("%s: member %d: memo adjacency %v, fresh hull %v", c.name, id, got, fresh.Adj(id))
				}
			}
		}
	}
}

// TestWitnessInsideMargin: the witness screen certifies a point only when it
// clears every halfspace by more than witnessMargin, so points the QP could
// still call infeasible (slack at or near its tolerance) go to the QP.
func TestWitnessInsideMargin(t *testing.T) {
	// At w = (s, 1-s, 0) the first row has slack s exactly and the second
	// 1-s, which clears the margin for every s below.
	hs := []region.Halfspace{{A: geom.Vector{1, 0, 0}}, {A: geom.Vector{0, 1, 0}}}
	for _, c := range []struct {
		slack float64
		want  bool
	}{
		{0, false},
		{5e-9, false},
		{witnessMargin, false},
		{2e-8, true},
		{0.5, true},
	} {
		w := geom.Vector{c.slack, 1 - c.slack, 0}
		if got := witnessInside(w, hs); got != c.want {
			t.Errorf("slack %g: witnessInside = %v, want %v", c.slack, got, c.want)
		}
	}
}

// TestPartitionPruneSound: over every partition of a width-1 exploration
// that has a vertex list, each union member the in-region dominance prune
// drops gets an empty child when resolved against the full union, and each
// verdict the vertex flood screen reaches for a next-layer member matches
// the QP probe.
func TestPartitionPruneSound(t *testing.T) {
	const n, k, m = 2000, 4, 16
	for _, g := range []struct {
		name string
		gen  func(*rand.Rand, int, int) []geom.Vector
	}{{"IND", randPoints}, {"ANTI", antiPoints}, {"DUP", dupPoints}} {
		for _, d := range []int{3, 4} {
			name := fmt.Sprintf("%s/d=%d", g.name, d)
			rng := rand.New(rand.NewSource(int64(60 + d)))
			tr := rtree.BulkLoad(g.gen(rng, n, d))
			w := geom.RandSimplex(rng, d)
			cands, err := skyband.KSkybandForCtx(context.Background(), tr, w, k)
			if err != nil {
				t.Fatal(err)
			}
			ex := newExplorer(cands, w, k, nil)
			ex.width = 1
			if !ex.seed() {
				t.Fatalf("%s: nothing to explore", name)
			}
			var parts, withList, union, dropped, settled int
			var hs []region.Halfspace
			var back []float64
			ws := ex.ws
			for ex.h.Len() > 0 && len(ex.records) < m {
				nd := ex.pop()
				if !ex.joins(nd, nil) {
					ex.finalize(nd)
					continue
				}
				parts++
				if nd.verts {
					withList++
					all := slices.Clone(ex.union(nd, ws))
					kept := ex.prune(nd, ws, slices.Clone(all))
					union += len(all)
					for _, s := range all {
						if slices.Contains(kept, s) {
							continue
						}
						dropped++
						var rows []region.Halfspace
						for _, o := range all {
							if o != s {
								rows = append(rows, region.Beat(ex.layers.Point(s), ex.layers.Point(o)))
							}
						}
						if _, _, ok := nd.reg.ProbeMinDist(rows, nd.witness, &ws.reg); ok {
							t.Fatalf("%s: top %v: pruned member %d has a non-empty child against the union %v", name, nd.top, s, all)
						}
					}
					if lnext := ex.layers.Layer(nd.deepest + 1); lnext != nil {
						for _, id := range lnext.MemberIDs {
							hs, back = beatAllScratch(ex.layers, id, lnext.Adj(id), hs[:0], back)
							miss, meet := nd.vl.Screen(hs, witnessMargin)
							if !miss && !meet {
								continue
							}
							settled++
							_, _, ok := nd.reg.ProbeMinDist(hs, nd.witness, &ws.reg)
							if empty := !ok; empty != miss {
								t.Fatalf("%s: top %v: next-layer member %d: screen says miss=%v, the QP probe empty=%v", name, nd.top, id, miss, empty)
							}
						}
					}
				}
				kids := ex.partition(nd, ws)
				if nd.final {
					ex.h.Push(nd)
					continue
				}
				ws.recycle(nd)
				for _, c := range kids {
					ex.h.Push(c)
				}
			}
			t.Logf("%s: %d of %d partitions with a vertex list, union %d, dropped %d, %d screen verdicts", name, withList, parts, union, dropped, settled)
			if withList == 0 || dropped == 0 || settled == 0 {
				t.Errorf("%s: the vertex path went unexercised", name)
			}
		}
	}
}
