package skyband

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// TestIRDLargeK: k larger than the dataset means nothing is ever
// dominated; IRD must release everything at radius 0.
func TestIRDLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	pts := randPoints(rng, 30, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	ird := NewIRD(tr, w, 100)
	count := 0
	for {
		r, ok, err := ird.NextCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r.Radius != 0 {
			t.Fatalf("record %d released at radius %g, want 0", r.ID, r.Radius)
		}
		count++
	}
	if count != len(pts) {
		t.Fatalf("released %d of %d", count, len(pts))
	}
}

// TestIRDEmptyTree: no releases, no hang.
func TestIRDEmptyTree(t *testing.T) {
	tr := rtree.New(2)
	ird := NewIRD(tr, geom.Vector{0.5, 0.5}, 1)
	if _, ok, err := ird.NextCtx(context.Background()); err != nil || ok {
		t.Fatalf("empty tree: released a record (%v) or failed (%v)", ok, err)
	}
}

// TestMindistZeroRadiusSemantics: mindist is always >= 0 and a
// higher-scoring record always rho-dominates at radius 0.
func TestMindistZeroRadiusSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	for i := 0; i < 200; i++ {
		d := 2 + rng.Intn(5)
		w := geom.RandSimplex(rng, d)
		a, b := geom.Vector(randPoints(rng, 1, d)[0]), geom.Vector(randPoints(rng, 1, d)[0])
		if a.Dot(w) < b.Dot(w) {
			a, b = b, a
		}
		md := Mindist(w, b, a)
		if md < 0 {
			t.Fatalf("negative mindist %g", md)
		}
		if a.Dot(w) > b.Dot(w) && !RhoDominates(w, a, b, 0) {
			t.Fatal("higher scorer must dominate at radius 0")
		}
	}
}

// TestScannerObserverHooks: push/pop callbacks fire consistently (every
// pushed entry is eventually popped on a full scan).
func TestScannerObserverHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	pts := randPoints(rng, 120, 2)
	tr := rtree.BulkLoad(pts)
	w := geom.Vector{0.5, 0.5}
	sc := NewScanner(tr, w)
	pushed, popped := 0, 0
	sc.onPush = func(uint64, geom.Vector) { pushed++ }
	sc.onPop = func(uint64) { popped++ }
	for {
		if _, _, ok := sc.Next(nil); !ok {
			break
		}
	}
	// The root was pushed before hooks attached; allow off-by-one.
	if popped < pushed || popped > pushed+1 {
		t.Fatalf("pushed %d, popped %d", pushed, popped)
	}
	if sc.Visited() != popped {
		t.Fatalf("Visited %d != popped %d", sc.Visited(), popped)
	}
	if _, _, ok := sc.Next(nil); ok {
		t.Fatal("scanner yielded after a full drain")
	}
}

// TestRhoPrunerTightening: shrinking Rho only ever prunes more.
func TestRhoPrunerTightening(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	d := 3
	w := geom.RandSimplex(rng, d)
	pr := NewRhoPruner(w, 2)
	recs := randPoints(rng, 40, d)
	// Register the higher-scoring half.
	for _, r := range recs[:20] {
		pr.Add(r)
	}
	probe := randPoints(rng, 60, d)
	prunedAt := func(rho float64) int {
		pr.Rho = rho
		count := 0
		for _, p := range probe {
			if p.Dot(w) < 0.3 && pr.Prune(p) { // only clearly-low scorers
				count++
			}
		}
		return count
	}
	loose := prunedAt(0.5)
	tight := prunedAt(0.1)
	if tight < loose {
		t.Fatalf("tighter radius pruned less: %d < %d", tight, loose)
	}
	if pr.Size() != 20 {
		t.Fatalf("Size = %d", pr.Size())
	}
}

// TestKSkybandNestedInK: the k-skyband grows with k.
func TestKSkybandNestedInK(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	pts := randPoints(rng, 400, 3)
	tr := rtree.BulkLoad(pts)
	prev := map[int]bool{}
	for _, k := range []int{1, 2, 4, 8} {
		cur := map[int]bool{}
		for _, m := range KSkyband(tr, k) {
			cur[m.ID] = true
		}
		for id := range prev {
			if !cur[id] {
				t.Fatalf("skyband not nested: id %d lost at k=%d", id, k)
			}
		}
		if len(cur) <= len(prev) && k > 1 {
			t.Fatalf("skyband did not grow at k=%d", k)
		}
		prev = cur
	}
}

// TestMindistSymmetryOfTie: if two records tie at w, the mindist from w to
// their tie hyperplane is 0 in both directions.
func TestMindistTieAtSeed(t *testing.T) {
	w := geom.Vector{0.5, 0.5}
	a := geom.Vector{0.8, 0.2}
	b := geom.Vector{0.2, 0.8} // same score at w
	if md := Mindist(w, a, b); math.Abs(md) > 1e-9 {
		t.Fatalf("tie mindist = %g", md)
	}
	if md := Mindist(w, b, a); math.Abs(md) > 1e-9 {
		t.Fatalf("tie mindist = %g", md)
	}
}
