package skyband

import (
	"context"
	"math/rand"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// TestScanPoolBounded: releasing a scan drops every reference to the
// dataset, and a scan state whose buffers outgrew MaxPooledBytes is
// dropped instead of pooled.
func TestScanPoolBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2808))
	tree := rtree.BulkLoad(randPoints(rng, 3000, 3))
	w := geom.Vector{0.2, 0.3, 0.5}
	if _, err := KSkybandForCtx(context.Background(), tree, w, 3); err != nil {
		t.Fatal(err)
	}
	for x := scanPool.Get(); x != nil; x = scanPool.Get() {
		st := x.(*scanState)
		if st.sc.tree != nil || st.sc.w != nil || st.pr.W != nil {
			t.Fatal("a pooled scan state still refers to the dataset or the seed")
		}
		for _, e := range st.sc.slab[:cap(st.sc.slab)] {
			if e.pt != nil {
				t.Fatal("a pooled scanner's slab still holds a point")
			}
		}
		for _, r := range st.pr.recs[:cap(st.pr.recs)] {
			if r != nil {
				t.Fatal("a pooled pruner still holds a record")
			}
		}
	}

	big := acquireScan()
	big.pr.recs = make([]geom.Vector, 0, MaxPooledBytes/24+1)
	releaseScan(big)
	for x := scanPool.Get(); x != nil; x = scanPool.Get() {
		if x.(*scanState) == big {
			t.Fatal("a scan state over the cap went back to the pool")
		}
	}
}
