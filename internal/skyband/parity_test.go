package skyband

import (
	"fmt"
	"math/rand"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/rtree/legacy"
	"ordu/internal/xheap"
)

// oracleEntry mirrors scanEntry over the legacy pointer tree: same keys
// (score, coordinate-sum tie-break, push sequence), same heap implementation.
type oracleEntry struct {
	score float64
	sum   float64
	node  *legacy.Node
	id    int
	pt    geom.Vector
	seq   uint64
}

func (e oracleEntry) Less(o oracleEntry) bool {
	if e.score != o.score { //ordlint:allow floatcmp — tie-break on stored keys
		return e.score > o.score
	}
	if e.sum != o.sum { //ordlint:allow floatcmp — tie-break on stored keys
		return e.sum > o.sum
	}
	for j := range e.pt {
		if e.pt[j] != o.pt[j] { //ordlint:allow floatcmp — tie-break on stored keys
			return e.pt[j] > o.pt[j]
		}
	}
	if (e.node == nil) != (o.node == nil) {
		return o.node == nil
	}
	return e.id < o.id
}

// oracleScanner is the pre-flat-layout BBS kept as the ordering oracle
// (heaporder_test.go pattern): it must pop records in exactly the same
// order as Scanner over the structurally identical flat tree.
type oracleScanner struct {
	w   geom.Vector
	h   xheap.Heap[oracleEntry]
	seq uint64
}

func newOracleScanner(tree *legacy.Tree, w geom.Vector) *oracleScanner {
	s := &oracleScanner{w: w}
	if root := tree.Root(); root != nil {
		b, _ := tree.Bounds()
		s.push(oracleEntry{node: root, pt: b.TopCorner()})
	}
	return s
}

func (s *oracleScanner) push(e oracleEntry) {
	e.score = s.w.Dot(e.pt)
	e.sum = e.pt.Sum()
	e.seq = s.seq
	s.seq++
	s.h.Push(e)
}

func (s *oracleScanner) next(pruner Pruner) (int, geom.Vector, bool) {
	for s.h.Len() > 0 {
		e := s.h.Pop()
		if pruner != nil && pruner.Prune(e.pt) {
			continue
		}
		if e.node == nil {
			return e.id, e.pt, true
		}
		for _, ent := range e.node.Entries {
			if e.node.Level == 0 {
				s.push(oracleEntry{id: ent.ID, pt: geom.Vector(ent.Rect.Lo)})
			} else {
				s.push(oracleEntry{node: ent.Child, pt: ent.Rect.TopCorner()})
			}
		}
	}
	return 0, nil, false
}

// tiePoints draws quantized coordinates so that exact score and coordinate
// ties are frequent — the regime where pop order is most fragile.
func tiePoints(rng *rand.Rand, n, d, levels int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = float64(rng.Intn(levels)) / float64(levels-1)
		}
		pts[i] = p
	}
	return pts
}

// TestScannerPopOrderMatchesLegacy drives the flat-tree Scanner and the
// legacy-tree oracle through full unpruned scans of identical datasets and
// requires the identical record emission sequence — ids, points and order.
func TestScannerPopOrderMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, cfg := range []struct{ n, d, levels int }{
		{300, 2, 8},
		{1200, 3, 6},
		{800, 4, 4},
		{2000, 5, 16},
	} {
		pts := tiePoints(rng, cfg.n, cfg.d, cfg.levels)
		ft := rtree.BulkLoad(pts)
		lt := legacy.BulkLoad(pts)
		w := make(geom.Vector, cfg.d)
		for i := range w {
			w[i] = rng.Float64() + 0.1
		}
		sc := NewScanner(ft, w)
		or := newOracleScanner(lt, w)
		for i := 0; ; i++ {
			id, p, ok := sc.Next(nil)
			oid, op, ook := or.next(nil)
			if ok != ook {
				t.Fatalf("n=%d d=%d pop %d: exhaustion mismatch flat=%v legacy=%v", cfg.n, cfg.d, i, ok, ook)
			}
			if !ok {
				break
			}
			if id != oid || !p.Equal(op) {
				t.Fatalf("n=%d d=%d pop %d: flat (%d,%v) vs legacy (%d,%v)", cfg.n, cfg.d, i, id, p, oid, op)
			}
		}
	}
}

// TestKSkybandParityVsLegacy runs the k-skyband with the same pruner type
// over both scanners and requires identical member sequences, k = 1..4.
func TestKSkybandParityVsLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	pts := tiePoints(rng, 1500, 3, 10)
	ft := rtree.BulkLoad(pts)
	lt := legacy.BulkLoad(pts)
	for k := 1; k <= 4; k++ {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			got := KSkyband(ft, k)
			w := make(geom.Vector, 3)
			for i := range w {
				w[i] = 1.0 / 3
			}
			or := newOracleScanner(lt, w)
			pr := NewSkybandPruner(k)
			var want []Member
			for {
				id, p, ok := or.next(pr)
				if !ok {
					break
				}
				pr.Add(p)
				want = append(want, Member{ID: id, Point: p})
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d members vs legacy %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || !got[i].Point.Equal(want[i].Point) {
					t.Fatalf("k=%d member %d: (%d,%v) vs legacy (%d,%v)",
						k, i, got[i].ID, got[i].Point, want[i].ID, want[i].Point)
				}
			}
		})
	}
}

// TestRhoSkybandParityVsLegacy repeats the parity check for the rho-skyband
// pruner, whose mindist calls make it the pruner ORD actually runs with.
func TestRhoSkybandParityVsLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := tiePoints(rng, 900, 3, 12)
	ft := rtree.BulkLoad(pts)
	lt := legacy.BulkLoad(pts)
	w := geom.Vector{0.5, 0.3, 0.2}
	for _, rho := range []float64{0.05, 0.2} {
		got := rhoSkyband(t, ft, w, 3, rho)
		or := newOracleScanner(lt, w)
		pr := NewRhoPruner(w, 3)
		pr.Rho = rho
		var want []Member
		for {
			id, p, ok := or.next(pr)
			if !ok {
				break
			}
			pr.Add(p)
			want = append(want, Member{ID: id, Point: p})
		}
		if len(got) != len(want) {
			t.Fatalf("rho=%v: %d members vs legacy %d", rho, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("rho=%v member %d: id %d vs legacy %d", rho, i, got[i].ID, want[i].ID)
			}
		}
	}
}
