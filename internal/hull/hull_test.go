package hull

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/qp"
)

func randPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestUpper2DKnown(t *testing.T) {
	// Square corners plus centre: upper hull is the two maximal corners
	// (0,1) and (1,0) plus (1,1)... here use a classic staircase.
	pts := []geom.Vector{
		{0.1, 0.9}, // 0: on upper hull
		{0.5, 0.7}, // 1: on upper hull (above segment 0-3? check: segment
		// from (0.1,0.9) to (0.9,0.1) at x=0.5 has y=0.5 < 0.7 -> yes)
		{0.3, 0.3}, // 2: interior
		{0.9, 0.1}, // 3: on upper hull
		{0.4, 0.4}, // 4: interior
	}
	u := ComputeUpper(seqIDs(len(pts)), pts)
	want := []int{0, 1, 3}
	if !equalIntSlices(u.MemberIDs, want) {
		t.Fatalf("members = %v, want %v", u.MemberIDs, want)
	}
	// Adjacency along the chain: 0-1, 1-3.
	if !equalIntSlices(u.Adj(1), []int{0, 3}) {
		t.Errorf("Adj(1) = %v", u.Adj(1))
	}
	if !equalIntSlices(u.Adj(0), []int{1}) || !equalIntSlices(u.Adj(3), []int{1}) {
		t.Errorf("chain ends adjacency wrong: %v %v", u.Adj(0), u.Adj(3))
	}
	// Interior records have no row.
	if u.Adj(2) != nil || u.Adj(4) != nil {
		t.Errorf("interior rows: Adj(2) = %v, Adj(4) = %v", u.Adj(2), u.Adj(4))
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// simplexProblem returns a projection QP over the simplex of dimension d,
// targeting the all-ones vector (which projects as the centroid does);
// callers append their own rows.
func simplexProblem(d int) *qp.Problem {
	return &qp.Problem{
		P:   geom.SimplexOnes(d),
		EqA: [][]float64{geom.SimplexOnes(d)},
		EqB: []float64{1},
		InA: append([][]float64(nil), geom.SimplexAxes(d)...),
		InB: append([]float64(nil), geom.SimplexZeros(d)...),
	}
}

// definitionMember is the membership oracle, taken from the definition
// rather than from any hull: pts[i] is a member iff some simplex vector v
// has (pts[i] - q).v >= 0 for every other record q. One feasibility QP over
// the simplex with one row per other record decides it.
func definitionMember(pts []geom.Vector, i int) bool {
	pr := simplexProblem(len(pts[i]))
	for j, q := range pts {
		if j != i {
			pr.InA = append(pr.InA, pts[i].Sub(q))
			pr.InB = append(pr.InB, 0)
		}
	}
	return qp.Feasible(pr)
}

// adjRowsMiss samples simplex vectors and returns a description of the
// first one at which some member beats every record of its Adj row, yet
// trails another record by more than 1e-9: the rows would then not bound
// the member's top-region. It returns "" when no sample shows a miss.
func adjRowsMiss(rng *rand.Rand, u *Upper, pts []geom.Vector, samples int) string {
	scores := make([]float64, len(pts))
	for s := 0; s < samples; s++ {
		v := geom.RandSimplex(rng, len(pts[0]))
		best := math.Inf(-1)
		for i, p := range pts {
			scores[i] = p.Dot(v)
			best = max(best, scores[i])
		}
		for _, id := range u.MemberIDs {
			beatsRow := true
			for _, a := range u.Adj(id) {
				beatsRow = beatsRow && scores[id] >= scores[a]
			}
			if beatsRow && scores[id] < best-1e-9 {
				return fmt.Sprintf("member %d beats its row %v at %v but trails the best score by %g", id, u.Adj(id), v, best-scores[id])
			}
		}
	}
	return ""
}

// TestUpperStructure checks members and adjacency against the definition
// on random data at d = 2..8, both for the Builder's hull and for layer 0
// of Layers (the Builder below PairwiseDim, the pairwise peel from it):
//
//   - a record is a member iff definitionMember says so, for every record,
//     not only for the hull's vertices;
//   - a member that beats every record of its Adj row at a sampled simplex
//     vector beats every record there, within 1e-9;
//   - adjacency is symmetric and lists members only.
func TestUpperStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for d := 2; d <= 8; d++ {
		n := 80
		if d >= PairwiseDim {
			n = 40
		}
		for trial := 0; trial < 3; trial++ {
			pts := randPoints(rng, n, d)
			ids := seqIDs(len(pts))
			for _, hl := range []struct {
				name string
				u    *Upper
			}{{"Builder", ComputeUpper(ids, pts)}, {"Layer(0)", NewLayers(ids, pts).Layer(0)}} {
				u := hl.u
				for i := range pts {
					if got, want := slices.Contains(u.MemberIDs, i), definitionMember(pts, i); got != want {
						t.Fatalf("d=%d trial %d %s: record %d member = %v, definition says %v", d, trial, hl.name, i, got, want)
					}
				}
				if miss := adjRowsMiss(rng, u, pts, 400); miss != "" {
					t.Fatalf("d=%d trial %d %s: %s", d, trial, hl.name, miss)
				}
				for _, id := range u.MemberIDs {
					for _, o := range u.Adj(id) {
						if !slices.Contains(u.MemberIDs, o) {
							t.Fatalf("d=%d %s: Adj(%d) lists non-member %d", d, hl.name, id, o)
						}
						if !slices.Contains(u.Adj(o), id) {
							t.Fatalf("d=%d %s: adjacency not symmetric: %d->%d", d, hl.name, id, o)
						}
					}
				}
			}
		}
	}
}

// TestMembersWinSomewhere: every member's Adj rows leave it a non-empty
// top-region, and at the points of that region nearest each simplex corner
// and the centroid (its extreme points, where a missing row would show
// first) the member scores at least as high as every record, within 1e-9.
func TestMembersWinSomewhere(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{2, 3, 4, 5, 6} {
		pts := randPoints(rng, 80, d)
		u := ComputeUpper(seqIDs(len(pts)), pts)
		targets := append([][]float64{geom.SimplexOnes(d)}, geom.SimplexAxes(d)...)
		for _, id := range u.MemberIDs {
			pr := simplexProblem(d)
			for _, a := range u.Adj(id) {
				pr.InA = append(pr.InA, pts[id].Sub(pts[a]))
				pr.InB = append(pr.InB, 0)
			}
			for _, target := range targets {
				pr.P = target
				v, _, err := qp.Solve(pr)
				if err != nil {
					t.Fatalf("d=%d: member %d has an empty top-region under its rows %v", d, id, u.Adj(id))
				}
				my := pts[id].Dot(v)
				for i, p := range pts {
					if p.Dot(v) > my+1e-9 {
						t.Fatalf("d=%d: member %d loses to %d by %g at %v, inside its rows %v", d, id, i, p.Dot(v)-my, v, u.Adj(id))
					}
				}
			}
		}
	}
}

func TestDegenerateSmallSets(t *testing.T) {
	// Fewer than d points in d=4: degenerate hull, maximal-point fallback.
	pts := []geom.Vector{
		{0.9, 0.1, 0.5, 0.5},
		{0.1, 0.9, 0.5, 0.5},
		{0.2, 0.2, 0.2, 0.2}, // dominated by neither, but weak everywhere
	}
	u := ComputeUpper(seqIDs(3), pts)
	if len(u.MemberIDs) == 0 {
		t.Fatal("degenerate set produced no members")
	}
	// The two strong points must be members.
	m := map[int]bool{}
	for _, id := range u.MemberIDs {
		m[id] = true
	}
	if !m[0] || !m[1] {
		t.Fatalf("members %v missing strong points", u.MemberIDs)
	}
}

func TestSinglePoint(t *testing.T) {
	u := ComputeUpper([]int{7}, []geom.Vector{{0.5, 0.5}})
	if !equalIntSlices(u.MemberIDs, []int{7}) {
		t.Fatalf("members = %v", u.MemberIDs)
	}
	if len(u.Adj(7)) != 0 || u.Adj(8) != nil {
		t.Errorf("Adj(7) = %v, Adj(8) = %v; want an empty row and none", u.Adj(7), u.Adj(8))
	}
}

func TestEmptyInput(t *testing.T) {
	u := ComputeUpper(nil, nil)
	if len(u.MemberIDs) != 0 {
		t.Fatal("empty input must give empty hull")
	}
}

func TestDominatedPointNeverMember(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		d := 2 + rng.Intn(4)
		pts := randPoints(rng, 50, d)
		// Add a point strictly dominated by pts[0].
		weak := pts[0].Clone()
		for j := range weak {
			weak[j] -= 0.05
		}
		pts = append(pts, weak)
		u := ComputeUpper(seqIDs(len(pts)), pts)
		if slices.Contains(u.MemberIDs, len(pts)-1) || u.Adj(len(pts)-1) != nil {
			t.Fatalf("d=%d: dominated point on upper hull", d)
		}
	}
}

func TestLayersPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, d := range []int{2, 3, 4} {
		pts := randPoints(rng, 150, d)
		ls := NewLayers(seqIDs(len(pts)), pts)
		seen := map[int]int{}
		for t1 := 0; ; t1++ {
			u := ls.Layer(t1)
			if u == nil {
				break
			}
			if len(u.MemberIDs) == 0 {
				t.Fatal("empty non-nil layer")
			}
			for _, id := range u.MemberIDs {
				if prev, dup := seen[id]; dup {
					t.Fatalf("id %d on layers %d and %d", id, prev, t1)
				}
				seen[id] = t1
			}
		}
		if len(seen) != len(pts) {
			t.Fatalf("d=%d: layers cover %d of %d records", d, len(seen), len(pts))
		}
		// LayerOf agrees.
		for id, li := range seen {
			got, ok := ls.LayerOf(id)
			if !ok || got != li {
				t.Fatalf("LayerOf(%d) = %d,%v want %d", id, got, ok, li)
			}
		}
		if _, ok := ls.LayerOf(99999); ok {
			t.Error("unknown id resolved")
		}
	}
}

// TestLayersTopKCoverage: the union of the first k layers must contain the
// top-k records for any preference vector (each layer contributes at least
// one record ranked above anything in deeper layers).
func TestLayersTopKCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	d := 3
	pts := randPoints(rng, 200, d)
	ls := NewLayers(seqIDs(len(pts)), pts)
	k := 4
	inFirstK := map[int]bool{}
	for t1 := 0; t1 < k; t1++ {
		u := ls.Layer(t1)
		if u == nil {
			break
		}
		for _, id := range u.MemberIDs {
			inFirstK[id] = true
		}
	}
	for s := 0; s < 200; s++ {
		v := geom.RandSimplex(rng, d)
		type sc struct {
			id int
			s  float64
		}
		all := make([]sc, len(pts))
		for i, p := range pts {
			all[i] = sc{i, p.Dot(v)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
		for r := 0; r < k; r++ {
			if !inFirstK[all[r].id] {
				t.Fatalf("top-%d record %d for %v not in first %d layers", r+1, all[r].id, v, k)
			}
		}
	}
}

func TestBuilderIncrementalMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	d := 3
	pts := randPoints(rng, 80, d)
	b := NewBuilder(d)
	for i, p := range pts {
		b.Add(i, p)
	}
	inc := b.Upper()
	oneShot := ComputeUpper(seqIDs(len(pts)), pts)
	if !equalIntSlices(inc.MemberIDs, oneShot.MemberIDs) {
		t.Fatalf("incremental members %v != one-shot %v", inc.MemberIDs, oneShot.MemberIDs)
	}
}

func TestVertexCountMonotone(t *testing.T) {
	d := 2
	b := NewBuilder(d)
	// Points on a concave-down curve: all on the upper hull.
	for i := 0; i < 20; i++ {
		x := float64(i) / 19
		y := math.Sqrt(1 - x*x)
		b.Add(i, geom.Vector{x, y})
		if got := b.MemberCount(); got != i+1 {
			t.Fatalf("after %d circle points, MemberCount = %d", i+1, got)
		}
	}
}

func TestNewBuilderPanicsOnLowDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for d<2")
		}
	}()
	NewBuilder(1)
}

// TestBuilderRejectsHighDim: the Builder takes at most 9 dimensions, the
// most its ridge keys hold; NewBuilder and Reset both enforce it.
func TestBuilderRejectsHighDim(t *testing.T) {
	for name, f := range map[string]func(){
		"NewBuilder": func() { NewBuilder(10) },
		"Reset":      func() { NewBuilder(9).Reset(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for d=10", name)
				}
			}()
			f()
		}()
	}
}
