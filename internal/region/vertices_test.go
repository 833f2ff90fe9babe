package region

import (
	"math"
	"math/rand"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/linalg"
	"ordu/internal/raceflag"
)

// bruteVertices returns every vertex of the simplex intersected with hs:
// the solutions of each (d-1)-subset of the rows (axis rows v_i >= 0
// first) held with equality, together with sum(v) = 1, that satisfy every
// row within tol.
func bruteVertices(d int, hs []Halfspace, tol float64) []geom.Vector {
	rows := make([]Halfspace, 0, d+len(hs))
	for i := 0; i < d; i++ {
		e := make(geom.Vector, d)
		e[i] = 1
		rows = append(rows, Halfspace{A: e})
	}
	rows = append(rows, hs...)
	var out []geom.Vector
	pick := make([]int, d-1)
	var walk func(at, from int)
	walk = func(at, from int) {
		if at == d-1 {
			A := make([][]float64, d)
			b := make([]float64, d)
			for i, r := range pick {
				A[i], b[i] = rows[r].A, rows[r].B
			}
			A[d-1] = geom.SimplexOnes(d)
			b[d-1] = 1
			v, err := linalg.Solve(A, b)
			if err != nil {
				return
			}
			for _, r := range rows {
				if geom.Vector(r.A).Dot(v) < r.B-tol {
					return
				}
			}
			out = append(out, v)
			return
		}
		for r := from; r < len(rows); r++ {
			pick[at] = r
			walk(at+1, r+1)
		}
	}
	walk(0, 0)
	return out
}

// checkList compares the list against the brute-force vertices of the
// simplex intersected with hs.
func checkList(t *testing.T, name string, vl *Vertices, d int, hs []Halfspace) {
	t.Helper()
	const tol = 1e-9
	n := len(vl.tight)
	if len(vl.pts) != n*d || n == 0 {
		t.Fatalf("%s: %d points over %d coordinates", name, n, len(vl.pts))
	}
	for i := 0; i < n; i++ {
		p := geom.Vector(vl.pts[i*d : (i+1)*d])
		if math.Abs(p.Sum()-1) > tol {
			t.Fatalf("%s: listed point %v off the simplex plane", name, p)
		}
		for j, x := range p {
			if x < -tol {
				t.Fatalf("%s: listed point %v violates v_%d >= 0", name, p, j)
			}
		}
		for j, h := range hs {
			if s := geom.Vector(h.A).Dot(p) - h.B; s < -tol {
				t.Fatalf("%s: listed point %v violates row %d by %g", name, p, j, -s)
			}
		}
	}
	verts := bruteVertices(d, hs, tol)
	for _, v := range verts {
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			far := 0.0
			for j := 0; j < d; j++ {
				far = max(far, math.Abs(v[j]-vl.pts[i*d+j]))
			}
			best = min(best, far)
		}
		if best > tol {
			t.Fatalf("%s: vertex %v is %g from every listed point", name, v, best)
		}
	}
	// The list's minimum of a linear function is the vertices' minimum.
	a := make(geom.Vector, d)
	for j := range a {
		a[j] = math.Sin(float64(7*j + n))
	}
	want := math.Inf(1)
	for _, v := range verts {
		want = min(want, a.Dot(v))
	}
	if got := vl.Min(a); math.Abs(got-want) > tol {
		t.Fatalf("%s: Min = %.12g, brute-force vertices give %.12g", name, got, want)
	}
}

// gridRecord draws a record with every coordinate in {0, 1/4, ..., 1}.
func gridRecord(rng *rand.Rand, d int) geom.Vector {
	p := make(geom.Vector, d)
	for j := range p {
		p[j] = float64(rng.Intn(5)) / 4
	}
	return p
}

// clipRows draws the rows of one test region of the given kind, each
// oriented to hold at the point c so that the region stays non-empty.
func clipRows(rng *rand.Rand, kind string, c geom.Vector, n int) []Halfspace {
	d := len(c)
	var hs []Halfspace
	add := func(h Halfspace) {
		if h.A.Dot(c) < h.B {
			h = Halfspace{A: h.A.Scale(-1), B: -h.B}
		}
		hs = append(hs, h)
	}
	normal := func() geom.Vector {
		a := make(geom.Vector, d)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		return a
	}
	for len(hs) < n {
		switch kind {
		case "beat":
			// "p beats q" rows of records in the unit cube, as ORU clips.
			p, q := make(geom.Vector, d), make(geom.Vector, d)
			for j := range p {
				p[j], q[j] = rng.Float64(), rng.Float64()
			}
			add(Beat(p, q))
		case "general":
			add(Halfspace{A: normal(), B: rng.NormFloat64() * 0.2})
		case "grid":
			// Records on a grid: ties, zero rows, rows through corners and
			// through each other's vertices.
			add(Beat(gridRecord(rng, d), gridRecord(rng, d)))
		case "duplicate":
			add(Beat(gridRecord(rng, d), gridRecord(rng, d)))
			hs = append(hs, hs[len(hs)-1])
		case "parallel":
			// A slab: a row, the same row scaled, and a parallel row on
			// the other side of c.
			add(Halfspace{A: normal(), B: rng.NormFloat64() * 0.1})
			h := hs[len(hs)-1]
			hs = append(hs, Halfspace{A: h.A.Scale(2), B: 2 * h.B})
			add(Halfspace{A: h.A.Scale(-1), B: -h.A.Dot(c) - 0.1})
		case "corner":
			// A row whose plane passes through a simplex corner.
			a := normal()
			add(Halfspace{A: a, B: a[rng.Intn(d)]})
		}
	}
	return hs[:n]
}

// TestVerticesMatchBruteForce: after every clip, the list holds a point
// within 1e-9 of each vertex that brute force finds, and every listed
// point satisfies every row within 1e-9, on random and degenerate regions
// at d = 2, 3 and 4.
func TestVerticesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	kinds := []string{"beat", "general", "grid", "duplicate", "parallel", "corner"}
	for d := 2; d <= 4; d++ {
		for _, kind := range kinds {
			clipped, gaveUp := 0, 0
			for trial := 0; trial < 30; trial++ {
				hs := clipRows(rng, kind, geom.RandSimplex(rng, d), 10)
				var vl Vertices
				vl.Reset(d)
				checkList(t, "simplex", &vl, d, nil)
				for i, h := range hs {
					if !vl.Clip(h, d+i) {
						gaveUp++
						break
					}
					clipped++
					checkList(t, kind, &vl, d, hs[:i+1])
				}
			}
			t.Logf("d=%d %s: %d clips checked, %d lists given up", d, kind, clipped, gaveUp)
			if clipped < 200 {
				t.Errorf("d=%d %s: only %d of 300 clips kept a list", d, kind, clipped)
			}
		}
	}
}

// TestClipGivesUp: Clip drops the list when the region empties or goes
// flat, and when the row index passes the mask, but not for a row that
// holds on the whole simplex.
func TestClipGivesUp(t *testing.T) {
	var vl Vertices
	vl.Reset(3)
	if !vl.Clip(Halfspace{A: geom.Vector{0, 0, 0}}, 3) || len(vl.tight) != 3 {
		t.Fatal("a zero row changed the simplex")
	}
	if vl.Clip(Halfspace{A: geom.Vector{1, 0, 0}, B: 0.2}, rowBits) {
		t.Fatal("row past the mask width accepted")
	}
	vl.Reset(3)
	if !vl.Clip(Halfspace{A: geom.Vector{1, -1, 0}}, 3) {
		t.Fatal("v1 >= v2 gave the list up")
	}
	if vl.Clip(Halfspace{A: geom.Vector{-1, 1, 0}}, 4) {
		t.Fatal("v1 = v2, a segment, kept the list")
	}
	vl.Reset(3)
	if vl.Clip(Halfspace{A: geom.Vector{1, 0, 0}, B: 1.5}, 3) {
		t.Fatal("an empty region kept the list")
	}
	// A corner 2e-12 wide, and a plane through it that no point is more
	// than 2e-13 from: a region flat within clipTol.
	vl.Reset(3)
	if !vl.Clip(Halfspace{A: geom.Vector{1, 0, 0}, B: 1 - 2e-12}, 3) {
		t.Fatal("a corner wider than the tolerance gave the list up")
	}
	if vl.Clip(Halfspace{A: geom.Vector{0, 0.1, -0.1}}, 4) {
		t.Fatal("a region flat within the tolerance kept the list")
	}
}

// TestScreen: the screen's verdicts on a region it can settle.
func TestScreen(t *testing.T) {
	var vl Vertices
	vl.Reset(3)
	vl.Clip(Halfspace{A: geom.Vector{1, 0, 0}, B: 0.5}, 3) // v1 >= 0.5
	for _, c := range []struct {
		name       string
		hs         []Halfspace
		miss, meet bool
	}{
		{"v2 >= 0.6 misses", []Halfspace{{A: geom.Vector{0, 1, 0}, B: 0.6}}, true, false},
		{"v1 >= 0.9 meets", []Halfspace{{A: geom.Vector{1, 0, 0}, B: 0.9}}, false, true},
		{"v2 >= 0.5 touches", []Halfspace{{A: geom.Vector{0, 1, 0}, B: 0.5}}, false, false},
		{"no rows meets", nil, false, true},
	} {
		if miss, meet := vl.Screen(c.hs, 1e-8); miss != c.miss || meet != c.meet {
			t.Errorf("%s: Screen = (%v, %v), want (%v, %v)", c.name, miss, meet, c.miss, c.meet)
		}
	}
}

// TestClipNoAllocs: once a list has been through a clip sequence, the same
// sequence from Reset, and a CopyFrom, allocate nothing.
func TestClipNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rng := rand.New(rand.NewSource(62))
	hs := clipRows(rng, "beat", geom.RandSimplex(rng, 4), 12)
	var vl, cp Vertices
	run := func() {
		vl.Reset(4)
		for i, h := range hs {
			if !vl.Clip(h, 4+i) {
				break
			}
		}
		cp.CopyFrom(&vl)
	}
	run() // warm-up
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("warmed clip sequence allocates %.1f times per run, want 0", avg)
	}
}
