package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
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

// antiPoints generates anticorrelated data (records clustered around the
// hyperplane sum(x) = d/2), which yields large skylines/skybands and hence
// room for larger m in the tests.
func antiPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		s := 0.0
		for j := range p {
			p[j] = rng.Float64()
			s += p[j]
		}
		target := float64(d)/2 + (rng.Float64()-0.5)*0.2
		f := target / s
		for j := range p {
			p[j] = math.Min(1, math.Max(0, p[j]*f))
		}
		pts[i] = p
	}
	return pts
}

// dupPoints draws n records from a pool of n/4 distinct points, so most
// records share their coordinates with several others.
func dupPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pool := antiPoints(rng, n/4, d)
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = append(geom.Vector(nil), pool[rng.Intn(len(pool))]...)
	}
	return pts
}

// maxM returns the k-skyband size, the ceiling for ORD's output size.
func maxM(tr *rtree.Tree, k int) int {
	return len(skyband.KSkyband(tr, k))
}

func idSet(recs []Record) map[int]bool {
	s := make(map[int]bool, len(recs))
	for _, r := range recs {
		s[r.ID] = true
	}
	return s
}

func TestORDValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 50, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.Vector{0.3, 0.3, 0.4}
	if _, err := ORDCtx(context.Background(), tr, w, 5, 3); err == nil {
		t.Error("m < k accepted")
	}
	if _, err := ORDCtx(context.Background(), tr, geom.Vector{0.5, 0.5}, 1, 5); err == nil {
		t.Error("wrong-dimension seed accepted")
	}
	if _, err := ORDCtx(context.Background(), tr, w, 0, 5); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := ORDCtx(context.Background(), rtree.New(3), w, 1, 5); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := ORDCtx(context.Background(), tr, w, 1, 10000); err != ErrInsufficientData {
		t.Errorf("oversized m: err = %v", err)
	}
}

func TestORDOutputSizeAndRadii(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{2, 3, 4} {
		for _, k := range []int{1, 3} {
			pts := randPoints(rng, 400, d)
			tr := rtree.BulkLoad(pts)
			w := geom.RandSimplex(rng, d)
			sb := maxM(tr, k)
			for _, m := range []int{k, (k + sb) / 2, sb} {
				res, err := ORDCtx(context.Background(), tr, w, k, m)
				if err != nil {
					t.Fatalf("d=%d k=%d m=%d: %v", d, k, m, err)
				}
				if len(res.Records) != m {
					t.Fatalf("d=%d k=%d m=%d: got %d records (OSS violated)",
						d, k, m, len(res.Records))
				}
				for i := 1; i < m; i++ {
					if res.Radii[i] < res.Radii[i-1] {
						t.Fatal("radii not sorted")
					}
				}
				if res.Rho != res.Radii[m-1] {
					t.Fatal("Rho != max radius")
				}
			}
		}
	}
}

func TestORDMatchesBSL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		d := 2 + trial%3
		k := 1 + trial%3
		pts := randPoints(rng, 300, d)
		tr := rtree.BulkLoad(pts)
		w := geom.RandSimplex(rng, d)
		m := k + 5 + trial*2
		if sb := maxM(tr, k); m > sb {
			m = sb
		}
		fast, err := ORDCtx(context.Background(), tr, w, k, m)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := ORDBSL(tr, w, k, m)
		if err != nil {
			t.Fatal(err)
		}
		fs, ss := idSet(fast.Records), idSet(slow.Records)
		for id := range fs {
			if !ss[id] {
				t.Fatalf("trial %d: ORD id %d missing from BSL (rho %g vs %g)",
					trial, id, fast.Rho, slow.Rho)
			}
		}
		if math.Abs(fast.Rho-slow.Rho) > 1e-9 {
			t.Fatalf("trial %d: rho %g vs %g", trial, fast.Rho, slow.Rho)
		}
	}
}

// TestORDIsRhoSkyband: the ORD output must be exactly the rho-skyband just
// past the stopping radius.
func TestORDIsRhoSkyband(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		d := 2 + trial%3
		k := 1 + trial%2
		pts := antiPoints(rng, 250, d)
		tr := rtree.BulkLoad(pts)
		w := geom.RandSimplex(rng, d)
		m := 15
		if sb := maxM(tr, k); m > sb {
			m = sb
		}
		res, err := ORDCtx(context.Background(), tr, w, k, m)
		if err != nil {
			t.Fatal(err)
		}
		rho := res.Rho*(1+1e-9) + 1e-12
		want := map[int]bool{}
		for i, p := range pts {
			dom := 0
			si := p.Dot(w)
			for j, q := range pts {
				if i == j {
					continue
				}
				if q.Dot(w) > si && skyband.Mindist(w, p, q) >= rho {
					dom++
				}
			}
			if dom < k {
				want[i] = true
			}
		}
		got := idSet(res.Records)
		if len(got) != len(want) {
			t.Fatalf("trial %d: ORD %d records, brute rho-skyband %d",
				trial, len(got), len(want))
		}
		for id := range got {
			if !want[id] {
				t.Fatalf("trial %d: id %d not in brute rho-skyband", trial, id)
			}
		}
	}
}

// TestORDMinimality: rho is the minimum radius producing m records — just
// below it, the rho-skyband must be smaller than m.
func TestORDMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 300, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	k, m := 2, 20
	res, err := ORDCtx(context.Background(), tr, w, k, m)
	if err != nil {
		t.Fatal(err)
	}
	below, err := skyband.RhoSkybandCtx(context.Background(), tr, w, k, res.Rho*(1-1e-9))
	if err != nil {
		t.Fatal(err)
	}
	// At radius just below (and at) rho, the record with inflection radius
	// rho is not yet a member.
	if len(below) >= m {
		t.Fatalf("rho not minimal: %d records at rho-eps", len(below))
	}
}

func TestORDTopKAlwaysIncluded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 300, 4)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 4)
	k, m := 5, 30
	res, err := ORDCtx(context.Background(), tr, w, k, m)
	if err != nil {
		t.Fatal(err)
	}
	got := idSet(res.Records)
	// The top-k of w belong to every rho-skyband (Section 4.1 corollary).
	type sc struct {
		id int
		s  float64
	}
	all := make([]sc, len(pts))
	for i, p := range pts {
		all[i] = sc{i, p.Dot(w)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
	for r := 0; r < k; r++ {
		if !got[all[r].id] {
			t.Fatalf("top-%d record %d missing from ORD output", r+1, all[r].id)
		}
	}
}

// TestORDNestedInM checks ORDResult's prefix property, which ORU's
// rho-bar estimate relies on from hull.PairwiseDim up: the output for m is
// the first m records and radii of the output for any larger m, ties
// included. IND, clamped ANTI, grids and duplicates at d = 2 to 8, k = 1,
// 2 and 5, every m from k to the k-skyband's finite radii (at most 40).
func TestORDNestedInM(t *testing.T) {
	gens := []struct {
		name string
		gen  func(rng *rand.Rand, n, d int) []geom.Vector
	}{
		{"IND", randPoints},
		{"ANTI", antiPoints},
		{"GRID", func(rng *rand.Rand, n, d int) []geom.Vector { return gridPoints(n, d, rng.Int63()) }},
		{"DUP", dupPoints},
	}
	ctx := context.Background()
	checked := 0
	for gi, g := range gens {
		for d := 2; d <= 8; d++ {
			for _, k := range []int{1, 2, 5} {
				rng := rand.New(rand.NewSource(int64(1000*gi + 10*d + k)))
				tree := rtree.BulkLoad(g.gen(rng, 300, d))
				w := geom.RandSimplex(rng, d)
				all, _, err := ordScan(ctx, tree, w, k, tree.Len())
				if err != nil {
					t.Fatal(err)
				}
				top := min(len(all), 40)
				if top <= k {
					continue
				}
				full, err := ORDCtx(ctx, tree, w, k, top)
				if err != nil {
					t.Fatal(err)
				}
				for m := k; m < top; m++ {
					res, err := ORDCtx(ctx, tree, w, k, m)
					if err != nil {
						t.Fatal(err)
					}
					for i, r := range res.Records {
						if r.ID != full.Records[i].ID || math.Float64bits(res.Radii[i]) != math.Float64bits(full.Radii[i]) {
							t.Fatalf("%s d=%d k=%d m=%d: record %d is %d at radius %v, but %d at %v for m=%d",
								g.name, d, k, m, i, r.ID, res.Radii[i], full.Records[i].ID, full.Radii[i], top)
						}
					}
					if math.Float64bits(res.Rho) != math.Float64bits(full.Radii[m-1]) {
						t.Fatalf("%s d=%d k=%d m=%d: Rho %v, want the m-th radius %v", g.name, d, k, m, res.Rho, full.Radii[m-1])
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d prefixes checked", checked)
}

// --- ORU ---

func TestORUValidationAndSize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := antiPoints(rng, 300, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	if _, err := ORUWithCtx(context.Background(), tr, w, 5, 3, ORUOptions{}); err == nil {
		t.Error("m < k accepted")
	}
	for _, k := range []int{1, 2, 4} {
		for _, m := range []int{k, k + 5, 20} {
			res, err := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
			if err != nil {
				t.Fatalf("k=%d m=%d: %v", k, m, err)
			}
			if len(res.Records) != m {
				t.Fatalf("k=%d m=%d: got %d records (OSS violated)", k, m, len(res.Records))
			}
			if res.Rho < 0 {
				t.Fatal("negative stopping radius")
			}
		}
	}
}

func TestORUContainsTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := antiPoints(rng, 250, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	k, m := 3, 12
	res, err := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := idSet(res.Records)
	type sc struct {
		id int
		s  float64
	}
	all := make([]sc, len(pts))
	for i, p := range pts {
		all[i] = sc{i, p.Dot(w)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
	for r := 0; r < k; r++ {
		if !got[all[r].id] {
			t.Fatalf("top-%d record %d for the seed missing from ORU output", r+1, all[r].id)
		}
	}
}

// TestORURegionsAreCorrect: every finalized region, rebuilt by definition
// from its ordered top-k list alone over all records (each listed record
// beats the next, the last beats every other record), holds somewhere, and
// its point closest to the seed lies at the region's MinDist.
func TestORURegionsAreCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 4; trial++ {
		d := 2 + trial%3
		k := 1 + trial%3
		pts := antiPoints(rng, 200, d)
		tr := rtree.BulkLoad(pts)
		w := geom.RandSimplex(rng, d)
		// ORU's achievable output is bounded by the number of records in
		// any top-k (e.g. |L1| for k=1); back off m until feasible.
		var res *ORUResult
		var err error
		for m := k + 8; m >= k; m-- {
			res, err = ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
			if err == nil {
				break
			}
			if err != ErrInsufficientData {
				t.Fatal(err)
			}
		}
		if err != nil {
			t.Fatalf("trial %d: no feasible m at all", trial)
		}
		var ws region.Workspace
		for ri, reg := range res.Regions {
			if len(reg.TopK) != k {
				t.Fatalf("trial %d region %d: top-k holds %d records, want %d", trial, ri, len(reg.TopK), k)
			}
			listed := map[int]bool{}
			var hs []region.Halfspace
			for i, r := range reg.TopK {
				listed[r.ID] = true
				if i+1 < k {
					hs = append(hs, region.Beat(r.Point, reg.TopK[i+1].Point))
				}
			}
			last := reg.TopK[k-1].Point
			for id, p := range pts {
				if !listed[id] {
					hs = append(hs, region.Beat(last, p))
				}
			}
			dist, _, ok := region.Region{Dim: d, Hs: hs}.MinDistWS(w, &ws)
			if !ok {
				t.Fatalf("trial %d region %d: no preference vector has the top-k %v", trial, ri, reg.TopK)
			}
			if math.Abs(dist-reg.MinDist) > 1e-7 {
				t.Fatalf("trial %d region %d: its top-k first holds %.12g from the seed, MinDist %.12g",
					trial, ri, dist, reg.MinDist)
			}
		}
	}
}

// TestORUMatchesSampledReference: compare the ORU output with a dense
// sampling reference: records in a top-k within the reported rho must all
// be reported (sampling strictly inside), and reported records must be in
// some top-k within rho (checked via their witness regions above).
func TestORUMatchesSampledReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 3
	pts := antiPoints(rng, 150, d)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, d)
	k, m := 2, 10
	res, err := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := idSet(res.Records)
	for s := 0; s < 5000; s++ {
		// Sample v within the reported radius (with margin for ties).
		v := geom.RandDirichlet(rng, w, 60)
		if v.Dist(w) > res.Rho*(1-1e-6) {
			continue
		}
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
			if !got[all[r].id] {
				t.Fatalf("record %d is top-%d at dist %g < rho %g but unreported",
					all[r].id, r+1, v.Dist(w), res.Rho)
			}
		}
	}
}

func TestORUMatchesBSLOnSmallInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3; trial++ {
		d := 2 + trial
		pts := antiPoints(rng, 120, d)
		tr := rtree.BulkLoad(pts)
		w := geom.RandSimplex(rng, d)
		k, m := 2, 10
		fast, err := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := ORUBSL(tr, w, k, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(slow.Records) != m {
			t.Fatalf("BSL returned %d records", len(slow.Records))
		}
		fs, ss := idSet(fast.Records), idSet(slow.Records)
		for id := range fs {
			if !ss[id] {
				t.Fatalf("trial %d: ORU id %d missing from BSL; rho %g vs %g",
					trial, id, fast.Rho, slow.Rho)
			}
		}
		if math.Abs(fast.Rho-slow.Rho) > 1e-7 {
			t.Fatalf("trial %d: rho mismatch %g vs %g", trial, fast.Rho, slow.Rho)
		}
	}
}

func TestORUExtremeK1M1(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(rng, 200, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	res, err := ORUWithCtx(context.Background(), tr, w, 1, 1, ORUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("got %d records", len(res.Records))
	}
	// Must be the global top-1 and rho must be 0.
	best, bestScore := -1, math.Inf(-1)
	for i, p := range pts {
		if s := p.Dot(w); s > bestScore {
			best, bestScore = i, s
		}
	}
	if res.Records[0].ID != best {
		t.Fatalf("top-1 = %d, want %d", res.Records[0].ID, best)
	}
	if res.Rho > 1e-9 {
		t.Fatalf("rho = %g, want 0", res.Rho)
	}
}

func TestORUDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 150, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	a, err := ORUWithCtx(context.Background(), tr, w, 2, 8, ORUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ORUWithCtx(context.Background(), tr, w, 2, 8, ORUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) || a.Rho != b.Rho {
		t.Fatal("ORU not deterministic")
	}
	for i := range a.Records {
		if a.Records[i].ID != b.Records[i].ID {
			t.Fatal("ORU record order not deterministic")
		}
	}
}
