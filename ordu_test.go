package ordu

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randRecords(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		r := make([]float64, d)
		for j := range r {
			r[j] = rng.Float64()
		}
		out[i] = r
	}
	return out
}

// antiRecords yields anticorrelated data with large skybands.
func antiRecords(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		r := make([]float64, d)
		s := 0.0
		for j := range r {
			r[j] = rng.Float64()
			s += r[j]
		}
		f := (float64(d)/2 + 0.1*rng.NormFloat64()) / s
		for j := range r {
			r[j] = math.Min(1, math.Max(0, r[j]*f))
		}
		out[i] = r
	}
	return out
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1}}); err == nil {
		t.Error("1-dimensional dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Error("ragged dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1, math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
	ds, err := NewDataset([][]float64{{0.1, 0.9}, {0.8, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", ds.Len(), ds.Dim())
	}
}

// TestDatasetDoesNotAliasInput overwrites every caller record after
// NewDataset: the dataset's records and its ORD answer must not move.
func TestDatasetDoesNotAliasInput(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(23)), 300, 3)
	want := make([][]float64, len(recs))
	for i, r := range recs {
		want[i] = append([]float64(nil), r...)
	}
	ds, err := NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := []float64{0.5, 0.3, 0.2}
	before, err := ds.ORDCtx(ctx, w, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		for j := range r {
			r[j] = 1 - r[j]
		}
		recs[i] = nil
	}
	for id, r := range want {
		if got, ok := ds.Record(id); !ok || !reflect.DeepEqual(got, r) {
			t.Fatalf("Record(%d) = %v, %v after the caller overwrote it; want %v", id, got, ok, r)
		}
	}
	after, err := ds.ORDCtx(ctx, w, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("ORD answer moved after the caller overwrote its records:\n%+v\n%+v", before, after)
	}
}

// TestResultsDoNotAliasDataset overwrites every coordinate of every record
// slice the query methods return, then checks the dataset did not change:
// each Record(id) still equals its input and each query repeats its answer.
func TestResultsDoNotAliasDataset(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(29)), 300, 3)
	ds, err := NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := []float64{0.5, 0.3, 0.2}
	type answers struct {
		ORD                                *ORDResult
		ORU                                *ORUResult
		TopK, Skyline, KSkyband, OSSkyline []Result
		Records                            [][]float64
	}
	query := func() answers {
		t.Helper()
		var a answers
		var err error
		if a.ORD, err = ds.ORDCtx(ctx, w, 2, 10); err != nil {
			t.Fatal(err)
		}
		if a.ORU, err = ds.ORUCtx(ctx, w, 2, 10); err != nil {
			t.Fatal(err)
		}
		if a.TopK, err = ds.TopK(w, 5); err != nil {
			t.Fatal(err)
		}
		a.Skyline = ds.Skyline()
		if a.KSkyband, err = ds.KSkyband(2); err != nil {
			t.Fatal(err)
		}
		a.OSSkyline = ds.OSSkyline(5)
		for id := range recs {
			r, ok := ds.Record(id)
			if !ok {
				t.Fatalf("Record(%d) missing", id)
			}
			a.Records = append(a.Records, r)
		}
		return a
	}
	got := query()
	before, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(rs []Result) {
		for _, r := range rs {
			for j := range r.Record {
				r.Record[j] = -1
			}
		}
	}
	for _, rs := range [][]Result{got.ORD.Records, got.ORU.Records, got.TopK, got.Skyline, got.KSkyband, got.OSSkyline} {
		scribble(rs)
	}
	for _, reg := range got.ORU.Regions {
		scribble(reg.TopK)
	}
	for _, r := range got.Records {
		for j := range r {
			r[j] = -1
		}
	}
	for id, r := range recs {
		if p, ok := ds.Record(id); !ok || !reflect.DeepEqual(p, r) {
			t.Fatalf("Record(%d) = %v, %v after the caller overwrote its answers; want %v", id, p, ok, r)
		}
	}
	after, err := json.Marshal(query())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("answers moved after the caller overwrote them:\n%s\n%s", before, after)
	}
}

func TestTopKAndSkyline(t *testing.T) {
	ds, _ := NewDataset([][]float64{
		{0.9, 0.1}, // 0
		{0.1, 0.9}, // 1
		{0.6, 0.6}, // 2: dominates 3
		{0.5, 0.5}, // 3
	})
	top, err := ds.TopK([]float64{0.5, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].ID != 2 {
		t.Fatalf("top-1 = %d, want 2", top[0].ID)
	}
	if top[0].Score != 0.6 {
		t.Fatalf("score = %g", top[0].Score)
	}
	sky := ds.Skyline()
	ids := map[int]bool{}
	for _, s := range sky {
		ids[s.ID] = true
	}
	if !ids[0] || !ids[1] || !ids[2] || ids[3] {
		t.Fatalf("skyline = %v", sky)
	}
	band, err := ds.KSkyband(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(band) != 4 {
		t.Fatalf("2-skyband = %d records", len(band))
	}
}

func TestPreferenceValidation(t *testing.T) {
	ds, _ := NewDataset([][]float64{{0.5, 0.5}, {0.4, 0.6}})
	if _, err := ds.TopK([]float64{0.9, 0.9}, 1); err == nil {
		t.Error("off-simplex preference accepted")
	}
	if _, err := ds.TopK([]float64{1, 0, 0}, 1); err == nil {
		t.Error("wrong-dimension preference accepted")
	}
	if _, err := ds.TopK([]float64{0.5, 0.5}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestORDPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ds, err := NewDataset(antiRecords(rng, 500, 3))
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.4, 0.3, 0.3}
	res, err := ds.ORDCtx(context.Background(), w, 3, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 15 || len(res.Radii) != 15 {
		t.Fatalf("got %d records, %d radii", len(res.Records), len(res.Radii))
	}
	if res.Rho != res.Radii[14] {
		t.Fatal("Rho mismatch")
	}
	// Scores populated.
	for _, r := range res.Records {
		want := 0.4*r.Record[0] + 0.3*r.Record[1] + 0.3*r.Record[2]
		if math.Abs(r.Score-want) > 1e-12 {
			t.Fatalf("score %g, want %g", r.Score, want)
		}
	}
}

func TestORUPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	ds, err := NewDataset(antiRecords(rng, 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.3, 0.3, 0.4}
	res, err := ds.ORUCtx(context.Background(), w, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("got %d records", len(res.Records))
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions reported")
	}
	for i, reg := range res.Regions {
		if len(reg.TopK) != 2 {
			t.Fatalf("region %d has top-%d", i, len(reg.TopK))
		}
		if reg.Witness == nil {
			t.Fatalf("region %d has no witness", i)
		}
		// The witness is the region's point closest to the seed.
		d2 := 0.0
		for j, x := range reg.Witness {
			d2 += (x - w[j]) * (x - w[j])
		}
		if d := math.Sqrt(d2); d > reg.MinDist+1e-9 {
			t.Fatalf("region %d: witness at %g from the seed, MinDist %g", i, d, reg.MinDist)
		}
		if i > 0 && reg.MinDist < res.Regions[i-1].MinDist-1e-12 {
			t.Fatal("regions not sorted by mindist")
		}
	}
	if res.Rho != res.Regions[len(res.Regions)-1].MinDist {
		t.Fatal("Rho != last region mindist")
	}
}

func TestInsertDeleteAffectQueries(t *testing.T) {
	ds, _ := NewDataset([][]float64{
		{0.5, 0.5},
		{0.4, 0.4},
	})
	top, _ := ds.TopK([]float64{0.5, 0.5}, 1)
	if top[0].ID != 0 {
		t.Fatal("unexpected initial top-1")
	}
	id, err := ds.Insert([]float64{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	top, _ = ds.TopK([]float64{0.5, 0.5}, 1)
	if top[0].ID != id {
		t.Fatalf("inserted record not top-1: got %d", top[0].ID)
	}
	if !ds.Delete(id) {
		t.Fatal("delete failed")
	}
	top, _ = ds.TopK([]float64{0.5, 0.5}, 1)
	if top[0].ID != 0 {
		t.Fatal("delete not reflected")
	}
	if ds.Delete(id) {
		t.Fatal("double delete succeeded")
	}
	if _, err := ds.Insert([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-dimension insert accepted")
	}
}

func TestOSSkyline(t *testing.T) {
	ds, _ := NewDataset([][]float64{
		{0.9, 0.9}, // dominates everything else
		{0.1, 0.8},
		{0.8, 0.1},
		{0.2, 0.2},
	})
	got := ds.OSSkyline(2)
	if len(got) != 1 || got[0].ID != 0 || got[0].Score != 3 {
		t.Fatalf("OSSkyline = %+v", got)
	}
}

func TestNormalize(t *testing.T) {
	recs := [][]float64{{10, 5, 7}, {20, 5, 3}, {15, 5, 5}}
	norm := Normalize(recs)
	if norm[0][0] != 0 || norm[1][0] != 1 || norm[2][0] != 0.5 {
		t.Fatalf("col 0 = %v", [][]float64{norm[0], norm[1], norm[2]})
	}
	for i := range norm {
		if norm[i][1] != 0.5 {
			t.Fatal("constant column must map to 0.5")
		}
	}
	if Normalize(nil) != nil {
		t.Fatal("Normalize(nil) != nil")
	}
}

func TestPreferenceHelper(t *testing.T) {
	w, err := Preference([]float64{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 0.25 || w[2] != 0.5 {
		t.Fatalf("w = %v", w)
	}
	if _, err := Preference([]float64{0, 0}); err == nil {
		t.Fatal("zero weights accepted")
	}
}

func TestFacadeValidationSentinels(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	ds, err := NewDataset(randRecords(rng, 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	good := []float64{0.4, 0.3, 0.3}
	cases := []struct {
		name string
		w    []float64
		k, m int
		want error
	}{
		{"NaN component", []float64{math.NaN(), 0.5, 0.5}, 2, 4, ErrBadSeed},
		{"+Inf component", []float64{math.Inf(1), 0.3, 0.3}, 2, 4, ErrBadSeed},
		{"-Inf component", []float64{math.Inf(-1), 0.3, 0.3}, 2, 4, ErrBadSeed},
		{"dimension too small", []float64{0.5, 0.5}, 2, 4, ErrBadSeed},
		{"dimension too large", []float64{0.25, 0.25, 0.25, 0.25}, 2, 4, ErrBadSeed},
		{"off simplex", []float64{0.9, 0.9, 0.9}, 2, 4, ErrBadSeed},
		{"negative component", []float64{-0.2, 0.6, 0.6}, 2, 4, ErrBadSeed},
		{"k zero", good, 0, 4, ErrBadParams},
		{"k negative", good, -3, 4, ErrBadParams},
		{"m zero", good, 1, 0, ErrBadParams},
		{"m negative", good, 1, -2, ErrBadParams},
		{"m below k", good, 5, 3, ErrBadParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ds.ORDCtx(context.Background(), tc.w, tc.k, tc.m); !errors.Is(err, tc.want) {
				t.Errorf("ORD err = %v, want %v", err, tc.want)
			}
			if _, err := ds.ORUCtx(context.Background(), tc.w, tc.k, tc.m); !errors.Is(err, tc.want) {
				t.Errorf("ORU err = %v, want %v", err, tc.want)
			}
		})
	}
	// The two sentinels stay distinct.
	_, seedErr := ds.ORDCtx(context.Background(), []float64{math.NaN(), 0.5, 0.5}, 2, 4)
	if errors.Is(seedErr, ErrBadParams) {
		t.Error("seed error matches ErrBadParams")
	}
	_, paramErr := ds.ORDCtx(context.Background(), good, 0, 4)
	if errors.Is(paramErr, ErrBadSeed) {
		t.Error("param error matches ErrBadSeed")
	}
	// TopK and KSkyband share the k sentinel.
	if _, err := ds.TopK(good, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("TopK err = %v", err)
	}
	if _, err := ds.KSkyband(-1); !errors.Is(err, ErrBadParams) {
		t.Errorf("KSkyband err = %v", err)
	}
}

func TestFacadeCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	ds, err := NewDataset(antiRecords(rng, 300, 3))
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.4, 0.3, 0.3}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.ORDCtx(ctx, w, 2, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("ORDCtx err = %v", err)
	}
	if _, err := ds.ORUCtx(ctx, w, 2, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("ORUCtx err = %v", err)
	}
	// A live context returns the full answer.
	got, err := ds.ORDCtx(context.Background(), w, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 8 {
		t.Fatalf("ORDCtx returned %d records, want 8", len(got.Records))
	}
}

func TestORDORUSmallestOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ds, _ := NewDataset(randRecords(rng, 200, 3))
	w := []float64{0.3, 0.3, 0.4}
	k := 3
	ord, err := ds.ORDCtx(context.Background(), w, k, k)
	if err != nil {
		t.Fatal(err)
	}
	oru, err := ds.ORUCtx(context.Background(), w, k, k)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := ds.TopK(w, k)
	topIDs := map[int]bool{}
	for _, r := range top {
		topIDs[r.ID] = true
	}
	// With m = k both operators degenerate to the top-k at w.
	for _, r := range ord.Records {
		if !topIDs[r.ID] {
			t.Fatalf("ORD(m=k) returned non-top-k record %d", r.ID)
		}
	}
	for _, r := range oru.Records {
		if !topIDs[r.ID] {
			t.Fatalf("ORU(m=k) returned non-top-k record %d", r.ID)
		}
	}
}
