package ordu

import (
	"context"
	"math/rand"
	"testing"
)

// TestDuplicateRecords: the paper assumes no coinciding records; the
// library must still terminate and honour the output size when duplicates
// exist (the hull's symbolic perturbation separates them).
func TestDuplicateRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := make([][]float64, 0, 120)
	for i := 0; i < 40; i++ {
		r := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// Three copies of every record.
		base = append(base, r, append([]float64(nil), r...), append([]float64(nil), r...))
	}
	ds, err := NewDataset(base)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := Preference([]float64{1, 1, 1})
	res, err := ds.ORDCtx(context.Background(), w, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 12 {
		t.Fatalf("ORD on duplicates returned %d records", len(res.Records))
	}
	oru, err := ds.ORUCtx(context.Background(), w, 2, 8)
	if err == ErrInsufficientData {
		t.Skip("duplicate-collapsed hull too small; acceptable")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(oru.Records) != 8 {
		t.Fatalf("ORU on duplicates returned %d records", len(oru.Records))
	}
}

// TestAllIdenticalRecords: a fully degenerate dataset.
func TestAllIdenticalRecords(t *testing.T) {
	recs := make([][]float64, 20)
	for i := range recs {
		recs[i] = []float64{0.5, 0.5}
	}
	ds, err := NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := Preference([]float64{1, 1})
	// Every record ties; the k-skyband is everything, so ORD can return
	// any m of them at radius 0.
	res, err := ds.ORDCtx(context.Background(), w, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 || res.Rho != 0 {
		t.Fatalf("identical records: %d records, rho %g", len(res.Records), res.Rho)
	}
}

// TestTinyDatasets exercises datasets at or below k.
func TestTinyDatasets(t *testing.T) {
	ds, _ := NewDataset([][]float64{{0.2, 0.8}, {0.8, 0.2}})
	w, _ := Preference([]float64{1, 1})
	res, err := ds.ORDCtx(context.Background(), w, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("got %d", len(res.Records))
	}
	if _, err := ds.ORDCtx(context.Background(), w, 2, 3); err != ErrInsufficientData {
		t.Fatalf("m beyond dataset: %v", err)
	}
	// ORU with k equal to the dataset size.
	oru, err := ds.ORUCtx(context.Background(), w, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(oru.Records) != 2 {
		t.Fatalf("ORU got %d", len(oru.Records))
	}
}

// TestExtremeSeedVectors puts the seed at simplex corners and edges.
func TestExtremeSeedVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	recs := make([][]float64, 300)
	for i := range recs {
		recs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ds, _ := NewDataset(recs)
	for _, w := range [][]float64{
		{1, 0, 0},     // corner: only attribute 0 matters
		{0.5, 0.5, 0}, // edge
		{0, 0, 1},     // another corner
		{0.98, 0.01, 0.01},
	} {
		res, err := ds.ORDCtx(context.Background(), w, 2, 10)
		if err != nil {
			t.Fatalf("w=%v: %v", w, err)
		}
		if len(res.Records) != 10 {
			t.Fatalf("w=%v: %d records", w, len(res.Records))
		}
		oru, err := ds.ORUCtx(context.Background(), w, 2, 6)
		if err != nil {
			t.Fatalf("ORU w=%v: %v", w, err)
		}
		if len(oru.Records) != 6 {
			t.Fatalf("ORU w=%v: %d records", w, len(oru.Records))
		}
	}
}

// TestHighDimensionalOperators runs the operators at the paper's upper
// dimensionalities (d = 6, 7).
func TestHighDimensionalOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{6, 7} {
		recs := make([][]float64, 800)
		for i := range recs {
			r := make([]float64, d)
			for j := range r {
				r[j] = rng.Float64()
			}
			recs[i] = r
		}
		ds, _ := NewDataset(recs)
		wr := make([]float64, d)
		for i := range wr {
			wr[i] = 1 + rng.Float64()
		}
		w, _ := Preference(wr)
		res, err := ds.ORDCtx(context.Background(), w, 3, 15)
		if err != nil {
			t.Fatalf("d=%d ORD: %v", d, err)
		}
		if len(res.Records) != 15 {
			t.Fatalf("d=%d: %d records", d, len(res.Records))
		}
		oru, err := ds.ORUCtx(context.Background(), w, 2, 8)
		if err != nil {
			t.Fatalf("d=%d ORU: %v", d, err)
		}
		if len(oru.Records) != 8 {
			t.Fatalf("d=%d ORU: %d records", d, len(oru.Records))
		}
	}
}

// TestMPastSkybandBoundary walks m right up to the full k-skyband size.
func TestMPastSkybandBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	recs := make([][]float64, 200)
	for i := range recs {
		recs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ds, _ := NewDataset(recs)
	k := 2
	band, _ := ds.KSkyband(k)
	w, _ := Preference([]float64{1, 2, 1})
	res, err := ds.ORDCtx(context.Background(), w, k, len(band))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(band) {
		t.Fatalf("full-band ORD: %d records, band %d", len(res.Records), len(band))
	}
	if _, err := ds.ORDCtx(context.Background(), w, k, len(band)+1); err != ErrInsufficientData {
		t.Fatalf("band+1: %v", err)
	}
}
