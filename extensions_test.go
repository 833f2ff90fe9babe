package ordu

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestFilterThenQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	recs := make([][]float64, 500)
	for i := range recs {
		recs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ds, _ := NewDataset(recs)
	inf := math.Inf(1)
	sub, mapping, err := ds.Filter([]float64{0.5, 0, 0}, []float64{inf, inf, inf})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() == 0 || sub.Len() == ds.Len() {
		t.Fatalf("filter kept %d of %d", sub.Len(), ds.Len())
	}
	if len(mapping) != sub.Len() {
		t.Fatal("mapping length mismatch")
	}
	// Every kept record satisfies the predicate, and the mapping round-trips.
	for sid := 0; sid < sub.Len(); sid++ {
		r, ok := sub.Record(sid)
		if !ok || r[0] < 0.5 {
			t.Fatalf("filtered record %d violates predicate: %v", sid, r)
		}
		orig, ok := ds.Record(mapping[sid])
		if !ok {
			t.Fatalf("mapping %d points at unknown id", sid)
		}
		for j := range r {
			if r[j] != orig[j] {
				t.Fatal("mapping does not round-trip")
			}
		}
	}
	// Querying the filtered dataset works end-to-end.
	w, _ := Preference([]float64{1, 1, 1})
	res, err := sub.ORDCtx(context.Background(), w, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Record[0] < 0.5 {
			t.Fatal("ORD on filtered dataset returned excluded record")
		}
	}
	// Degenerate cases.
	if _, _, err := ds.Filter([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("wrong-dimension bounds accepted")
	}
	if _, _, err := ds.Filter([]float64{9, 9, 9}, []float64{10, 10, 10}); err == nil {
		t.Error("empty filter result must error")
	}
}
