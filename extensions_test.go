package ordu

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
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
	// Against a brute-force filter: the mapping lists, strictly ascending,
	// exactly the ids whose every attribute lies in [min, max], and the
	// sub-dataset's records follow it.
	checkFilter := func(ds *Dataset, all map[int][]float64, min, max []float64) []int {
		t.Helper()
		var want []int
		for id, r := range all {
			in := true
			for j, x := range r {
				in = in && min[j] <= x && x <= max[j]
			}
			if in {
				want = append(want, id)
			}
		}
		sort.Ints(want)
		sub, got, err := ds.Filter(min, max)
		if len(want) == 0 {
			if err == nil {
				t.Fatalf("Filter(%v, %v) kept %v, want an error", min, max, got)
			}
			return nil
		}
		if err != nil {
			t.Fatalf("Filter(%v, %v): %v", min, max, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Filter(%v, %v) mapping = %v, want %v", min, max, got, want)
		}
		for sid, id := range got {
			if r, _ := sub.Record(sid); !slices.Equal(r, all[id]) {
				t.Fatalf("filtered record %d = %v, want record %d = %v", sid, r, id, all[id])
			}
		}
		return got
	}
	all := make(map[int][]float64, len(recs))
	for id, r := range recs {
		all[id] = r
	}
	ninf := math.Inf(-1)
	noLo := []float64{ninf, ninf, ninf}
	noHi := []float64{inf, inf, inf}
	if got := checkFilter(ds, all, noLo, noHi); len(got) != len(recs) {
		t.Fatalf("open bounds kept %d of %d records", len(got), len(recs))
	}
	checkFilter(ds, all, []float64{0.2, 0.3, 0.1}, []float64{0.7, 0.9, 0.6})
	// Borders are inclusive: record 3 sits on a lower and an upper bound,
	// and alone in a box of zero width.
	r3 := recs[3]
	if got := checkFilter(ds, all, []float64{r3[0], ninf, ninf}, []float64{inf, r3[1], inf}); !slices.Contains(got, 3) {
		t.Fatal("a record on the borders was filtered out")
	}
	if got := checkFilter(ds, all, r3, r3); !slices.Equal(got, []int{3}) {
		t.Fatalf("zero-width box around record 3 kept %v", got)
	}
	// After writes the live ids are no longer 0..n-1 and slots recycle.
	live, _ := NewDataset(recs)
	for id := 0; id < len(recs); id += 3 {
		live.Delete(id)
		delete(all, id)
	}
	for i := 0; i < 100; i++ {
		r := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		id, err := live.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		all[id] = r
	}
	for id := 1; id < len(recs); id += 7 {
		if _, ok := all[id]; ok {
			r := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			if err := live.Update(id, r); err != nil {
				t.Fatal(err)
			}
			all[id] = r
		}
	}
	checkFilter(live, all, noLo, noHi)
	checkFilter(live, all, []float64{0.5, ninf, 0.25}, []float64{inf, 0.8, inf})
	// Degenerate cases.
	if _, _, err := ds.Filter([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("wrong-dimension bounds accepted")
	}
	if _, _, err := ds.Filter([]float64{9, 9, 9}, []float64{10, 10, 10}); err == nil {
		t.Error("empty filter result must error")
	}
}
