package ordu

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ordu/internal/data"
	"ordu/internal/geom"
)

// TestIntegrationAllGenerators runs the full public pipeline (index, classic
// operators, ORD, ORU) over every workload generator and checks the
// structural relations the paper establishes between the operators.
func TestIntegrationAllGenerators(t *testing.T) {
	workloads := map[string][][]float64{
		"IND":   toRecords(data.Synthetic(data.IND, 3000, 4, 11)),
		"COR":   toRecords(data.Synthetic(data.COR, 3000, 4, 11)),
		"ANTI":  toRecords(data.Synthetic(data.ANTI, 3000, 4, 11)),
		"HOTEL": toRecords(data.Hotel(3000, 11)),
		"HOUSE": toRecords(data.House(3000, 11)),
		"NBA":   toRecords(data.NBA(3000, 11)),
		"TA":    toRecords(data.TripAdvisor(0, 11)),
	}
	rng := rand.New(rand.NewSource(12))
	for name, recs := range workloads {
		t.Run(name, func(t *testing.T) {
			ds, err := NewDataset(recs)
			if err != nil {
				t.Fatal(err)
			}
			d := ds.Dim()
			w := make([]float64, d)
			for i := range w {
				w[i] = 1 / float64(d)
			}
			// Perturb deterministically per workload.
			w[rng.Intn(d)] += 0.1
			w, _ = Preference(w)

			k := 3
			band, err := ds.KSkyband(k)
			if err != nil {
				t.Fatal(err)
			}
			bandSet := map[int]bool{}
			for _, r := range band {
				bandSet[r.ID] = true
			}
			m := k + 7
			if m > len(band) {
				m = len(band)
			}

			ord, err := ds.ORDCtx(context.Background(), w, k, m)
			if err != nil {
				t.Fatalf("ORD: %v", err)
			}
			if len(ord.Records) != m {
				t.Fatalf("ORD returned %d records, want %d", len(ord.Records), m)
			}
			// ORD output is always a subset of the k-skyband.
			for _, r := range ord.Records {
				if !bandSet[r.ID] {
					t.Fatalf("ORD record %d outside the %d-skyband", r.ID, k)
				}
			}

			oru, err := ds.ORUCtx(context.Background(), w, k, m)
			if err == ErrInsufficientData {
				// Legitimate on heavily correlated workloads; retry smaller.
				m = k
				oru, err = ds.ORUCtx(context.Background(), w, k, m)
			}
			if err != nil {
				t.Fatalf("ORU: %v", err)
			}
			if len(oru.Records) != m {
				t.Fatalf("ORU returned %d records, want %d", len(oru.Records), m)
			}
			// ORU output is also within the k-skyband.
			for _, r := range oru.Records {
				if !bandSet[r.ID] {
					t.Fatalf("ORU record %d outside the %d-skyband", r.ID, k)
				}
			}
			// The top-k at w leads both outputs.
			top, _ := ds.TopK(w, k)
			for _, tr := range top {
				if !contains(ord.Records, tr.ID) {
					t.Fatalf("top-k record %d missing from ORD", tr.ID)
				}
				if !contains(oru.Records, tr.ID) {
					t.Fatalf("top-k record %d missing from ORU", tr.ID)
				}
			}
		})
	}
}

func toRecords(pts []geom.Vector) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

func contains(rs []Result, id int) bool {
	for _, r := range rs {
		if r.ID == id {
			return true
		}
	}
	return false
}

// TestPublicQuickProperties fuzzes the public entry points: any valid
// (dataset, preference, k, m) combination either errors cleanly or returns
// exactly m records with a non-negative radius.
func TestPublicQuickProperties(t *testing.T) {
	prop := func(seed int64, kRaw, mRaw, dRaw uint8) bool {
		d := 2 + int(dRaw)%3
		k := 1 + int(kRaw)%5
		m := k + int(mRaw)%10
		rng := rand.New(rand.NewSource(seed))
		recs := make([][]float64, 150)
		for i := range recs {
			r := make([]float64, d)
			s := 0.0
			for j := range r {
				r[j] = rng.Float64()
				s += r[j]
			}
			f := (float64(d) / 2) / s
			for j := range r {
				r[j] = math.Min(1, r[j]*f)
			}
			recs[i] = r
		}
		ds, err := NewDataset(recs)
		if err != nil {
			return false
		}
		wr := make([]float64, d)
		for i := range wr {
			wr[i] = rng.Float64() + 0.01
		}
		w, err := Preference(wr)
		if err != nil {
			return false
		}
		res, err := ds.ORDCtx(context.Background(), w, k, m)
		if err == ErrInsufficientData {
			return true
		}
		if err != nil {
			return false
		}
		return len(res.Records) == m && res.Rho >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestORURegionsCoverNeighbourhood: the finalized regions of an ORU result,
// sorted by mindist, must start at the seed (mindist 0) and grow
// monotonically up to the stopping radius.
func TestORURegionsCoverNeighbourhood(t *testing.T) {
	recs := toRecords(data.Synthetic(data.ANTI, 2000, 3, 13))
	ds, err := NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := Preference([]float64{1, 1, 1})
	res, err := ds.ORUCtx(context.Background(), w, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions")
	}
	ds2 := res.Regions
	if ds2[0].MinDist > 1e-9 {
		t.Fatalf("first region at distance %g, want 0", ds2[0].MinDist)
	}
	if !sort.SliceIsSorted(ds2, func(i, j int) bool { return ds2[i].MinDist < ds2[j].MinDist }) {
		t.Fatal("regions not sorted by mindist")
	}
	last := ds2[len(ds2)-1].MinDist
	if math.Abs(last-res.Rho) > 1e-12 {
		t.Fatalf("rho %g != last region mindist %g", res.Rho, last)
	}
}
