package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ordu/internal/geom"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// TestORUPartitionBypassEquivalence: the small-union shortcut in Theorem-1
// partitioning must not change the answer — only the work done.
func TestORUPartitionBypassEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 5; trial++ {
		d := 2 + trial%3
		pts := antiPoints(rng, 200, d)
		tr := rtree.BulkLoad(pts)
		w := geom.RandSimplex(rng, d)
		k, m := 1+trial%3, 8+trial
		a, errA := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
		b, errB := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{NoPartitionBypass: true})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		if math.Abs(a.Rho-b.Rho) > 1e-9 {
			t.Fatalf("trial %d: rho %g vs %g", trial, a.Rho, b.Rho)
		}
		as, bs := idSet(a.Records), idSet(b.Records)
		if len(as) != len(bs) {
			t.Fatalf("trial %d: sizes differ", trial)
		}
		for id := range as {
			if !bs[id] {
				t.Fatalf("trial %d: id %d only in bypass variant", trial, id)
			}
		}
	}
}

// TestEnumerateWithinWholeDomainMatchesKSkybandTops: with the whole simplex
// as the clip, the fixed-region enumeration must report every record that
// is in some top-k anywhere — in particular it must contain ORU's output
// for any m.
func TestEnumerateWithinWholeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	d := 3
	pts := antiPoints(rng, 120, d)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, d)
	k := 2
	cands, err := skyband.KSkybandForCtx(context.Background(), tr, w, k)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]skyband.Member, len(cands))
	copy(members, cands)
	recs, regions, err := EnumerateWithin(members, w, k, region.Full(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) == 0 {
		t.Fatal("no regions enumerated")
	}
	all := idSetRecords(recs)
	// ORU output for any feasible m is a subset.
	m := len(all)
	if m > 20 {
		m = 20
	}
	res, err := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if !all[r.ID] {
			t.Fatalf("ORU record %d missing from whole-domain enumeration", r.ID)
		}
	}
	// Sampled global top-k members must all be enumerated.
	for s := 0; s < 2000; s++ {
		v := geom.RandSimplex(rng, d)
		best1, best2 := -1, -1
		s1, s2 := math.Inf(-1), math.Inf(-1)
		for i, p := range pts {
			sc := p.Dot(v)
			if sc > s1 {
				best2, s2 = best1, s1
				best1, s1 = i, sc
			} else if sc > s2 {
				best2, s2 = i, sc
			}
		}
		if !all[best1] || !all[best2] {
			t.Fatalf("top-2 at %v not fully enumerated", v)
		}
	}
}

func idSetRecords(rs []Record) map[int]bool {
	out := map[int]bool{}
	for _, r := range rs {
		out[r.ID] = true
	}
	return out
}

// TestORDQuickProperties uses testing/quick to fuzz dataset/seed
// combinations: the output always has exactly m records, radii are sorted,
// the top-k at w is always included, and the output is a subset of the
// k-skyband.
func TestORDQuickProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	prop := func(seed int64, kRaw, dRaw uint8) bool {
		d := 2 + int(dRaw)%3
		k := 1 + int(kRaw)%4
		local := rand.New(rand.NewSource(seed))
		pts := antiPoints(local, 120, d)
		tr := rtree.BulkLoad(pts)
		w := geom.RandSimplex(local, d)
		sky := skyband.KSkyband(tr, k)
		m := k + 4
		if m > len(sky) {
			m = len(sky)
		}
		if m < k {
			return true
		}
		res, err := ORDCtx(context.Background(), tr, w, k, m)
		if err != nil {
			return false
		}
		if len(res.Records) != m {
			return false
		}
		inSky := map[int]bool{}
		for _, s := range sky {
			inSky[s.ID] = true
		}
		for i, r := range res.Records {
			if !inSky[r.ID] {
				return false
			}
			if i > 0 && res.Radii[i] < res.Radii[i-1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestORURhoMonotoneInM: a larger m never needs a smaller radius.
func TestORURhoMonotoneInM(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	pts := antiPoints(rng, 250, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	k := 2
	prev := -1.0
	for _, m := range []int{2, 5, 8, 12, 16} {
		res, err := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rho < prev-1e-12 {
			t.Fatalf("rho decreased from %g to %g at m=%d", prev, res.Rho, m)
		}
		prev = res.Rho
	}
}

// TestORDRhoMonotoneInM mirrors the above for ORD.
func TestORDRhoMonotoneInM(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	pts := antiPoints(rng, 250, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	k := 2
	prev := -1.0
	for _, m := range []int{2, 5, 10, 20, 30} {
		res, err := ORDCtx(context.Background(), tr, w, k, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rho < prev-1e-12 {
			t.Fatalf("rho decreased from %g to %g at m=%d", prev, res.Rho, m)
		}
		prev = res.Rho
	}
}

// TestORDStatsPopulated sanity-checks the instrumentation used by the
// benchmarks.
func TestORDStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	pts := antiPoints(rng, 300, 3)
	tr := rtree.BulkLoad(pts)
	w := geom.RandSimplex(rng, 3)
	res, err := ORDCtx(context.Background(), tr, w, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fetched == 0 || res.Stats.HeapPops == 0 {
		t.Fatalf("stats empty: %+v", res.Stats)
	}
	oru, err := ORUWithCtx(context.Background(), tr, w, 2, 10, ORUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if oru.Stats.RegionsFinalized == 0 || oru.Stats.LayersComputed == 0 {
		t.Fatalf("ORU stats empty: %+v", oru.Stats)
	}
}
