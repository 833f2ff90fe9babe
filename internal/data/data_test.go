package data

import (
	"math"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

func inUnitCube(t *testing.T, pts []geom.Vector, label string) {
	t.Helper()
	for i, p := range pts {
		for j, x := range p {
			if x < 0 || x > 1 {
				t.Fatalf("%s: point %d coord %d = %g out of [0,1]", label, i, j, x)
			}
		}
	}
}

func corrCoef(pts []geom.Vector, a, b int) float64 {
	n := float64(len(pts))
	var sa, sb, saa, sbb, sab float64
	for _, p := range pts {
		sa += p[a]
		sb += p[b]
		saa += p[a] * p[a]
		sbb += p[b] * p[b]
		sab += p[a] * p[b]
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	return cov / math.Sqrt(va*vb)
}

func TestSyntheticShapes(t *testing.T) {
	for _, dist := range []Distribution{IND, COR, ANTI} {
		pts := Synthetic(dist, 3000, 4, 1)
		if len(pts) != 3000 || len(pts[0]) != 4 {
			t.Fatalf("%s: wrong shape", dist)
		}
		inUnitCube(t, pts, string(dist))
	}
}

func TestSyntheticCorrelationStructure(t *testing.T) {
	ind := Synthetic(IND, 5000, 3, 2)
	cor := Synthetic(COR, 5000, 3, 2)
	anti := Synthetic(ANTI, 5000, 3, 2)
	ci := corrCoef(ind, 0, 1)
	cc := corrCoef(cor, 0, 1)
	ca := corrCoef(anti, 0, 1)
	if math.Abs(ci) > 0.1 {
		t.Errorf("IND correlation = %g, want ~0", ci)
	}
	if cc < 0.5 {
		t.Errorf("COR correlation = %g, want strongly positive", cc)
	}
	if ca > -0.2 {
		t.Errorf("ANTI correlation = %g, want negative", ca)
	}
}

// TestSkylineSizeOrdering: the defining property of the three
// distributions — skyline sizes order ANTI > IND > COR.
func TestSkylineSizeOrdering(t *testing.T) {
	n := 4000
	sizes := map[Distribution]int{}
	for _, dist := range []Distribution{IND, COR, ANTI} {
		pts := Synthetic(dist, n, 3, 3)
		tr := rtree.BulkLoad(pts)
		sizes[dist] = len(skyband.Skyline(tr))
	}
	if !(sizes[ANTI] > sizes[IND] && sizes[IND] > sizes[COR]) {
		t.Errorf("skyline sizes ANTI=%d IND=%d COR=%d violate ANTI>IND>COR",
			sizes[ANTI], sizes[IND], sizes[COR])
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := Synthetic(IND, 100, 3, 42)
	b := Synthetic(IND, 100, 3, 42)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different data")
		}
	}
	c := Synthetic(IND, 100, 3, 43)
	if a[0].Equal(c[0]) && a[1].Equal(c[1]) && a[2].Equal(c[2]) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSyntheticUnknownDistributionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Synthetic("BOGUS", 10, 2, 1)
}

func TestRealDatasetStandins(t *testing.T) {
	hotel := Hotel(2000, 1)
	if len(hotel[0]) != HotelD {
		t.Fatal("hotel dimensionality")
	}
	inUnitCube(t, hotel, "hotel")

	house := House(2000, 1)
	if len(house[0]) != HouseD {
		t.Fatal("house dimensionality")
	}
	inUnitCube(t, house, "house")
	if c := corrCoef(house, 0, 3); c < 0.15 {
		t.Errorf("house expense correlation = %g, want positive", c)
	}

	nba := NBA(2000, 1)
	if len(nba[0]) != NBAD {
		t.Fatal("nba dimensionality")
	}
	inUnitCube(t, nba, "nba")
}

func TestTripAdvisorSkybandIsSmall(t *testing.T) {
	// The paper reports a 5-skyband of 61 hotels on the real TA data; the
	// stand-in must be in that regime (strongly correlated, small skyband).
	pts := TripAdvisor(0, 7)
	if len(pts) != TAN || len(pts[0]) != TAD {
		t.Fatal("TA shape wrong")
	}
	tr := rtree.BulkLoad(pts)
	sb := skyband.KSkyband(tr, 5)
	if len(sb) < 20 || len(sb) > 300 {
		t.Errorf("TA 5-skyband = %d records, want the paper's order of magnitude (~61)", len(sb))
	}
}

func TestTAUserVectors(t *testing.T) {
	vs := TAUserVectors(500, 9)
	for i, v := range vs {
		if !geom.OnSimplex(v) {
			t.Fatalf("user vector %d off simplex: %v", i, v)
		}
	}
}

func TestNBA2019CaseStudyShape(t *testing.T) {
	players := NBA2019(1)
	if len(players) != 708 {
		t.Fatalf("got %d players", len(players))
	}
	names := map[string]geom.Vector{}
	for _, p := range players {
		names[p.Name] = p.Stats
	}
	// The planted leaders must actually lead their categories.
	for i, leader := range []string{"ScoringLeader", "ReboundLeader", "RisingPlaymaker"} {
		stats, ok := names[leader]
		if !ok {
			t.Fatalf("missing %s", leader)
		}
		for _, p := range players {
			if p.Name != leader && p.Stats[i] > stats[i] {
				t.Errorf("%s outdone in attribute %d by %s", leader, i, p.Name)
			}
		}
	}
}

func TestDefaultCardinalities(t *testing.T) {
	if n := len(TripAdvisor(0, 1)); n != TAN {
		t.Errorf("TA default n = %d", n)
	}
	// Hotel/House/NBA defaults are large; spot-check via small n.
	if n := len(Hotel(10, 1)); n != 10 {
		t.Errorf("Hotel(10) = %d", n)
	}
}
