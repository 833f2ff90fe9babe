package region

import (
	"testing"

	"ordu/internal/geom"
	"ordu/internal/raceflag"
)

// TestMinDistWSNoAllocs pins the workspace-reuse contract: once a Workspace
// has served a region shape, further MinDistWS calls perform zero heap
// allocations.
func TestMinDistWSNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	r := Full(3).With(
		Beat(geom.Vector{0.9, 0.2, 0.1}, geom.Vector{0.3, 0.8, 0.2}),
		Beat(geom.Vector{0.9, 0.2, 0.1}, geom.Vector{0.2, 0.3, 0.9}),
	)
	w := geom.Vector{0.1, 0.2, 0.7}
	var ws Workspace
	if _, _, ok := r.MinDistWS(w, &ws); !ok { // warm-up
		t.Fatal("region unexpectedly empty")
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, ok := r.MinDistWS(w, &ws); !ok {
			t.Fatal("region unexpectedly empty")
		}
	})
	if avg != 0 {
		t.Fatalf("warmed MinDistWS allocates %.1f times per call, want 0", avg)
	}
}

// TestProbeEmptyNoAllocs covers the probe-and-discard overlap test used by
// the explorer's flood fill: ProbeMinDist with extra rows, projecting a
// point other than the seed.
func TestProbeEmptyNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	r := Full(3).With(Beat(geom.Vector{0.9, 0.2, 0.1}, geom.Vector{0.3, 0.8, 0.2}))
	hs := []Halfspace{Beat(geom.Vector{0.9, 0.2, 0.1}, geom.Vector{0.2, 0.3, 0.9})}
	at := geom.SimplexBarycentre(3)
	var ws Workspace
	r.ProbeMinDist(hs, at, &ws) // warm-up
	avg := testing.AllocsPerRun(100, func() {
		if _, _, ok := r.ProbeMinDist(hs, at, &ws); !ok {
			t.Fatal("probe unexpectedly empty")
		}
	})
	if avg != 0 {
		t.Fatalf("warmed ProbeMinDist allocates %.1f times per call, want 0", avg)
	}
}
