package skyband

import (
	"math"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/raceflag"
)

// qpFallbackInput returns a (w, ri, rj) triple whose perpendicular foot
// lies outside the preference simplex, forcing MindistWS through the exact
// QP projection rather than the closed form: w sits in a corner and
// ri - rj = (0.5, -0.5, -0.1) pushes the foot's second coordinate negative.
func qpFallbackInput() (w, ri, rj geom.Vector) {
	w = geom.Vector{0.01, 0.01, 0.98}
	ri = geom.Vector{0.9, 0.1, 0.3}
	rj = geom.Vector{0.4, 0.6, 0.4}
	return
}

// TestMindistWSQPFallbackNoAllocs pins the workspace-reuse contract on the
// expensive path: a cold workspace allocates (proving the QP fallback is
// actually exercised by the input), a warmed one does not.
func TestMindistWSQPFallbackNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	w, ri, rj := qpFallbackInput()
	cold := testing.AllocsPerRun(1, func() {
		var ws Workspace
		MindistWS(w, ri, rj, &ws)
	})
	if cold == 0 {
		t.Fatal("input did not reach the QP fallback (cold call allocated nothing); the zero-alloc assertion below would be vacuous")
	}
	var ws Workspace
	d := MindistWS(w, ri, rj, &ws) // warm-up
	if math.IsInf(d, 1) || d <= 0 {
		t.Fatalf("unexpected mindist %v", d)
	}
	avg := testing.AllocsPerRun(100, func() {
		MindistWS(w, ri, rj, &ws)
	})
	if avg != 0 {
		t.Fatalf("warmed MindistWS allocates %.1f times per call, want 0", avg)
	}
}

// TestMindistWSFastPathNoAllocs covers the closed-form path, which must be
// allocation-free even on a cold workspace.
func TestMindistWSFastPathNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	w := geom.Vector{0.4, 0.3, 0.3}
	ri := geom.Vector{0.5, 0.5, 0.2}
	rj := geom.Vector{0.6, 0.4, 0.3}
	var ws Workspace
	avg := testing.AllocsPerRun(100, func() {
		MindistWS(w, ri, rj, &ws)
	})
	if avg != 0 {
		t.Fatalf("closed-form MindistWS allocates %.1f times per call, want 0", avg)
	}
}

// TestMindistAtLeastNoAllocs covers both paths of the threshold test: the
// closed form settles a foot inside the simplex on a cold workspace, and a
// foot outside it with rho above the bound runs the exact projection, which
// allocates nothing once the workspace is warm.
func TestMindistAtLeastNoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	w := geom.Vector{0.4, 0.3, 0.3}
	ri := geom.Vector{0.5, 0.5, 0.2}
	rj := geom.Vector{0.6, 0.4, 0.3}
	var ws Workspace
	md := MindistWS(w, ri, rj, &ws)
	avg := testing.AllocsPerRun(100, func() {
		mindistAtLeast(w, ri, rj, md, &ws)
		mindistAtLeast(w, ri, rj, 2*md, &ws)
	})
	if avg != 0 || ws.a != nil {
		t.Fatalf("closed-form mindistAtLeast allocates %.1f times per call (projection buffer %v), want 0", avg, ws.a)
	}

	w, ri, rj = qpFallbackInput()
	md = MindistWS(w, ri, rj, &ws) // warm-up
	if ws.a == nil {
		t.Fatal("input did not reach the projection; the zero-alloc assertion below would be vacuous")
	}
	avg = testing.AllocsPerRun(100, func() {
		mindistAtLeast(w, ri, rj, md, &ws)
	})
	if avg != 0 {
		t.Fatalf("warmed mindistAtLeast allocates %.1f times per call through the projection, want 0", avg)
	}
}

// TestMindistWSMatchesMindist checks that the workspace form returns
// bit-identical results to the allocating form on both paths.
func TestMindistWSMatchesMindist(t *testing.T) {
	w, ri, rj := qpFallbackInput()
	var ws Workspace
	if got, want := MindistWS(w, ri, rj, &ws), Mindist(w, ri, rj); got != want { //ordlint:allow floatcmp — bit-identity assertion between two implementations
		t.Fatalf("QP path: MindistWS = %v, Mindist = %v", got, want)
	}
	w2 := geom.Vector{0.4, 0.3, 0.3}
	ri2 := geom.Vector{0.5, 0.5, 0.2}
	rj2 := geom.Vector{0.6, 0.4, 0.3}
	if got, want := MindistWS(w2, ri2, rj2, &ws), Mindist(w2, ri2, rj2); got != want { //ordlint:allow floatcmp — bit-identity assertion between two implementations
		t.Fatalf("fast path: MindistWS = %v, Mindist = %v", got, want)
	}
}
