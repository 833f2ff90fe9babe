package main

import (
	"context"
	"fmt"
	"math"

	"ordu/internal/core"
	"ordu/internal/data"
	"ordu/internal/expr"
	"ordu/internal/fixedregion"
	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// ballVolume returns the volume of an n-ball of radius r.
func ballVolume(r float64, n int) float64 {
	return math.Pow(math.Pi, float64(n)/2) * math.Pow(r, float64(n)) / math.Gamma(float64(n)/2+1)
}

// sideForBall returns the side of an n-cube with the same volume as an
// n-ball of radius r (the paper's construction in Section 6.1).
func sideForBall(r float64, n int) float64 {
	return math.Pow(ballVolume(r, n), 1/float64(n))
}

// runFig7 reproduces Figure 7: even when the fixed-region technique [54]
// is handed a hypercube whose volume matches ORU's average stopping
// sphere, its output size varies wildly around the target m, while ORU is
// exact by construction.
func runFig7(e *env) {
	// (a) TripAdvisor data with review-mined (simulated) user vectors. The
	// paper uses 50 users; the reduced grid uses fewer to bound runtime.
	taTree := rtree.BulkLoad(data.TripAdvisor(0, 7_2021))
	users := data.TAUserVectors(512, 7_2021)
	nUsers := 16
	if e.scale.Seeds > 8 {
		nUsers = 50
	}
	fig7Panel(e, "Fig 7(a): output sizes on TA (k=5)", taTree, users[:nUsers], 5, []int{10, 15, 20})

	// (b) IND data with random preference vectors at the default scale;
	// three m values spanning the paper's range keep the panel tractable.
	s := e.scale
	indTree := e.cache.Synthetic(data.IND, s.DefaultN, s.DefaultD)
	seeds := expr.Seeds(s.DefaultD, maxInt(10, s.Seeds))
	ms := []int{s.Ms[0], s.DefaultM, s.Ms[len(s.Ms)-1]}
	if e.scale.Seeds > 8 {
		ms = s.Ms
	}
	fig7Panel(e, fmt.Sprintf("Fig 7(b): output sizes on IND (k=%d)", s.DefaultK),
		indTree, seeds, s.DefaultK, ms)
}

func fig7Panel(e *env, title string, tree *rtree.Tree, users []geom.Vector, k int, ms []int) {
	d := tree.Dim()
	fmt.Fprintf(e.out, "\n== %s ==\n", title)
	fmt.Fprintf(e.out, "%-6s %-14s %s\n", "m", "rho* (avg)", "fixed-region output-size spread (ORU outputs exactly m)")
	for _, m := range ms {
		// Average ORU stopping radius over the users.
		var radii []float64
		for _, w := range users {
			res, err := core.ORUWithCtx(context.Background(), tree, w, k, m, core.ORUOptions{})
			if err != nil {
				continue
			}
			radii = append(radii, res.Rho)
		}
		if len(radii) == 0 {
			fmt.Fprintf(e.out, "%-6d unachievable on this dataset\n", m)
			continue
		}
		rhoStar := mean(radii)
		side := sideForBall(rhoStar, d-1)
		// Output size of the fixed-region top-k for that hypercube, per user.
		var sizes []float64
		for _, w := range users {
			out := fixedregion.TopKUnion(tree, w, fixedregion.NewBox(w, side), k)
			sizes = append(sizes, float64(len(out)))
		}
		fmt.Fprintf(e.out, "%-6d %-14.4f %s\n", m, rhoStar, expr.Box(sizes))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runFig7c reproduces the counterpart experiment the paper describes in
// prose at the end of Section 6.1: feed the fixed-region R-skyband the
// hypercube matched to ORD's average stopping radius. The paper reports
// even greater output-size variability than Figure 7 — e.g. 12 to 269
// records for target m=50 on IND.
func runFig7c(e *env) {
	s := e.scale
	tree := e.cache.Synthetic(data.IND, s.DefaultN, s.DefaultD)
	users := expr.Seeds(s.DefaultD, maxInt(10, s.Seeds))
	k := s.DefaultK
	d := tree.Dim()
	fmt.Fprintf(e.out, "\n== Fig 7(c) [prose counterpart]: R-skyband output sizes on IND (k=%d) ==\n", k)
	fmt.Fprintf(e.out, "%-6s %-14s %s\n", "m", "rho* (avg)", "fixed-region R-skyband spread (ORD outputs exactly m)")
	for _, m := range []int{s.Ms[0], s.DefaultM, s.Ms[len(s.Ms)-1]} {
		var radii []float64
		for _, w := range users {
			res, err := core.ORDCtx(context.Background(), tree, w, k, m)
			if err != nil {
				continue
			}
			radii = append(radii, res.Rho)
		}
		if len(radii) == 0 {
			fmt.Fprintf(e.out, "%-6d unachievable on this dataset\n", m)
			continue
		}
		rhoStar := mean(radii)
		side := sideForBall(rhoStar, d-1)
		var sizes []float64
		for _, w := range users {
			out := fixedregion.RSkyband(tree, w, fixedregion.NewBox(w, side), k)
			sizes = append(sizes, float64(len(out)))
		}
		fmt.Fprintf(e.out, "%-6d %-14.4f %s\n", m, rhoStar, expr.Box(sizes))
	}
}
