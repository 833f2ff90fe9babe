package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"ordu/internal/core"
	"ordu/internal/data"
	"ordu/internal/expr"
	"ordu/internal/geom"
	"ordu/internal/osskyline"
	"ordu/internal/rtree"
	"ordu/internal/topk"
)

// runFig6 reproduces the paper's Figure 6 case study: NBA 2018-19 players
// on two 2-attribute slices, comparing ORD and ORU with a top-m query and
// the OSS skyline [49] for k=2, m=6.
func runFig6(e *env) {
	players := data.NBA2019(2019)
	cases := []struct {
		title string
		dims  [2]int // indices into [points, rebounds, assists]
		w     geom.Vector
	}{
		{"Fig 6(a): Assists-Rebounds, w=(0.49,0.51)", [2]int{2, 1}, geom.Vector{0.49, 0.51}},
		{"Fig 6(b): Points-Rebounds, w=(0.43,0.57)", [2]int{0, 1}, geom.Vector{0.43, 0.57}},
	}
	const k, m = 2, 6
	for _, cs := range cases {
		pts := make([]geom.Vector, len(players))
		for i, p := range players {
			pts[i] = geom.Vector{p.Stats[cs.dims[0]], p.Stats[cs.dims[1]]}
		}
		tr := rtree.BulkLoad(pts)
		name := func(id int) string { return players[id].Name }

		fmt.Fprintf(e.out, "\n== %s (k=%d, m=%d) ==\n", cs.title, k, m)
		if res, err := core.ORDCtx(context.Background(), tr, cs.w, k, m); err == nil {
			fmt.Fprintf(e.out, "%-12s %s\n", "ORD:", nameList(res.Records, name))
		} else {
			fmt.Fprintf(e.out, "%-12s error: %v\n", "ORD:", err)
		}
		if res, err := core.ORUWithCtx(context.Background(), tr, cs.w, k, m, core.ORUOptions{}); err == nil {
			fmt.Fprintf(e.out, "%-12s %s\n", "ORU:", nameList(res.Records, name))
		} else {
			fmt.Fprintf(e.out, "%-12s error: %v\n", "ORU:", err)
		}
		tm := topk.TopK(tr, cs.w, m)
		names := make([]string, len(tm))
		for i, r := range tm {
			names[i] = name(r.ID)
		}
		fmt.Fprintf(e.out, "%-12s %v\n", "top-m:", names)
		oss := osskyline.TopM(tr, m)
		names = names[:0]
		for _, r := range oss {
			names = append(names, name(r.ID))
		}
		fmt.Fprintf(e.out, "%-12s %v\n", "OSS skyline:", names)
	}
}

func nameList(recs []core.Record, name func(int) string) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = name(r.ID)
	}
	// Stable presentation order.
	sort.Strings(out)
	return out
}

// runJaccard reproduces the Section 6.1 similarity numbers: the Jaccard
// coefficient of the OSS skyline and the top-m query against ORD and ORU
// on IND data at the default parameters (paper: OSS~0.25/0.24,
// top-m~0.44/0.32).
func runJaccard(e *env) {
	s := e.scale
	tr := e.cache.Synthetic(data.IND, s.DefaultN, s.DefaultD)
	seeds := expr.Seeds(s.DefaultD, s.Seeds)
	var jOSSORD, jOSSORU, jTopORD, jTopORU []float64
	oss := osskyline.TopM(tr, s.DefaultM)
	ossIDs := make([]int, len(oss))
	for i, r := range oss {
		ossIDs[i] = r.ID
	}
	for _, w := range seeds {
		ord, err1 := core.ORDCtx(context.Background(), tr, w, s.DefaultK, s.DefaultM)
		oru, err2 := core.ORUWithCtx(context.Background(), tr, w, s.DefaultK, s.DefaultM, core.ORUOptions{})
		if err1 != nil || err2 != nil {
			continue
		}
		tm := topk.TopK(tr, w, s.DefaultM)
		topIDs := make([]int, len(tm))
		for i, r := range tm {
			topIDs[i] = r.ID
		}
		ordIDs := recIDs(ord.Records)
		oruIDs := recIDs(oru.Records)
		jOSSORD = append(jOSSORD, expr.Jaccard(ossIDs, ordIDs))
		jOSSORU = append(jOSSORU, expr.Jaccard(ossIDs, oruIDs))
		jTopORD = append(jTopORD, expr.Jaccard(topIDs, ordIDs))
		jTopORU = append(jTopORU, expr.Jaccard(topIDs, oruIDs))
	}
	fmt.Fprintf(e.out, "\n== Section 6.1: Jaccard similarity to ORD/ORU (IND, defaults) ==\n")
	fmt.Fprintf(e.out, "%-22s %8s %8s\n", "", "vs ORD", "vs ORU")
	fmt.Fprintf(e.out, "%-22s %8.2f %8.2f   (paper: 0.25 / 0.24)\n", "OSS skyline", mean(jOSSORD), mean(jOSSORU))
	fmt.Fprintf(e.out, "%-22s %8.2f %8.2f   (paper: 0.44 / 0.32)\n", "top-m", mean(jTopORD), mean(jTopORU))
}

func recIDs(rs []core.Record) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
