// NBA: the paper's Figure 6 case study as a runnable program — scouting
// the 2018-19 season (simulated; see DESIGN.md) for k=2, m=6 on two
// attribute slices, comparing ORD and ORU against a plain top-m query and
// the OSS skyline. The takeaway mirrors the paper: top-m misses a
// category leader that both ORD and ORU catch, because they search "wide"
// across preferences similar to the seed.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"ordu"
	"ordu/internal/data"
)

func main() {
	players := data.NBA2019(2019)
	attrs := []string{"points", "rebounds", "assists"}

	scenario(players, attrs, [2]int{2, 1}, []float64{0.49, 0.51})
	scenario(players, attrs, [2]int{0, 1}, []float64{0.43, 0.57})
}

func scenario(players []data.Player, attrs []string, dims [2]int, w []float64) {
	fmt.Printf("\n=== %s vs %s, seed w = %v, k=2, m=6 ===\n", attrs[dims[0]], attrs[dims[1]], w)
	records := make([][]float64, len(players))
	for i, p := range players {
		records[i] = []float64{p.Stats[dims[0]], p.Stats[dims[1]]}
	}
	ds, err := ordu.NewDataset(records)
	if err != nil {
		log.Fatal(err)
	}
	name := func(id int) string { return players[id].Name }

	const k, m = 2, 6
	ctx := context.Background()
	ordRes, err := ds.ORDCtx(ctx, w, k, m)
	if err != nil {
		log.Fatal(err)
	}
	oruRes, err := ds.ORUCtx(ctx, w, k, m)
	if err != nil {
		log.Fatal(err)
	}
	topRes, err := ds.TopK(w, m)
	if err != nil {
		log.Fatal(err)
	}
	ossRes := ds.OSSkyline(m)

	print1 := func(label string, ids []int) {
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = name(id)
		}
		sort.Strings(names)
		fmt.Printf("  %-12s %v\n", label, names)
	}
	print1("ORD:", ids(ordRes.Records))
	print1("ORU:", ids(oruRes.Records))
	print1("top-m:", resIDs(topRes))
	print1("OSS skyline:", resIDs(ossRes))

	// Who do the relaxed operators catch that the rigid top-m misses?
	topSet := map[int]bool{}
	for _, r := range topRes {
		topSet[r.ID] = true
	}
	for _, r := range oruRes.Records {
		if !topSet[r.ID] {
			fmt.Printf("  -> %s is missed by top-m but caught by ORU: a slightly different\n"+
				"     preference (within rho=%.4f of w) ranks them in the top-%d\n",
				name(r.ID), oruRes.Rho, k)
		}
	}
}

func ids(rs []ordu.Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func resIDs(rs []ordu.Result) []int { return ids(rs) }
