// Quickstart: index a small dataset, run the classic operators, then ORD
// and ORU — showing how both interpolate between the top-k at the seed
// vector and dominance-based retrieval while returning exactly m records.
package main

import (
	"context"
	"fmt"
	"log"

	"ordu"
)

func main() {
	ctx := context.Background()
	// Eight laptops scored on battery life, performance and display
	// quality (already normalised; larger is better).
	laptops := [][]float64{
		{0.95, 0.30, 0.50}, // 0: endurance champion
		{0.20, 0.95, 0.70}, // 1: workstation
		{0.60, 0.60, 0.60}, // 2: balanced
		{0.55, 0.55, 0.95}, // 3: gorgeous screen
		{0.50, 0.50, 0.50}, // 4: dominated by 2
		{0.85, 0.45, 0.40}, // 5
		{0.30, 0.80, 0.85}, // 6
		{0.70, 0.35, 0.75}, // 7
	}
	ds, err := ordu.NewDataset(laptops)
	if err != nil {
		log.Fatal(err)
	}

	// A best-effort preference: battery matters a bit more than the rest.
	w, err := ordu.Preference([]float64{4, 3, 3})
	if err != nil {
		log.Fatal(err)
	}

	top, err := ds.TopK(w, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-2 for w:")
	for _, r := range top {
		fmt.Printf("  laptop %d score %.3f %v\n", r.ID, r.Score, r.Record)
	}

	fmt.Println("skyline (not dominated by anything):")
	for _, r := range ds.Skyline() {
		fmt.Printf("  laptop %d %v\n", r.ID, r.Record)
	}

	// ORD: relax dominance around w until exactly 4 records qualify.
	ord, err := ds.ORDCtx(ctx, w, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ORD(k=2, m=4) with stopping radius %.4f:\n", ord.Rho)
	for i, r := range ord.Records {
		fmt.Printf("  laptop %d (joins at radius %.4f)\n", r.ID, ord.Radii[i])
	}

	// ORU: the records that enter some top-2 when the preference is
	// perturbed within the (automatically determined) radius.
	oru, err := ds.ORUCtx(ctx, w, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ORU(k=2, m=4) with stopping radius %.4f:\n", oru.Rho)
	for _, r := range oru.Records {
		fmt.Printf("  laptop %d\n", r.ID)
	}
	fmt.Println("its top-2 results in the preference neighbourhood:")
	for _, reg := range oru.Regions {
		ids := []int{}
		for _, r := range reg.TopK {
			ids = append(ids, r.ID)
		}
		fmt.Printf("  at %.3f from w (witness %v): top-2 = %v\n",
			reg.MinDist, fmtVec(reg.Witness), ids)
	}
}

func fmtVec(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.2f", x)
	}
	return out
}
