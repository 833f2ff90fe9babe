// Hotels: the paper's motivating scenario — shortlist hotels for a user
// whose preference weights were estimated (e.g. from past bookings), so the
// seed vector is only approximately right. The example also demonstrates
// composing a range predicate with ORD/ORU (Section 3 of the paper): first
// filter by hard constraints, then relax preferences on what remains, and
// shows how the shortlist reacts to inventory updates.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"ordu"
	"ordu/internal/data"
)

func main() {
	ctx := context.Background()
	// A 50,000-hotel inventory with four normalised attributes:
	// location score, value for money, guest rating, amenities.
	raw := data.Hotel(50_000, 42)

	records := make([][]float64, len(raw))
	for i, h := range raw {
		records[i] = h
	}
	inventory, err := ordu.NewDataset(records)
	if err != nil {
		log.Fatal(err)
	}

	// Hard constraint: only hotels with location score at least 0.5 and
	// value at least 0.4 (a range predicate applied before the operator).
	// Filter keeps the records inside the inclusive bounds, under fresh
	// ids; keptIDs maps them back to inventory ids.
	inf := math.Inf(1)
	ds, keptIDs, err := inventory.Filter([]float64{0.5, 0.4, -inf, -inf}, []float64{inf, inf, inf, inf})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d of %d hotels satisfy the range predicate\n", ds.Len(), inventory.Len())

	// The booking history suggests this user cares mostly about location
	// and rating — but the estimate is rough, so we relax it with ORU.
	w, err := ordu.Preference([]float64{4, 2, 3, 1})
	if err != nil {
		log.Fatal(err)
	}
	const k, m = 5, 12

	oru, err := ds.ORUCtx(ctx, w, k, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nORU shortlist of %d hotels (preference relaxed by rho=%.4f):\n", m, oru.Rho)
	for i, r := range oru.Records {
		fmt.Printf("  %2d. hotel %-6d loc=%.2f value=%.2f rating=%.2f amenities=%.2f\n",
			i+1, keptIDs[r.ID], r.Record[0], r.Record[1], r.Record[2], r.Record[3])
	}

	// Compare with a plain top-m: the records serving only the exact w.
	top, err := ds.TopK(w, m)
	if err != nil {
		log.Fatal(err)
	}
	onlyORU := diff(oru.Records, top)
	fmt.Printf("\n%d hotels in the ORU shortlist are invisible to a plain top-%d:\n", len(onlyORU), m)
	for _, id := range onlyORU {
		fmt.Printf("  hotel %d — strong for preferences similar to w\n", keptIDs[id])
	}

	// Inventory churn: a new hotel shows up; no precomputation to rebuild
	// (the operators read the index directly).
	newID, err := ds.Insert([]float64{0.97, 0.90, 0.95, 0.60})
	if err != nil {
		log.Fatal(err)
	}
	oru2, err := ds.ORUCtx(ctx, w, k, m)
	if err != nil {
		log.Fatal(err)
	}
	found := false
	for _, r := range oru2.Records {
		if r.ID == newID {
			found = true
		}
	}
	fmt.Printf("\nafter inserting a standout hotel, shortlisted=%v (rho %.4f -> %.4f)\n",
		found, oru.Rho, oru2.Rho)
}

func diff(a []ordu.Result, b []ordu.Result) []int {
	in := map[int]bool{}
	for _, r := range b {
		in[r.ID] = true
	}
	var out []int
	for _, r := range a {
		if !in[r.ID] {
			out = append(out, r.ID)
		}
	}
	return out
}
