// TripAdvisor: an end-to-end application example in the spirit of the
// paper's Section 6.1 — per-user preference vectors estimated from review
// text (simulated here by a concentrated Dirichlet around each user's
// latent preference) are inherently noisy, which is exactly the situation
// ORD/ORU are built for: treat the mined vector as a best-effort seed and
// let the output size drive the relaxation.
package main

import (
	"context"
	"fmt"
	"log"

	"ordu"
	"ordu/internal/data"
)

func main() {
	ctx := context.Background()
	hotels := data.TripAdvisor(0, 7)
	records := make([][]float64, len(hotels))
	for i, h := range hotels {
		records[i] = h
	}
	ds, err := ordu.NewDataset(records)
	if err != nil {
		log.Fatal(err)
	}
	aspects := []string{"value", "rooms", "location", "cleanliness", "desk", "service", "food"}
	fmt.Printf("indexed %d hotels rated on %d aspects\n", ds.Len(), ds.Dim())

	users := data.TAUserVectors(3, 99)
	const k, m = 5, 10
	for u, w := range users {
		fmt.Printf("\nuser %d mined preference: ", u)
		for a, x := range w {
			fmt.Printf("%s=%.2f ", aspects[a], x)
		}
		fmt.Println()

		// A plain top-k trusts the noisy estimate completely...
		top, err := ds.TopK(w, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  top-%d (rigid):      ", k)
		for _, r := range top {
			fmt.Printf("H%d ", r.ID)
		}
		fmt.Println()

		// ...while ORD hedges: exactly m hotels that stay competitive for
		// any preference near the estimate.
		res, err := ds.ORDCtx(ctx, w, k, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ORD m=%d (relaxed):  ", m)
		for _, r := range res.Records {
			fmt.Printf("H%d ", r.ID)
		}
		fmt.Printf("\n  radius needed: %.4f\n", res.Rho)
	}
}
