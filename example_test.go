package ordu_test

import (
	"context"
	"fmt"

	"ordu"
)

// The laptops from the package documentation: battery, performance,
// display (larger is better).
var laptops = [][]float64{
	{0.95, 0.30, 0.50},
	{0.20, 0.95, 0.70},
	{0.60, 0.60, 0.60},
	{0.55, 0.55, 0.95},
	{0.50, 0.50, 0.50},
}

func ExampleDataset_ORDCtx() {
	ds, _ := ordu.NewDataset(laptops)
	w, _ := ordu.Preference([]float64{4, 3, 3})
	res, _ := ds.ORDCtx(context.Background(), w, 2, 3)
	for i, r := range res.Records {
		fmt.Printf("%d: laptop %d (radius %.3f)\n", i+1, r.ID, res.Radii[i])
	}
	// Output:
	// 1: laptop 3 (radius 0.000)
	// 2: laptop 0 (radius 0.000)
	// 3: laptop 2 (radius 0.042)
}

func ExampleDataset_ORUCtx() {
	ds, _ := ordu.NewDataset(laptops)
	w, _ := ordu.Preference([]float64{4, 3, 3})
	res, _ := ds.ORUCtx(context.Background(), w, 1, 2)
	fmt.Printf("%d records within rho=%.3f\n", len(res.Records), res.Rho)
	for _, reg := range res.Regions {
		fmt.Printf("top-1 = laptop %d at distance %.3f\n", reg.TopK[0].ID, reg.MinDist)
	}
	// Output:
	// 2 records within rho=0.080
	// top-1 = laptop 3 at distance 0.000
	// top-1 = laptop 0 at distance 0.080
}

func ExampleDataset_TopK() {
	ds, _ := ordu.NewDataset(laptops)
	w, _ := ordu.Preference([]float64{1, 1, 1})
	res, _ := ds.TopK(w, 2)
	for _, r := range res {
		fmt.Printf("laptop %d scores %.3f\n", r.ID, r.Score)
	}
	// Output:
	// laptop 3 scores 0.683
	// laptop 1 scores 0.617
}

func ExampleNormalize() {
	raw := [][]float64{{100, 3}, {300, 1}, {200, 2}}
	for _, r := range ordu.Normalize(raw) {
		fmt.Println(r)
	}
	// Output:
	// [0 1]
	// [1 0]
	// [0.5 0.5]
}
