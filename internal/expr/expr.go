// Package expr is the shared experiment harness behind cmd/experiments and
// the root-level benchmarks: parameter grids (the paper's Table 2 and a
// laptop-scale reduction), dataset/index caching, timing, and the tabular
// and box-plot output formats the paper's figures reduce to.
package expr

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// Scale is one experiment parameter grid (Table 2 of the paper).
type Scale struct {
	Cardinalities []int
	Dims          []int
	Ks            []int
	Ms            []int
	DefaultN      int
	DefaultD      int
	DefaultK      int
	DefaultM      int
	Seeds         int // preference vectors averaged per measurement
}

// PaperScale returns the paper's Table 2 grid (50 seeds per measurement).
// Running it end-to-end takes machine-hours; see ReducedScale.
func PaperScale() Scale {
	return Scale{
		Cardinalities: []int{100_000, 400_000, 1_600_000, 6_400_000, 25_600_000},
		Dims:          []int{2, 3, 4, 5, 6, 7},
		Ks:            []int{1, 5, 10, 15, 20},
		Ms:            []int{10, 30, 50, 70, 90},
		DefaultN:      400_000,
		DefaultD:      4,
		DefaultK:      5,
		DefaultM:      50,
		Seeds:         50,
	}
}

// ReducedScale returns the default laptop-scale grid: the same defaults as
// the paper (400K, d=4, k=5, m=50) with shorter sweep tails and fewer
// seeds, tuned so the full suite finishes in minutes. EXPERIMENTS.md
// documents the reduction.
func ReducedScale() Scale {
	return Scale{
		Cardinalities: []int{25_000, 100_000, 400_000, 1_600_000},
		Dims:          []int{2, 3, 4, 5},
		Ks:            []int{1, 5, 10, 15},
		Ms:            []int{10, 30, 50, 70, 90},
		DefaultN:      400_000,
		DefaultD:      4,
		DefaultK:      5,
		DefaultM:      50,
		Seeds:         3,
	}
}

// QuickScale is a minimal smoke-test grid for CI-style runs.
func QuickScale() Scale {
	return Scale{
		Cardinalities: []int{10_000, 50_000},
		Dims:          []int{2, 3, 4},
		Ks:            []int{1, 5},
		Ms:            []int{10, 30, 50},
		DefaultN:      50_000,
		DefaultD:      4,
		DefaultK:      5,
		DefaultM:      30,
		Seeds:         2,
	}
}

// Cache builds and memoises indexes per (distribution, n, d).
type Cache struct {
	trees map[string]*rtree.Tree
}

// NewCache returns an empty index cache.
func NewCache() *Cache {
	return &Cache{trees: make(map[string]*rtree.Tree)}
}

// Synthetic returns a cached R-tree over a synthetic dataset.
func (c *Cache) Synthetic(dist data.Distribution, n, d int) *rtree.Tree {
	key := fmt.Sprintf("%s/%d/%d", dist, n, d)
	if t, ok := c.trees[key]; ok {
		return t
	}
	t := rtree.BulkLoad(data.Synthetic(dist, n, d, 7_2021))
	c.trees[key] = t
	return t
}

// Named returns a cached R-tree over one of the simulated real datasets
// ("HOTEL", "HOUSE", "NBA", "TA").
func (c *Cache) Named(name string, n int) *rtree.Tree {
	key := fmt.Sprintf("%s/%d", name, n)
	if t, ok := c.trees[key]; ok {
		return t
	}
	var pts []geom.Vector
	switch name {
	case "HOTEL":
		pts = data.Hotel(n, 7_2021)
	case "HOUSE":
		pts = data.House(n, 7_2021)
	case "NBA":
		pts = data.NBA(n, 7_2021)
	case "TA":
		pts = data.TripAdvisor(n, 7_2021)
	default:
		panic("expr: unknown dataset " + name) //ordlint:allow nopanic — harness-internal dataset table; unknown name is a harness bug
	}
	t := rtree.BulkLoad(pts)
	c.trees[key] = t
	return t
}

// Seeds draws `count` random preference vectors for dimension d,
// deterministically per (d, count).
func Seeds(d, count int) []geom.Vector {
	rng := rand.New(rand.NewSource(int64(1000*d + count)))
	out := make([]geom.Vector, count)
	for i := range out {
		out[i] = geom.RandSimplex(rng, d)
	}
	return out
}

// Row is one line of a figure table: a label and one value per x position.
type Row struct {
	Label string
	Cells []string
}

// Table renders a paper-style figure as text: the x-axis values as columns
// and one row per method/series.
func Table(w io.Writer, title, xname string, xs []string, rows []Row) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	width := 14
	fmt.Fprintf(w, "%-16s", xname)
	for _, x := range xs {
		fmt.Fprintf(w, "%*s", width, x)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 16+width*len(xs)))
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s", r.Label)
		for _, c := range r.Cells {
			fmt.Fprintf(w, "%*s", width, c)
		}
		fmt.Fprintln(w)
	}
}

// Dur formats a duration as milliseconds with sensible precision.
func Dur(d time.Duration) string {
	ms := float64(d.Microseconds()) / 1000
	switch {
	case ms >= 1000:
		return fmt.Sprintf("%.1fs", ms/1000)
	case ms >= 10:
		return fmt.Sprintf("%.0fms", ms)
	default:
		return fmt.Sprintf("%.2fms", ms)
	}
}

// BoxStats are five-number summaries, the paper's box plots in text form.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// Box computes the five-number summary of values.
func Box(values []float64) BoxStats {
	if len(values) == 0 {
		return BoxStats{}
	}
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	q := func(p float64) float64 {
		idx := p * float64(len(vs)-1)
		lo := int(idx)
		if lo >= len(vs)-1 {
			return vs[len(vs)-1]
		}
		frac := idx - float64(lo)
		return vs[lo]*(1-frac) + vs[lo+1]*frac
	}
	return BoxStats{
		Min: vs[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: vs[len(vs)-1],
		N: len(vs),
	}
}

func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.0f q1=%.0f med=%.0f q3=%.0f max=%.0f (n=%d)",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
}

// Jaccard returns the Jaccard similarity of two id sets.
func Jaccard(a, b []int) float64 {
	as := map[int]bool{}
	for _, x := range a {
		as[x] = true
	}
	inter := 0
	bs := map[int]bool{}
	for _, x := range b {
		if bs[x] {
			continue
		}
		bs[x] = true
		if as[x] {
			inter++
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
