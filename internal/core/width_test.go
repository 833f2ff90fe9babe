package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// dupPoints draws n records from a pool of n/4 distinct points, so most
// records share their coordinates with several others.
func dupPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pool := antiPoints(rng, n/4, d)
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = append(geom.Vector(nil), pool[rng.Intn(len(pool))]...)
	}
	return pts
}

// TestExploreWidthParity: the explorer partitions up to GOMAXPROCS regions
// concurrently (the parallelisation of Section 6.4). The batch width must
// be a pure wall-clock choice — every entry point on the explorer returns
// the same records, regions, radius, statistics and error at every width.
func TestExploreWidthParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type parityCase struct {
		name       string
		gen        func(*rand.Rand, int, int) []geom.Vector
		d, n, k, m int
		ops        []string // the entry points to run; nil runs all
	}
	var cases []parityCase
	for _, g := range []parityCase{{name: "IND", gen: randPoints}, {name: "ANTI", gen: antiPoints}, {name: "DUP", gen: dupPoints}} {
		for _, c := range []struct{ d, n, k, m int }{{2, 200, 4, 9}, {4, 160, 3, 8}, {8, 80, 2, 5}} {
			cases = append(cases, parityCase{g.name, g.gen, c.d, c.n, c.k, c.m, nil})
		}
	}
	// Large enough that about half the partitions repeat a candidate union,
	// so widths 2 and 4 read the L_upd memo concurrently. ORUBSL is too slow
	// at this size.
	cases = append(cases, parityCase{"IND", randPoints, 4, 1000, 5, 20, []string{"ORUWithCtx", "EnumerateWithin"}})
	type outcome struct {
		Res     *ORUResult
		Records []Record
		Regions []TopKRegion
		Err     error
	}
	for _, c := range cases {
		d, k, m := c.d, c.k, c.m
		rng := rand.New(rand.NewSource(int64(112 + d)))
		tr := rtree.BulkLoad(c.gen(rng, c.n, d))
		w := geom.RandSimplex(rng, d)
		band, err := skyband.KSkybandForCtx(context.Background(), tr, w, k)
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string]func() outcome{
			"ORUWithCtx": func() outcome {
				res, err := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
				return outcome{Res: res, Err: err}
			},
			"EnumerateWithin": func() outcome {
				recs, regs, err := EnumerateWithin(band, w, k, region.Box(w, 0.1))
				return outcome{Records: recs, Regions: regs, Err: err}
			},
			// Fewer candidates than k: every region runs out of
			// candidates before its top list is k deep.
			"EnumerateWithin/short": func() outcome {
				recs, regs, err := EnumerateWithin(band[:4], w, 5, region.Box(w, 0.3))
				return outcome{Records: recs, Regions: regs, Err: err}
			},
			"ORUBSL": func() outcome {
				res, err := ORUBSL(tr, w, k, m, 0)
				return outcome{Res: res, Err: err}
			},
			"ORUBSL/budget": func() outcome {
				res, err := ORUBSL(tr, w, k, m, 3)
				return outcome{Res: res, Err: err}
			},
		}
		if c.ops != nil {
			for op := range runs {
				if !slices.Contains(c.ops, op) {
					delete(runs, op)
				}
			}
		}
		want := map[string]outcome{}
		for _, width := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(width)
			for op, run := range runs {
				got := run()
				if width == 1 {
					want[op] = got
				} else if !reflect.DeepEqual(got, want[op]) {
					t.Errorf("%s/d=%d/n=%d/%s: width %d diverges from width 1:\n got %+v\nwant %+v",
						c.name, d, c.n, op, width, got.Res, want[op].Res)
				}
			}
		}
		if err := want["ORUWithCtx"].Err; err != nil {
			t.Errorf("%s/d=%d/n=%d: ORUWithCtx: %v", c.name, d, c.n, err)
		}
		if bsl, ok := want["ORUBSL"]; ok && bsl.Err == nil && !errors.Is(want["ORUBSL/budget"].Err, ErrBudgetExceeded) {
			t.Errorf("%s/d=%d: budgeted ORUBSL err = %v, want the budget to trip", c.name, d, want["ORUBSL/budget"].Err)
		}
	}
}
