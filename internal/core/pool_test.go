package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// drainPool empties p, which has no New function, and returns how many
// objects it held and the largest footprint among them. A sync.Pool hands
// out only what the calling goroutine's P can reach, so an object another
// P keeps private may stay; everything drained is checked.
func drainPool[T any](p *sync.Pool, footprint func(T) int) (n, largest int) {
	for x := p.Get(); x != nil; x = p.Get() {
		n++
		largest = max(largest, footprint(x.(T)))
	}
	return n, largest
}

// TestPooledScratchBounded: ORU on exact duplicates at d = 5 (dupPoints,
// n = 1,500, k = 5, m = 20) pushes thousands of children per partition,
// most of them tied regions with no interior. Its explorer workspace
// passes skyband.MaxPooledBytes within 20 partitions, and releasing it
// drops it instead of pooling it; and after the full query runs under a
// 200 ms deadline, no pooled workspace or ORD state exceeds the cap.
func TestPooledScratchBounded(t *testing.T) {
	const d, k, m = 5, 5, 20
	rng := rand.New(rand.NewSource(2805))
	tree := rtree.BulkLoad(dupPoints(rng, 1500, d))
	w := geom.RandSimplex(rng, d)
	ctx := context.Background()
	wsFoot := func(ws *exploreWS) int { return ws.footprint() }
	ordFoot := func(st *ordState) int { return st.footprint() }

	rhoBar, _, _, err := estimateRhoBar(ctx, tree, w, m)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := skyband.RhoSkybandCtx(ctx, tree, w, k, rhoBar)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExplorer(cands, w, k, nil)
	ex.budget = 20
	if !ex.seed() {
		t.Fatal("nothing to explore")
	}
	if _, err := ex.explore(ctx, m); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("explore = %v, want the budget to trip first", err)
	}
	ws := ex.ws
	releaseExplorer(ex) // recycles the heap's nodes into ws first
	fp := ws.footprint()
	t.Logf("after 20 partitions the workspace holds %d bytes", fp)
	if fp <= skyband.MaxPooledBytes {
		t.Fatalf("the workspace holds %d bytes, within the cap of %d: the shape no longer exercises it", fp, skyband.MaxPooledBytes)
	}
	drainPool(&wsPool, func(x *exploreWS) int {
		if x == ws {
			t.Fatal("a workspace over the cap went back to the pool")
		}
		return 0
	})

	// The whole query takes about a second on a 2-vCPU host, so the
	// deadline normally stops it; a host fast enough to finish is fine too.
	dctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if _, err := ORUWithCtx(dctx, tree, w, k, m, ORUOptions{}); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ORU = %v", err)
	}
	nw, lw := drainPool(&wsPool, wsFoot)
	no, lo := drainPool(&ordPool, ordFoot)
	t.Logf("after the deadline: %d workspaces (largest %d bytes), %d ORD states (largest %d bytes)", nw, lw, no, lo)
	if lw > skyband.MaxPooledBytes || lo > skyband.MaxPooledBytes {
		t.Fatalf("a pooled object exceeds the cap of %d bytes: workspace %d, ORD state %d", skyband.MaxPooledBytes, lw, lo)
	}
}

// TestExploreWarmPoolRepeat runs every entry point on the explorer twice,
// the first time with the explorer and ORD pools drained and the second on
// the workspace and ORD state the first put back: node free list with row
// buffers and vertex lists, QP workspace, L_upd builder and union maps. The
// two runs must return the same records, regions, radius, statistics and
// error, so no warm buffer carries state from one query into the next.
func TestExploreWarmPoolRepeat(t *testing.T) {
	// A sync.Pool keeps a private object per P. With one P the second run
	// takes what the first put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type repeatCase struct {
		name       string
		gen        func(*rand.Rand, int, int) []geom.Vector
		d, n, k, m int
		ops        []string // the entry points to run; nil runs all
	}
	var cases []repeatCase
	for _, g := range []repeatCase{{name: "IND", gen: randPoints}, {name: "ANTI", gen: antiPoints}, {name: "DUP", gen: dupPoints}} {
		for _, c := range []struct{ d, n, k, m int }{{2, 200, 4, 9}, {4, 160, 3, 8}, {8, 80, 2, 5}} {
			cases = append(cases, repeatCase{g.name, g.gen, c.d, c.n, c.k, c.m, nil})
		}
	}
	// Large enough that about half the partitions repeat a candidate union,
	// so the L_upd memo serves lookups. ORUBSL is too slow at this size.
	cases = append(cases, repeatCase{"IND", randPoints, 4, 1000, 5, 20, []string{"ORUWithCtx", "EnumerateWithin"}})
	type outcome struct {
		Res     *ORUResult
		Records []Record
		Regions []TopKRegion
		Err     error
	}
	none := func(any) int { return 0 }
	for _, c := range cases {
		d, k, m := c.d, c.k, c.m
		rng := rand.New(rand.NewSource(int64(112 + d)))
		tr := rtree.BulkLoad(c.gen(rng, c.n, d))
		w := geom.RandSimplex(rng, d)
		band, err := skyband.KSkybandForCtx(context.Background(), tr, w, k)
		if err != nil {
			t.Fatal(err)
		}
		runs := []struct {
			op  string
			run func() outcome
		}{
			{"ORUWithCtx", func() outcome {
				res, err := ORUWithCtx(context.Background(), tr, w, k, m, ORUOptions{})
				return outcome{Res: res, Err: err}
			}},
			{"EnumerateWithin", func() outcome {
				recs, regs, err := EnumerateWithin(band, w, k, region.Box(w, 0.1))
				return outcome{Records: recs, Regions: regs, Err: err}
			}},
			// Fewer candidates than k: every region runs out of
			// candidates before its top list is k deep.
			{"EnumerateWithin/short", func() outcome {
				recs, regs, err := EnumerateWithin(band[:4], w, 5, region.Box(w, 0.3))
				return outcome{Records: recs, Regions: regs, Err: err}
			}},
			{"ORUBSL", func() outcome {
				res, err := ORUBSL(tr, w, k, m, 0)
				return outcome{Res: res, Err: err}
			}},
			{"ORUBSL/budget", func() outcome {
				res, err := ORUBSL(tr, w, k, m, 3)
				return outcome{Res: res, Err: err}
			}},
		}
		first := map[string]outcome{}
		for _, r := range runs {
			if c.ops != nil && !slices.Contains(c.ops, r.op) {
				continue
			}
			drainPool(&wsPool, none)
			drainPool(&ordPool, none)
			cold := r.run()
			if warm := r.run(); !reflect.DeepEqual(warm, cold) {
				t.Errorf("%s/d=%d/n=%d/%s: the warm run diverges from the cold one:\n warm %+v\n cold %+v",
					c.name, d, c.n, r.op, warm.Res, cold.Res)
			}
			first[r.op] = cold
		}
		if err := first["ORUWithCtx"].Err; err != nil {
			t.Errorf("%s/d=%d/n=%d: ORUWithCtx: %v", c.name, d, c.n, err)
		}
		if bsl, ok := first["ORUBSL"]; ok && bsl.Err == nil && !errors.Is(first["ORUBSL/budget"].Err, ErrBudgetExceeded) {
			t.Errorf("%s/d=%d: budgeted ORUBSL err = %v, want the budget to trip", c.name, d, first["ORUBSL/budget"].Err)
		}
	}
}

// snapshot is a deep copy of v as bytes: gob writes every float by its
// bits, so two snapshots are equal exactly when v did not change.
func snapshot(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestResultsDoNotAliasPooledScratch holds one result of every operator
// that runs on pooled scratch, snapshots each, runs 200-odd further
// queries on the same pools (d = 2–8; IND, clamped ANTI, grids, duplicates
// and NBA; cancelled queries, ErrInsufficientData answers and rho-bar
// restarts among them), and requires every held result to be bit-identical
// to its snapshot: no result reaches memory a later query reuses.
func TestResultsDoNotAliasPooledScratch(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2806))
	tree := rtree.BulkLoad(antiPoints(rng, 800, 4))
	w := geom.RandSimplex(rng, 4)

	type enumerated struct {
		Records []Record
		Regions []TopKRegion
	}
	held, copies := map[string]any{}, map[string][]byte{}
	hold := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		held[name], copies[name] = v, snapshot(t, v)
	}
	ord, err := ORDCtx(ctx, tree, w, 3, 20)
	hold("ORD", ord, err)
	oru, err := ORUWithCtx(ctx, tree, w, 3, 12, ORUOptions{})
	hold("ORU", oru, err)
	bsl, err := ORUBSL(tree, w, 2, 6, 0)
	hold("ORU-BSL", bsl, err)
	ksky, err := skyband.KSkybandForCtx(ctx, tree, w, 2)
	hold("KSkyband", ksky, err)
	recs, regs, err := EnumerateWithin(ksky, w, 2, region.Box(w, 0.1))
	hold("EnumerateWithin", enumerated{recs, regs}, err)
	rsky, err := skyband.RhoSkybandCtx(ctx, tree, w, 3, ord.Rho)
	hold("RhoSkyband", rsky, err)

	type dataset struct {
		name string
		tree *rtree.Tree
	}
	var sets []dataset
	for d := 2; d <= 8; d++ {
		n := 600
		sets = append(sets,
			dataset{fmt.Sprintf("IND/d=%d", d), rtree.BulkLoad(randPoints(rng, n, d))},
			dataset{fmt.Sprintf("ANTI/d=%d", d), rtree.BulkLoad(antiPoints(rng, n, d))},
			dataset{fmt.Sprintf("GRID/d=%d", d), rtree.BulkLoad(gridPoints(n, d, int64(2806+d)))},
			dataset{fmt.Sprintf("DUP/d=%d", d), rtree.BulkLoad(dupPoints(rng, n, d))},
		)
	}
	sets = append(sets, dataset{"NBA", rtree.BulkLoad(data.NBA(3000, 2806))})
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	var queries, insufficient, stopped int
	for _, s := range sets {
		d := s.tree.Dim()
		for i := 0; i < 2; i++ {
			v := geom.RandSimplex(rng, d)
			k := 1 + rng.Intn(2)
			if d <= 4 {
				k++
			}
			for _, m := range []int{k + 5, s.tree.Len() + 1} {
				_, err := ORDCtx(ctx, s.tree, v, k, m)
				queries++
				if errors.Is(err, ErrInsufficientData) {
					insufficient++
				} else if err != nil {
					t.Fatalf("%s: ORD: %v", s.name, err)
				}
			}
			if _, err := ORUWithCtx(ctx, s.tree, v, k, k+4, ORUOptions{}); err != nil && !errors.Is(err, ErrInsufficientData) {
				t.Fatalf("%s: ORU: %v", s.name, err)
			}
			if _, err := ORUWithCtx(cancelled, s.tree, v, k, k+4, ORUOptions{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled ORU = %v", s.name, err)
			}
			stopped++
			if _, err := skyband.RhoSkybandCtx(cancelled, s.tree, v, k, 0.1); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled rho-skyband = %v", s.name, err)
			}
			stopped++
			members, err := skyband.KSkybandForCtx(ctx, s.tree, v, k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := skyband.RhoSkybandCtx(ctx, s.tree, v, k, 0.05); err != nil {
				t.Fatal(err)
			}
			queries += 4
			if d <= 4 && len(members) <= 200 {
				if _, _, err := EnumerateWithin(members, v, k, region.Box(v, 0.05)); err != nil {
					t.Fatal(err)
				}
				if _, err := ORUBSL(s.tree, v, k, k+3, 300); err != nil && !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, ErrInsufficientData) {
					t.Fatalf("%s: ORU-BSL: %v", s.name, err)
				}
				queries += 2
			}
		}
	}
	// Rho-bar restarts: ORU at k = 1 on HOUSE's shape restarts on most
	// seeds. A restart shows as a Fetched count other than the first
	// estimate's records plus its candidates.
	house := rtree.BulkLoad(data.House(5000, 2806))
	restarts := 0
	for i := 0; i < 6; i++ {
		v := geom.RandSimplex(rng, house.Dim())
		rhoBar, _, fetched, err := estimateRhoBar(ctx, house, v, 30)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := skyband.RhoSkybandCtx(ctx, house, v, 1, rhoBar)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ORUWithCtx(ctx, house, v, 1, 30, ORUOptions{})
		if err != nil {
			t.Fatal(err)
		}
		queries++
		if res.Stats.Fetched != fetched+len(cands) {
			restarts++
		}
		// A deadline that expires mid-query.
		dctx, dcancel := context.WithTimeout(ctx, time.Millisecond)
		_, err = ORUWithCtx(dctx, house, v, 2, 40, ORUOptions{})
		dcancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatal(err)
		}
		stopped++
	}
	t.Logf("%d queries: %d ErrInsufficientData, %d cancelled or past their deadline, %d rho-bar restarts", queries+stopped, insufficient, stopped, restarts)
	if queries+stopped < 200 || insufficient == 0 || restarts == 0 {
		t.Fatalf("the battery missed a case: %d queries, %d ErrInsufficientData, %d restarts", queries+stopped, insufficient, restarts)
	}
	for name, v := range held {
		if !bytes.Equal(snapshot(t, v), copies[name]) {
			t.Errorf("the held %s result changed while later queries ran", name)
		}
	}
}
