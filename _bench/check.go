package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"ordu/internal/core"
	"ordu/internal/geom"
	"ordu/internal/region"
	"ordu/internal/rtree"
	"ordu/internal/server"
	"ordu/internal/skyband"
	"ordu/internal/topk"
)

// tieTol is the tolerance within which two radii or two scores count as
// tied: the operators' outputs are compared with independent reference
// computations whose floating-point paths differ.
const tieTol = 1e-9

// pointSet is the dataset's content as the benchmark knows it: ids in
// ascending order with their points.
type pointSet struct {
	ids  []int
	pts  []geom.Vector
	byID map[int]geom.Vector
}

func newPointSet(byID map[int]geom.Vector) *pointSet {
	s := &pointSet{byID: byID}
	for id := range byID {
		s.ids = append(s.ids, id)
	}
	sort.Ints(s.ids)
	for _, id := range s.ids {
		s.pts = append(s.pts, byID[id])
	}
	return s
}

// finalSet is the initial records with every acknowledged write applied.
// Callers write under disjoint ids, so each caller's log is applied in its
// own order and the interleaving between callers does not matter.
func finalSet(pts []geom.Vector, logs []*callerLog) *pointSet {
	byID := make(map[int]geom.Vector, len(pts))
	for id, p := range pts {
		byID[id] = p
	}
	for _, l := range logs {
		for _, s := range l.samples {
			if !s.ok() {
				continue
			}
			switch s.op.kind {
			case opInsert:
				byID[s.op.id] = s.op.point
			case opDelete:
				delete(byID, s.op.id)
			}
		}
	}
	return newPointSet(byID)
}

// serveOnce sends one request to the handler in process.
func serveOnce(h http.Handler, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, "http://ordbench"+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	var rw respWriter
	rw.reset()
	h.ServeHTTP(&rw, req)
	return rw.code, rw.buf.Bytes(), nil
}

// sameAttrs reports whether a record's attributes on the wire are exactly
// the stored point (JSON round-trips float64 exactly).
func sameAttrs(attrs []float64, p geom.Vector) bool {
	if len(attrs) != len(p) {
		return false
	}
	for j := range attrs {
		if attrs[j] != p[j] {
			return false
		}
	}
	return true
}

// checkORD compares an ORD response with core.ORDBSL's answer on the same
// points: the same ids, each with the same inflection radius, in
// non-decreasing radius order (so the order can differ only within ties),
// and the same rho.
func checkORD(body []byte, want *core.ORDResult, set *pointSet) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding ORD response: %v", err)
	}
	if len(resp.Records) != len(want.Records) {
		return fmt.Errorf("ORD returned %d records, ORD-BSL %d", len(resp.Records), len(want.Records))
	}
	if math.Abs(resp.Rho-want.Rho) > tieTol {
		return fmt.Errorf("ORD rho %.17g, ORD-BSL %.17g", resp.Rho, want.Rho)
	}
	wantRadius := make(map[int]float64, len(want.Records))
	for i, r := range want.Records {
		wantRadius[set.ids[r.ID]] = want.Radii[i]
	}
	prev := math.Inf(-1)
	seen := make(map[int]bool, len(resp.Records))
	for i, r := range resp.Records {
		wr, ok := wantRadius[r.ID]
		if !ok || seen[r.ID] {
			return fmt.Errorf("ORD record %d (id %d) is not in ORD-BSL's answer, or repeats", i, r.ID)
		}
		seen[r.ID] = true
		if r.Radius == nil || math.Abs(*r.Radius-wr) > tieTol {
			return fmt.Errorf("ORD record id %d: radius %v, ORD-BSL %.17g", r.ID, r.Radius, wr)
		}
		if *r.Radius < prev-tieTol {
			return fmt.Errorf("ORD record %d out of radius order", i)
		}
		prev = *r.Radius
		if !sameAttrs(r.Attrs, set.byID[r.ID]) {
			return fmt.Errorf("ORD record id %d: attributes differ from the stored point", r.ID)
		}
	}
	return nil
}

// distTol bounds the disagreement between two projection QPs over the same
// region built from different constraint sets: the solver's own feasibility
// tolerance is 1e-10, and the operator clamps each region's distance to its
// parent's to keep the finalization order monotone.
const distTol = 1e-7

// regionOracle checks ORU regions against the k-skyband, which holds a
// valid top-k for every preference vector (a record outside it has k
// dominators, each scoring at least as high).
type regionOracle struct {
	k, m int
	tree *rtree.Tree
	ids  []int
	pts  []geom.Vector
	hs   []region.Halfspace
	back []float64
	ws   region.Workspace
	// near holds the records the last witness call kept: the region's own
	// and every one that can outscore its last record within rho.
	near []geom.Vector
}

func newRegionOracle(pts []geom.Vector, k, m int) *regionOracle {
	o := &regionOracle{k: k, m: m, tree: rtree.BulkLoad(pts)}
	for _, mem := range skyband.KSkyband(o.tree, k) {
		o.ids = append(o.ids, mem.ID)
		o.pts = append(o.pts, mem.Point)
	}
	return o
}

// witness returns the preference vector closest to w at which top is the
// order-sensitive top-k of the whole dataset, and its distance from w,
// provided that distance is at most rho. Within rho this is the point the
// operator's own region search stops at, so the two distances must agree.
func (o *regionOracle) witness(w geom.Vector, rho float64, top []geom.Vector, topIDs map[int]bool) (float64, geom.Vector, bool) {
	d := len(w)
	o.back = o.back[:0]
	o.near = append(o.near[:0], top...)
	sub := func(a, b geom.Vector) {
		for j := 0; j < d; j++ {
			o.back = append(o.back, a[j]-b[j])
		}
	}
	for i := 0; i+1 < len(top); i++ {
		sub(top[i], top[i+1])
	}
	// A record that cannot outscore the last top-k record anywhere within
	// rho of w never binds the closest point, which lies within rho: skip
	// its row. (q-last).v is at most (q-last).w + rho*|q-last| there.
	last := top[len(top)-1]
	for i, q := range o.pts {
		if topIDs[o.ids[i]] {
			continue
		}
		diff := q.Sub(last)
		if diff.Dot(w)+rho*diff.Norm() >= 0 {
			sub(last, q)
			o.near = append(o.near, q)
		}
	}
	o.hs = o.hs[:0]
	for off := 0; off < len(o.back); off += d {
		o.hs = append(o.hs, region.Halfspace{A: o.back[off : off+d : off+d]})
	}
	dist, v, ok := region.Region{Dim: d, Hs: o.hs}.MinDistWS(w, &o.ws)
	return dist, append(geom.Vector(nil), v...), ok
}

// kthScore is the k-th best score at v, by brute force over the records
// the last witness call kept; v must be within rho of its seed.
func (o *regionOracle) kthScore(v geom.Vector) float64 {
	res := topk.BruteTopK(o.near, v, o.k)
	return res[len(res)-1].Score
}

// checkORU checks an ORU response's shape: exactly m distinct stored
// records, regions in non-decreasing min_dist, none beyond rho. With an
// oracle it also checks soundness (Definition 2) region by region, up to
// the rho-bar core's candidates were drawn for, and reports whether rho
// lies beyond it.
func checkORU(body []byte, w geom.Vector, m int, set *pointSet, oracle *regionOracle) (beyond bool, err error) {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, fmt.Errorf("decoding ORU response: %v", err)
	}
	if len(resp.Records) != m {
		return false, fmt.Errorf("ORU returned %d records, want m=%d", len(resp.Records), m)
	}
	seen := make(map[int]bool, m)
	for _, r := range resp.Records {
		if seen[r.ID] || !sameAttrs(r.Attrs, set.byID[r.ID]) {
			return false, fmt.Errorf("ORU record id %d repeats or differs from the stored point", r.ID)
		}
		seen[r.ID] = true
	}
	if len(resp.Regions) == 0 {
		return false, fmt.Errorf("ORU returned no regions")
	}
	prev := 0.0
	for i, reg := range resp.Regions {
		if reg.MinDist < prev {
			return false, fmt.Errorf("ORU region %d: min_dist %.17g after %.17g", i, reg.MinDist, prev)
		}
		prev = reg.MinDist
		if reg.MinDist > resp.Rho {
			return false, fmt.Errorf("ORU region %d: min_dist %.17g beyond rho %.17g", i, reg.MinDist, resp.Rho)
		}
	}
	if oracle == nil {
		return false, nil
	}
	rhoBar, _, _, err := estimateRhoBar(oracle.tree, w, oracle.m, nil, 0, 0)
	if err != nil {
		return false, err
	}
	for i, reg := range resp.Regions {
		if reg.MinDist > rhoBar {
			break
		}
		if err := checkRegion(reg, w, resp.Rho, set, oracle); err != nil {
			return false, fmt.Errorf("ORU region %d: %v", i, err)
		}
	}
	return resp.Rho > rhoBar, nil
}

// checkRegion checks one region's soundness: its top-k must be the top-k
// of the whole dataset at some preference vector min_dist from the seed,
// confirmed by brute-force scoring there (score ties within tieTol
// accepted). The response's own witness is not used: it is a point of the
// region as bounded by the operator's candidates, and the top-k is only
// guaranteed within rho of the seed, where those candidates are complete.
func checkRegion(reg server.Region, w geom.Vector, rho float64, set *pointSet, oracle *regionOracle) error {
	if len(reg.TopK) != oracle.k {
		return fmt.Errorf("top-k holds %d records, want k=%d", len(reg.TopK), oracle.k)
	}
	top := make([]geom.Vector, len(reg.TopK))
	ids := make(map[int]bool, len(reg.TopK))
	for i, r := range reg.TopK {
		p, ok := set.byID[r.ID]
		if !ok || ids[r.ID] || !sameAttrs(r.Attrs, p) {
			return fmt.Errorf("top-k record id %d is unknown, repeats or differs from the stored point", r.ID)
		}
		ids[r.ID] = true
		top[i] = p
	}
	dist, v, ok := oracle.witness(w, rho, top, ids)
	if !ok {
		return fmt.Errorf("no preference vector has this top-k")
	}
	if math.Abs(dist-reg.MinDist) > distTol {
		return fmt.Errorf("this top-k first holds %.17g from the seed, the response says min_dist %.17g", dist, reg.MinDist)
	}
	worst := math.Inf(1)
	for _, p := range top {
		worst = math.Min(worst, v.Dot(p))
	}
	if kth := oracle.kthScore(v); worst < kth-tieTol {
		return fmt.Errorf("at the witness the top-k's worst score is %.17g, brute-force k-th %.17g", worst, kth)
	}
	return nil
}
