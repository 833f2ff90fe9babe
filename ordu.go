// Package ordu implements the ORD and ORU operators of Mouratidis, Li and
// Tang, "Marrying Top-k with Skyline Queries: Relaxing the Preference Input
// while Producing Output of Controllable Size" (SIGMOD 2021), together with
// the query machinery they build on: R-tree indexing, branch-and-bound
// top-k and skyband retrieval, rho-dominance, and upper-hull geometry.
//
// Both operators take a best-effort preference vector w (the seed), a rank
// parameter k, and a desired output size m, and report exactly m records:
//
//   - ORD relaxes dominance: it returns the records rho-dominated by fewer
//     than k others, for the minimum radius rho around w that yields m
//     records. It interpolates between the top-k at w (rho = 0) and the
//     traditional k-skyband (rho unbounded).
//   - ORU relaxes ranking: it returns the records that appear in the top-k
//     result of at least one preference vector within distance rho of w,
//     again for the minimum rho yielding m records — and reports every
//     order-sensitive top-k result with its preference region as a
//     by-product.
//
// Records are d-dimensional with larger-is-better attributes; preference
// vectors are non-negative with components summing to 1. Use Normalize to
// bring raw columns into shape.
//
// A minimal session:
//
//	ds, _ := ordu.NewDataset(records)             // builds the R-tree
//	res, _ := ds.ORUCtx(ctx, []float64{0.5, 0.3, 0.2}, 5, 20)
//	for _, r := range res.Records { fmt.Println(r.ID, r.Record) }
package ordu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ordu/internal/collection"
	"ordu/internal/core"
	"ordu/internal/geom"
	"ordu/internal/osskyline"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
	"ordu/internal/topk"
)

// Dataset is an indexed collection of records supporting the library's
// query operators. It is backed by internal/collection: an id-keyed mutable
// collection whose R-tree is maintained in place, so Insert/Update/Delete
// are immediately visible to subsequent queries without a rebuild. It is
// not safe for concurrent mutation; concurrent read-only queries are safe,
// and the serving layer serialises mutations against queries with a lock.
type Dataset struct {
	col *collection.Collection
}

// tree returns the backing spatial index. Its point views alias the
// packed slots that writes update in place, so they never leave this
// package: every Result copies its record (see slab).
func (ds *Dataset) tree() *rtree.Tree { return ds.col.Tree() }

// Result is one record returned by a query.
type Result struct {
	// ID identifies the record (assigned in input order by NewDataset).
	ID int
	// Record holds the record's attributes. The slice is the caller's: a
	// later write to the dataset does not change it, and writing to it
	// does not change the dataset.
	Record []float64
	// Score is the utility for the query's preference vector, when one was
	// involved (0 otherwise).
	Score float64
}

// ORDResult is the output of Dataset.ORDCtx.
type ORDResult struct {
	// Records are the m output records in order of inflection radius: the
	// first j records form the result for every output size j <= m.
	Records []Result
	// Radii are the inflection radii parallel to Records: the radius at
	// which each record enters the rho-skyband.
	Radii []float64
	// Rho is the stopping radius (Definition 1).
	Rho float64
}

// RegionTopK is one preference region with a fixed order-sensitive top-k
// result, reported by ORU as a by-product (Section 5.3.1 of the paper).
type RegionTopK struct {
	// TopK is the order-sensitive top-k result holding anywhere in the
	// region.
	TopK []Result
	// MinDist is the region's distance from the seed vector.
	MinDist float64
	// Witness is the region's preference vector closest to the seed, at
	// distance MinDist.
	Witness []float64
}

// ORUResult is the output of Dataset.ORUCtx.
type ORUResult struct {
	// Records are the m output records in confirmation order.
	Records []Result
	// Rho is the stopping radius (Definition 2).
	Rho float64
	// Regions lists the finalized top-k regions in increasing distance
	// from the seed.
	Regions []RegionTopK
}

// NewDataset indexes the given records (each a slice of d >= 2 attributes,
// larger-is-better). Record i receives ID i.
func NewDataset(records [][]float64) (*Dataset, error) {
	if len(records) == 0 {
		return nil, errors.New("ordu: empty dataset")
	}
	d := len(records[0])
	if d < 2 {
		return nil, fmt.Errorf("ordu: records have %d attribute(s); need at least 2", d)
	}
	pts := make([]geom.Vector, len(records))
	for i, r := range records {
		if len(r) != d {
			return nil, fmt.Errorf("ordu: record %d has %d attributes, want %d", i, len(r), d)
		}
		for j, x := range r {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("ordu: record %d attribute %d is not finite", i, j)
			}
		}
		pts[i] = r
	}
	// The tree copies every point into its packed slots, so the dataset
	// keeps no reference to the caller's records.
	col, err := collection.FromPoints(pts)
	if err != nil {
		return nil, fmt.Errorf("ordu: %w", err)
	}
	return &Dataset{col: col}, nil
}

// Len returns the number of records.
func (ds *Dataset) Len() int { return ds.col.Len() }

// Dim returns the number of attributes per record.
func (ds *Dataset) Dim() int { return ds.col.Dim() }

// Record returns a copy of the attributes of a record by id.
func (ds *Dataset) Record(id int) ([]float64, bool) {
	p, ok := ds.col.Get(id)
	return slices.Clone(p), ok
}

// Stats snapshots the backing collection's bookkeeping: live count, dims,
// exact bounds, and cumulative write counters.
func (ds *Dataset) Stats() collection.Stats { return ds.col.Stats() }

// Insert adds a record and returns its id. The paper's operators need no
// precomputation beyond the index, so updates are immediately visible to
// subsequent queries (Section 3).
func (ds *Dataset) Insert(record []float64) (int, error) {
	id := ds.col.NewID()
	if err := ds.col.Insert(id, geom.Vector(record)); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertID adds a record under a caller-chosen id; it fails when the id is
// already live (collection.ErrDuplicateID) or the record is malformed
// (collection.ErrBadPoint).
func (ds *Dataset) InsertID(id int, record []float64) error {
	return ds.col.Insert(id, geom.Vector(record))
}

// Update replaces the record stored under a live id; it fails when the id
// is unknown (collection.ErrUnknownID) or the record is malformed
// (collection.ErrBadPoint).
func (ds *Dataset) Update(id int, record []float64) error {
	return ds.col.Update(id, geom.Vector(record))
}

// Upsert inserts the record when id is free and updates it when live,
// reporting which happened.
func (ds *Dataset) Upsert(id int, record []float64) (updated bool, err error) {
	return ds.col.Upsert(id, geom.Vector(record))
}

// Delete removes a record by id, reporting whether it existed.
func (ds *Dataset) Delete(id int) bool { return ds.col.Delete(id) }

// CountDominators returns how many records strictly dominate the given
// point (maximisation convention). The serving layer uses it as the cache
// keep-test after mutations: a point with at least k plain dominators
// cannot change any rho-skyband or top-k region with parameter k.
func (ds *Dataset) CountDominators(point []float64) int {
	return ds.tree().CountDominators(geom.Vector(point))
}

// ErrBadSeed reports an invalid preference seed vector w: wrong dimension,
// non-finite components, or off the unit simplex. Callers serving remote
// input (e.g. internal/server) match it with errors.Is to map the failure
// to a 4xx response.
var ErrBadSeed = errors.New("ordu: bad seed vector")

// ErrBadParams reports invalid query parameters: k < 1, m < 1, or m < k.
var ErrBadParams = errors.New("ordu: bad query parameters")

// prepW validates and copies a preference vector. Failures wrap ErrBadSeed.
func (ds *Dataset) prepW(w []float64) (geom.Vector, error) {
	if len(w) != ds.Dim() {
		return nil, fmt.Errorf("%w: dimension %d, want %d", ErrBadSeed, len(w), ds.Dim())
	}
	for j, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: component %d is not finite", ErrBadSeed, j)
		}
	}
	v := geom.Vector(w)
	if err := geom.ValidatePreference(v, ds.Dim()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSeed, err)
	}
	return v.Clone(), nil
}

// slab hands out copies of records' attributes from one backing array, so
// an answer allocates its coordinates once and every slice it returns is
// the caller's own.
type slab []float64

// newSlab returns a slab sized for n records of ds.
func (ds *Dataset) newSlab(n int) slab { return make(slab, 0, n*ds.Dim()) }

// clone copies p into the slab, capacity-capped so an append by the
// caller cannot spill into the next record.
func (s *slab) clone(p []float64) []float64 {
	lo := len(*s)
	*s = append(*s, p...)
	return (*s)[lo:len(*s):len(*s)]
}

// checkK validates a rank parameter; failures wrap ErrBadParams.
func checkK(k int) error {
	if k < 1 {
		return fmt.Errorf("%w: k = %d, want k >= 1", ErrBadParams, k)
	}
	return nil
}

// checkKM validates an ORD/ORU parameter pair; failures wrap ErrBadParams.
func checkKM(k, m int) error {
	if err := checkK(k); err != nil {
		return err
	}
	if m < 1 {
		return fmt.Errorf("%w: m = %d, want m >= 1", ErrBadParams, m)
	}
	if m < k {
		return fmt.Errorf("%w: m = %d < k = %d; the smallest ORD/ORU output is the top-k itself", ErrBadParams, m, k)
	}
	return nil
}

// TopK returns the k records with the highest utility for w, best first
// (BBR branch-and-bound ranked retrieval). The records are the caller's.
func (ds *Dataset) TopK(w []float64, k int) ([]Result, error) {
	v, err := ds.prepW(w)
	if err != nil {
		return nil, err
	}
	if err := checkK(k); err != nil {
		return nil, err
	}
	rs := topk.TopK(ds.tree(), v, k)
	s := ds.newSlab(len(rs))
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Record: s.clone(r.Point), Score: r.Score}
	}
	return out, nil
}

// Skyline returns the records dominated by no other (BBS). The records are
// the caller's.
func (ds *Dataset) Skyline() []Result {
	return ds.members(skyband.Skyline(ds.tree()))
}

// KSkyband returns the records dominated by fewer than k others (BBS). The
// records are the caller's.
func (ds *Dataset) KSkyband(k int) ([]Result, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	return ds.members(skyband.KSkyband(ds.tree(), k)), nil
}

// members copies skyband members out as Results.
func (ds *Dataset) members(ms []skyband.Member) []Result {
	s := ds.newSlab(len(ms))
	out := make([]Result, len(ms))
	for i, m := range ms {
		out[i] = Result{ID: m.ID, Record: s.clone(m.Point)}
	}
	return out
}

// OSSkyline returns the m skyline records that dominate the most records
// (the output-size-specified skyline of Lin et al. [49], the qualitative
// baseline of the paper's Section 6.1). The records are the caller's.
func (ds *Dataset) OSSkyline(m int) []Result {
	rs := osskyline.TopM(ds.tree(), m)
	s := ds.newSlab(len(rs))
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Record: s.clone(r.Point), Score: float64(r.Count)}
	}
	return out
}

// ORDCtx runs the paper's dominance-flavoured operator (Definition 1). The
// retrieval polls ctx cooperatively and aborts with an error wrapping
// ctx.Err() once the context is cancelled or its deadline passes — the
// hook the serving layer uses for per-request deadlines. The result is
// the caller's.
func (ds *Dataset) ORDCtx(ctx context.Context, w []float64, k, m int) (*ORDResult, error) {
	v, err := ds.prepW(w)
	if err != nil {
		return nil, err
	}
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	res, err := core.ORDCtx(ctx, ds.tree(), v, k, m)
	if err != nil {
		return nil, err
	}
	s := ds.newSlab(len(res.Records))
	out := &ORDResult{Rho: res.Rho, Radii: res.Radii, Records: make([]Result, len(res.Records))}
	for i, r := range res.Records {
		out.Records[i] = Result{ID: r.ID, Record: s.clone(r.Point), Score: v.Dot(r.Point)}
	}
	return out, nil
}

// ORUCtx runs the paper's ranking-flavoured operator (Definition 2) on the
// calling goroutine, exploring one preference region at a time. ctx is
// polled as in ORDCtx. The result is the caller's; a region's TopK shares
// the record slices of Records.
func (ds *Dataset) ORUCtx(ctx context.Context, w []float64, k, m int) (*ORUResult, error) {
	v, err := ds.prepW(w)
	if err != nil {
		return nil, err
	}
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	res, err := core.ORUWithCtx(ctx, ds.tree(), v, k, m, core.ORUOptions{})
	if err != nil {
		return nil, err
	}
	// Every region's top-k records are among Records, so one copy of each
	// serves both.
	s := ds.newSlab(len(res.Records))
	copies := make(map[int][]float64, len(res.Records))
	out := &ORUResult{Rho: res.Rho, Records: make([]Result, len(res.Records)), Regions: make([]RegionTopK, len(res.Regions))}
	for i, r := range res.Records {
		copies[r.ID] = s.clone(r.Point)
		out.Records[i] = Result{ID: r.ID, Record: copies[r.ID], Score: v.Dot(r.Point)}
	}
	for i, reg := range res.Regions {
		rt := RegionTopK{MinDist: reg.MinDist, Witness: reg.Witness, TopK: make([]Result, len(reg.TopK))}
		for j, r := range reg.TopK {
			rt.TopK[j] = Result{ID: r.ID, Record: copies[r.ID]}
		}
		out.Regions[i] = rt
	}
	return out, nil
}

// Filter returns a new dataset holding only the records within the given
// attribute ranges (inclusive; pass -Inf/+Inf entries for open bounds).
// This realises the range-predicate composition of Section 3: filter by
// hard constraints first, then run ORD/ORU on the survivors. The returned
// dataset assigns fresh ids; use the mapping to translate back.
func (ds *Dataset) Filter(min, max []float64) (*Dataset, []int, error) {
	if len(min) != ds.Dim() || len(max) != ds.Dim() {
		return nil, nil, fmt.Errorf("ordu: bounds have dims %d/%d, want %d", len(min), len(max), ds.Dim())
	}
	mapping := ds.tree().RangeQuery(geom.Rect{Lo: min, Hi: max})
	if len(mapping) == 0 {
		return nil, nil, errors.New("ordu: no records satisfy the range predicate")
	}
	// Ascending ids make the sub-dataset's fresh ids deterministic.
	sort.Ints(mapping)
	records := make([][]float64, len(mapping))
	for i, id := range mapping {
		records[i], _ = ds.col.Get(id)
	}
	sub, err := NewDataset(records)
	if err != nil {
		return nil, nil, err
	}
	return sub, mapping, nil
}

// ErrInsufficientData reports that the dataset cannot produce the requested
// number of records (m exceeds what the operator can ever output).
var ErrInsufficientData = core.ErrInsufficientData

// Normalize min-max scales each column of records into [0, 1] and returns
// the scaled copy. Columns with a single distinct value map to 0.5.
// Attributes where smaller is better should be negated by the caller first.
func Normalize(records [][]float64) [][]float64 {
	if len(records) == 0 {
		return nil
	}
	d := len(records[0])
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, r := range records {
		for j, x := range r {
			lo[j] = math.Min(lo[j], x)
			hi[j] = math.Max(hi[j], x)
		}
	}
	out := make([][]float64, len(records))
	for i, r := range records {
		q := make([]float64, d)
		for j, x := range r {
			if hi[j] > lo[j] {
				q[j] = (x - lo[j]) / (hi[j] - lo[j])
			} else {
				q[j] = 0.5
			}
		}
		out[i] = q
	}
	return out
}

// Preference normalises a non-negative weight vector onto the unit simplex.
func Preference(weights []float64) ([]float64, error) {
	v, err := geom.NormalizeToSimplex(geom.Vector(weights).Clone())
	if err != nil {
		return nil, err
	}
	return v, nil
}
