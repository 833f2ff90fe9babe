// Package core implements the paper's two operators: ORD (Section 4) and
// ORU (Section 5), together with the baseline variants used in the paper's
// evaluation (ORD-BSL, ORU-BSL). Both operators take a dataset indexed by
// an R-tree, a seed preference vector w, the skyband/top-k parameter k, and
// the required output size m, and report exactly m records for the minimum
// expansion radius rho around w.
package core

import (
	"errors"
	"fmt"

	"ordu/internal/geom"
	"ordu/internal/rtree"
)

// Record is one output record.
type Record struct {
	ID    int
	Point geom.Vector
}

// Stats captures the search effort of a query, the library's proxy for the
// paper's I/O and CPU measurements.
type Stats struct {
	// Fetched counts records fetched from the index (candidates examined).
	Fetched int
	// HeapPops counts branch-and-bound heap pops (node accesses). The scan
	// tests each child before pushing it, and an entry rejected there is
	// never pushed or popped, so it is not counted.
	HeapPops int
	// RegionsPartitioned counts Theorem-1 partitionings (ORU only).
	RegionsPartitioned int
	// RegionsFinalized counts finalized top-k regions (ORU only).
	RegionsFinalized int
	// LayersComputed counts upper-hull layers materialised (ORU only).
	LayersComputed int
}

// ORDResult is the output of an ORD query.
type ORDResult struct {
	// Records are the m output records ordered by inflection radius: the
	// prefix of length j is the rho-skyband just past Records[j-1].Radius,
	// and, with its radii, exactly the answer for output size j, ties
	// included. ORU's rho-bar estimate relies on that prefix property from
	// hull.PairwiseDim up (estimateRhoBar).
	Records []Record
	// Radii holds the inflection radius of each record, parallel to
	// Records.
	Radii []float64
	// Rho is the stopping radius: the smallest expansion for which the
	// rho-skyband holds exactly m records (the largest inflection radius in
	// the output).
	Rho float64
	// Stats reports search effort.
	Stats Stats
}

// TopKRegion is one finalized preference region with its order-sensitive
// top-k result — the by-product output of ORU (Section 5.3.1, Case 2). The
// region is the set of preference vectors (within the clip polytope, for
// EnumerateWithin) at which TopK is the ordered top-k, so it can be
// rebuilt from that list alone, as _bench/check.go does: TopK[i]
// outscores TopK[i+1], and the last outscores every other record.
type TopKRegion struct {
	TopK    []Record
	MinDist float64
	// Witness is the region's point closest to the seed (within the clip
	// polytope, for EnumerateWithin), at distance MinDist.
	Witness geom.Vector
}

// ORUResult is the output of an ORU query.
type ORUResult struct {
	// Records are the m distinct output records in confirmation order.
	Records []Record
	// Rho is the stopping radius: the mindist of the last finalized region.
	Rho float64
	// Regions lists every finalized region with its top-k result, in
	// increasing mindist from the seed.
	Regions []TopKRegion
	// Stats reports search effort.
	Stats Stats
}

// ErrInsufficientData is returned when the dataset cannot produce m
// distinct records (e.g. m exceeds the k-skyband size for ORD, or the
// number of records appearing in any top-k result for ORU).
var ErrInsufficientData = errors.New("core: dataset cannot produce m records")

// validate checks the common query arguments.
func validate(tree *rtree.Tree, w geom.Vector, k, m int) error {
	if tree == nil || tree.Len() == 0 {
		return errors.New("core: empty dataset")
	}
	if err := geom.ValidatePreference(w, tree.Dim()); err != nil {
		return err
	}
	if k < 1 {
		return fmt.Errorf("core: k = %d, want k >= 1", k)
	}
	if m < k {
		return fmt.Errorf("core: m = %d < k = %d; the smallest ORD/ORU output is the top-k itself", m, k)
	}
	return nil
}
