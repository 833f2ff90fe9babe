package skyband

import (
	"math"

	"ordu/internal/geom"
)

// SkybandPruner prunes points dominated (in the traditional sense) by at
// least k of the records registered so far. Used for plain skyline and
// k-skyband retrieval, and as the non-prunable baseline inside IRD.
type SkybandPruner struct {
	K    int
	recs []geom.Vector
}

// NewSkybandPruner returns a pruner for the k-skyband.
func NewSkybandPruner(k int) *SkybandPruner {
	return &SkybandPruner{K: k}
}

// Add registers an emitted record as a potential dominator.
func (s *SkybandPruner) Add(p geom.Vector) { s.recs = append(s.recs, p) }

// Prune reports whether p is dominated by at least K registered records.
func (s *SkybandPruner) Prune(p geom.Vector) bool {
	count := 0
	for _, r := range s.recs {
		if r.Dominates(p) {
			count++
			if count >= s.K {
				return true
			}
		}
	}
	return false
}

// Size returns the number of registered records.
func (s *SkybandPruner) Size() int { return len(s.recs) }

// RhoPruner prunes points rho-dominated at the current radius Rho by at
// least K of the registered records. It implements the adaptive
// rho-dominance test of Section 4.2: the test for a candidate r_i against a
// fetched record r_j compares the mindist rho_{i,j} with the current Rho.
// Rho may shrink over the pruner's lifetime (ORD tightens it as candidates
// are evicted), which only ever makes the pruner more aggressive.
type RhoPruner struct {
	W   geom.Vector
	K   int
	Rho float64
	// recs holds every fetched record. Records evicted from ORD's candidate
	// set stay here: rho-dominance is a pairwise notion, so an evicted
	// record still disqualifies the points it rho-dominates.
	recs []geom.Vector
	// ws backs the pruner's mindist QPs; the pruner is single-goroutine by
	// construction (it lives inside one scan), so owning the workspace is
	// safe and keeps every Prune call allocation-free.
	ws Workspace
}

// Reset makes r a fresh pruner for w and k with radius +Inf, which makes
// it plain k-dominance until Rho is tightened. It keeps its record list's
// storage and its workspace; a nil w leaves it holding no reference to any
// dataset, which is how a pooled pruner is put away.
//
//ordlint:noalloc
func (r *RhoPruner) Reset(w geom.Vector, k int) {
	clear(r.recs) // the records alias the last dataset's storage
	r.W, r.K, r.Rho, r.recs = w, k, math.Inf(1), r.recs[:0]
}

// Footprint returns the bytes r's record list holds, the figure a pool's
// retention cap is checked against.
func (r *RhoPruner) Footprint() int { return cap(r.recs) * 24 }

// Add registers an emitted record as a potential rho-dominator.
func (r *RhoPruner) Add(p geom.Vector) { r.recs = append(r.recs, p) }

// Prune reports whether p is rho-dominated at radius Rho by at least K
// registered records. All registered records score at least as high as p
// for W by the scan's visiting order, so each contributes an interval
// [0, mindist]; p is prunable when at least K intervals cover Rho. Each
// test asks only whether the mindist reaches Rho, which the closed form
// usually settles without the exact projection.
func (r *RhoPruner) Prune(p geom.Vector) bool {
	count := 0
	for _, rec := range r.recs {
		if rec.Dominates(p) {
			count++
		} else if !math.IsInf(r.Rho, 1) && mindistAtLeast(r.W, p, rec, r.Rho, &r.ws) {
			count++
		}
		if count >= r.K {
			return true
		}
	}
	return false
}

// Size returns the number of registered records.
func (r *RhoPruner) Size() int { return len(r.recs) }

// Records exposes the registered records (shared slice; do not modify).
func (r *RhoPruner) Records() []geom.Vector { return r.recs }
