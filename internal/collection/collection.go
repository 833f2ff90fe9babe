// Package collection implements the live-dataset substrate: an id-keyed
// mutable point collection over the spatial index (internal/rtree, mutated
// in place through its Insert/Delete). It supports point Insert, Update and
// Delete with input checks and sentinel errors, hands out fresh ids, and
// tracks per-write statistics (count, bounds, dims, write counters) for the
// serving layer's metrics.
//
// Storage: the collection keeps no points of its own. Each record lives
// once, in the tree's packed slot store, which copies every point it is
// given; Get returns the tree's view of that slot (Tree.Point).
//
// Concurrency contract: a Collection is single-writer. Concurrent readers
// (queries over Tree(), Get) are safe only while no mutation is in flight;
// the serving layer enforces this with a per-dataset RWMutex. Vectors
// returned by Get and emitted by index scans alias the tree's packed slots:
// they stay valid only until the record is deleted (and its slot possibly
// recycled), so callers retaining them across mutations must copy.
package collection

import (
	"errors"
	"fmt"
	"math"

	"ordu/internal/geom"
	"ordu/internal/narrow"
	"ordu/internal/rtree"
)

// Sentinel errors of the mutation API.
var (
	// ErrDuplicateID reports an Insert under an id that is already present.
	ErrDuplicateID = errors.New("collection: duplicate id")
	// ErrUnknownID reports an Update of an id that is not present.
	ErrUnknownID = errors.New("collection: unknown id")
	// ErrBadPoint reports a point with the wrong dimensionality or
	// non-finite coordinates.
	ErrBadPoint = errors.New("collection: bad point")
)

// Stats is a read-only snapshot of the collection's bookkeeping. Count,
// Dims and the bounds describe the current contents; the write counters are
// cumulative over the collection's lifetime and feed /metrics.
type Stats struct {
	Count   int
	Dims    int
	Inserts uint64
	Updates uint64
	Deletes uint64
	// Min and Max are the exact per-dimension bounds of the current
	// contents (nil when the collection is empty).
	Min, Max []float64
}

// Collection is an id-keyed mutable point collection.
type Collection struct {
	dim  int
	tree *rtree.Tree

	nextID                    int
	inserts, updates, deletes uint64
}

// New returns an empty collection for points of the given dimensionality.
func New(dim int, opts ...rtree.Option) *Collection {
	return &Collection{dim: dim, tree: rtree.New(dim, opts...)}
}

// FromPoints bulk-builds a collection over the given points using the
// R-tree's STR packing; point i receives id i. The tree copies the points
// into its packed slots and keeps none of the input slices.
func FromPoints(points []geom.Vector, opts ...rtree.Option) (*Collection, error) {
	if len(points) == 0 {
		return nil, errors.New("collection: no points")
	}
	// The tree's packed slot store indexes records with int32 slot
	// handles; refuse datasets the flat core cannot address instead of
	// letting the bulk load trip its capacity panic.
	if _, err := narrow.Index32(len(points)); err != nil {
		return nil, fmt.Errorf("collection: %d points: %w", len(points), err)
	}
	c := &Collection{dim: len(points[0]), nextID: len(points)}
	for id, p := range points {
		if err := c.checkPoint(p); err != nil {
			return nil, fmt.Errorf("point %d: %w", id, err)
		}
	}
	c.tree = rtree.BulkLoad(points, opts...)
	return c, nil
}

func (c *Collection) checkPoint(p geom.Vector) error {
	if len(p) != c.dim {
		return fmt.Errorf("%w: dim %d, want %d", ErrBadPoint, len(p), c.dim)
	}
	for j, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: coordinate %d is not finite", ErrBadPoint, j)
		}
	}
	return nil
}

// Len returns the number of live records.
func (c *Collection) Len() int { return c.tree.Len() }

// Dim returns the dimensionality of the collection's points.
func (c *Collection) Dim() int { return c.dim }

// Tree exposes the spatial index for the query layers. The tree is mutated
// in place by Insert/Update/Delete, so traversals must not run concurrently
// with mutations (see the package concurrency contract).
func (c *Collection) Tree() *rtree.Tree { return c.tree }

// Get returns the point stored under id; the vector aliases the tree's
// packed slot (copy it to retain across mutations).
func (c *Collection) Get(id int) (geom.Vector, bool) { return c.tree.Point(id) }

// NewID returns an id that is not in use and never was: one past the
// highest id ever inserted.
func (c *Collection) NewID() int { return c.nextID }

// Insert adds a point under the given id. It fails with ErrDuplicateID when
// the id is live and with ErrBadPoint on dimension/finiteness violations.
// The point is copied; the caller keeps ownership of p.
//
//ordlint:writer — the tree allocates a slot and mutates its index
func (c *Collection) Insert(id int, p geom.Vector) error {
	if err := c.checkPoint(p); err != nil {
		return err
	}
	if _, dup := c.tree.Point(id); dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	if err := c.tree.Insert(id, p); err != nil {
		return err
	}
	if id >= c.nextID {
		c.nextID = id + 1
	}
	c.inserts++
	return nil
}

// Update replaces the point stored under a live id. It fails with
// ErrUnknownID when the id is not present. The record is deleted from the
// tree and inserted again with the new coordinates.
//
//ordlint:writer — reindexes the record
func (c *Collection) Update(id int, p geom.Vector) error {
	if err := c.checkPoint(p); err != nil {
		return err
	}
	if _, ok := c.tree.Point(id); !ok {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	if !c.tree.Delete(id) {
		panic(fmt.Sprintf("collection: id %d in slot index but not in tree", id)) //ordlint:allow nopanic — internal invariant violation, not data-dependent
	}
	if err := c.tree.Insert(id, p); err != nil {
		return err
	}
	c.updates++
	return nil
}

// Upsert inserts the point when id is free and updates it when live,
// reporting which happened.
//
//ordlint:writer — delegates to Insert/Update
func (c *Collection) Upsert(id int, p geom.Vector) (updated bool, err error) {
	if _, live := c.tree.Point(id); live {
		return true, c.Update(id, p)
	}
	return false, c.Insert(id, p)
}

// Delete removes the record stored under id, reporting whether it existed.
//
//ordlint:writer — unindexes the record and recycles its slot
func (c *Collection) Delete(id int) bool {
	if _, ok := c.tree.Point(id); !ok {
		return false
	}
	if !c.tree.Delete(id) {
		panic(fmt.Sprintf("collection: id %d in slot index but not in tree", id)) //ordlint:allow nopanic — internal invariant violation, not data-dependent
	}
	c.deletes++
	return true
}

// Bounds returns the exact per-dimension bounds of the current contents,
// or ok=false when the collection is empty.
func (c *Collection) Bounds() (geom.Rect, bool) { return c.tree.Bounds() }

// Stats snapshots the collection's bookkeeping.
func (c *Collection) Stats() Stats {
	s := Stats{
		Count:   c.Len(),
		Dims:    c.dim,
		Inserts: c.inserts,
		Updates: c.updates,
		Deletes: c.deletes,
	}
	if b, ok := c.Bounds(); ok {
		s.Min, s.Max = b.Lo, b.Hi
	}
	return s
}
