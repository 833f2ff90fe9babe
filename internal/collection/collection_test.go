package collection

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ordu/internal/geom"
	"ordu/internal/rtree"
)

func mustInsert(t *testing.T, c *Collection, id int, p geom.Vector) {
	t.Helper()
	if err := c.Insert(id, p); err != nil {
		t.Fatalf("Insert(%d): %v", id, err)
	}
}

func TestInsertUpdateDeleteLifecycle(t *testing.T) {
	c := New(2)
	mustInsert(t, c, 7, geom.Vector{0.1, 0.2})
	mustInsert(t, c, 3, geom.Vector{0.3, 0.4})
	if c.Len() != 2 || c.Dim() != 2 {
		t.Fatalf("Len/Dim = %d/%d, want 2/2", c.Len(), c.Dim())
	}
	if got := c.NewID(); got != 8 {
		t.Fatalf("NewID = %d, want 8", got)
	}
	if err := c.Insert(7, geom.Vector{0.5, 0.5}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate Insert error = %v, want ErrDuplicateID", err)
	}
	if err := c.Update(9, geom.Vector{0.5, 0.5}); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("Update of unknown id error = %v, want ErrUnknownID", err)
	}
	if err := c.Update(7, geom.Vector{0.9, 0.8}); err != nil {
		t.Fatalf("Update(7): %v", err)
	}
	p, ok := c.Get(7)
	if !ok || !p.Equal(geom.Vector{0.9, 0.8}) {
		t.Fatalf("Get(7) = %v, %v after update", p, ok)
	}
	// The spatial index must have followed the move.
	ids := c.Tree().RangeQuery(geom.NewRect(geom.Vector{0.8, 0.7}, geom.Vector{1, 1}))
	if len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("post-update range query = %v, want [7]", ids)
	}
	if !c.Delete(3) {
		t.Fatal("Delete(3) reported missing")
	}
	if c.Delete(3) {
		t.Fatal("double Delete(3) succeeded")
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("Get(3) after delete reported present")
	}
	st := c.Stats()
	if st.Count != 1 || st.Inserts != 2 || st.Updates != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRejectsBadPoints(t *testing.T) {
	c := New(2)
	for _, p := range []geom.Vector{
		{0.1},
		{0.1, 0.2, 0.3},
		{math.NaN(), 0.2},
		{0.1, math.Inf(1)},
		{math.Inf(-1), 0.2},
	} {
		if err := c.Insert(1, p); !errors.Is(err, ErrBadPoint) {
			t.Fatalf("Insert(%v) error = %v, want ErrBadPoint", p, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("rejected inserts changed Len to %d", c.Len())
	}
	mustInsert(t, c, 1, geom.Vector{0.1, 0.2})
	if err := c.Update(1, geom.Vector{math.NaN(), 0}); !errors.Is(err, ErrBadPoint) {
		t.Fatalf("Update with NaN error = %v, want ErrBadPoint", err)
	}
	if p, _ := c.Get(1); !p.Equal(geom.Vector{0.1, 0.2}) {
		t.Fatalf("rejected Update mutated the record: %v", p)
	}
}

func TestUpsert(t *testing.T) {
	c := New(2)
	updated, err := c.Upsert(4, geom.Vector{0.1, 0.1})
	if err != nil || updated {
		t.Fatalf("first Upsert = %v, %v; want insert", updated, err)
	}
	updated, err = c.Upsert(4, geom.Vector{0.2, 0.2})
	if err != nil || !updated {
		t.Fatalf("second Upsert = %v, %v; want update", updated, err)
	}
	st := c.Stats()
	if st.Inserts != 1 || st.Updates != 1 {
		t.Fatalf("stats after upserts = %+v", st)
	}
}

func TestBoundsTrackMutations(t *testing.T) {
	c := New(2)
	if _, ok := c.Bounds(); ok {
		t.Fatal("empty collection reported bounds")
	}
	mustInsert(t, c, 0, geom.Vector{0.2, 0.8})
	mustInsert(t, c, 1, geom.Vector{0.9, 0.1})
	b, ok := c.Bounds()
	if !ok || !geom.Vector(b.Lo).Equal(geom.Vector{0.2, 0.1}) || !geom.Vector(b.Hi).Equal(geom.Vector{0.9, 0.8}) {
		t.Fatalf("bounds = %v, %v", b, ok)
	}
	// Deleting the extreme point must tighten the bounds exactly.
	c.Delete(1)
	b, ok = c.Bounds()
	if !ok || !geom.Vector(b.Lo).Equal(geom.Vector{0.2, 0.8}) || !geom.Vector(b.Hi).Equal(geom.Vector{0.2, 0.8}) {
		t.Fatalf("bounds after delete = %v, %v", b, ok)
	}
}

func TestFromPointsMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Vector, 500)
	for i := range pts {
		pts[i] = geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	bulk, err := FromPoints(pts)
	if err != nil {
		t.Fatalf("FromPoints: %v", err)
	}
	inc := New(3)
	for i, p := range pts {
		mustInsert(t, inc, i, p)
	}
	if bulk.Len() != inc.Len() {
		t.Fatalf("bulk Len %d != incremental Len %d", bulk.Len(), inc.Len())
	}
	rect := geom.NewRect(geom.Vector{0.2, 0.2, 0.2}, geom.Vector{0.7, 0.7, 0.7})
	a := append([]int(nil), bulk.Tree().RangeQuery(rect)...)
	b := append([]int(nil), inc.Tree().RangeQuery(rect)...)
	sort.Ints(a)
	sort.Ints(b)
	if len(a) != len(b) {
		t.Fatalf("range parity: bulk %d ids, incremental %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("range parity broken: %v vs %v", a, b)
		}
	}
}

// TestChurnAcrossChunks drives enough inserts, updates and deletes to span
// more than one chunk of the tree's slot store and recycle slots, checking
// that the tree's packed vectors and its id index never diverge from a
// reference map.
func TestChurnAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := New(2, rtree.WithFanout(8))
	ref := map[int]geom.Vector{}
	var live []int // the ids of ref, for seeded picks
	nextID, updates := 0, 0
	// 4 * 1024 operations: four chunks' worth of the tree's pointChunk.
	for op := 0; op < 4*1024; op++ {
		switch r := rng.Intn(8); {
		case r < 2 && len(live) > 0:
			i := rng.Intn(len(live))
			victim := live[i]
			if !c.Delete(victim) {
				t.Fatalf("op %d: Delete(%d) missing", op, victim)
			}
			delete(ref, victim)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case r == 2 && len(live) > 0:
			id := live[rng.Intn(len(live))]
			p := geom.Vector{rng.Float64(), rng.Float64()}
			if err := c.Update(id, p); err != nil {
				t.Fatalf("op %d: Update(%d): %v", op, id, err)
			}
			ref[id] = p.Clone()
			updates++
		default:
			p := geom.Vector{rng.Float64(), rng.Float64()}
			mustInsert(t, c, nextID, p)
			ref[nextID] = p.Clone()
			live = append(live, nextID)
			nextID++
		}
	}
	if len(ref) <= 1024 {
		t.Fatalf("churn ended with %d live records; it must outgrow one slot chunk", len(ref))
	}
	if c.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(ref))
	}
	if c.Tree().Len() != len(ref) {
		t.Fatalf("tree Len = %d, want %d", c.Tree().Len(), len(ref))
	}
	for id, want := range ref {
		got, ok := c.Get(id)
		if !ok || !got.Equal(want) {
			t.Fatalf("Get(%d) = %v, %v; want %v", id, got, ok, want)
		}
		tp, ok := c.Tree().Point(id)
		if !ok || !tp.Equal(want) {
			t.Fatalf("tree Point(%d) = %v, %v; want %v", id, tp, ok, want)
		}
	}
	st := c.Stats()
	if st.Count != len(ref) || int(st.Inserts)-int(st.Deletes) != len(ref) || int(st.Updates) != updates {
		t.Fatalf("stats inconsistent: %+v vs %d live", st, len(ref))
	}
}
