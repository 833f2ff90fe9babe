package hull

import (
	"math/rand"
	"reflect"
	"testing"

	"ordu/internal/geom"
)

// TestBuilderResetMatchesFresh pins that a pooled builder (Reset between
// hulls, warm free list and point arena) produces output identical to a
// fresh builder for every hull in a sequence of randomized point sets.
func TestBuilderResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	pooled := NewBuilder(2)
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(4)
		n := 3 + rng.Intn(60)
		ids := make([]int, n)
		pts := make([]geom.Vector, n)
		for i := range pts {
			ids[i] = i * 3
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			pts[i] = p
		}
		pooled.Reset(d)
		for i, id := range ids {
			pooled.Add(id, pts[i])
		}
		got := pooled.Upper()
		want := ComputeUpper(ids, pts)
		if !reflect.DeepEqual(got.MemberIDs, want.MemberIDs) {
			t.Fatalf("trial %d (d=%d n=%d): members %v vs fresh %v", trial, d, n, got.MemberIDs, want.MemberIDs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (d=%d n=%d): adjacency diverges", trial, d, n)
		}
		if gc, wc := pooled.MemberCount(), len(want.MemberIDs); gc != wc {
			t.Fatalf("trial %d (d=%d n=%d): MemberCount %d, Upper members %d", trial, d, n, gc, wc)
		}
	}
}

// TestMemberCountIncremental checks the count against the definition as
// the hull grows point by point — the exact access pattern of the rho-bar
// estimation loop: after every seventh add, MemberCount equals the number
// of records added so far that definitionMember accepts.
func TestMemberCountIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for _, d := range []int{2, 3, 4, 5} {
		b := NewBuilder(d)
		var pts []geom.Vector
		for i := 0; i < 120; i++ {
			p := make(geom.Vector, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			b.Add(i, p)
			pts = append(pts, p)
			if i%7 == 0 {
				want := 0
				for j := range pts {
					if definitionMember(pts, j) {
						want++
					}
				}
				if got := b.MemberCount(); got != want {
					t.Fatalf("d=%d after %d adds: MemberCount %d, definition members %d", d, i+1, got, want)
				}
			}
		}
	}
}
