package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

func ctxTestTree(n, d int, seed int64) *rtree.Tree {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		s := 0.0
		for j := range p {
			p[j] = rng.Float64()
			s += p[j]
		}
		f := float64(d) / 2 / s
		for j := range p {
			p[j] = p[j] * f
			if p[j] > 1 {
				p[j] = 1
			}
		}
		pts[i] = p
	}
	return rtree.BulkLoad(pts)
}

func TestORDCtxCancelled(t *testing.T) {
	tree := ctxTestTree(500, 3, 11)
	w := geom.Vector{0.4, 0.3, 0.3}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ORDCtx(ctx, tree, w, 3, 15); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A live context returns the full answer.
	got, err := ORDCtx(context.Background(), tree, w, 3, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 15 {
		t.Fatalf("live context returned %d records, want 15", len(got.Records))
	}
}

func TestORUCtxCancelled(t *testing.T) {
	tree := ctxTestTree(500, 3, 12)
	w := geom.Vector{0.3, 0.3, 0.4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ORUWithCtx(ctx, tree, w, 2, 10, ORUOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The explorer honours cancellation too, not only the retrieval phases
	// ahead of it.
	cands, err := skyband.RhoSkybandCtx(context.Background(), tree, w, 2, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	ex := newExplorer(cands, w, 2, nil)
	defer releaseExplorer(ex)
	if !ex.seed() {
		t.Fatal("no layer-0 region to seed")
	}
	if _, err := ex.explore(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("explore: err = %v, want context.Canceled", err)
	}
}

func TestORUCtxDeadline(t *testing.T) {
	tree := ctxTestTree(20000, 3, 13)
	w := geom.Vector{0.4, 0.3, 0.3}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ORUWithCtx(ctx, tree, w, 5, 60, ORUOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Cooperative checks must abort promptly, not after the full query.
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("cancellation took %v", e)
	}
}
