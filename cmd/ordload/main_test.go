package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ordu/internal/server"
)

// TestLoadgenRun drives a real server with mixed query and write traffic
// from the generator's worker pool. Under -race it checks that the workers
// record results only under g.mu and that run's job stream terminates: a
// run that never closes its jobs channel hangs in wg.Wait.
func TestLoadgenRun(t *testing.T) {
	ds, err := server.BuildDataset("", &server.GeneratorSpec{Dist: "IND", N: 2000, D: 3, Seed: 1})
	if err != nil {
		t.Fatalf("BuildDataset: %v", err)
	}
	srv := server.New(server.Config{Workers: 2})
	srv.AddDataset("demo", ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := &loadgen{
		client:  ts.Client(),
		base:    ts.URL,
		dataset: "demo",
		op:      "mix",
		k:       2,
		m:       5,
		dims:    3,
		mutate:  0.3,
		rng:     rand.New(rand.NewSource(1)),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.run(200, 400*time.Millisecond, 4)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return 30s after its 0.4s deadline")
	}

	if g.netErrs != 0 {
		t.Errorf("%d network errors", g.netErrs)
	}
	for code, n := range g.status {
		switch code {
		case http.StatusOK, http.StatusCreated, http.StatusTooManyRequests:
		default:
			t.Errorf("%d responses with status %d", n, code)
		}
	}
	for _, class := range []string{"ord", "oru", "insert"} {
		if len(g.lat[class]) == 0 {
			t.Errorf("no %s request completed (sent %d, dropped %d, status %v)", class, g.sent, g.dropped, g.status)
		}
	}
}
