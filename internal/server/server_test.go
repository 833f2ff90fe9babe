package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ordu"
	"ordu/internal/data"
)

// testServer builds a server over one ANTI dataset named "main".
func testServer(t *testing.T, cfg Config, n int) *Server {
	t.Helper()
	s := New(cfg)
	s.AddDataset("main", testDataset(t, n))
	return s
}

func testDataset(t *testing.T, n int) *ordu.Dataset {
	t.Helper()
	pts := data.Synthetic(data.ANTI, n, 3, 42)
	recs := make([][]float64, len(pts))
	for i, p := range pts {
		recs[i] = p
	}
	ds, err := ordu.NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON body %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestQueryORDHappyPath(t *testing.T) {
	s := testServer(t, Config{}, 400)
	rec := do(t, s.Handler(), "POST", "/query/ord",
		`{"dataset":"main","w":[0.4,0.3,0.3],"k":3,"m":15}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decode[QueryResponse](t, rec)
	if resp.Op != "ord" || len(resp.Records) != 15 {
		t.Fatalf("op=%q records=%d", resp.Op, len(resp.Records))
	}
	if resp.Rho <= 0 {
		t.Fatalf("rho = %g", resp.Rho)
	}
	for i, r := range resp.Records {
		if r.Radius == nil {
			t.Fatalf("record %d missing inflection radius", i)
		}
		if i > 0 && *r.Radius < *resp.Records[i-1].Radius {
			t.Fatal("radii not sorted")
		}
	}
	if *resp.Records[14].Radius != resp.Rho {
		t.Fatal("rho != largest inflection radius")
	}
}

func TestQueryORUHappyPath(t *testing.T) {
	s := testServer(t, Config{}, 400)
	rec := do(t, s.Handler(), "POST", "/query/oru",
		`{"dataset":"main","w":[0.3,0.3,0.4],"k":2,"m":10}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decode[QueryResponse](t, rec)
	if resp.Op != "oru" || len(resp.Records) != 10 {
		t.Fatalf("op=%q records=%d", resp.Op, len(resp.Records))
	}
	if len(resp.Regions) == 0 {
		t.Fatal("no regions")
	}
	for i, reg := range resp.Regions {
		if len(reg.TopK) != 2 {
			t.Fatalf("region %d has top-%d", i, len(reg.TopK))
		}
		if len(reg.Witness) != 3 {
			t.Fatalf("region %d witness %v", i, reg.Witness)
		}
	}
	// Older clients may still send a "workers" field. The server ignores
	// it: same status, same bytes, served from the same cache entry.
	old := do(t, s.Handler(), "POST", "/query/oru",
		`{"dataset":"main","w":[0.3,0.3,0.4],"k":2,"m":10,"workers":4}`)
	if old.Code != http.StatusOK {
		t.Fatalf("status with workers field %d: %s", old.Code, old.Body.String())
	}
	if old.Header().Get("X-Cache") != "HIT" || s.cache.Len() != 1 {
		t.Fatalf("workers field missed the cache entry (X-Cache %q, %d entries)",
			old.Header().Get("X-Cache"), s.cache.Len())
	}
	if !bytes.Equal(old.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatal("workers field changed the response body")
	}
}

func TestQueryBadRequests(t *testing.T) {
	s := testServer(t, Config{}, 100)
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed JSON", "/query/ord", `{"dataset":`, 400},
		{"missing dataset", "/query/ord", `{"w":[0.5,0.5],"k":1,"m":2}`, 400},
		{"missing w", "/query/ord", `{"dataset":"main","k":1,"m":2}`, 400},
		{"unknown dataset", "/query/ord", `{"dataset":"nope","w":[0.4,0.3,0.3],"k":1,"m":2}`, 404},
		{"wrong dimension", "/query/ord", `{"dataset":"main","w":[0.5,0.5],"k":1,"m":2}`, 400},
		{"off simplex", "/query/ord", `{"dataset":"main","w":[0.9,0.9,0.9],"k":1,"m":2}`, 400},
		{"negative component", "/query/oru", `{"dataset":"main","w":[-0.2,0.6,0.6],"k":1,"m":2}`, 400},
		{"k zero", "/query/oru", `{"dataset":"main","w":[0.4,0.3,0.3],"k":0,"m":2}`, 400},
		{"m below k", "/query/ord", `{"dataset":"main","w":[0.4,0.3,0.3],"k":5,"m":2}`, 400},
		{"m beyond dataset", "/query/ord", `{"dataset":"main","w":[0.4,0.3,0.3],"k":1,"m":500}`, 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s.Handler(), "POST", tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.want, rec.Body.String())
			}
			if e := decode[ErrorResponse](t, rec); e.Error == "" {
				t.Fatal("empty error message")
			}
		})
	}
	// Wrong method on a query route.
	if rec := do(t, s.Handler(), "GET", "/query/ord", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query/ord = %d, want 405", rec.Code)
	}
}

func TestOverloadReturns429(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: -1}, 100)
	// Occupy the only worker slot; the queue has zero depth, so the next
	// request must be shed immediately.
	release, err := s.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s.Handler(), "POST", "/query/ord",
		`{"dataset":"main","w":[0.4,0.3,0.3],"k":2,"m":5}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	release()
	rec = do(t, s.Handler(), "POST", "/query/ord",
		`{"dataset":"main","w":[0.4,0.3,0.3],"k":2,"m":5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status after release %d: %s", rec.Code, rec.Body.String())
	}
	snap := s.Snapshot()
	if snap.Responses["429"] != 1 {
		t.Fatalf("429 counter = %d", snap.Responses["429"])
	}
}

func TestDeadlineWhileQueuedReturns504(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 1}, 100)
	release, err := s.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// Admitted into the queue, but the worker never frees up within the
	// 1ms deadline.
	rec := do(t, s.Handler(), "POST", "/query/ord",
		`{"dataset":"main","w":[0.4,0.3,0.3],"k":2,"m":5,"timeout_ms":1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
}

func TestDeadlineCancelsInFlightQuery(t *testing.T) {
	// A big anticorrelated ORU query takes far longer than 1ms; the
	// cooperative checks inside internal/core must abort it.
	s := testServer(t, Config{}, 20000)
	rec := do(t, s.Handler(), "POST", "/query/oru",
		`{"dataset":"main","w":[0.4,0.3,0.3],"k":5,"m":60,"timeout_ms":1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if e := decode[ErrorResponse](t, rec); !strings.Contains(e.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", e.Error)
	}
}

func TestCacheHitReturnsIdenticalBody(t *testing.T) {
	s := testServer(t, Config{}, 300)
	body := `{"dataset":"main","w":[0.5,0.3,0.2],"k":3,"m":12}`
	first := do(t, s.Handler(), "POST", "/query/ord", body)
	if first.Code != 200 || first.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first: code %d cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	second := do(t, s.Handler(), "POST", "/query/ord", body)
	if second.Code != 200 || second.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second: code %d cache %q", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit body differs from original")
	}
	// A seed inside the same quantisation cell shares the entry.
	near := do(t, s.Handler(), "POST", "/query/ord",
		`{"dataset":"main","w":[0.500000001,0.299999999,0.2],"k":3,"m":12}`)
	if near.Header().Get("X-Cache") != "HIT" {
		t.Fatal("quantised seed missed the cache")
	}
	// A different m is a different entry.
	other := do(t, s.Handler(), "POST", "/query/ord",
		`{"dataset":"main","w":[0.5,0.3,0.2],"k":3,"m":13}`)
	if other.Header().Get("X-Cache") != "MISS" {
		t.Fatal("different m hit the cache")
	}
	hits, misses := s.cache.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestCacheInvalidatedByDatasetReplacement(t *testing.T) {
	s := testServer(t, Config{}, 200)
	body := `{"dataset":"main","w":[0.4,0.3,0.3],"k":2,"m":8}`
	do(t, s.Handler(), "POST", "/query/ord", body)
	s.AddDataset("main", testDataset(t, 250)) // replace: new generation
	rec := do(t, s.Handler(), "POST", "/query/ord", body)
	if rec.Header().Get("X-Cache") != "MISS" {
		t.Fatal("stale cache entry served after dataset replacement")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte("A"), "ds", 1)
	c.Put("b", []byte("B"), "ds", 1)
	c.Get("a")                       // refresh a
	c.Put("c", []byte("C"), "ds", 1) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatal("a evicted despite refresh")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	// Disabled cache never stores.
	d := newLRUCache(0)
	d.Put("x", []byte("X"), "ds", 1)
	if _, ok := d.Get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := testServer(t, Config{Workers: 3}, 200)
	rec := do(t, s.Handler(), "GET", "/healthz", "")
	if rec.Code != 200 {
		t.Fatalf("healthz %d", rec.Code)
	}
	h := decode[Health](t, rec)
	if h.Status != "ok" || h.Datasets != 1 {
		t.Fatalf("health %+v", h)
	}

	do(t, s.Handler(), "POST", "/query/ord", `{"dataset":"main","w":[0.4,0.3,0.3],"k":2,"m":6}`)
	do(t, s.Handler(), "POST", "/query/ord", `{"dataset":"main","w":[0.4,0.3,0.3],"k":2,"m":6}`)
	do(t, s.Handler(), "POST", "/query/oru", `{"dataset":"main","w":[0.4,0.3,0.3],"k":0,"m":6}`)

	rec = do(t, s.Handler(), "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("metrics %d", rec.Code)
	}
	m := decode[Metrics](t, rec)
	if m.Requests["ord"] != 2 || m.Requests["oru"] != 1 {
		t.Fatalf("requests %v", m.Requests)
	}
	if m.Responses["200"] != 3 || m.Responses["400"] != 1 { // healthz counted too
		t.Fatalf("responses %v", m.Responses)
	}
	if m.Queue.Workers != 3 || m.Queue.Capacity != 9 {
		t.Fatalf("queue %+v", m.Queue)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 || m.Cache.HitRate != 0.5 {
		t.Fatalf("cache %+v", m.Cache)
	}
	last := m.LatencyMS[len(m.LatencyMS)-1]
	if last.LEMilliseconds != "+Inf" || last.Count < 3 {
		t.Fatalf("latency tail %+v", last)
	}
	for i := 1; i < len(m.LatencyMS); i++ {
		if m.LatencyMS[i].Count < m.LatencyMS[i-1].Count {
			t.Fatal("latency buckets not cumulative")
		}
	}
}

func TestDatasetEndpoints(t *testing.T) {
	s := New(Config{})
	// Generator-backed registration.
	rec := do(t, s.Handler(), "POST", "/datasets",
		`{"name":"synth","generator":{"dist":"COR","n":120,"d":3,"seed":7}}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	info := decode[DatasetInfo](t, rec)
	if info.Records != 120 || info.Dims != 3 {
		t.Fatalf("info %+v", info)
	}
	// CSV-backed registration, the startup path (ordud -data).
	path := filepath.Join(t.TempDir(), "recs.csv")
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i%7, (i*3)%11)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	csvDS, err := BuildDataset(path, nil)
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	s.AddDataset("csv", csvDS)
	// Both are listed and queryable.
	list := decode[[]DatasetInfo](t, do(t, s.Handler(), "GET", "/datasets", ""))
	if len(list) != 2 || list[0].Name != "csv" || list[1].Name != "synth" {
		t.Fatalf("list %+v", list)
	}
	q := do(t, s.Handler(), "POST", "/query/ord", `{"dataset":"synth","w":[0.4,0.3,0.3],"k":2,"m":5}`)
	if q.Code != 200 {
		t.Fatalf("query on synth: %d %s", q.Code, q.Body.String())
	}
	// Bad registrations.
	for _, body := range []string{
		`{"generator":{"dist":"IND","n":10,"d":2}}`, // no name
		`{"name":"x"}`, // no source
		`{"name":"x","generator":{"dist":"WAT","n":10,"d":2}}`,
		`{"name":"x","csv_path":"/definitely/missing.csv"}`,
		fmt.Sprintf(`{"name":"x","csv_path":%q,"generator":{"dist":"IND","n":10,"d":2}}`, path),
	} {
		if rec := do(t, s.Handler(), "POST", "/datasets", body); rec.Code != 400 {
			t.Fatalf("body %s: status %d, want 400", body, rec.Code)
		}
	}
}

// TestDatasetRequestCannotNameAFile: POST /datasets takes no file path. A
// body naming a readable numeric CSV gets a 400 that echoes none of the
// file, with or without a generator beside it, and registers nothing.
func TestDatasetRequestCannotNameAFile(t *testing.T) {
	s := New(Config{})
	path := filepath.Join(t.TempDir(), "secret.csv")
	if err := os.WriteFile(path, []byte("0.123456,0.654321\n0.777777,0.888888\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		fmt.Sprintf(`{"name":"x","csv_path":%q}`, path),
		fmt.Sprintf(`{"name":"x","csv_path":%q,"generator":{"dist":"IND","n":10,"d":2}}`, path),
	} {
		rec := do(t, s.Handler(), "POST", "/datasets", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, rec.Code)
		}
		for _, leak := range []string{"0.123456", "0.654321", "0.777777", "0.888888"} {
			if strings.Contains(rec.Body.String(), leak) {
				t.Fatalf("body %s: response %q echoes the file", body, rec.Body.String())
			}
		}
	}
	if list := decode[[]DatasetInfo](t, do(t, s.Handler(), "GET", "/datasets", "")); len(list) != 0 {
		t.Fatalf("datasets registered: %+v", list)
	}
}

// TestGeneratorCaps: POST /datasets rejects a generator spec over the d or
// n·d cap with a 400 before generating anything, and registers nothing. A
// canonical real-like spec stays under both caps.
func TestGeneratorCaps(t *testing.T) {
	s := New(Config{})
	for _, body := range []string{
		`{"name":"big","generator":{"dist":"IND","n":100000000,"d":4}}`,
		`{"name":"wide","generator":{"dist":"IND","n":100,"d":1000}}`,
	} {
		start := time.Now()
		rec := do(t, s.Handler(), "POST", "/datasets", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400: %s", body, rec.Code, rec.Body.String())
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("body %s: the 400 took %v", body, el)
		}
	}
	if list := decode[[]DatasetInfo](t, do(t, s.Handler(), "GET", "/datasets", "")); len(list) != 0 {
		t.Fatalf("datasets registered: %+v", list)
	}
	if rec := do(t, s.Handler(), "POST", "/datasets", `{"name":"ta","generator":{"dist":"TA"}}`); rec.Code != http.StatusCreated {
		t.Fatalf("canonical TA: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestConcurrentQueries drives >= 8 concurrent queries through one dataset;
// run under -race (make test does) it checks the whole serving surface for
// data races.
func TestConcurrentQueries(t *testing.T) {
	s := testServer(t, Config{Workers: 4, QueueDepth: 64}, 600)
	seeds := [][3]float64{
		{0.4, 0.3, 0.3}, {0.2, 0.5, 0.3}, {0.6, 0.2, 0.2}, {0.33, 0.33, 0.34},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := seeds[g%len(seeds)]
			op := "ord"
			if g%2 == 1 {
				op = "oru"
			}
			body := fmt.Sprintf(`{"dataset":"main","w":[%g,%g,%g],"k":2,"m":8}`,
				w[0], w[1], w[2])
			for i := 0; i < 3; i++ {
				rec := do(t, s.Handler(), "POST", "/query/"+op, body)
				if rec.Code != 200 {
					errs <- fmt.Sprintf("goroutine %d: status %d: %s", g, rec.Code, rec.Body.String())
					return
				}
			}
			do(t, s.Handler(), "GET", "/metrics", "")
			do(t, s.Handler(), "GET", "/healthz", "")
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	snap := s.Snapshot()
	if snap.Responses["200"] == 0 || snap.Cache.Hits == 0 {
		t.Fatalf("suspicious snapshot: %+v", snap.Responses)
	}
}

// diagDataset builds a dataset whose records sit on the main diagonal
// (c_i = (0.9 - 0.02 i) * ones), so plain dominance is a total order and
// dominator counts are exactly predictable.
func diagDataset(t *testing.T, n int) *ordu.Dataset {
	t.Helper()
	recs := make([][]float64, n)
	for i := range recs {
		v := 0.9 - 0.02*float64(i)
		recs[i] = []float64{v, v, v}
	}
	ds, err := ordu.NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPointWriteAndDelete(t *testing.T) {
	s := testServer(t, Config{}, 200)

	// Auto-id insert.
	rec := do(t, s.Handler(), "POST", "/datasets/main/points", `{"point":[0.5,0.5,0.5]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body.String())
	}
	ins := decode[PointWriteResponse](t, rec)
	if ins.Updated || ins.Records != 201 {
		t.Fatalf("insert response %+v", ins)
	}

	// Explicit-id upsert: first write inserts, second updates in place.
	rec = do(t, s.Handler(), "POST", "/datasets/main/points",
		fmt.Sprintf(`{"id":%d,"point":[0.4,0.4,0.4]}`, 5000))
	if rec.Code != http.StatusCreated || decode[PointWriteResponse](t, rec).Updated {
		t.Fatalf("upsert-insert: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(t, s.Handler(), "POST", "/datasets/main/points",
		fmt.Sprintf(`{"id":%d,"point":[0.6,0.6,0.6]}`, 5000))
	if rec.Code != http.StatusOK {
		t.Fatalf("upsert-update status %d: %s", rec.Code, rec.Body.String())
	}
	upd := decode[PointWriteResponse](t, rec)
	if !upd.Updated || upd.Records != 202 {
		t.Fatalf("update response %+v", upd)
	}

	// Delete it again.
	rec = do(t, s.Handler(), "DELETE", "/datasets/main/points/5000", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, rec.Body.String())
	}
	del := decode[PointDeleteResponse](t, rec)
	if del.ID != 5000 || del.Records != 201 {
		t.Fatalf("delete response %+v", del)
	}

	// The write counters show up in /datasets and /metrics.
	list := decode[[]DatasetInfo](t, do(t, s.Handler(), "GET", "/datasets", ""))
	if len(list) != 1 || list[0].Inserts != 2 || list[0].Updates != 1 || list[0].Deletes != 1 {
		t.Fatalf("dataset stats %+v", list)
	}
	if len(list[0].Min) != 3 || len(list[0].Max) != 3 {
		t.Fatalf("dataset bounds missing: %+v", list[0])
	}
	m := decode[Metrics](t, do(t, s.Handler(), "GET", "/metrics", ""))
	if m.Mutations.Inserts != 2 || m.Mutations.Updates != 1 || m.Mutations.Deletes != 1 {
		t.Fatalf("mutation metrics %+v", m.Mutations)
	}
	if m.Requests["points"] != 4 {
		t.Fatalf("points request counter = %d", m.Requests["points"])
	}

	// Error paths.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/datasets/nope/points", `{"point":[0.5,0.5,0.5]}`, 404},
		{"POST", "/datasets/main/points", `{"point":[0.5,0.5]}`, 400},
		{"POST", "/datasets/main/points", `{"point":`, 400},
		{"DELETE", "/datasets/nope/points/1", "", 404},
		{"DELETE", "/datasets/main/points/999999", "", 404},
		{"DELETE", "/datasets/main/points/abc", "", 400},
	} {
		rec := do(t, s.Handler(), tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Fatalf("%s %s: status %d, want %d: %s", tc.method, tc.path, rec.Code, tc.want, rec.Body.String())
		}
	}
}

func TestMutationVisibleToQueries(t *testing.T) {
	s := New(Config{})
	s.AddDataset("diag", diagDataset(t, 20))
	// A new point dominating the whole chain must lead the next ORD answer.
	rec := do(t, s.Handler(), "POST", "/datasets/diag/points", `{"point":[0.95,0.95,0.95]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body.String())
	}
	id := decode[PointWriteResponse](t, rec).ID
	q := do(t, s.Handler(), "POST", "/query/ord", `{"dataset":"diag","w":[0.4,0.3,0.3],"k":1,"m":1}`)
	if q.Code != 200 {
		t.Fatalf("query: %d %s", q.Code, q.Body.String())
	}
	resp := decode[QueryResponse](t, q)
	if len(resp.Records) != 1 || resp.Records[0].ID != id {
		t.Fatalf("ORD top record %+v, want id %d", resp.Records, id)
	}
	// Deleting it restores the old leader.
	do(t, s.Handler(), "DELETE", fmt.Sprintf("/datasets/diag/points/%d", id), "")
	q = do(t, s.Handler(), "POST", "/query/ord", `{"dataset":"diag","w":[0.4,0.3,0.3],"k":1,"m":1}`)
	resp = decode[QueryResponse](t, q)
	if len(resp.Records) != 1 || resp.Records[0].ID != 0 {
		t.Fatalf("ORD top record after delete %+v, want id 0", resp.Records)
	}
}

// TestFineGrainedCacheInvalidation pins the dominance keep-test: a write
// with at least k plain dominators must leave k-entries cached, while a
// write above the skyline drops them.
func TestFineGrainedCacheInvalidation(t *testing.T) {
	s := New(Config{})
	s.AddDataset("diag", diagDataset(t, 30))
	h := s.Handler()
	q2 := `{"dataset":"diag","w":[0.4,0.3,0.3],"k":2,"m":2}`
	q3 := `{"dataset":"diag","w":[0.4,0.3,0.3],"k":3,"m":3}`
	cacheState := func(body string) string {
		rec := do(t, h, "POST", "/query/ord", body)
		if rec.Code != 200 {
			t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
		}
		return rec.Header().Get("X-Cache")
	}

	if cacheState(q2) != "MISS" || cacheState(q3) != "MISS" {
		t.Fatal("warm-up queries unexpectedly hit")
	}

	// A deep insert (dominated by the entire chain) invalidates nothing.
	rec := do(t, h, "POST", "/datasets/diag/points", `{"point":[0.01,0.01,0.01]}`)
	deep := decode[PointWriteResponse](t, rec)
	if deep.CacheDropped != 0 {
		t.Fatalf("deep insert dropped %d entries", deep.CacheDropped)
	}
	if cacheState(q2) != "HIT" || cacheState(q3) != "HIT" {
		t.Fatal("deep insert evicted provably-valid entries")
	}

	// A point with exactly 2 dominators (between c1=0.88 and c2=0.86)
	// keeps k=2 and drops k=3.
	rec = do(t, h, "POST", "/datasets/diag/points", `{"point":[0.87,0.87,0.87]}`)
	mid := decode[PointWriteResponse](t, rec)
	if mid.CacheDropped != 1 {
		t.Fatalf("mid insert dropped %d entries, want 1", mid.CacheDropped)
	}
	if cacheState(q2) != "HIT" {
		t.Fatal("k=2 entry dropped despite 2 dominators")
	}
	if cacheState(q3) != "MISS" {
		t.Fatal("k=3 entry survived a 2-dominator insert")
	}

	// Deleting the deep point again invalidates nothing.
	rec = do(t, h, "DELETE", fmt.Sprintf("/datasets/diag/points/%d", deep.ID), "")
	if d := decode[PointDeleteResponse](t, rec); d.CacheDropped != 0 {
		t.Fatalf("deep delete dropped %d entries", d.CacheDropped)
	}
	if cacheState(q2) != "HIT" || cacheState(q3) != "HIT" {
		t.Fatal("deep delete evicted provably-valid entries")
	}

	// An insert above the skyline (0 dominators) drops every entry.
	rec = do(t, h, "POST", "/datasets/diag/points", `{"point":[0.99,0.99,0.99]}`)
	top := decode[PointWriteResponse](t, rec)
	if top.CacheDropped != 2 {
		t.Fatalf("skyline insert dropped %d entries, want 2", top.CacheDropped)
	}
	if cacheState(q2) != "MISS" || cacheState(q3) != "MISS" {
		t.Fatal("stale entries served after a skyline-level insert")
	}
}

// TestUpdateKeepTestCoversOutgoingIncarnation pins that an update's
// keep-test counts the dominators of the record's old coordinates before
// the write re-sites it: moving the chain's leader deep into the interior
// must drop every entry, although the new position has 29 dominators.
func TestUpdateKeepTestCoversOutgoingIncarnation(t *testing.T) {
	s := New(Config{})
	s.AddDataset("diag", diagDataset(t, 30))
	h := s.Handler()
	q2 := `{"dataset":"diag","w":[0.4,0.3,0.3],"k":2,"m":2}`
	if rec := do(t, h, "POST", "/query/ord", q2); rec.Code != 200 || rec.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("warm-up query: %d %s %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body.String())
	}
	rec := do(t, h, "POST", "/datasets/diag/points", `{"id":0,"point":[0.01,0.01,0.01]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, rec.Body.String())
	}
	if up := decode[PointWriteResponse](t, rec); up.CacheDropped != 1 {
		t.Fatalf("moving the leader dropped %d entries, want 1", up.CacheDropped)
	}
	q := do(t, h, "POST", "/query/ord", q2)
	if q.Header().Get("X-Cache") != "MISS" {
		t.Fatal("stale entry served after the leader moved")
	}
	for _, r := range decode[QueryResponse](t, q).Records {
		if r.ID == 0 {
			t.Fatalf("moved record 0 still in the k=2 answer: %s", q.Body.String())
		}
	}
}

// TestConcurrentMutationsAndQueries interleaves writers and readers on one
// dataset; run under -race (make test does) it checks the per-dataset lock
// discipline end to end.
func TestConcurrentMutationsAndQueries(t *testing.T) {
	s := testServer(t, Config{Workers: 4, QueueDepth: 64}, 400)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch g % 3 {
				case 0: // reader
					rec := do(t, s.Handler(), "POST", "/query/ord",
						`{"dataset":"main","w":[0.4,0.3,0.3],"k":2,"m":8}`)
					if rec.Code != 200 {
						errs <- fmt.Sprintf("reader %d: %d %s", g, rec.Code, rec.Body.String())
						return
					}
				case 1: // inserter
					rec := do(t, s.Handler(), "POST", "/datasets/main/points",
						fmt.Sprintf(`{"point":[%g,0.5,0.5]}`, 0.1+0.01*float64(g*4+i)))
					if rec.Code != http.StatusCreated {
						errs <- fmt.Sprintf("inserter %d: %d %s", g, rec.Code, rec.Body.String())
						return
					}
				default: // upserter on a private id
					rec := do(t, s.Handler(), "POST", "/datasets/main/points",
						fmt.Sprintf(`{"id":%d,"point":[0.5,%g,0.5]}`, 10000+g, 0.1+0.02*float64(i)))
					if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("upserter %d: %d %s", g, rec.Code, rec.Body.String())
						return
					}
				}
			}
			do(t, s.Handler(), "GET", "/datasets", "")
			do(t, s.Handler(), "GET", "/metrics", "")
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	snap := s.Snapshot()
	if snap.Mutations.Inserts == 0 {
		t.Fatalf("no inserts recorded: %+v", snap.Mutations)
	}
}

// TestQueryLockSpansCacheFill pins the query's read-lock span: the lock is
// held from the core call until the cache fill returns. Released earlier,
// it would let a write's DropAbove run between the query and its fill and
// leave a stale body cached. The test catches a query holding the read
// lock, then holds the cache's mutex so the query parks in cache.Put. For
// a window far longer than a whole uncached query, the dataset's write
// lock must stay unavailable.
func TestQueryLockSpansCacheFill(t *testing.T) {
	s := testServer(t, Config{}, 4000)
	nd, _ := s.dataset("main")
	h := s.Handler()
	query := func(i int) (string, string) {
		req := QueryRequest{Dataset: "main", W: []float64{0.4 + 0.001*float64(i), 0.4 - 0.001*float64(i), 0.2}, K: 3, M: 20}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), cacheKey("ord", req.Dataset, nd.gen, req.W, req.K, req.M)
	}
	body, _ := query(0)
	start := time.Now()
	if rec := do(t, h, "POST", "/query/ord", body); rec.Code != http.StatusOK {
		t.Fatalf("uncached query: %d %s", rec.Code, rec.Body.String())
	}
	window := 20*time.Since(start) + 50*time.Millisecond
	// readLocked spins until a query holds the read lock, or reports false
	// once the query finished uncaught.
	readLocked := func(done <-chan *httptest.ResponseRecorder) bool {
		for nd.mu.TryLock() {
			nd.mu.Unlock()
			select {
			case <-done:
				return false
			default:
				runtime.Gosched()
			}
		}
		return true
	}

	// Each attempt uses a fresh seed, so its query misses the cache.
	for i := 1; i <= 50; i++ {
		body, key := query(i)
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- do(t, h, "POST", "/query/ord", body) }()
		if !readLocked(done) {
			continue
		}
		s.cache.mu.Lock()
		if _, filled := s.cache.items[key]; filled {
			// The query filled the cache before the test could hold it.
			s.cache.mu.Unlock()
			<-done
			continue
		}
		for end := time.Now().Add(window); time.Now().Before(end); time.Sleep(100 * time.Microsecond) {
			if nd.mu.TryLock() {
				nd.mu.Unlock()
				s.cache.mu.Unlock()
				<-done
				t.Fatalf("the dataset's write lock was free while a query waited to fill the cache")
			}
		}
		s.cache.mu.Unlock()
		if rec := <-done; rec.Code != http.StatusOK {
			t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
		}
		return
	}
	t.Fatal("no attempt caught a query holding the read lock")
}
