package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ordu/internal/core"
	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/server"
)

// tiny shrinks a workload to smoke-test scale: the same code paths on
// inputs small enough for the whole file to run in a couple of seconds.
func tiny(sp spec) spec {
	sp.N = 1000
	sp.M = min(sp.M, 8)
	sp.Warmup = min(sp.Warmup, 20)
	if sp.Op == "oru" {
		sp.Warmup = 1
	}
	sp.Replay = 2
	sp.ReplayWrites = min(sp.ReplayWrites, 50)
	sp.ORDChecks = min(sp.ORDChecks, 4)
	sp.Transport = 5
	return sp
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is BENCHMARK.json; decoding rejects keys it does not name.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// TestReadmeNamesTheSameWorkloadsAndMetrics reads the first column of the
// README's tables: every workload and metric appears there exactly once,
// and nothing else does.
func TestReadmeNamesTheSameWorkloadsAndMetrics(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, sp := range workloads {
		want[sp.Name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		want[d.Name] = true
	}
	cell := regexp.MustCompile("^\\| `([^`]+)` \\|")
	got := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		if m := cell.FindStringSubmatch(line); m != nil {
			got[m[1]]++
		}
	}
	for name := range want {
		if got[name] != 1 {
			t.Errorf("README.md names %q in %d table rows, want 1", name, got[name])
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("README.md has a table row for %q, which is neither a workload nor a metric", name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at tiny scale, untraced
// and traced, and checks that each reports exactly the metrics
// BENCHMARK.json lists, with a clean run and, for ORU, a rho-bar replay
// that retraces core.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(tiny(sp), runOpts{Seed: 1, Duration: 50 * time.Millisecond, Rounds: 1, Trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.Ops == 0 {
				t.Errorf("%s trace=%v: attempted %d, timed %d, failed %d: %v", sp.Name, trace, res.Attempted, res.Ops, res.Failed, res.Failures)
			}
			want := units[trace]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", sp.Name, trace, len(res.Metrics), len(want))
			}
			for name, v := range res.Metrics {
				if !metricName.MatchString(name) || want[name] != v.Unit {
					t.Errorf("%s trace=%v: metric %q in %q is not listed in BENCHMARK.json (unit %q)", sp.Name, trace, name, v.Unit, want[name])
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s is %v", sp.Name, trace, name, v.Value)
				}
			}
			if trace && sp.Op == "oru" {
				if r := res.Metrics["core.rhobar_restarts"].Value; r != 0 {
					t.Errorf("%s: the rho-bar replay missed core's fetch count on %v queries", sp.Name, r)
				}
				if res.Metrics["skyband.candidates"].Value == 0 || res.Metrics["core.regions_finalized"].Value == 0 {
					t.Errorf("%s: the ORU replay measured no work", sp.Name)
				}
			}
		}
	}
}

// requestList renders the first n requests of every caller of a workload.
func requestList(sp spec, seed int64, n int) []byte {
	pool := newSeedPool(sp, seed)
	var b bytes.Buffer
	for c := 0; c < sp.Callers; c++ {
		st := newStream(sp, seed, c, pool)
		for i := 0; i < n; i++ {
			o := st.next()
			fmt.Fprintf(&b, "%d %s %s %s\n", c, o.method(), o.path(sp), o.body)
		}
	}
	return b.Bytes()
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	for _, sp := range workloads {
		a, b, c := requestList(sp, 1, 500), requestList(sp, 1, 500), requestList(sp, 2, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request lists", sp.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", sp.Name)
		}
		if sp.WriteFrac > 0 && (!bytes.Contains(a, []byte("DELETE")) || !bytes.Contains(a, []byte("/points "))) {
			t.Errorf("%s: the list has no inserts or no deletes", sp.Name)
		}
	}
}

// lowest is the id of the record scoring lowest at w.
func lowest(pts []geom.Vector, w geom.Vector) int {
	best := 0
	for i, p := range pts {
		if p.Dot(w) < pts[best].Dot(w) {
			best = i
		}
	}
	return best
}

func TestCheckersFlagWrongAnswers(t *testing.T) {
	sp := tiny(workloads[2]) // ord-zipf
	pts, err := records(sp)
	if err != nil {
		t.Fatal(err)
	}
	set := finalSet(pts, nil)
	pool := newSeedPool(sp, 1)
	recs := make([][]float64, len(pts))
	for i, p := range pts {
		recs[i] = p
	}
	srv, _, _, err := setUp(recs, &calibration{})
	if err != nil {
		t.Fatal(err)
	}

	w := geom.Vector(pool.ws[0])
	code, body, err := serveOnce(srv.Handler(), "POST", "/query/ord", pool.bodies[0])
	if err != nil || code != 200 {
		t.Fatalf("ORD query: %d %v", code, err)
	}
	want, err := core.ORDBSL(rtree.BulkLoad(set.pts), w, sp.K, sp.M)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkORD(body, want, set); err != nil {
		t.Fatalf("a correct ORD answer failed the check: %v", err)
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	wrong := lowest(pts, w)
	resp.Records[0].ID, resp.Records[0].Attrs = wrong, pts[wrong]
	bad, _ := json.Marshal(resp)
	if checkORD(bad, want, set) == nil {
		t.Error("the ORD check accepted an answer with a record that is not in it")
	}

	oru := tiny(workloads[0]) // oru-ind, on the same records
	code, body, err = serveOnce(srv.Handler(), "POST", "/query/oru", queryBody(oru, w))
	if err != nil || code != 200 {
		t.Fatalf("ORU query: %d %v", code, err)
	}
	oracle := newRegionOracle(set.pts, oru.K, oru.M)
	if _, err := checkORU(body, w, oru.M, set, oracle); err != nil {
		t.Fatalf("a correct ORU answer failed the check: %v", err)
	}
	resp = server.QueryResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	top := resp.Regions[0].TopK
	top[len(top)-1].ID, top[len(top)-1].Attrs = wrong, pts[wrong]
	bad, _ = json.Marshal(resp)
	if _, err := checkORU(bad, w, oru.M, set, nil); err != nil {
		t.Fatal("the shape check alone should not see a swapped region record")
	}
	if _, err := checkORU(bad, w, oru.M, set, oracle); err == nil {
		t.Error("the ORU check accepted a region whose top-k is not the top-k anywhere near the seed")
	}
}

func TestQuantile(t *testing.T) {
	ds := sortDurations([]time.Duration{40, 10, 30, 20})
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}} {
		if got := quantile(ds, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}
