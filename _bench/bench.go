package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"ordu"
	"ordu/internal/core"
	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/server"
)

// setupRuns is how many times a run builds the dataset and server; setup_s
// is the median.
const setupRuns = 5

// runOpts are the settings shared by every workload of one invocation.
type runOpts struct {
	Seed     int64
	Duration time.Duration
	// Rounds is how many parts the timed phase is split into; the
	// reference computation is timed after each.
	Rounds int
	Trace  bool
	// SpansDir is where a traced run writes its spans; empty keeps them in
	// memory only.
	SpansDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome.
type result struct {
	Workload string `json:"workload"`
	Spec     spec   `json:"spec"`
	// RefMS is the run's mean reference time; Factor scales its timings
	// to nominal speed (see calib.go).
	RefMS  float64 `json:"ref_ms"`
	Factor float64 `json:"factor"`
	Ops    int     `json:"timed_ops"`
	// Checked counts ORU responses the region oracle checked; Beyond, those
	// whose rho lies past core's rho-bar (README.md, Known defects).
	Checked   int                    `json:"oru_checked,omitempty"`
	Beyond    int                    `json:"oru_beyond_rhobar,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fail counts one failed operation or check, keeping the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// setUp builds the dataset and a server holding it setupRuns times, and
// keeps the last. Each build is scaled to nominal speed by the reference
// runs on either side of it, since set-up is too short for the run's mean
// to describe; setup is the median. memPerPoint is the live heap the last
// build added, divided by the number of records.
func setUp(recs [][]float64, cal *calibration) (srv *server.Server, setup time.Duration, memPerPoint float64, err error) {
	var times []time.Duration
	var before, after runtime.MemStats
	ref := cal.measure(1)
	for i := 0; i < setupRuns; i++ {
		srv = nil // let the GC reclaim the previous build before the memory reading
		if i == setupRuns-1 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		ds, err := ordu.NewDataset(recs)
		if err != nil {
			return nil, 0, 0, err
		}
		srv = server.New(server.Config{Workers: 2})
		srv.AddDataset(datasetName, ds)
		build := time.Since(t0)
		next := cal.measure(1)
		times = append(times, time.Duration(float64(build)*float64(2*refNominal)/float64(ref+next)))
		ref = next
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	memPerPoint = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(recs))
	return srv, median(times), memPerPoint, nil
}

// runtimeDelta accumulates the allocation and GC counters over the timed
// rounds only, leaving out the reference runs between them.
type runtimeDelta struct {
	start                      runtime.MemStats
	mallocs, bytes, gcs, pause uint64
}

func (d *runtimeDelta) begin() { runtime.ReadMemStats(&d.start) }

func (d *runtimeDelta) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	d.mallocs += now.Mallocs - d.start.Mallocs
	d.bytes += now.TotalAlloc - d.start.TotalAlloc
	d.gcs += uint64(now.NumGC - d.start.NumGC)
	d.pause += now.PauseTotalNs - d.start.PauseTotalNs
}

// serving summarises the timed phase of a closed-loop run.
type serving struct {
	wall      time.Duration
	ops       int
	queries   []time.Duration // sorted
	hits      []time.Duration
	misses    []time.Duration
	writes    []time.Duration // sorted
	respBytes int
	rejected  int
	spans     int
}

// summarize counts every request that failed, warm-up included, and
// collects the timed phase's latencies.
func summarize(dr driveResult, res *result) serving {
	sv := serving{wall: dr.wall}
	for _, l := range dr.logs {
		sv.spans += len(l.spans.spans)
		for _, s := range l.samples {
			res.Attempted++
			if !s.ok() {
				res.fail("%s %s: status %d", s.op.method(), s.op.path(res.Spec), s.status)
				if s.status == http.StatusTooManyRequests || s.status == http.StatusGatewayTimeout {
					sv.rejected++
				}
			}
			if !s.timed {
				continue
			}
			sv.ops++
			if s.op.kind != opQuery {
				sv.writes = append(sv.writes, s.lat)
				continue
			}
			sv.queries = append(sv.queries, s.lat)
			sv.respBytes += s.bytes
			if s.hit {
				sv.hits = append(sv.hits, s.lat)
			} else {
				sv.misses = append(sv.misses, s.lat)
			}
		}
	}
	sortDurations(sv.queries)
	sortDurations(sv.writes)
	return sv
}

func (sv serving) opsPerSec() float64 {
	if sv.wall <= 0 {
		return 0
	}
	return float64(sv.ops) / sv.wall.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runWorkload runs one workload: generate its inputs from the seed, set up
// the server, drive it closed loop for o.Duration, check the outputs, and
// report the end-to-end metrics, or in a traced run the per-layer ones.
func runWorkload(sp spec, o runOpts) (*result, error) {
	origin := time.Now()
	pts, err := records(sp)
	if err != nil {
		return nil, err
	}
	recs := make([][]float64, len(pts))
	for i, p := range pts {
		recs[i] = p
	}
	var cal calibration
	srv, setup, memPerPoint, err := setUp(recs, &cal)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	pool := newSeedPool(sp, o.Seed)
	streams := make([]*stream, sp.Callers)
	for c := range streams {
		streams[c] = newStream(sp, o.Seed, c, pool)
	}
	var rt runtimeDelta
	var snapBefore server.Metrics
	dr := drive(srv.Handler(), sp, streams, o.Duration, o.Rounds, sp.Op == "oru", o.Trace, origin, func() {
		snapBefore = srv.Snapshot()
		rt.begin()
	}, func() {
		rt.end()
		cal.measure(sp.Callers)
		rt.begin()
	})
	snapAfter := srv.Snapshot()

	res := &result{Workload: sp.Name, Spec: sp, RefMS: ms(cal.refTime()), Factor: cal.factor()}
	sv := summarize(dr, res)
	res.Ops = sv.ops
	checkOutputs(sp, o.Seed, srv.Handler(), pts, pool, dr.logs, res)

	vals := map[string]float64{
		"setup_s":             setup.Seconds(),
		"mem_bytes_per_point": memPerPoint,
		"ops_per_s":           sv.opsPerSec(),
		"query_p50_ms":        ms(quantile(sv.queries, 0.5)),
		"query_p90_ms":        ms(quantile(sv.queries, 0.9)),
	}
	defs := endToEnd
	if o.Trace {
		lay, err := traceLayers(sp, o, recs, pts, srv, pool, dr, sv, res)
		if err != nil {
			return nil, err
		}
		lay["trace.ops_per_s"] = vals["ops_per_s"]
		lay["trace.query_p50_ms"] = vals["query_p50_ms"]
		lay["trace.query_p90_ms"] = vals["query_p90_ms"]
		serverDeltas(lay, snapBefore, snapAfter)
		lay["runtime.allocs_per_op"] = ratio(int(rt.mallocs), sv.ops)
		lay["runtime.bytes_per_op"] = ratio(int(rt.bytes), sv.ops)
		lay["runtime.gc_cycles"] = float64(rt.gcs)
		lay["runtime.gc_pause_ms"] = float64(rt.pause) / 1e6
		lay["calib.ref_ms"] = res.RefMS
		vals, defs = lay, perLayer
	}
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: nominal(d, v, res.Factor), Unit: d.Unit}
	}
	return res, nil
}

// nominal scales a measured time or rate to nominal machine speed.
func nominal(d metricDef, v, factor float64) float64 {
	if d.Unscaled {
		return v
	}
	switch d.Unit {
	case "s", "ms", "us", "ns":
		return v * factor
	case "1/s":
		return v / factor
	}
	return v
}

// checkOutputs runs the output checks after the timed phase. ORD answers for a sample of pool seeds, asked through
// the handler (so cached entries are checked too), must match core.ORDBSL
// on the final points; every kept ORU response must have the right shape,
// and every sp.TopKEvery-th must be sound region by region.
func checkOutputs(sp spec, seed int64, h http.Handler, pts []geom.Vector, pool *seedPool, logs []*callerLog, res *result) {
	set := finalSet(pts, logs)
	if sp.Op == "oru" {
		oracle := newRegionOracle(set.pts, sp.K, sp.M)
		for _, l := range logs {
			n := 0
			for _, s := range l.samples {
				if s.body < 0 || !s.ok() {
					continue
				}
				var o *regionOracle
				if sp.TopKEvery > 0 && n%sp.TopKEvery == 0 {
					o = oracle
				}
				n++
				res.Attempted++
				beyond, err := checkORU(l.bodies[s.body], s.op.w, sp.M, set, o)
				if err != nil {
					res.fail("ORU check: %v", err)
				}
				if o != nil && err == nil {
					res.Checked++
					if beyond {
						res.Beyond++
					}
				}
			}
		}
		return
	}
	tree := rtree.BulkLoad(set.pts)
	for _, r := range checkRanks(sp, seed) {
		res.Attempted++
		w := pool.ws[r]
		code, body, err := serveOnce(h, "POST", "/query/ord", pool.bodies[r])
		if err != nil || code != http.StatusOK {
			res.fail("ORD check seed %d: status %d %v", r, code, err)
			continue
		}
		want, err := core.ORDBSL(tree, geom.Vector(w), sp.K, sp.M)
		if err != nil {
			res.fail("ORD-BSL seed %d: %v", r, err)
			continue
		}
		if err := checkORD(body, want, set); err != nil {
			res.fail("ORD check seed %d: %v", r, err)
		}
	}
}

// traceLayers replays the run's queries, writes and requests through each
// layer's exported functions with a span around every call, and derives
// the per-layer metrics from the spans and counters.
func traceLayers(sp spec, o runOpts, recs [][]float64, pts []geom.Vector, srv *server.Server,
	pool *seedPool, dr driveResult, sv serving, res *result) (map[string]float64, error) {
	tr := newTracer(dr.start, 0)
	// The replays run on the workload's records as generated, not on the
	// served dataset, whose content after the writes depends on timing: so
	// for a fixed seed the counters repeat exactly.
	ds, err := ordu.NewDataset(recs)
	if err != nil {
		return nil, err
	}
	rc, err := replayQueries(sp, ds, rtree.BulkLoad(pts), replaySeeds(sp, o.Seed, pool), &tr)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if sp.ReplayWrites > 0 {
		if err := replayWrites(recs, dr.logs, sp.ReplayWrites, &tr); err != nil {
			return nil, fmt.Errorf("write replay: %w", err)
		}
	}
	sent, failed, err := replayTransport(sp, o.Seed, pool, srv.Handler(), &tr)
	if err != nil {
		return nil, fmt.Errorf("transport replay: %w", err)
	}
	res.Attempted += sent
	for i := 0; i < failed; i++ {
		res.fail("loopback replay: transport error or non-200 response")
	}
	height, err := replaySetup(pts, &tr)
	if err != nil {
		return nil, fmt.Errorf("set-up replay: %w", err)
	}

	lt := newLayerTimes(tr.spans)
	selfOf := func(req int64, names ...string) time.Duration {
		d := lt.total[req][names[0]]
		for _, n := range names[1:] {
			d -= lt.total[req][n]
		}
		return d
	}
	facade := "facade.ord"
	if sp.Op == "oru" {
		facade = "facade.oru"
	}
	spanNS := spanCost()
	callerTime := time.Duration(len(dr.logs)) * sv.wall
	overhead := 0.0
	if callerTime > 0 {
		overhead = 100 * float64(time.Duration(sv.spans)*spanNS) / float64(callerTime)
	}
	vals := map[string]float64{
		"server.hit_us":                  us(median(sv.hits)),
		"server.miss_us":                 us(median(sv.misses)),
		"server.miss_self_us":            us(lt.medianOf("server.handle", func(r int64) time.Duration { return lt.fastest[r]["server.handle"] - lt.fastest[r][facade] })),
		"server.query_p99_ms":            ms(quantile(sv.queries, 0.99)),
		"server.query_samples":           float64(len(sv.queries)),
		"server.resp_bytes":              mean(sv.respBytes, len(sv.queries)),
		"server.rejected":                float64(sv.rejected),
		"server.write_p50_us":            us(quantile(sv.writes, 0.5)),
		"server.write_p90_us":            us(quantile(sv.writes, 0.9)),
		"server.write_p99_us":            us(quantile(sv.writes, 0.99)),
		"transport.overhead_us":          us(lt.medianOf("transport.request", func(r int64) time.Duration { return selfOf(r, "transport.request", "server.handle_loopback") })),
		"facade.ord_us":                  us(lt.medianFastest("facade.ord")),
		"facade.oru_ms":                  ms(lt.medianFastest("facade.oru")),
		"facade.insert_us":               us(lt.medianTotal("facade.insert")),
		"facade.delete_us":               us(lt.medianTotal("facade.delete")),
		"facade.count_dominators_us":     us(lt.medianTotal("facade.count_dominators")),
		"core.ord_us":                    us(lt.medianTotal("core.ord")),
		"core.fetched":                   mean(rc.fetched, rc.queries),
		"core.heap_pops":                 mean(rc.heapPops, rc.queries),
		"core.output_per_fetched":        ratio(rc.output, rc.fetched),
		"core.oru_ms":                    ms(lt.medianTotal("core.oru")),
		"core.regions_partitioned":       mean(rc.partitioned, rc.queries),
		"core.regions_finalized":         mean(rc.finalized, rc.queries),
		"core.finalized_per_partitioned": ratio(rc.finalized, rc.partitioned),
		"core.explore_self_ms": ms(lt.medianOf("core.oru", func(r int64) time.Duration {
			return selfOf(r, "core.oru", "oru.rhobar", "skyband.rho_skyband", "hull.layers")
		})),
		"core.rhobar_restarts":      float64(rc.restarts),
		"core.rho_beyond_rhobar":    float64(rc.beyond),
		"core.layers_computed":      mean(rc.layers, rc.queries),
		"skyband.rhobar_ms":         ms(lt.medianTotal("skyband.ird_next")),
		"skyband.rhobar_fetched":    mean(rc.rhobarFetch, rc.queries),
		"skyband.rho_skyband_ms":    ms(lt.medianTotal("skyband.rho_skyband")),
		"skyband.candidates":        mean(rc.candidates, rc.queries),
		"hull.add_ms":               ms(lt.medianTotal("hull.add")),
		"hull.membercount_ms":       ms(lt.medianTotal("hull.membercount")),
		"hull.membercount_calls":    mean(rc.memberCalls, rc.queries),
		"hull.layers_ms":            ms(lt.medianTotal("hull.layers")),
		"hull.layer0_members":       mean(rc.layer0, rc.queries),
		"rtree.bulkload_ms":         ms(lt.medianTotal("rtree.bulkload")),
		"rtree.height":              float64(height),
		"collection.from_points_ms": ms(lt.medianTotal("collection.from_points")),
		"trace.span_ns":             float64(spanNS),
		"trace.overhead_pct":        overhead,
	}
	if o.SpansDir != "" {
		all := tr.spans
		for _, l := range dr.logs {
			all = append(all, l.spans.spans...)
		}
		if err := writeSpans(o.SpansDir, sp.Name, o.Seed, all); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return vals, nil
}

// serverDeltas derives the server's cache and invalidation metrics from
// its own counters over the timed phase.
func serverDeltas(vals map[string]float64, before, after server.Metrics) {
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	vals["server.cache_hit_rate"] = ratio(int(hits), int(hits+misses))
	mb, ma := before.Mutations, after.Mutations
	writes := (ma.Inserts - mb.Inserts) + (ma.Updates - mb.Updates) + (ma.Deletes - mb.Deletes)
	vals["server.cache_dropped_per_write"] = ratio(int(ma.CacheDropped-mb.CacheDropped), int(writes))
}
