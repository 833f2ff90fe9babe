package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ordu"
	"ordu/internal/collection"
	"ordu/internal/core"
	"ordu/internal/geom"
	"ordu/internal/hull"
	"ordu/internal/rtree"
	"ordu/internal/server"
	"ordu/internal/skyband"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request or replayed query share Req; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one goroutine's spans in memory. Ids start above base, so
// tracers of different goroutines never collide.
type tracer struct {
	origin time.Time
	next   int64
	spans  []span
}

func newTracer(origin time.Time, base int64) tracer {
	return tracer{origin: origin, next: base}
}

func (t *tracer) id() int64 {
	t.next++
	return t.next
}

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
}

// timed records fn as a span. On a nil tracer it only runs fn.
func (t *tracer) timed(name string, parent, req int64, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.id()
	t0 := time.Now()
	fn()
	t.add(id, parent, req, name, t0, time.Now())
}

// layerTimes sums span durations per request and name, and keeps the
// fastest span of each. A layer's self time is its span minus the spans of
// the layers it calls; the benchmark calls each layer separately, so those
// are sibling spans of the same request (see traceLayers).
type layerTimes struct {
	total   map[int64]map[string]time.Duration
	fastest map[int64]map[string]time.Duration
	reqs    map[string][]int64 // requests that have a span of the name, in first-seen order
}

func newLayerTimes(spans []span) *layerTimes {
	lt := &layerTimes{
		total:   map[int64]map[string]time.Duration{},
		fastest: map[int64]map[string]time.Duration{},
		reqs:    map[string][]int64{},
	}
	for _, s := range spans {
		if lt.total[s.Req] == nil {
			lt.total[s.Req] = map[string]time.Duration{}
			lt.fastest[s.Req] = map[string]time.Duration{}
		}
		if f, seen := lt.fastest[s.Req][s.Name]; !seen || s.dur() < f {
			lt.fastest[s.Req][s.Name] = s.dur()
		}
		if _, seen := lt.total[s.Req][s.Name]; !seen {
			lt.reqs[s.Name] = append(lt.reqs[s.Name], s.Req)
		}
		lt.total[s.Req][s.Name] += s.dur()
	}
	return lt
}

// medianTotal is the median over requests of the time spent in spans of
// the name (0 when no request has one).
func (lt *layerTimes) medianTotal(name string) time.Duration {
	var ds []time.Duration
	for _, r := range lt.reqs[name] {
		ds = append(ds, lt.total[r][name])
	}
	return median(ds)
}

// medianFastest is the median over requests of the fastest span of the
// name.
func (lt *layerTimes) medianFastest(name string) time.Duration {
	return lt.medianOf(name, func(r int64) time.Duration { return lt.fastest[r][name] })
}

// medianOf is the median over the requests with a span of the name of
// f(request).
func (lt *layerTimes) medianOf(name string, f func(req int64) time.Duration) time.Duration {
	var ds []time.Duration
	for _, r := range lt.reqs[name] {
		ds = append(ds, f(r))
	}
	return median(ds)
}

// replayCounts accumulates the effort counters of the replayed queries.
type replayCounts struct {
	queries     int
	fetched     int
	heapPops    int
	output      int
	partitioned int
	finalized   int
	layers      int
	rhobarFetch int
	candidates  int
	memberCalls int
	layer0      int
	restarts    int
	// beyond counts replayed queries whose rho exceeds core's rho-bar: the
	// candidate set is complete only within rho-bar, so the answer past it
	// can be wrong (see README.md, Known defects).
	beyond int
}

func mean(sum, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// replaySeeds returns the seeds of the first sp.Replay distinct queries of
// caller 0's list: the same queries the serving run started with.
func replaySeeds(sp spec, seed int64, pool *seedPool) [][]float64 {
	st := newStream(sp, seed, 0, pool)
	seen := map[int]bool{}
	var ws [][]float64
	for i := 0; len(ws) < sp.Replay && i < 100*sp.Replay+1000; i++ {
		o := st.next()
		if o.kind != opQuery || (o.rank >= 0 && seen[o.rank]) {
			continue
		}
		seen[o.rank] = true
		ws = append(ws, o.w)
	}
	return ws
}

// replayQueries replays each seed through a server with its cache
// disabled (so every request is a miss) and the ordu facade, twice each and
// alternating, since the server's own share of a miss is small beside the
// call-to-call noise of the query; then through internal/core on a
// bulk-loaded tree of the same points and, for ORU, the three phases core
// runs before exploring: rho-bar estimation, the candidate rho-skyband and
// the upper-hull layers.
func replayQueries(sp spec, ds *ordu.Dataset, tree *rtree.Tree, ws [][]float64, tr *tracer) (replayCounts, error) {
	var rc replayCounts
	srv := server.New(server.Config{Workers: 2, CacheSize: -1})
	srv.AddDataset(datasetName, ds)
	ctx := context.Background()
	for _, w := range ws {
		req := tr.id()
		t0 := time.Now()
		for i := 0; i < 2; i++ {
			var code int
			var err error
			tr.timed("server.handle", req, req, func() {
				code, _, err = serveOnce(srv.Handler(), "POST", op{kind: opQuery}.path(sp), queryBody(sp, w))
			})
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("replayed query answered %d", code)
			}
			if err == nil && sp.Op == "oru" {
				tr.timed("facade.oru", req, req, func() { _, err = ds.ORUCtx(ctx, w, sp.K, sp.M) })
			} else if err == nil {
				tr.timed("facade.ord", req, req, func() { _, err = ds.ORDCtx(ctx, w, sp.K, sp.M) })
			}
			if err != nil {
				return rc, err
			}
		}
		var err error
		if sp.Op == "oru" {
			err = replayORU(sp, tree, geom.Vector(w), tr, req, &rc)
		} else {
			err = replayORD(sp, tree, geom.Vector(w), tr, req, &rc)
		}
		if err != nil {
			return rc, err
		}
		tr.add(req, 0, req, "replay", t0, time.Now())
		rc.queries++
	}
	return rc, nil
}

func replayORD(sp spec, tree *rtree.Tree, w geom.Vector, tr *tracer, req int64, rc *replayCounts) error {
	var err error
	var res *core.ORDResult
	tr.timed("core.ord", req, req, func() { res, err = core.ORDCtx(context.Background(), tree, w, sp.K, sp.M) })
	if err != nil {
		return err
	}
	rc.fetched += res.Stats.Fetched
	rc.heapPops += res.Stats.HeapPops
	rc.output += len(res.Records)
	return nil
}

func replayORU(sp spec, tree *rtree.Tree, w geom.Vector, tr *tracer, req int64, rc *replayCounts) error {
	ctx := context.Background()
	var err error
	var res *core.ORUResult
	tr.timed("core.oru", req, req, func() { res, err = core.ORUWithCtx(ctx, tree, w, sp.K, sp.M, core.ORUOptions{}) })
	if err != nil {
		return err
	}
	st := res.Stats
	rc.fetched += st.Fetched
	rc.output += len(res.Records)
	rc.partitioned += st.RegionsPartitioned
	rc.finalized += st.RegionsFinalized
	rc.layers += st.LayersComputed

	// Phase 1, rho-bar estimation.
	rb := tr.id()
	tb0 := time.Now()
	rho, fetched, calls, err := estimateRhoBar(tree, w, sp.M, tr, rb, req)
	if err != nil {
		return err
	}
	tr.add(rb, req, req, "oru.rhobar", tb0, time.Now())
	rc.memberCalls += calls

	// Phase 2, the candidate rho-skyband.
	var cands []skyband.Member
	tr.timed("skyband.rho_skyband", req, req, func() { cands, err = skyband.RhoSkybandCtx(ctx, tree, w, sp.K, rho) })
	if err != nil {
		return err
	}

	// Phase 3, the upper-hull layers core materialised.
	ids := make([]int, len(cands))
	pts := make([]geom.Vector, len(cands))
	for i, c := range cands {
		ids[i], pts[i] = c.ID, c.Point
	}
	layer0 := 0
	tr.timed("hull.layers", req, req, func() {
		ls := hull.NewLayers(ids, pts)
		for t := 0; t < st.LayersComputed; t++ {
			ls.Layer(t)
		}
		if l := ls.Layer(0); l != nil {
			layer0 = len(l.MemberIDs)
		}
	})

	rc.rhobarFetch += fetched
	rc.candidates += len(cands)
	rc.layer0 += layer0
	// Fidelity: the replay retraced core's phases exactly when it fetched
	// as many records as core did. A mismatch means core restarted with a
	// doubled target (or the replay drifted from core's stopping rule).
	if fetched+len(cands) != st.Fetched {
		rc.restarts++
	} else if res.Rho > rho {
		rc.beyond++
	}
	return nil
}

// estimateRhoBar replays core's rho-bar estimation through exported
// functions, with core's stopping rule: feed skyband.NewIRD(tree, w, 1)
// into a hull.Builder and, once m records are in, check the QP-backed
// member count every 8 fetches. A nil tracer records no spans.
func estimateRhoBar(tree *rtree.Tree, w geom.Vector, m int, tr *tracer, parent, req int64) (rhoBar float64, fetched, memberCalls int, err error) {
	ctx := context.Background()
	ird := skyband.NewIRD(tree, w, 1)
	b := hull.NewBuilder(tree.Dim())
	rhoBar = math.Inf(1)
	for {
		var rel skyband.Released
		var ok bool
		tr.timed("skyband.ird_next", parent, req, func() { rel, ok, err = ird.NextCtx(ctx) })
		if err != nil || !ok {
			return rhoBar, fetched, memberCalls, err
		}
		fetched++
		tr.timed("hull.add", parent, req, func() { b.Add(rel.ID, rel.Point) })
		rhoBar = rel.Radius
		if fetched >= m && (fetched-m)%8 == 0 {
			var members int
			tr.timed("hull.membercount", parent, req, func() { members = b.MemberCount() })
			memberCalls++
			if members >= m {
				return rhoBar, fetched, memberCalls, nil
			}
		}
	}
}

// replayWrites applies the first n acknowledged writes to a mirror dataset
// built from the same records, timing each facade call the write handler
// makes: the insert or delete and the dominance keep-test.
func replayWrites(recs [][]float64, logs []*callerLog, n int, tr *tracer) error {
	mirror, err := ordu.NewDataset(recs)
	if err != nil {
		return err
	}
	done := 0
	for _, l := range logs {
		for _, s := range l.samples {
			if done >= n {
				return nil
			}
			if !s.ok() || s.op.kind == opQuery {
				continue
			}
			req := tr.id()
			switch s.op.kind {
			case opInsert:
				tr.timed("facade.insert", 0, req, func() { _, err = mirror.Upsert(s.op.id, s.op.point) })
				tr.timed("facade.count_dominators", 0, req, func() { mirror.CountDominators(s.op.point) })
			case opDelete:
				old, live := mirror.Record(s.op.id)
				if !live {
					return fmt.Errorf("mirror has no point %d to delete", s.op.id)
				}
				tr.timed("facade.count_dominators", 0, req, func() { mirror.CountDominators(old) })
				tr.timed("facade.delete", 0, req, func() { mirror.Delete(s.op.id) })
			}
			if err != nil {
				return err
			}
			done++
		}
	}
	return nil
}

// transportBudget caps the loopback replay's wall time.
const transportBudget = 2 * time.Second

// replayTransport replays up to sp.Transport of caller 0's query requests
// over net/http on loopback, and records each request's round trip with
// the handler's own time inside it as a child span.
func replayTransport(sp spec, seed int64, pool *seedPool, h http.Handler, tr *tracer) (sent, failed int, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	handled := make(chan [2]time.Time, 1)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		// The response completes only after this handler returns, so the
		// client always finds the value; the send never blocks a handler.
		select {
		case handled <- [2]time.Time{t0, time.Now()}:
		default:
		}
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{}}
	base := "http://" + ln.Addr().String()

	st := newStream(sp, seed, 0, pool)
	stop := time.Now().Add(transportBudget)
	for sent < sp.Transport && time.Now().Before(stop) {
		o := st.next()
		if o.kind != opQuery {
			continue
		}
		sent++
		req := tr.id()
		t0 := time.Now()
		resp, perr := client.Post(base+o.path(sp), "application/json", bytes.NewReader(o.body))
		if perr != nil {
			// Whether the handler ran is unknown, so stop rather than pair
			// a later round trip with this request's handler time.
			failed++
			break
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		in := <-handled
		if cerr != nil || resp.StatusCode != http.StatusOK {
			failed++
			continue
		}
		tr.add(tr.id(), req, req, "server.handle_loopback", in[0], in[1])
		tr.add(req, 0, req, "transport.request", t0, t1)
	}
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return sent, failed, err
	}
	if err := <-served; err != http.ErrServerClosed {
		return sent, failed, err
	}
	return sent, failed, nil
}

// replaySetup times the index builds setup_s is made of.
func replaySetup(pts []geom.Vector, tr *tracer) (height int, err error) {
	for i := 0; i < 3; i++ {
		req := tr.id()
		var t *rtree.Tree
		tr.timed("rtree.bulkload", 0, req, func() { t = rtree.BulkLoad(pts) })
		height = t.Height()
		tr.timed("collection.from_points", 0, req, func() { _, err = collection.FromPoints(pts) })
		if err != nil {
			return 0, err
		}
	}
	return height, nil
}

// spanCost measures the cost of recording one span, the work tracing adds
// to each request on the serving path.
func spanCost() time.Duration {
	const n = 100_000
	t := newTracer(time.Now(), 0)
	now := time.Now()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		id := t.id()
		t.add(id, 0, id, "server.handle", now, now)
	}
	return time.Since(t0) / n
}

// writeSpans writes every span of a traced run as JSON.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
