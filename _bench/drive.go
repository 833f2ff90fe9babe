package main

import (
	"bytes"
	"net/http"
	"sort"
	"sync"
	"time"
)

// respWriter is a minimal in-process http.ResponseWriter, reused across a
// caller's requests so the recorder itself adds almost nothing to the
// handler time it measures.
type respWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

func (w *respWriter) reset() {
	if w.h == nil {
		w.h = make(http.Header)
	}
	clear(w.h)
	w.code = 0
	w.buf.Reset()
}

// sample is one request as a caller saw it.
type sample struct {
	op     op
	lat    time.Duration
	status int
	hit    bool
	bytes  int
	timed  bool
	// body indexes callerLog.bodies for ORU responses kept for the checks.
	body int
}

// ok reports whether the status is the one the request expects.
func (s sample) ok() bool {
	if s.op.kind == opInsert {
		return s.status == http.StatusCreated
	}
	return s.status == http.StatusOK
}

// callerLog is everything one caller sent and received, in order.
type callerLog struct {
	samples []sample
	bodies  [][]byte
	spans   tracer
}

// caller sends one stream's requests to the handler, one at a time.
type caller struct {
	h    http.Handler
	sp   spec
	st   *stream
	log  *callerLog
	rw   respWriter
	keep bool // keep ORU response bodies for the output checks
	tr   bool // record a span per request
}

func (c *caller) do(timed bool) {
	o := c.st.next()
	s := sample{op: o, timed: timed, body: -1}
	req, err := http.NewRequest(o.method(), "http://ordbench"+o.path(c.sp), bytes.NewReader(o.body))
	if err != nil {
		c.log.samples = append(c.log.samples, s) // status 0: counted as failed
		return
	}
	c.rw.reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.rw, req)
	t1 := time.Now()
	s.lat = t1.Sub(t0)
	s.status = c.rw.code
	s.hit = c.rw.h.Get("X-Cache") == "HIT"
	s.bytes = c.rw.buf.Len()
	if c.keep && o.kind == opQuery {
		s.body = len(c.log.bodies)
		c.log.bodies = append(c.log.bodies, bytes.Clone(c.rw.buf.Bytes()))
	}
	if c.tr {
		id := c.log.spans.id()
		c.log.spans.add(id, 0, id, "server.handle", t0, t1)
	}
	c.log.samples = append(c.log.samples, s)
}

// driveResult is the outcome of one closed-loop run.
type driveResult struct {
	logs []*callerLog
	// start is when the first timed round began; wall is the summed
	// length of the timed rounds, each from its start until its last
	// caller returned.
	start time.Time
	wall  time.Duration
}

// drive runs one closed-loop caller per stream against h: each caller sends
// its next request as soon as the previous one returns, with no pacing
// timer. Every caller first runs sp.Warmup untimed requests. The timed
// phase is d split into rounds; in each, every caller stops taking new
// requests at the round's deadline. before runs once every caller has
// warmed up, and between after each round, while every caller waits.
func drive(h http.Handler, sp spec, streams []*stream, d time.Duration, rounds int, keepBodies, trace bool, origin time.Time, before, between func()) driveResult {
	var warm, done sync.WaitGroup
	starts := make([]chan struct{}, rounds)
	deadlines := make([]time.Time, rounds)
	roundDone := make([]sync.WaitGroup, rounds)
	ends := make([][]time.Time, rounds)
	for r := range starts {
		starts[r] = make(chan struct{})
		roundDone[r].Add(len(streams))
		ends[r] = make([]time.Time, len(streams))
	}
	logs := make([]*callerLog, len(streams))
	for i, st := range streams {
		logs[i] = &callerLog{spans: newTracer(origin, int64(i+1)<<40)}
		c := &caller{h: h, sp: sp, st: st, log: logs[i], keep: keepBodies, tr: trace}
		warm.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			for j := 0; j < sp.Warmup; j++ {
				c.do(false)
			}
			warm.Done()
			for r := 0; r < rounds; r++ {
				<-starts[r]
				for time.Now().Before(deadlines[r]) {
					c.do(true)
				}
				ends[r][i] = time.Now()
				roundDone[r].Done()
			}
		}(i)
	}
	warm.Wait()
	before()
	res := driveResult{logs: logs}
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if r == 0 {
			res.start = start
		}
		deadlines[r] = start.Add(d / time.Duration(rounds))
		close(starts[r])
		roundDone[r].Wait()
		end := start
		for _, e := range ends[r] {
			if e.After(end) {
				end = e
			}
		}
		res.wall += end.Sub(start)
		between()
	}
	done.Wait()
	return res
}

// quantile returns the q-quantile of sorted durations by linear
// interpolation between order statistics, or 0 for no samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + time.Duration(frac*float64(sorted[i+1]-sorted[i]))
}

func sortDurations(ds []time.Duration) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func median(ds []time.Duration) time.Duration {
	return quantile(sortDurations(append([]time.Duration(nil), ds...)), 0.5)
}
