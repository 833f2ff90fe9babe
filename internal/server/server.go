package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ordu"
	"ordu/internal/collection"
	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/narrow"
)

// Config tunes a Server; zero fields take the documented defaults.
type Config struct {
	// Workers caps concurrently executing queries (default 4).
	Workers int
	// QueueDepth caps admitted-but-waiting requests beyond Workers
	// (default 2*Workers). A full queue answers 429 immediately.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries (default 256;
	// negative disables caching).
	CacheSize int
	// DefaultTimeout is the per-request deadline when the request does not
	// name one (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines (default 60s).
	MaxTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	return c
}

// namedDataset pairs a dataset with its registration generation and the
// reader/writer lock serialising point mutations against queries. The
// generation participates in cache keys, so replacing a dataset under the
// same name implicitly invalidates its cached results.
type namedDataset struct {
	ds *ordu.Dataset
	// mu serialises point mutations (write-locked) against queries and
	// stat reads (read-locked). Queries hold the read lock across the core
	// computation and the cache fill, so a later mutation's invalidation
	// scan always observes the filled entry.
	mu sync.RWMutex
	// gen is set before AddDataset publishes the dataset and never
	// changes: point writes invalidate through DropAbove, and a
	// replacement publishes a new namedDataset.
	gen uint64
}

// Server answers ORD/ORU queries over named in-memory datasets. Datasets
// are mutable: point writes take the dataset's writer lock, queries share
// its reader lock, and the result cache is invalidated per-entry with a
// dominance keep-test (wholesale replacement falls back to a generation
// bump).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	pool  *pool
	cache *lruCache
	met   *metrics

	mu       sync.RWMutex
	datasets map[string]*namedDataset
	nextGen  uint64
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		datasets: make(map[string]*namedDataset),
	}
	s.pool = newPool(s.cfg.Workers, s.cfg.QueueDepth)
	s.cache = newLRUCache(s.cfg.CacheSize)
	s.met = newMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /datasets", s.handleAddDataset)
	s.mux.HandleFunc("POST /datasets/{name}/points", s.handleWritePoint)
	s.mux.HandleFunc("DELETE /datasets/{name}/points/{id}", s.handleDeletePoint)
	s.mux.HandleFunc("POST /query/ord", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, "ord") })
	s.mux.HandleFunc("POST /query/oru", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, "oru") })
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Config returns the effective configuration, with defaults applied.
func (s *Server) Config() Config { return s.cfg }

// AddDataset registers (or replaces) a dataset under the given name.
// Replacement bumps the name's generation — the gen-bump fallback that
// invalidates every cached result wholesale, where per-point mutations
// instead run the fine-grained dominance keep-test.
func (s *Server) AddDataset(name string, ds *ordu.Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextGen++
	s.datasets[name] = &namedDataset{ds: ds, gen: s.nextGen}
}

// dataset returns a registered dataset.
func (s *Server) dataset(name string) (*namedDataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	nd, ok := s.datasets[name]
	return nd, ok
}

// --- query handling ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, op string) {
	start := time.Now()
	var req QueryRequest
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		s.fail(w, op, start, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if err := validateWire(&req); err != nil {
		s.fail(w, op, start, http.StatusBadRequest, err.Error())
		return
	}
	nd, ok := s.dataset(req.Dataset)
	if !ok {
		s.fail(w, op, start, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", req.Dataset))
		return
	}

	key := cacheKey(op, req.Dataset, nd.gen, req.W, req.K, req.M)
	if body, ok := s.cache.Get(key); ok {
		w.Header().Set("X-Cache", "HIT")
		s.reply(w, op, start, http.StatusOK, body)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	release, err := s.pool.acquire(ctx)
	if err != nil {
		if errors.Is(err, errOverloaded) {
			w.Header().Set("Retry-After", "1")
			s.fail(w, op, start, http.StatusTooManyRequests, "server overloaded: worker pool and queue are full")
			return
		}
		// Deadline expired (or client left) while queued.
		s.fail(w, op, start, statusForCtx(err), fmt.Sprintf("request expired while queued: %v", err))
		return
	}
	defer release()

	// The read lock spans the query, the marshal and the cache fill. A
	// write's DropAbove runs under the write lock, so it either precedes
	// the query or scans the cache after the fill. Released earlier, a
	// write could invalidate between the query and the fill, and the
	// stale body would be cached with nothing left to drop it.
	// TestQueryLockSpansCacheFill pins the span.
	nd.mu.RLock()
	var resp *QueryResponse
	switch op {
	case "ord":
		res, qerr := nd.ds.ORDCtx(ctx, req.W, req.K, req.M)
		if qerr != nil {
			err = qerr
		} else {
			resp = NewORDResponse(res)
		}
	case "oru":
		res, qerr := nd.ds.ORUCtx(ctx, req.W, req.K, req.M)
		if qerr != nil {
			err = qerr
		} else {
			resp = NewORUResponse(res)
		}
	}
	if err != nil {
		nd.mu.RUnlock()
		s.fail(w, op, start, statusForQueryError(err), err.Error())
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		nd.mu.RUnlock()
		s.fail(w, op, start, http.StatusInternalServerError, err.Error())
		return
	}
	s.cache.Put(key, body, req.Dataset, req.K)
	nd.mu.RUnlock()
	w.Header().Set("X-Cache", "MISS")
	s.reply(w, op, start, http.StatusOK, body)
}

// statusForQueryError maps a facade/core error to an HTTP status.
func statusForQueryError(err error) int {
	switch {
	case errors.Is(err, ordu.ErrBadSeed), errors.Is(err, ordu.ErrBadParams):
		return http.StatusBadRequest
	case errors.Is(err, ordu.ErrInsufficientData):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return statusForCtx(err)
	default:
		return http.StatusInternalServerError
	}
}

// statusForCtx maps a context cancellation cause: deadline -> 504, client
// disconnect -> 500 (the client never sees it; the counter does).
func statusForCtx(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// --- datasets ---

// DatasetRequest is the body of POST /datasets: a name and a generator
// spec. A client cannot name a server-local file; CSV datasets load at
// startup (ordud -data).
type DatasetRequest struct {
	Name      string         `json:"name"`
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// GeneratorSpec names one of the internal/data generators.
type GeneratorSpec struct {
	// Dist is IND, COR, ANTI, HOTEL, HOUSE, NBA or TA (case-insensitive).
	Dist string `json:"dist"`
	// N is the cardinality (<= 0 uses the canonical size for the real-like
	// generators; required for IND/COR/ANTI).
	N int `json:"n,omitempty"`
	// D is the dimensionality (IND/COR/ANTI only).
	D int `json:"d,omitempty"`
	// Seed drives the generator.
	Seed int64 `json:"seed,omitempty"`
}

// DatasetInfo describes one registered dataset: identity, shape, exact
// bounds, and the cumulative write counters of its live-mutation history
// (bulk registration does not count as writes).
type DatasetInfo struct {
	Name    string    `json:"name"`
	Records int       `json:"records"`
	Dims    int       `json:"dims"`
	Inserts uint64    `json:"inserts"`
	Updates uint64    `json:"updates"`
	Deletes uint64    `json:"deletes"`
	Min     []float64 `json:"min,omitempty"`
	Max     []float64 `json:"max,omitempty"`
}

func infoFromStats(name string, st collection.Stats) DatasetInfo {
	return DatasetInfo{
		Name:    name,
		Records: st.Count,
		Dims:    st.Dims,
		Inserts: st.Inserts,
		Updates: st.Updates,
		Deletes: st.Deletes,
		Min:     st.Min,
		Max:     st.Max,
	}
}

// BuildDataset materialises a dataset from a CSV path or generator spec.
// CSV columns are min-max normalised into [0,1], matching cmd/ordu. The
// path is opened on the server's file system, so only ordud's startup
// flags pass one; POST /datasets takes a generator only.
func BuildDataset(csvPath string, gen *GeneratorSpec) (*ordu.Dataset, error) {
	switch {
	case csvPath != "" && gen != nil:
		return nil, fmt.Errorf("give either a CSV path or a generator, not both")
	case csvPath != "":
		recs, err := data.LoadCSV(csvPath)
		if err != nil {
			return nil, err
		}
		return ordu.NewDataset(ordu.Normalize(recs))
	case gen != nil:
		recs, err := generate(gen)
		if err != nil {
			return nil, err
		}
		return ordu.NewDataset(recs)
	default:
		return nil, fmt.Errorf("give a CSV path or a generator")
	}
}

func generate(g *GeneratorSpec) ([][]float64, error) {
	var pts []geom.Vector
	switch strings.ToUpper(g.Dist) {
	case "IND", "COR", "ANTI":
		if g.N <= 0 || g.D < 2 {
			return nil, fmt.Errorf("generator %s needs n >= 1 and d >= 2", g.Dist)
		}
		pts = data.Synthetic(data.Distribution(strings.ToUpper(g.Dist)), g.N, g.D, g.Seed)
	case "HOTEL":
		pts = data.Hotel(g.N, g.Seed)
	case "HOUSE":
		pts = data.House(g.N, g.Seed)
	case "NBA":
		pts = data.NBA(g.N, g.Seed)
	case "TA":
		pts = data.TripAdvisor(g.N, g.Seed)
	default:
		return nil, fmt.Errorf("unknown generator %q (want IND, COR, ANTI, HOTEL, HOUSE, NBA or TA)", g.Dist)
	}
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out, nil
}

// Caps on the generator spec of POST /datasets, so one request cannot make
// the server allocate without bound. ordud's startup flags are not capped.
const (
	// maxGenDims bounds d: the paper's widest dataset is NBA's 8, and the
	// QP and linalg workspaces grow with d².
	maxGenDims = 16
	// maxGenCoords bounds n·d: the largest canonical dataset, HOUSE's
	// 315,265 × 6, holds under half of it.
	maxGenCoords = 1 << 22
)

// checkGenSize rejects a generator spec over the caps. The real-like
// generators have a fixed d and fall back to their canonical n when n <= 0.
func checkGenSize(g *GeneratorSpec) error {
	n, d := g.N, g.D
	canonical := func(cn, cd int) {
		if n <= 0 {
			n = cn
		}
		d = cd
	}
	switch strings.ToUpper(g.Dist) {
	case "HOTEL":
		canonical(data.HotelN, data.HotelD)
	case "HOUSE":
		canonical(data.HouseN, data.HouseD)
	case "NBA":
		canonical(data.NBAN, data.NBAD)
	case "TA":
		canonical(data.TAN, data.TAD)
	}
	if d > maxGenDims {
		return fmt.Errorf("generator d = %d exceeds %d", d, maxGenDims)
	}
	if d > 0 && n > maxGenCoords/d {
		return fmt.Errorf("generator n·d = %d·%d exceeds %d coordinates", n, d, maxGenCoords)
	}
	return nil
}

func (s *Server) handleAddDataset(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req DatasetRequest
	// Unknown fields fail, so a body naming a file path gets a 400, never
	// a dataset it did not ask for.
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, "datasets", start, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if req.Name == "" {
		s.fail(w, "datasets", start, http.StatusBadRequest, "missing dataset name")
		return
	}
	if req.Generator == nil {
		s.fail(w, "datasets", start, http.StatusBadRequest, "missing generator")
		return
	}
	if err := checkGenSize(req.Generator); err != nil {
		s.fail(w, "datasets", start, http.StatusBadRequest, err.Error())
		return
	}
	ds, err := BuildDataset("", req.Generator)
	if err != nil {
		s.fail(w, "datasets", start, http.StatusBadRequest, err.Error())
		return
	}
	// Snapshot the stats before publishing: once AddDataset registers ds,
	// other requests can reach it and reads need its lock.
	st := ds.Stats()
	s.AddDataset(req.Name, ds)
	s.writeJSON(w, "datasets", start, http.StatusCreated, infoFromStats(req.Name, st))
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mu.RLock()
	named := make(map[string]*namedDataset, len(s.datasets))
	for name, nd := range s.datasets {
		named[name] = nd
	}
	s.mu.RUnlock()
	infos := make([]DatasetInfo, 0, len(named))
	for name, nd := range named {
		nd.mu.RLock()
		st := nd.ds.Stats()
		nd.mu.RUnlock()
		infos = append(infos, infoFromStats(name, st))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	s.writeJSON(w, "datasets", start, http.StatusOK, infos)
}

// --- point mutations ---

// PointWriteRequest is the body of POST /datasets/{name}/points. With id
// omitted the server assigns a fresh id and inserts; with id given the
// write is an upsert (insert when free, in-place update when live).
type PointWriteRequest struct {
	ID    *int      `json:"id,omitempty"`
	Point []float64 `json:"point"`
}

// PointWriteResponse reports an applied point write.
type PointWriteResponse struct {
	ID      int  `json:"id"`
	Updated bool `json:"updated"`
	Records int  `json:"records"`
	// CacheDropped counts result-cache entries this write invalidated;
	// entries whose k the mutated point's plain-dominator count covers
	// survive untouched.
	CacheDropped int `json:"cache_dropped"`
}

// PointDeleteResponse reports an applied point deletion.
type PointDeleteResponse struct {
	ID           int `json:"id"`
	Records      int `json:"records"`
	CacheDropped int `json:"cache_dropped"`
}

// statusForMutationError maps collection sentinel errors to HTTP statuses.
func statusForMutationError(err error) int {
	switch {
	case errors.Is(err, collection.ErrUnknownID):
		return http.StatusNotFound
	case errors.Is(err, collection.ErrDuplicateID):
		return http.StatusConflict
	case errors.Is(err, collection.ErrBadPoint):
		return http.StatusBadRequest
	case errors.Is(err, narrow.ErrTooLarge):
		// Well-formed request, but the flat core's int32 slot arena
		// cannot address another record: a client-capacity error, not a
		// server fault.
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleWritePoint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	name := r.PathValue("name")
	nd, ok := s.dataset(name)
	if !ok {
		s.fail(w, "points", start, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name))
		return
	}
	var req PointWriteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, "points", start, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Point) != nd.ds.Dim() {
		s.fail(w, "points", start, http.StatusBadRequest,
			fmt.Sprintf("point has %d attributes, want %d", len(req.Point), nd.ds.Dim()))
		return
	}
	for j, x := range req.Point {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			s.fail(w, "points", start, http.StatusBadRequest, fmt.Sprintf("point[%d] is not finite", j))
			return
		}
	}

	nd.mu.Lock()
	var (
		id      int
		updated bool
		err     error
		hasOld  bool
		nOld    int
	)
	if req.ID == nil {
		id, err = nd.ds.Insert(req.Point)
	} else {
		id = *req.ID
		// Count the outgoing incarnation's dominators before the write
		// rearranges the storage: the keep-test must cover both states.
		if old, live := nd.ds.Record(id); live {
			hasOld = true
			nOld = nd.ds.CountDominators(old)
		}
		updated, err = nd.ds.Upsert(id, req.Point)
	}
	if err != nil {
		nd.mu.Unlock()
		s.fail(w, "points", start, statusForMutationError(err), err.Error())
		return
	}
	keepK := nd.ds.CountDominators(req.Point)
	if hasOld && nOld < keepK {
		keepK = nOld
	}
	dropped := s.cache.DropAbove(name, keepK)
	records := nd.ds.Len()
	nd.mu.Unlock()

	if updated {
		s.met.updates.Add(1)
	} else {
		s.met.inserts.Add(1)
	}
	s.met.cacheDropped.Add(int64(dropped))
	code := http.StatusCreated
	if updated {
		code = http.StatusOK
	}
	s.writeJSON(w, "points", start, code,
		PointWriteResponse{ID: id, Updated: updated, Records: records, CacheDropped: dropped})
}

func (s *Server) handleDeletePoint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	name := r.PathValue("name")
	nd, ok := s.dataset(name)
	if !ok {
		s.fail(w, "points", start, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.fail(w, "points", start, http.StatusBadRequest, fmt.Sprintf("bad point id %q", r.PathValue("id")))
		return
	}

	nd.mu.Lock()
	old, live := nd.ds.Record(id)
	if !live {
		nd.mu.Unlock()
		s.fail(w, "points", start, http.StatusNotFound, fmt.Sprintf("dataset %q has no point %d", name, id))
		return
	}
	keepK := nd.ds.CountDominators(old)
	nd.ds.Delete(id)
	dropped := s.cache.DropAbove(name, keepK)
	records := nd.ds.Len()
	nd.mu.Unlock()

	s.met.deletes.Add(1)
	s.met.cacheDropped.Add(int64(dropped))
	s.writeJSON(w, "points", start, http.StatusOK,
		PointDeleteResponse{ID: id, Records: records, CacheDropped: dropped})
}

// --- health & metrics ---

// Health is the GET /healthz response schema.
type Health struct {
	Status        string  `json:"status"`
	Datasets      int     `json:"datasets"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mu.RLock()
	n := len(s.datasets)
	s.mu.RUnlock()
	s.writeJSON(w, "other", start, http.StatusOK, Health{
		Status:        "ok",
		Datasets:      n,
		UptimeSeconds: time.Since(s.met.start).Seconds(),
	})
}

// Snapshot assembles the current metrics.
func (s *Server) Snapshot() Metrics {
	hits, misses := s.cache.Stats()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	m := Metrics{
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		Requests:      make(map[string]int64),
		Responses:     make(map[string]int64),
		Queue: QueueMetrics{
			Workers:  s.cfg.Workers,
			Running:  s.pool.running(),
			Depth:    s.pool.queued(),
			Capacity: s.pool.capacity,
		},
		Cache: CacheMetrics{
			Hits:     hits,
			Misses:   misses,
			HitRate:  hitRate,
			Entries:  s.cache.Len(),
			Capacity: s.cfg.CacheSize,
		},
		Mutations: MutationMetrics{
			Inserts:      s.met.inserts.Load(),
			Updates:      s.met.updates.Load(),
			Deletes:      s.met.deletes.Load(),
			CacheDropped: s.met.cacheDropped.Load(),
		},
		Runtime: readRuntimeMetrics(),
	}
	for op, c := range s.met.requests {
		m.Requests[op] = c.Load()
	}
	total := int64(0)
	for code, c := range s.met.status {
		m.Responses[strconv.Itoa(code)] = c.Load()
		total += c.Load()
	}
	m.Responses["total"] = total
	for i, le := range latencyBucketsMS {
		m.LatencyMS = append(m.LatencyMS, LatencyBucket{
			LEMilliseconds: strconv.FormatFloat(le, 'g', -1, 64),
			Count:          s.met.latency[i].Load(),
		})
	}
	m.LatencyMS = append(m.LatencyMS, LatencyBucket{
		LEMilliseconds: "+Inf",
		Count:          s.met.latency[len(latencyBucketsMS)].Load(),
	})
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, "other", time.Now(), http.StatusOK, s.Snapshot())
}

// --- response plumbing ---

// reply writes a pre-marshaled JSON body and records metrics.
func (s *Server) reply(w http.ResponseWriter, op string, start time.Time, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
	s.met.observe(op, code, time.Since(start))
}

// writeJSON marshals v and replies.
func (s *Server) writeJSON(w http.ResponseWriter, op string, start time.Time, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.fail(w, op, start, http.StatusInternalServerError, err.Error())
		return
	}
	s.reply(w, op, start, code, body)
}

// fail replies with an ErrorResponse.
func (s *Server) fail(w http.ResponseWriter, op string, start time.Time, code int, msg string) {
	s.writeJSON(w, op, start, code, ErrorResponse{Error: msg})
}
