package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ordu/internal/data"
	"ordu/internal/geom"
	"ordu/internal/server"
)

// datasetName is the name every workload registers its dataset under.
const datasetName = "bench"

// spec describes one workload: its inputs, its load, and what a traced run
// replays. Sizes are fields rather than constants so the smoke test can run
// every workload at a tiny scale through the same code.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Data is IND (data.Synthetic) or NBA (data.NBA), generated from
	// recordSeed.
	Data string `json:"data"`
	N    int    `json:"n"`
	D    int    `json:"d"`
	K    int    `json:"k"`
	M    int    `json:"m"`
	// Op is "oru" (distinct fresh seeds), "ord" (Zipf draws over a seed
	// pool) or "mixed" (ORD reads over a pool plus point writes).
	Op      string `json:"op"`
	Callers int    `json:"callers"`
	// Pool is the number of distinct seeds the Zipf(zipfS) reads draw from.
	Pool int `json:"pool,omitempty"`
	// WriteFrac is the share of operations that are point writes. A
	// caller's writes insert until it holds more than Live of its own
	// inserts, then delete its oldest, so inserts and deletes alternate and
	// n stays within callers×(Live+1) of N. Every CornerEvery-th insert of
	// a caller lands near the all-ones corner, dominates every cached
	// result and so invalidates it; a fixed cadence rather than a random
	// share, because the number of such wipes in a run moved mixed-write's
	// throughput by up to 25% from seed to seed. The bounded window has the
	// same cause: with a coin choosing insert or delete, the live inserts
	// drifted as a random walk and, with them, the corner points left in
	// the dataset; mixed-write's p90 then read 1.72 ms for one seed and
	// 1.14 ms for another, run after run.
	WriteFrac   float64 `json:"write_frac,omitempty"`
	Live        int     `json:"live,omitempty"`
	CornerEvery int     `json:"corner_every,omitempty"`
	// Warmup is the number of operations each caller runs before the timed
	// phase: enough to fill the result cache where the workload uses it.
	Warmup int `json:"warmup"`
	// Replay is the number of queries a traced run replays through the
	// facade, core and phase functions; ReplayWrites the number of writes
	// it applies to a mirror dataset.
	Replay       int `json:"replay"`
	ReplayWrites int `json:"replay_writes,omitempty"`
	// ORDChecks is the number of pool seeds whose ORD responses are compared
	// with core.ORDBSL after the timed phase; TopKEvery sends every n-th ORU
	// response through the region-by-region soundness check.
	ORDChecks int `json:"ord_checks,omitempty"`
	TopKEvery int `json:"topk_every,omitempty"`
	// Transport caps the requests a traced run replays over loopback HTTP.
	Transport int `json:"transport"`
}

// zipfS is the Zipf exponent of the ORD read workloads.
const zipfS = 1.1

// workloads are the benchmark's four workloads, in run order. BENCHMARK.json
// and README.md list the same names; the smoke test keeps them in step.
var workloads = []spec{
	{
		Name: "oru-ind",
		Why:  "Table-2 default shape scaled down: ORU time goes to Theorem-1 partitioning and region probes; every seed is distinct, so the cache never hits",
		Data: "IND", N: 50_000, D: 4, K: 5, M: 20,
		Op: "oru", Callers: 1,
		Warmup: 2, Replay: 12, TopKEvery: 4, Transport: 20,
	},
	{
		Name: "oru-nba8",
		Why:  "high-d slow end of Fig. 11(b): few partitions, so ORU time goes to rho-bar estimation, the candidate rho-skyband and the first hull layer",
		Data: "NBA", N: data.NBAN, D: data.NBAD, K: 2, M: 10,
		Op: "oru", Callers: 1,
		Warmup: 5, Replay: 40, TopKEvery: 4, Transport: 50,
	},
	{
		Name: "ord-zipf",
		Why:  "serving path plus ORD: Zipf reads over 4096 seeds, 16x the 256-entry cache, so the median is a cache hit and p90 a BBS/rho-bar miss",
		Data: "IND", N: 200_000, D: 4, K: 5, M: 30,
		Op: "ord", Callers: 2, Pool: 4096,
		Warmup: 2000, Replay: 200, ORDChecks: 32, Transport: 2000,
	},
	{
		Name: "mixed-write",
		Why:  "20% point writes beside cached ORD reads: writes take the dataset lock, update the R-tree and run the dominance keep-test that drops cache entries",
		Data: "IND", N: 100_000, D: 4, K: 5, M: 30,
		Op: "mixed", Callers: 2, Pool: 128, WriteFrac: 0.2, Live: 8, CornerEvery: 50,
		Warmup: 1000, Replay: 128, ReplayWrites: 2000, ORDChecks: 32, Transport: 2000,
	},
}

// lookupWorkload returns the workload with the given name.
func lookupWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// workloadNames lists the workload names in run order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, sp := range workloads {
		names[i] = sp.Name
	}
	return names
}

// Salts separating the random streams derived from one seed, so the seed
// pool, each caller's requests and the check sample never share a
// sequence.
const (
	saltPool   = 1 << 20
	saltCaller = 2 << 20
	saltSample = 3 << 20
)

func rngFor(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// recordSeed is the generator seed of every workload's records. The
// dataset is part of a workload's definition, as the paper runs one
// dataset per setting; the run's seed varies the requests. Datasets drawn
// from different seeds moved oru-nba8 from 20 to 38 queries/s, run after
// run, which no bound could absorb.
const recordSeed = 1

// records generates the workload's dataset.
func records(sp spec) ([]geom.Vector, error) {
	switch sp.Data {
	case "IND":
		return data.Synthetic(data.IND, sp.N, sp.D, recordSeed), nil
	case "NBA":
		if sp.D != data.NBAD {
			return nil, fmt.Errorf("NBA records have d=%d, spec says %d", data.NBAD, sp.D)
		}
		return data.NBA(sp.N, recordSeed), nil
	default:
		return nil, fmt.Errorf("unknown data %q", sp.Data)
	}
}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

// op is one request of a caller's list.
type op struct {
	kind opKind
	// w is the query's seed vector; rank is its index in the seed pool (-1
	// for the ORU workloads' fresh seeds).
	w    []float64
	rank int
	// id and point describe a write: the inserted point, or the id deleted.
	id    int
	point []float64
	body  []byte
}

func (o op) method() string {
	if o.kind == opDelete {
		return "DELETE"
	}
	return "POST"
}

func (o op) path(sp spec) string {
	switch o.kind {
	case opInsert:
		return "/datasets/" + datasetName + "/points"
	case opDelete:
		return "/datasets/" + datasetName + "/points/" + strconv.Itoa(o.id)
	}
	if sp.Op == "oru" {
		return "/query/oru"
	}
	return "/query/ord"
}

// seedPool is the set of seed vectors the Zipf reads draw from, with their
// request bodies encoded once.
type seedPool struct {
	ws     [][]float64
	bodies [][]byte
}

func newSeedPool(sp spec, seed int64) *seedPool {
	if sp.Pool == 0 {
		return nil
	}
	seq := newSimplexSequence(sp.D, rngFor(seed, saltPool))
	p := &seedPool{}
	for i := 0; i < sp.Pool; i++ {
		w := seq.next()
		p.ws = append(p.ws, w)
		p.bodies = append(p.bodies, queryBody(sp, w))
	}
	return p
}

func queryBody(sp spec, w []float64) []byte {
	b, err := json.Marshal(server.QueryRequest{Dataset: datasetName, W: w, K: sp.K, M: sp.M})
	if err != nil {
		panic(err) // a struct of numbers and a string always marshals
	}
	return b
}

// stream generates one caller's request list. The list is a pure function
// of (seed, caller): it does not depend on timing or on the other caller,
// so a faster program serves the same requests in the same order, only
// more of them.
type stream struct {
	sp   spec
	rng  *rand.Rand
	seq  *simplexSequence
	zipf *rand.Zipf
	pool *seedPool
	// nextID is the id of this caller's next insert: callers insert under
	// disjoint ids (N+caller, N+caller+callers, ...) so the final point set
	// follows from each caller's list alone.
	nextID int
	// live holds this caller's inserted ids not yet deleted, oldest first.
	live    []int
	inserts int
}

func newStream(sp spec, seed int64, caller int, pool *seedPool) *stream {
	s := &stream{
		sp:     sp,
		rng:    rngFor(seed, saltCaller+int64(caller)),
		pool:   pool,
		nextID: sp.N + caller,
	}
	if pool != nil {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(pool.ws)-1))
	} else {
		s.seq = newSimplexSequence(sp.D, s.rng)
	}
	return s
}

func (s *stream) next() op {
	sp := s.sp
	if sp.Op == "oru" {
		w := s.seq.next()
		return op{kind: opQuery, w: w, rank: -1, body: queryBody(sp, w)}
	}
	if sp.WriteFrac > 0 && s.rng.Float64() < sp.WriteFrac {
		if len(s.live) > sp.Live {
			id := s.live[0]
			s.live = s.live[1:]
			return op{kind: opDelete, id: id}
		}
		p := make([]float64, sp.D)
		s.inserts++
		corner := sp.CornerEvery > 0 && s.inserts%sp.CornerEvery == 0
		for j := range p {
			if corner {
				p[j] = 1 - 0.005*s.rng.Float64()
			} else {
				p[j] = s.rng.Float64()
			}
		}
		id := s.nextID
		s.nextID += sp.Callers
		s.live = append(s.live, id)
		body, err := json.Marshal(server.PointWriteRequest{ID: &id, Point: p})
		if err != nil {
			panic(err) // numbers always marshal
		}
		return op{kind: opInsert, id: id, point: p, body: body}
	}
	r := int(s.zipf.Uint64())
	return op{kind: opQuery, w: s.pool.ws[r], rank: r, body: s.pool.bodies[r]}
}

// checkRanks picks the pool seeds whose ORD answers are checked: the
// hottest half (almost surely served from the cache) and a seeded sample of
// the rest.
func checkRanks(sp spec, seed int64) []int {
	n := sp.ORDChecks
	if n > sp.Pool {
		n = sp.Pool
	}
	ranks := make([]int, 0, n)
	for r := 0; r < n/2; r++ {
		ranks = append(ranks, r)
	}
	rest := rngFor(seed, saltSample).Perm(sp.Pool - n/2)
	for _, r := range rest[:n-n/2] {
		ranks = append(ranks, n/2+r)
	}
	return ranks
}

// simplexSequence yields seed vectors spread evenly over the preference
// simplex: Roberts' R_d low-discrepancy sequence in the unit cube, shifted
// by a random offset (a Cranley-Patterson rotation), mapped onto the
// simplex by normalised exponential spacings, the map that turns uniform
// points into uniform seed vectors. Lists from different seeds differ but
// cover the simplex equally evenly, so a run's latency percentiles vary
// far less with the seed than under independent draws.
type simplexSequence struct {
	x, alpha []float64
}

func newSimplexSequence(d int, rng *rand.Rand) *simplexSequence {
	// phi is the unique positive root of x^(d+1) = x + 1.
	phi := 2.0
	for i := 0; i < 64; i++ {
		phi = math.Pow(1+phi, 1/float64(d+1))
	}
	s := &simplexSequence{x: make([]float64, d), alpha: make([]float64, d)}
	for j := range s.alpha {
		s.alpha[j] = math.Mod(math.Pow(1/phi, float64(j+1)), 1)
		s.x[j] = rng.Float64()
	}
	return s
}

func (s *simplexSequence) next() []float64 {
	w := make([]float64, len(s.x))
	sum := 0.0
	for j := range s.x {
		s.x[j] = math.Mod(s.x[j]+s.alpha[j], 1)
		w[j] = -math.Log(1 - s.x[j])
		sum += w[j]
	}
	for j := range w {
		w[j] /= sum
	}
	return w
}
