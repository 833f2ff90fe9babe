// Package server implements the ordud serving subsystem: a long-lived HTTP
// JSON API over named in-memory datasets, answering ORD/ORU queries with
// production machinery around the operators — a bounded worker pool with
// admission control, per-request deadlines that cooperatively cancel
// in-flight core work, an LRU result cache with observable hit rate, and
// health/metrics endpoints.
package server

import (
	"fmt"
	"math"

	"ordu"
)

// QueryRequest is the body of POST /query/ord and POST /query/oru.
type QueryRequest struct {
	// Dataset names the target dataset.
	Dataset string `json:"dataset"`
	// W is the seed preference vector (normalised onto the unit simplex by
	// the caller; see ordu.Preference).
	W []float64 `json:"w"`
	// K is the rank / skyband parameter.
	K int `json:"k"`
	// M is the required output size.
	M int `json:"m"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped at the server's maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Record is one output record on the wire.
type Record struct {
	ID    int       `json:"id"`
	Attrs []float64 `json:"attrs"`
	// Score is the utility for the seed vector, when one was involved.
	Score float64 `json:"score,omitempty"`
	// Radius is the ORD inflection radius (present for ORD responses only).
	Radius *float64 `json:"radius,omitempty"`
}

// Region is one finalized top-k preference region (ORU responses only).
type Region struct {
	TopK    []Record  `json:"topk"`
	MinDist float64   `json:"min_dist"`
	Witness []float64 `json:"witness,omitempty"`
}

// QueryResponse is the body of a successful query, shared by both
// operators and by cmd/ordu's -json output, so shell pipelines and network
// clients consume one wire format.
type QueryResponse struct {
	// Op echoes the operator: "ord", "oru", "topk", "skyline", "skyband"
	// or "osskyline" (the latter four appear only in CLI output).
	Op string `json:"op"`
	// Rho is the stopping radius (ORD/ORU only).
	Rho float64 `json:"rho,omitempty"`
	// Records are the output records.
	Records []Record `json:"records"`
	// Regions are the finalized top-k regions (ORU only).
	Regions []Region `json:"regions,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// NewORDResponse converts an ORD result to the wire format.
func NewORDResponse(res *ordu.ORDResult) *QueryResponse {
	out := &QueryResponse{Op: "ord", Rho: res.Rho, Records: make([]Record, len(res.Records))}
	for i, r := range res.Records {
		radius := res.Radii[i]
		out.Records[i] = Record{ID: r.ID, Attrs: r.Record, Score: r.Score, Radius: &radius}
	}
	return out
}

// NewORUResponse converts an ORU result to the wire format.
func NewORUResponse(res *ordu.ORUResult) *QueryResponse {
	out := &QueryResponse{Op: "oru", Rho: res.Rho, Records: newRecords(res.Records)}
	for _, reg := range res.Regions {
		out.Regions = append(out.Regions, Region{
			TopK:    newRecords(reg.TopK),
			MinDist: reg.MinDist,
			Witness: reg.Witness,
		})
	}
	return out
}

// NewRecordsResponse wraps a plain record list (CLI top-k/skyline output).
func NewRecordsResponse(op string, rs []ordu.Result) *QueryResponse {
	return &QueryResponse{Op: op, Records: newRecords(rs)}
}

func newRecords(rs []ordu.Result) []Record {
	out := make([]Record, len(rs))
	for i, r := range rs {
		out[i] = Record{ID: r.ID, Attrs: r.Record, Score: r.Score}
	}
	return out
}

// validateWire rejects request fields JSON decoding cannot: non-finite
// seed components arrive only via strings, but a defensive check keeps the
// invariant local.
func validateWire(req *QueryRequest) error {
	if req.Dataset == "" {
		return fmt.Errorf("missing dataset")
	}
	if len(req.W) == 0 {
		return fmt.Errorf("missing seed vector w")
	}
	for j, x := range req.W {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("w[%d] is not finite", j)
		}
	}
	// Basic parameter sanity lives here, before the cache lookup, so
	// garbage requests neither consult nor pollute the cache; the facade
	// re-validates as defense in depth.
	if req.K < 1 {
		return fmt.Errorf("k = %d, want k >= 1", req.K)
	}
	if req.M < req.K {
		return fmt.Errorf("m = %d < k = %d; the smallest output is the top-k itself", req.M, req.K)
	}
	return nil
}
