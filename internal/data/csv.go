package data

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Sentinel errors of the CSV loader, for callers matching with errors.Is.
var (
	// ErrNonFinite reports a NaN or +/-Inf cell. strconv.ParseFloat accepts
	// the spellings "NaN" and "Inf", but no dominance or mindist kernel is
	// defined over non-finite coordinates, so the loader rejects them at
	// the boundary.
	ErrNonFinite = errors.New("data: non-finite value")
	// ErrNoRecords reports an empty input.
	ErrNoRecords = errors.New("data: no records")
)

// LoadCSV reads a records file: one record per line, numeric columns only,
// no header. Values are returned raw — callers decide whether to min-max
// normalise (both cmd/ordu and the serving layer do, so larger-is-better
// semantics hold regardless of the source scale). Non-finite cells fail
// with ErrNonFinite.
func LoadCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ParseCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// ParseCSV parses CSV records from r (see LoadCSV).
func ParseCSV(r io.Reader) ([][]float64, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([][]float64, 0, len(rows))
	for i, row := range rows {
		rec := make([]float64, len(row))
		for j, cell := range row {
			v, err := parseCell(cell, i, j)
			if err != nil {
				return nil, err
			}
			rec[j] = v
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		return nil, ErrNoRecords
	}
	return out, nil
}

// parseCell parses one CSV cell into a finite float64. i and j are
// zero-based row and column indices, reported one-based.
func parseCell(cell string, i, j int) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		return 0, fmt.Errorf("row %d col %d: %v", i+1, j+1, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("row %d col %d: %w: %q", i+1, j+1, ErrNonFinite, strings.TrimSpace(cell))
	}
	return v, nil
}
