// Command ordu runs ORD/ORU and the classic operators from the command
// line, over a CSV file or a generated synthetic dataset.
//
// Examples:
//
//	ordu -gen IND -n 100000 -d 4 -op ord -w 0.3,0.3,0.2,0.2 -k 5 -m 20
//	ordu -data hotels.csv -op oru -w 0.5,0.25,0.25 -k 3 -m 10
//	ordu -gen ANTI -n 50000 -d 3 -op skyband -k 2
//
// CSV input: one record per line, numeric columns only, no header. Column
// values are min-max normalised; larger is treated as better (negate
// columns to minimise before exporting).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ordu"
	"ordu/internal/data"
	"ordu/internal/server"
)

func main() {
	ctx := context.Background()
	var (
		dataFile = flag.String("data", "", "CSV file of records (numeric, no header)")
		gen      = flag.String("gen", "", "generate a synthetic dataset: IND, COR or ANTI")
		n        = flag.Int("n", 100000, "synthetic dataset cardinality")
		d        = flag.Int("d", 4, "synthetic dataset dimensionality")
		seed     = flag.Int64("seed", 1, "synthetic generator seed")
		op       = flag.String("op", "ord", "operator: ord, oru, topk, skyline, skyband, osskyline")
		wFlag    = flag.String("w", "", "comma-separated preference weights (normalised automatically)")
		k        = flag.Int("k", 5, "rank parameter k")
		m        = flag.Int("m", 20, "output size m")
		show     = flag.Int("show", 20, "max records to print")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON in the ordud wire format")
	)
	flag.Parse()

	records, err := loadRecords(*dataFile, *gen, *n, *d, *seed)
	if err != nil {
		fatal(err)
	}
	ds, err := ordu.NewDataset(records)
	if err != nil {
		fatal(err)
	}
	if !*jsonOut {
		fmt.Printf("dataset: %d records x %d attributes\n", ds.Len(), ds.Dim())
	}

	var w []float64
	if *wFlag != "" {
		w, err = parseWeights(*wFlag)
		if err != nil {
			fatal(err)
		}
	} else {
		w = make([]float64, ds.Dim())
		for i := range w {
			w[i] = 1 / float64(ds.Dim())
		}
	}

	t0 := time.Now()
	switch *op {
	case "ord":
		res, err := ds.ORDCtx(ctx, w, *k, *m)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(server.NewORDResponse(res))
			return
		}
		fmt.Printf("ORD(k=%d, m=%d) stopping radius rho=%.6f  [%v]\n", *k, *m, res.Rho, time.Since(t0))
		for i, r := range res.Records {
			if i >= *show {
				fmt.Printf("  ... %d more\n", len(res.Records)-i)
				break
			}
			fmt.Printf("  #%-4d id=%-8d radius=%.6f  %v\n", i+1, r.ID, res.Radii[i], short(r.Record))
		}
	case "oru":
		res, err := ds.ORUCtx(ctx, w, *k, *m)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(server.NewORUResponse(res))
			return
		}
		fmt.Printf("ORU(k=%d, m=%d) stopping radius rho=%.6f, %d top-k regions  [%v]\n",
			*k, *m, res.Rho, len(res.Regions), time.Since(t0))
		for i, r := range res.Records {
			if i >= *show {
				fmt.Printf("  ... %d more\n", len(res.Records)-i)
				break
			}
			fmt.Printf("  #%-4d id=%-8d  %v\n", i+1, r.ID, short(r.Record))
		}
	case "topk":
		res, err := ds.TopK(w, *k)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(server.NewRecordsResponse("topk", res))
			return
		}
		fmt.Printf("top-%d  [%v]\n", *k, time.Since(t0))
		for i, r := range res {
			fmt.Printf("  #%-4d id=%-8d score=%.4f  %v\n", i+1, r.ID, r.Score, short(r.Record))
		}
	case "skyline":
		res := ds.Skyline()
		if *jsonOut {
			emitJSON(server.NewRecordsResponse("skyline", res))
			return
		}
		fmt.Printf("skyline: %d records  [%v]\n", len(res), time.Since(t0))
		printSome(res, *show)
	case "skyband":
		res, err := ds.KSkyband(*k)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(server.NewRecordsResponse("skyband", res))
			return
		}
		fmt.Printf("%d-skyband: %d records  [%v]\n", *k, len(res), time.Since(t0))
		printSome(res, *show)
	case "osskyline":
		res := ds.OSSkyline(*m)
		if *jsonOut {
			emitJSON(server.NewRecordsResponse("osskyline", res))
			return
		}
		fmt.Printf("OSS skyline (top-%d by dominance count)  [%v]\n", *m, time.Since(t0))
		for i, r := range res {
			fmt.Printf("  #%-4d id=%-8d dominates=%d  %v\n", i+1, r.ID, int(r.Score), short(r.Record))
		}
	default:
		fatal(fmt.Errorf("unknown operator %q", *op))
	}
}

func loadRecords(file, gen string, n, d int, seed int64) ([][]float64, error) {
	if file != "" {
		out, err := data.LoadCSV(file)
		if err != nil {
			return nil, err
		}
		return ordu.Normalize(out), nil
	}
	if gen == "" {
		gen = "IND"
	}
	pts := data.Synthetic(data.Distribution(gen), n, d, seed)
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out, nil
}

func parseWeights(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	w := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("weight %d: %v", i+1, err)
		}
		w[i] = v
	}
	return ordu.Preference(w)
}

func printSome(res []ordu.Result, show int) {
	for i, r := range res {
		if i >= show {
			fmt.Printf("  ... %d more\n", len(res)-i)
			return
		}
		fmt.Printf("  id=%-8d %v\n", r.ID, short(r.Record))
	}
}

func short(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// emitJSON prints one wire-format result line (the same schema ordud
// serves), so shell pipelines and network clients share a format.
func emitJSON(v *server.QueryResponse) {
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fatal(err)
	}
}

// fatal prints a one-line friendly message and exits non-zero. Known input
// mistakes get a hint instead of a raw error dump.
func fatal(err error) {
	msg := err.Error()
	switch {
	case errors.Is(err, ordu.ErrBadSeed):
		msg += " (check -w: comma-separated non-negative weights, one per attribute)"
	case errors.Is(err, ordu.ErrBadParams):
		msg += " (check -k and -m: both positive, with m >= k)"
	case errors.Is(err, ordu.ErrInsufficientData):
		msg += " (the dataset cannot yield m records: lower -m or raise -k)"
	}
	fmt.Fprintln(os.Stderr, "ordu:", strings.TrimPrefix(msg, "ordu: "))
	os.Exit(1)
}
