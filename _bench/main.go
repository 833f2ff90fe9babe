// Command ordbench measures ORD and ORU end to end through the ordud HTTP
// handler (internal/server) on four named workloads and, in a traced run,
// layer by layer, by timing calls into each layer's exported functions.
//
// From the repository root:
//
//	bash _bench/run.sh --workload ord-zipf --seed 1 --seconds 20 --trace 0
//
// builds the benchmark and runs one workload. Without --workload it runs
// all four. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The process exits 1 when an
// operation or an output check failed. README.md describes the workloads,
// the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// provenance stamps a result with what produced it.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// commit is the checked-out git revision when the benchmark runs from the
// root of a git work tree, or "unknown". Only a .git in the current
// directory is consulted, so nothing outside the checkout is read.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ordbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default all)")
	seed := fs.Int64("seed", 1, "seed the records and request lists are generated from")
	seconds := fs.Int("seconds", defaultSeconds, "length of each workload's timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	out := fs.String("out", "", "also write the results with their provenance stamp as JSON to this file")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to (empty: keep them in memory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "ordbench: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	specs := workloads
	if *name != "" {
		sp, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "ordbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		specs = []spec{sp}
	}
	opts := runOpts{Seed: *seed, Duration: time.Duration(*seconds) * time.Second, Rounds: 40, Trace: *trace == 1, SpansDir: *spans}
	prov := provenance{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: opts.Duration.Seconds(), Trace: opts.Trace,
	}
	stamp, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintln(stderr, "ordbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", stamp)

	sum := summary{Correct: true, Metrics: map[string]metricValue{}}
	var results []*result
	for _, sp := range specs {
		res, err := runWorkload(sp, opts)
		if err != nil {
			fmt.Fprintf(stderr, "ordbench: %s: %v\n", sp.Name, err)
			return 1
		}
		results = append(results, res)
		printResult(stdout, res)
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(specs) > 1 {
				k = sp.Name + "/" + k
			}
			sum.Metrics[k] = v
		}
	}
	sum.Correct = sum.Failed == 0
	if *out != "" {
		if err := writeResults(*out, prov, results); err != nil {
			fmt.Fprintln(stderr, "ordbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "ordbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// printResult prints one workload's stamp, failures and metrics, one per
// line, in registry order.
func printResult(w io.Writer, r *result) {
	sp := r.Spec
	fmt.Fprintf(w, "workload %s: %s n=%d d=%d k=%d m=%d callers=%d timed_ops=%d attempted=%d failed=%d\n",
		sp.Name, sp.Data, sp.N, sp.D, sp.K, sp.M, sp.Callers, r.Ops, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  reference %.3f ms: times below are scaled by %.4f to nominal speed\n", r.RefMS, r.Factor)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if r.Beyond > 0 {
		fmt.Fprintf(w, "  known defect: %d of %d region-checked ORU answers reach past rho-bar; regions past it are not checked\n", r.Beyond, r.Checked)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}

// writeResults writes the provenance stamp and every workload's result.
func writeResults(path string, prov provenance, results []*result) error {
	b, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Results    []*result  `json:"results"`
	}{prov, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
