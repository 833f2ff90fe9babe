// Command benchdiff compares two `go test -bench` runs and fails when a
// benchmark regressed beyond a threshold, in wall-clock time (ns/op) or in
// allocations (allocs/op). It also converts a bench run to a stable JSON
// snapshot, the format committed as BENCH_<tag>.json by `make bench`.
//
// Usage:
//
//	benchdiff -dump bench.txt                  # emit JSON snapshot on stdout
//	benchdiff old.{txt,json} new.{txt,json}    # diff; exit 1 on regression
//
// Inputs may be raw `go test -bench` output or a JSON snapshot produced by
// -dump; the format is auto-detected. Benchmarks present in only one input
// are reported but never fail the diff (suites grow and shrink). A snapshot
// keeps the run's goos/goarch/pkg/cpu header lines and its GOMAXPROCS; a
// diff prints both sides' and notes, without failing, when they come from
// different hosts. -allocs-only refuses (exit 2) to compare runs that
// record different GOMAXPROCS values: ORU's allocations depend on it,
// because a sync.Pool keeps the pooled query scratch per P.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured costs.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is the committed JSON form of a bench run.
type Snapshot struct {
	// Machine is nil for snapshots taken before it was recorded.
	Machine    *Machine `json:"machine,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Machine is the host of a bench run, from the header lines `go test
// -bench` prints before the results, and the run's GOMAXPROCS, from the
// "-N" suffix it appends to every benchmark name (none means 1).
type Machine struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is 0 when unknown: snapshots taken before it was
	// recorded, and runs whose name suffixes are not uniform.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
}

// String renders the machine on one line, "unknown" when unrecorded.
func (m *Machine) String() string {
	if m == nil {
		return "unknown"
	}
	s := fmt.Sprintf("goos=%s goarch=%s pkg=%s cpu=%s", m.GOOS, m.GOARCH, m.Pkg, m.CPU)
	if m.GOMAXPROCS > 0 {
		s += fmt.Sprintf(" gomaxprocs=%d", m.GOMAXPROCS)
	}
	return s
}

// gomaxprocs returns the run's recorded GOMAXPROCS, 0 when unknown.
func gomaxprocs(m *Machine) int {
	if m == nil {
		return 0
	}
	return m.GOMAXPROCS
}

// sameHost reports whether both runs are known to come from the same kind
// of host; the benchmarked packages do not matter.
func sameHost(a, b *Machine) bool {
	return a == nil || b == nil || (a.GOOS == b.GOOS && a.GOARCH == b.GOARCH && a.CPU == b.CPU)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dump := fs.Bool("dump", false, "parse one bench output and print a JSON snapshot")
	timeThresh := fs.Float64("time-threshold", 1.30, "fail when new ns/op exceeds old by this factor")
	allocThresh := fs.Float64("alloc-threshold", 1.10, "fail when new allocs/op exceeds old by this factor")
	allocsOnly := fs.Bool("allocs-only", false, "compare allocs/op only, ignoring wall-clock time (for noisy shared CI runners)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff [-dump] [-allocs-only] [-time-threshold F] [-alloc-threshold F] old [new]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dump {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchdiff: -dump takes exactly one input file")
			return 2
		}
		snap, err := loadFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldSnap, err := loadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newSnap, err := loadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "old machine: %s\nnew machine: %s\n", oldSnap.Machine, newSnap.Machine)
	if !sameHost(oldSnap.Machine, newSnap.Machine) {
		fmt.Fprintln(stdout, "note: the runs come from different machines; their times are not comparable")
	}
	if *allocsOnly {
		// ORU's allocation counts depend on GOMAXPROCS (its pooled scratch
		// is kept per P); a side that records none compares as before.
		if o, n := gomaxprocs(oldSnap.Machine), gomaxprocs(newSnap.Machine); o > 0 && n > 0 && o != n {
			fmt.Fprintf(stderr, "benchdiff: -allocs-only: the runs used GOMAXPROCS %d and %d; rerun the new side with -cpu %d\n", o, n, o)
			return 2
		}
		// Disable the time comparison: allocation counts are deterministic
		// on any runner, wall-clock time is not.
		*timeThresh = 0
	}
	regressions := diff(oldSnap, newSnap, *timeThresh, *allocThresh, stdout)
	if regressions > 0 {
		fmt.Fprintf(stdout, "\n%d regression(s) beyond thresholds (time ×%.2f, allocs ×%.2f)\n",
			regressions, *timeThresh, *allocThresh)
		return 1
	}
	fmt.Fprintln(stdout, "no regressions beyond thresholds")
	return 0
}

// diff prints a comparison table and returns the number of regressions.
// A timeThresh of 0 disables the time comparison (the -allocs-only mode).
// Names that differ only by a trailing "-N" GOMAXPROCS suffix (gained or
// lost when a snapshot was taken with different parallelism) are matched
// through their canonical form, so such renames compare instead of being
// reported as missing.
func diff(oldSnap, newSnap *Snapshot, timeThresh, allocThresh float64, out io.Writer) int {
	oldBy := byName(oldSnap)
	newBy := byName(newSnap)
	// Canonical-name index of the new run, for suffix-tolerant matching.
	// Only unambiguous canonical matches are used: if two new benchmarks
	// collapse to the same canonical name, neither is matched through it.
	newCanon := make(map[string][]string)
	for name := range newBy {
		newCanon[canonicalName(name)] = append(newCanon[canonicalName(name)], name)
	}
	names := make([]string, 0, len(oldBy))
	for name := range oldBy {
		names = append(names, name)
	}
	sort.Strings(names)
	matched := make(map[string]bool, len(newBy))
	regressions := 0
	for _, name := range names {
		o := oldBy[name]
		n, ok := newBy[name]
		if ok {
			matched[name] = true
		} else if alts := newCanon[canonicalName(name)]; len(alts) == 1 && !matched[alts[0]] {
			n, ok = newBy[alts[0]], true
			matched[alts[0]] = true
		}
		if !ok {
			fmt.Fprintf(out, "%-60s only in old run\n", name)
			continue
		}
		bad := ""
		if timeThresh > 0 && o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*timeThresh {
			bad += " TIME-REGRESSION"
		}
		if o.AllocsPerOp > 0 && n.AllocsPerOp > o.AllocsPerOp*allocThresh {
			bad += " ALLOC-REGRESSION"
		}
		// A benchmark that was allocation-free must stay allocation-free:
		// ratios cannot express a 0 -> N change.
		if o.AllocsPerOp == 0 && n.AllocsPerOp > 0 { //ordlint:allow floatcmp — exact zero is the recorded "allocation-free" state
			bad += " ALLOC-REGRESSION(was 0)"
		}
		if bad != "" {
			regressions++
		}
		fmt.Fprintf(out, "%-60s %12.1f -> %12.1f ns/op  %10.1f -> %10.1f allocs/op%s\n",
			name, o.NsPerOp, n.NsPerOp, o.AllocsPerOp, n.AllocsPerOp, bad)
	}
	for name := range newBy {
		if !matched[name] {
			fmt.Fprintf(out, "%-60s only in new run\n", name)
		}
	}
	return regressions
}

// canonicalName strips one trailing "-<int>" segment — the form of the
// GOMAXPROCS suffix `go test` appends when GOMAXPROCS != 1 — if present.
func canonicalName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func byName(s *Snapshot) map[string]Result {
	m := make(map[string]Result, len(s.Benchmarks))
	for _, r := range s.Benchmarks {
		m[r.Name] = r
	}
	return m
}

// loadFile reads a bench input, auto-detecting JSON snapshots versus raw
// `go test -bench` text output.
func loadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &snap, nil
	}
	return parseBench(strings.NewReader(trimmed))
}

// parseBench parses `go test -bench` text output. Repeated runs of the
// same benchmark (e.g. -count>1) keep the last measurement.
//
// The "-N" GOMAXPROCS suffix `go test` appends (when GOMAXPROCS != 1) is
// stripped only when every benchmark line in the file carries the same
// trailing "-<int>": the suffix is uniform within one run, so a mixed file
// means those trailing integers are genuine parts of benchmark names (a
// subbenchmark label like "shards-4" on a GOMAXPROCS=1 run) and stripping
// would corrupt them. Diff-time canonical matching (diff) covers snapshots
// taken with different parallelism. The stripped suffix is the run's
// GOMAXPROCS, recorded on its Machine (which exists only when the run
// printed its header lines): 1 when no name carries one, unknown when the
// suffixes are mixed.
func parseBench(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{}
	var m Machine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	uniform, suffix := true, ""
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			key, val, _ := strings.Cut(line, ":")
			val = strings.TrimSpace(val)
			switch key {
			case "goos":
				m.GOOS = val
			case "goarch":
				m.GOARCH = val
			case "cpu":
				m.CPU = val
			case "pkg":
				m.Pkg = val
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		ext := ""
		if c := canonicalName(name); c != name {
			ext = name[len(c):]
		}
		if first {
			suffix, first = ext, false
		} else if ext != suffix {
			uniform = false
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: name, Iterations: iters}
		// Remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if res.NsPerOp == 0 { //ordlint:allow floatcmp — unparsed sentinel, never computed
			continue
		}
		snap.Benchmarks = append(snap.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if uniform && suffix != "" {
		for i := range snap.Benchmarks {
			snap.Benchmarks[i].Name = strings.TrimSuffix(snap.Benchmarks[i].Name, suffix)
		}
	}
	if m != (Machine{}) {
		if uniform {
			m.GOMAXPROCS = 1
			if suffix != "" {
				// canonicalName split the suffix off because it parses.
				m.GOMAXPROCS, _ = strconv.Atoi(suffix[1:])
			}
		}
		snap.Machine = &m
	}
	// Repeated names (-count>1) keep the last measurement.
	seen := make(map[string]int, len(snap.Benchmarks))
	dedup := snap.Benchmarks[:0]
	for _, res := range snap.Benchmarks {
		if i, dup := seen[res.Name]; dup {
			dedup[i] = res
			continue
		}
		seen[res.Name] = len(dedup)
		dedup = append(dedup, res)
	}
	snap.Benchmarks = dedup
	return snap, nil
}
