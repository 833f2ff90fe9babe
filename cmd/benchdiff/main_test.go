package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOld = `goos: linux
goarch: amd64
pkg: ordu
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDefaultsORD-8   	     189	   6092370 ns/op	 3838665 B/op	  109243 allocs/op
BenchmarkDefaultsORU-8   	       1	2280484720 ns/op	1411272720 B/op	24670649 allocs/op
BenchmarkSubstrateMindist-8  	 1304828	       915.2 ns/op	     591 B/op	      17 allocs/op
PASS
ok  	ordu	610.983s
`

const sampleNewOK = `BenchmarkDefaultsORD-8   	     250	   4000000 ns/op	 1000000 B/op	   50000 allocs/op
BenchmarkDefaultsORU-8   	       1	1500000000 ns/op	 400000000 B/op	 9000000 allocs/op
BenchmarkSubstrateMindist-8  	 9000000	       12.0 ns/op	       0 B/op	       0 allocs/op
`

const sampleNewBad = `BenchmarkDefaultsORD-8   	     100	  12000000 ns/op	 8000000 B/op	  300000 allocs/op
BenchmarkDefaultsORU-8   	       1	1500000000 ns/op	 400000000 B/op	 9000000 allocs/op
BenchmarkSubstrateMindist-8  	 9000000	       12.0 ns/op	       0 B/op	       0 allocs/op
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBench(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleOld))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(snap.Benchmarks))
	}
	by := byName(snap)
	ord := by["BenchmarkDefaultsORD"]
	if ord.NsPerOp != 6092370 || ord.AllocsPerOp != 109243 || ord.BytesPerOp != 3838665 {
		t.Fatalf("ORD parsed wrong: %+v", ord)
	}
	md := by["BenchmarkSubstrateMindist"]
	if md.NsPerOp != 915.2 || md.Iterations != 1304828 {
		t.Fatalf("Mindist parsed wrong: %+v", md)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	in := writeTemp(t, "old.txt", sampleOld)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dump", in}, &out, &errOut); code != 0 {
		t.Fatalf("dump exited %d: %s", code, errOut.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("dump output not JSON: %v", err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("round-trip lost benchmarks: %d", len(snap.Benchmarks))
	}
	// A JSON snapshot must itself be accepted as a diff input.
	jsonPath := writeTemp(t, "old.json", out.String())
	newPath := writeTemp(t, "new.txt", sampleNewOK)
	var out2, err2 bytes.Buffer
	if code := run([]string{jsonPath, newPath}, &out2, &err2); code != 0 {
		t.Fatalf("diff with JSON old exited %d: %s%s", code, out2.String(), err2.String())
	}
}

func TestDiffPassesOnImprovement(t *testing.T) {
	oldP := writeTemp(t, "old.txt", sampleOld)
	newP := writeTemp(t, "new.txt", sampleNewOK)
	var out, errOut bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errOut); code != 0 {
		t.Fatalf("improvement flagged as regression (exit %d):\n%s", code, out.String())
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	oldP := writeTemp(t, "old.txt", sampleOld)
	newP := writeTemp(t, "new.txt", sampleNewBad)
	var out, errOut bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errOut); code != 1 {
		t.Fatalf("regression not flagged (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "TIME-REGRESSION") || !strings.Contains(out.String(), "ALLOC-REGRESSION") {
		t.Fatalf("missing regression markers:\n%s", out.String())
	}
}

func TestZeroAllocStateIsProtected(t *testing.T) {
	oldP := writeTemp(t, "old.txt", "BenchmarkX-8 100 50.0 ns/op 0 B/op 0 allocs/op\n")
	newP := writeTemp(t, "new.txt", "BenchmarkX-8 100 50.0 ns/op 16 B/op 1 allocs/op\n")
	var out, errOut bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errOut); code != 1 {
		t.Fatalf("0 -> 1 allocs/op not flagged (exit %d):\n%s", code, out.String())
	}
}

func TestAllocsOnlyIgnoresTime(t *testing.T) {
	// 10x slower but allocation-identical: -allocs-only must pass where the
	// default mode fails.
	oldP := writeTemp(t, "old.txt", "BenchmarkX-8 100 50.0 ns/op 16 B/op 2 allocs/op\n")
	newP := writeTemp(t, "new.txt", "BenchmarkX-8 100 500.0 ns/op 16 B/op 2 allocs/op\n")
	var out, errOut bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errOut); code != 1 {
		t.Fatalf("time regression not flagged in default mode (exit %d):\n%s", code, out.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-allocs-only", oldP, newP}, &out, &errOut); code != 0 {
		t.Fatalf("-allocs-only flagged a pure time change (exit %d):\n%s", code, out.String())
	}
}

func TestAllocsOnlyStillCatchesAllocs(t *testing.T) {
	oldP := writeTemp(t, "old.txt", "BenchmarkX-8 100 50.0 ns/op 16 B/op 2 allocs/op\n")
	newP := writeTemp(t, "new.txt", "BenchmarkX-8 100 50.0 ns/op 64 B/op 8 allocs/op\n")
	var out, errOut bytes.Buffer
	if code := run([]string{"-allocs-only", oldP, newP}, &out, &errOut); code != 1 {
		t.Fatalf("-allocs-only missed an alloc regression (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ALLOC-REGRESSION") {
		t.Fatalf("missing ALLOC-REGRESSION marker:\n%s", out.String())
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-help"}, &out, &errOut); code != 0 {
		t.Fatalf("-help exited %d, want 0", code)
	}
}

func TestSuffixStrippedOnlyWhenUniform(t *testing.T) {
	// Uniform "-8" across the file: the GOMAXPROCS suffix, stripped.
	snap, err := parseBench(strings.NewReader(
		"BenchmarkA-8 100 50.0 ns/op\nBenchmarkB/shards-4-8 100 60.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	by := byName(snap)
	if _, ok := by["BenchmarkA"]; !ok {
		t.Fatalf("uniform suffix not stripped: %+v", snap.Benchmarks)
	}
	if _, ok := by["BenchmarkB/shards-4"]; !ok {
		t.Fatalf("inner name segment mangled: %+v", snap.Benchmarks)
	}
	// Mixed trailing integers on a GOMAXPROCS=1 run: genuine name parts,
	// nothing may be stripped.
	snap, err = parseBench(strings.NewReader(
		"BenchmarkA 100 50.0 ns/op\nBenchmarkB/shards-4 100 60.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	by = byName(snap)
	if _, ok := by["BenchmarkB/shards-4"]; !ok {
		t.Fatalf("genuine -4 name part stripped: %+v", snap.Benchmarks)
	}
}

func TestDiffMatchesAcrossGOMAXPROCSSuffix(t *testing.T) {
	// Old snapshot recorded without the suffix (GOMAXPROCS=1), new one with
	// it (and vice versa): the diff must compare them, not skip them. JSON
	// inputs bypass parse-time normalisation, so this exercises the
	// diff-time canonical fallback.
	oldJSON := `{"benchmarks":[{"name":"BenchmarkX","iterations":100,"ns_per_op":50,"allocs_per_op":2}]}`
	newJSON := `{"benchmarks":[{"name":"BenchmarkX-8","iterations":100,"ns_per_op":500,"allocs_per_op":2}]}`
	oldP := writeTemp(t, "old.json", oldJSON)
	newP := writeTemp(t, "new.json", newJSON)
	var out, errOut bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errOut); code != 1 {
		t.Fatalf("suffixed rename not compared (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "TIME-REGRESSION") {
		t.Fatalf("regression lost across suffix rename:\n%s", out.String())
	}
	if strings.Contains(out.String(), "only in") {
		t.Fatalf("suffix rename reported as missing:\n%s", out.String())
	}
	// The reverse direction: old suffixed, new bare.
	oldP = writeTemp(t, "old2.json", newJSON)
	newP = writeTemp(t, "new2.json", oldJSON)
	out.Reset()
	errOut.Reset()
	if code := run([]string{oldP, newP}, &out, &errOut); code != 0 {
		t.Fatalf("improvement across suffix loss flagged (exit %d):\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "only in") {
		t.Fatalf("suffix loss reported as missing:\n%s", out.String())
	}
}

func TestMissingBenchmarksNeverFail(t *testing.T) {
	oldP := writeTemp(t, "old.txt", "BenchmarkGone-8 100 50.0 ns/op\n")
	newP := writeTemp(t, "new.txt", "BenchmarkNew-8 100 50.0 ns/op\n")
	var out, errOut bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errOut); code != 0 {
		t.Fatalf("disjoint suites flagged as regression (exit %d):\n%s", code, out.String())
	}
}

func TestMachineMetadata(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleOld))
	if err != nil {
		t.Fatal(err)
	}
	want := Machine{GOOS: "linux", GOARCH: "amd64", Pkg: "ordu", CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz"}
	if snap.Machine == nil || *snap.Machine != want {
		t.Fatalf("machine = %v, want %v", snap.Machine, &want)
	}
	// -dump keeps it, and the JSON snapshot reads it back.
	var dumped, errOut bytes.Buffer
	if code := run([]string{"-dump", writeTemp(t, "old.txt", sampleOld)}, &dumped, &errOut); code != 0 {
		t.Fatalf("dump exited %d: %s", code, errOut.String())
	}
	oldP := writeTemp(t, "old.json", dumped.String())
	if back, err := loadFile(oldP); err != nil || back.Machine == nil || *back.Machine != want {
		t.Fatalf("round trip: machine %v, err %v", back, err)
	}

	other := strings.Replace(sampleOld, "cpu: Intel(R) Xeon(R) Processor @ 2.10GHz", "cpu: AMD EPYC 7B13", 1)
	for _, c := range []struct {
		name, newRun, note string
	}{
		{"same host", sampleOld, ""},
		{"other cpu", other, "different machines"},
		{"unrecorded", sampleNewOK, ""},
	} {
		var out bytes.Buffer
		errOut.Reset()
		if code := run([]string{oldP, writeTemp(t, "new.txt", c.newRun)}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d (a machine mismatch must not fail):\n%s", c.name, code, out.String())
		}
		if !strings.Contains(out.String(), "old machine: "+want.String()) {
			t.Errorf("%s: old machine line missing:\n%s", c.name, out.String())
		}
		if got := strings.Contains(out.String(), "different machines"); got != (c.note != "") {
			t.Errorf("%s: mismatch note printed = %v:\n%s", c.name, got, out.String())
		}
	}
}

// TestCommittedSnapshotsLoad: snapshots committed before the machine field
// existed still load, and a diff reports their machine as unknown.
func TestCommittedSnapshotsLoad(t *testing.T) {
	for _, tag := range []string{"pr3", "pr6", "pr8"} {
		p := filepath.Join("..", "..", "BENCH_"+tag+".json")
		snap, err := loadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Benchmarks) == 0 || snap.Machine != nil {
			t.Fatalf("%s: %d benchmarks, machine %v", p, len(snap.Benchmarks), snap.Machine)
		}
		var out, errOut bytes.Buffer
		if code := run([]string{"-allocs-only", p, p}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "new machine: unknown") {
			t.Fatalf("%s: self-diff exit %d:\n%s%s", p, code, out.String(), errOut.String())
		}
	}
}
