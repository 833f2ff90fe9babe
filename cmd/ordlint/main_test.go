package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ordu/internal/analysis"
)

// Every run() in this test binary shares one module load: loading
// dominates each run, and the loaded packages are only read.
func init() {
	load := loadModule
	var (
		once sync.Once
		pkgs []*analysis.Package
		err  error
	)
	loadModule = func(modulePath, root string) ([]*analysis.Package, error) {
		once.Do(func() { pkgs, err = load(modulePath, root) })
		return pkgs, err
	}
}

// suiteRows returns the default suite's (name, layer) pairs in order — the
// source of truth the -list table and the README check table must match.
func suiteRows(t *testing.T) [][2]string {
	t.Helper()
	_, modPath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	var rows [][2]string
	for _, a := range analysis.NewSuite(analysis.DefaultConfig(modPath)).Analyzers {
		rows = append(rows, [2]string{a.Name, a.Layer})
	}
	return rows
}

// TestListChecks pins the -list table: one line per analyzer in suite
// order, each carrying the check name, its layer, and a one-line doc.
func TestListChecks(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errw.String())
	}
	rows := suiteRows(t)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != len(rows) {
		t.Fatalf("-list printed %d lines, suite has %d analyzers:\n%s", len(lines), len(rows), out.String())
	}
	lineRE := regexp.MustCompile(`^(\S+)\s+(\S+)\s+\S.*$`)
	for i, line := range lines {
		m := lineRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("-list line %d is not 'name layer doc': %q", i+1, line)
			continue
		}
		if m[1] != rows[i][0] || m[2] != rows[i][1] {
			t.Errorf("-list line %d = (%s, %s), suite row is (%s, %s)", i+1, m[1], m[2], rows[i][0], rows[i][1])
		}
	}
}

// TestReadmeCheckTable asserts the README's check table documents exactly
// the default suite, in suite order: adding, renaming or reordering an
// analyzer without updating the README fails here.
func TestReadmeCheckTable(t *testing.T) {
	root, _, err := analysis.FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	f, err := os.Open(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatalf("open README: %v", err)
	}
	defer f.Close()

	rowRE := regexp.MustCompile("^\\| `([a-z]+)` \\|")
	var names []string
	inTable := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "| Check |"):
			inTable = true
		case inTable && strings.HasPrefix(line, "| ---"):
			// separator row
		case inTable:
			m := rowRE.FindStringSubmatch(line)
			if m == nil {
				inTable = false
				continue
			}
			names = append(names, m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan README: %v", err)
	}

	var want []string
	for _, row := range suiteRows(t) {
		want = append(want, row[0])
	}
	if got, wantJoined := strings.Join(names, " "), strings.Join(want, " "); got != wantJoined {
		t.Errorf("README check table rows = %q,\nwant suite order %q", got, wantJoined)
	}
}

// TestUnknownCheck pins the exit code and message for a bogus check name.
// An unknown name mixed with valid ones must still fail: a typo silently
// dropping a check would leave CI green with the check off.
func TestUnknownCheck(t *testing.T) {
	for _, args := range [][]string{
		{"-check", "bogus"},
		{"-check", "floatcmp,bogus,lockmode"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Fatalf("run(%v) = %d, want 2", args, code)
		}
		if !strings.Contains(errw.String(), `unknown check "bogus"`) {
			t.Errorf("run(%v): stderr %q should name the unknown check", args, errw.String())
		}
	}
}

// TestCheckSubset runs a real subset over one package through the run()
// seam: the selected checks execute (clean exit), and nothing else does.
func TestCheckSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module plus its stdlib closure")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-check", "noalloc,lockmode", "./internal/collection"}, &out, &errw); code != 0 {
		t.Fatalf("run(-check subset) = %d, stdout: %s, stderr: %s", code, out.String(), errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("subset run over a clean package printed findings: %s", out.String())
	}
}

// TestNoMatchPattern pins that a pattern selecting nothing is an error, not
// a silent empty (and falsely clean) run.
func TestNoMatchPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module plus its stdlib closure")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errw); code != 2 {
		t.Fatalf("run(./no/such/dir) = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "no packages match ./no/such/dir") {
		t.Errorf("stderr %q should report the unmatched pattern", errw.String())
	}
}

// TestStatsNDJSON pins the -stats output shape: every line is a JSON object
// with a kind field; exactly one graph and one summaries record appear, with
// plausible sizes; functions outside the server cone show up as unreachable.
func TestStatsNDJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module plus its stdlib closure")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-stats", "./internal/linalg"}, &out, &errw); code != 0 {
		t.Fatalf("run(-stats) = %d, stderr: %s", code, errw.String())
	}
	var graphs, summaries, unreachable int
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		switch rec["kind"] {
		case "graph":
			graphs++
			if n, _ := rec["nodes"].(float64); n < 1 {
				t.Errorf("graph record reports %v nodes", rec["nodes"])
			}
		case "summaries":
			summaries++
			if n, _ := rec["functions"].(float64); n < 1 {
				t.Errorf("summaries record reports %v functions", rec["functions"])
			}
		case "unreachable":
			unreachable++
			if name, _ := rec["func"].(string); !strings.Contains(name, "linalg.") {
				t.Errorf("unreachable record names %q, expected a linalg function", name)
			}
		default:
			t.Errorf("unexpected record kind %v", rec["kind"])
		}
	}
	if graphs != 1 || summaries != 1 {
		t.Errorf("got %d graph, %d summaries records, want 1 each", graphs, summaries)
	}
	if unreachable == 0 {
		t.Error("no unreachable records: linalg is outside the server entry cone")
	}
}
