// Command ordlint runs the project's static-analysis suite
// (internal/analysis) over the module and reports file:line diagnostics,
// exiting non-zero on findings. It needs no tooling beyond the standard
// library: packages are loaded by walking the module, parsing with build-tag
// awareness, and type-checking with an importer that chains module-internal
// packages with the standard library from source.
//
// Usage:
//
//	go run ./cmd/ordlint ./...            # whole module (the CI invocation)
//	go run ./cmd/ordlint ./internal/qp    # one package
//	go run ./cmd/ordlint -check noalloc,lockmode ./...
//	go run ./cmd/ordlint -json ./...      # NDJSON findings, one object per line
//	go run ./cmd/ordlint -stats ./...     # NDJSON call-graph/summary statistics
//
// Findings are suppressed with `//ordlint:allow <check> — reason` comments;
// see the package documentation of internal/analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ordu/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ordlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("check", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	asJSON := fs.Bool("json", false, "emit findings as NDJSON (one object per line) instead of file:line text")
	stats := fs.Bool("stats", false, "emit interprocedural statistics as NDJSON (call-graph size, summary counts, entry-unreachable functions) instead of findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root, modulePath, err := analysis.FindModule(".")
	if err != nil {
		fmt.Fprintln(stderr, "ordlint:", err)
		return 2
	}
	cfg := analysis.DefaultConfig(modulePath)
	suite := analysis.NewSuite(cfg)
	if *list {
		for _, a := range suite.Analyzers {
			fmt.Fprintf(stdout, "%-13s %-12s %s\n", a.Name, a.Layer, a.Doc)
		}
		return 0
	}
	if *checks != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*checks, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range suite.Analyzers {
			if keep[a.Name] {
				kept = append(kept, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(stderr, "ordlint: unknown check %q (try -list)\n", name)
			return 2
		}
		suite.Analyzers = kept
	}

	pkgs, err := loadModule(modulePath, root)
	if err != nil {
		fmt.Fprintln(stderr, "ordlint:", err)
		return 2
	}
	pkgs = selectPackages(pkgs, root, fs.Args())
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "ordlint: no packages match %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	if *stats {
		if err := emitStats(stdout, cfg, pkgs); err != nil {
			fmt.Fprintln(stderr, "ordlint:", err)
			return 2
		}
		return 0
	}

	diags := suite.Run(pkgs)
	enc := json.NewEncoder(stdout)
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		if *asJSON {
			if err := enc.Encode(jsonFinding{
				File:    filepath.ToSlash(pos.Filename),
				Line:    pos.Line,
				Col:     pos.Column,
				Check:   d.Check,
				Message: d.Message,
			}); err != nil {
				fmt.Fprintln(stderr, "ordlint:", err)
				return 2
			}
			continue
		}
		fmt.Fprintf(stdout, "%s: [%s] %s\n", pos, d.Check, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "ordlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// loadModule type-checks every package of the module, and the standard
// library closure it imports, from source. It is a variable so that tests
// can share one load across their run() calls.
var loadModule = func(modulePath, root string) ([]*analysis.Package, error) {
	return analysis.NewLoader(modulePath, root).LoadModule()
}

// jsonFinding is the -json output record: newline-delimited JSON, one object
// per finding, consumed by the CI artifact upload and by editor integrations.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// emitStats writes the interprocedural layer's statistics as NDJSON: one
// "graph" record, one "summaries" record with aggregate counts, and one
// "unreachable" record per function no configured entry point reaches —
// the input for dead-weight review and for tracking the server cone's
// growth over time in CI artifacts.
func emitStats(w io.Writer, cfg analysis.Config, pkgs []*analysis.Package) error {
	g := analysis.BuildCallGraph(pkgs)
	sums := analysis.ComputeSummaries(g, pkgs)
	enc := json.NewEncoder(w)

	extern := 0
	for _, n := range g.Nodes {
		extern += len(n.Extern)
	}
	if err := enc.Encode(map[string]interface{}{
		"kind":         "graph",
		"nodes":        len(g.Nodes),
		"edges":        g.NumEdges(),
		"extern_calls": extern,
	}); err != nil {
		return err
	}

	counts := map[string]int{}
	for _, s := range sums {
		if s.Allocates {
			counts["allocates"]++
		}
		if s.MayBlock {
			counts["may_block"]++
		}
		if s.PollsCtx {
			counts["polls_ctx"]++
		}
		if s.MayPanic {
			counts["may_panic"]++
		}
	}
	if err := enc.Encode(map[string]interface{}{
		"kind":      "summaries",
		"functions": len(sums),
		"allocates": counts["allocates"],
		"may_block": counts["may_block"],
		"polls_ctx": counts["polls_ctx"],
		"may_panic": counts["may_panic"],
	}); err != nil {
		return err
	}

	reach := g.ReachableFrom(func(n *analysis.FuncNode) bool {
		return cfg.CtxFlowEntryPackages[n.Pkg.Path] || cfg.CtxFlowEntryFuncs[n.Name]
	})
	var unreachable []string
	for _, n := range g.Nodes {
		if _, ok := reach[n]; !ok {
			unreachable = append(unreachable, n.Name)
		}
	}
	sort.Strings(unreachable)
	for _, name := range unreachable {
		if err := enc.Encode(map[string]interface{}{
			"kind": "unreachable",
			"func": name,
		}); err != nil {
			return err
		}
	}
	return nil
}

// selectPackages filters the loaded module packages by the command-line
// patterns: "./..." (or no argument) keeps everything, "./dir/..." keeps the
// subtree, and "./dir" keeps the single package. Patterns are relative to
// the module root, matching how the tool is invoked from it.
func selectPackages(pkgs []*analysis.Package, root string, patterns []string) []*analysis.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	var out []*analysis.Package
	for _, pkg := range pkgs {
		rel, err := filepath.Rel(root, pkg.Dir)
		if err != nil {
			continue
		}
		rel = filepath.ToSlash(rel)
		for _, pat := range patterns {
			pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
			pat = strings.TrimSuffix(pat, "/") // "./internal/qp/" means "./internal/qp"
			if matchPattern(rel, pat) {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
}

func matchPattern(rel, pat string) bool {
	if pat == "..." || pat == "" || pat == "." {
		return true
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == sub || strings.HasPrefix(rel, sub+"/")
	}
	return rel == pat
}
