// Package analysis is a stdlib-only static-analysis driver for this module:
// it loads every package with go/parser + go/types (no x/tools dependency)
// and runs a suite of project-specific analyzers enforcing invariants the
// compiler cannot see — numeric-comparison discipline near region
// boundaries, the cooperative-cancellation contract of request-reachable
// loops, sentinel-error hygiene, workspace lifetimes, allocation-free
// kernels, lock discipline, guarded narrowing into the flat core's int32
// handles, and library-package output/termination rules.
//
// A finding can be suppressed with an escape comment on (or immediately
// above) the offending line:
//
//	//ordlint:allow <check>[,<check>] — <justification>
//
// The justification is free text; the em-dash (or "--") separator is
// conventional. Suppressions without a matching finding are harmless.
//
// A check is an Analyzer whose Run inspects pass.Files with
// pass.TypesInfo and calls pass.Report. NewSuite lists the suite in order;
// each check has a fixture package with `// want "regexp"` expectations
// under testdata/src/<name> for the golden self-test, and a row in the
// README's check table.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Pass carries everything one analyzer needs to inspect one package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	PkgPath   string

	// Facts carries module-wide context (workspace-contract types) computed
	// once per Suite.Run over the whole analyzed package set.
	Facts *Facts

	// Report records a finding at pos. Findings suppressed by an
	// //ordlint:allow comment are dropped by the suite after the run.
	Report func(pos token.Pos, format string, args ...interface{})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Layer places the check in the suite's architecture: "syntactic"
	// (single-file AST walks), "cfg" (intraprocedural dataflow) or
	// "interproc" (call-graph + summaries). cmd/ordlint -list prints it and
	// the README table test keeps the docs in sync with it.
	Layer string
	Run   func(*Pass)
}

// Suite is an ordered set of analyzers, each scoped to its packages by
// the Config that NewSuite built it from.
type Suite struct {
	Analyzers []*Analyzer
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Packages whose type check failed still run
// (the maps are best-effort populated), but their errors are reported as
// `typecheck` diagnostics so a loader gap cannot silently pass.
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	facts := computeFacts(pkgs)
	facts.Graph = BuildCallGraph(pkgs)
	facts.Summaries = ComputeSummaries(facts.Graph, pkgs)
	facts.Writers = ComputeWriters(facts.Graph)
	for _, pkg := range pkgs {
		allow := collectAllows(pkg)
		fset := pkg.Fset
		for _, err := range pkg.TypeErrors {
			diags = append(diags, Diagnostic{
				Pos:     positionOfErr(err),
				Check:   "typecheck",
				Message: err.Error(),
			})
		}
		for _, a := range s.Analyzers {
			a := a
			pass := &Pass{
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				PkgPath:   pkg.Path,
				Facts:     facts,
			}
			pass.Report = func(pos token.Pos, format string, args ...interface{}) {
				p := fset.Position(pos)
				if allow.allows(p.Filename, p.Line, a.Name) {
					return
				}
				diags = append(diags, Diagnostic{
					Pos:     p,
					Check:   a.Name,
					Message: fmt.Sprintf(format, args...),
				})
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// positionOfErr extracts the position from a types.Error, if any.
func positionOfErr(err error) token.Position {
	if te, ok := err.(types.Error); ok {
		return te.Fset.Position(te.Pos)
	}
	return token.Position{}
}

// allowSet maps file -> line -> set of check names allowed there.
type allowSet map[string]map[int]map[string]bool

// allows reports whether check findings on (file, line) are suppressed: an
// //ordlint:allow comment covers its own line and the line below it, so it
// can trail the offending code or sit on its own line above it.
func (a allowSet) allows(file string, line int, check string) bool {
	lines, ok := a[file]
	if !ok {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		if cs, ok := lines[l]; ok && (cs[check] || cs["*"]) {
			return true
		}
	}
	return false
}

// collectAllows parses every //ordlint:allow comment in the package.
func collectAllows(pkg *Package) allowSet {
	set := make(allowSet)
	fset := pkg.Fset
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "ordlint:allow")
				if !ok {
					continue
				}
				// Strip the justification after an em-dash or "--".
				for _, sep := range []string{"—", "--"} {
					if i := strings.Index(rest, sep); i >= 0 {
						rest = rest[:i]
					}
				}
				pos := fset.Position(c.Pos())
				lines := set[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					set[pos.Filename] = lines
				}
				checks := lines[pos.Line]
				if checks == nil {
					checks = make(map[string]bool)
					lines[pos.Line] = checks
				}
				for _, name := range strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					checks[name] = true
				}
			}
		}
	}
	return set
}
