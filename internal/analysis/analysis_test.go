package analysis

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtures lists the golden fixture packages under testdata/src, in suite
// order, with the analyzer each exercises. Each has at least one positive,
// one negative, and one allow-comment case. noalloc and lockmode own two
// fixtures each: deepnoalloc holds noalloc's call-chain cases and lockhold
// lockmode's held-across-blocking cases.
var fixtures = []struct{ name, check string }{
	{"floatcmp", "floatcmp"},
	{"senterr", "senterr"},
	{"nopanic", "nopanic"},
	{"printguard", "printguard"},
	{"wsescape", "wsescape"},
	{"poolpair", "poolpair"},
	{"narrowcast", "narrowcast"},
	{"ctxflow", "ctxflow"},
	{"noalloc", "noalloc"},
	{"deepnoalloc", "noalloc"},
	{"maporder", "maporder"},
	{"lockmode", "lockmode"},
	{"lockhold", "lockmode"},
}

// fixtureConfig scopes the suite to the fixture package so path-based checks
// fire there instead of on module paths.
func fixtureConfig(name string) Config {
	only := func(p string) bool { return p == name }
	switch name {
	case "floatcmp":
		return Config{FloatcmpApproved: map[string]bool{"floatcmp.approxEq": true}}
	case "senterr":
		return Config{SenterrCallee: only}
	case "nopanic":
		return Config{NopanicPackage: only}
	case "printguard":
		return Config{PrintguardPackage: only}
	case "wsescape":
		return Config{WorkspacePackage: only}
	case "poolpair":
		return Config{PoolPairs: []PoolPair{{Get: "poolpair.pool.get", Put: "poolpair.pool.put"}}}
	case "noalloc":
		return Config{} // annotation-driven; the convention fallback covers the fixture's Workspace
	case "ctxflow":
		return Config{
			ScanCalls: map[string]bool{"Next": true},
			CtxFlowEntryFuncs: map[string]bool{
				"ctxflow.Handler":             true,
				"ctxflow.HandlerForwards":     true,
				"ctxflow.HandlerPolls":        true,
				"ctxflow.HandlerDelegates":    true,
				"ctxflow.HandlerScanForwards": true,
				"ctxflow.HandlerScans":        true,
				"ctxflow.HandlerAllowed":      true,
			},
		}
	case "deepnoalloc":
		return Config{
			NoallocExternals: map[string]bool{"math": true},
			NoallocAmortized: map[string]bool{"deepnoalloc.cacheFill": true},
		}
	case "lockhold":
		return Config{LockModePackages: map[string]bool{"lockhold": true}}
	case "maporder":
		return Config{MapOrderPackages: map[string]bool{"maporder": true}}
	case "lockmode":
		return Config{
			LockModePackages: map[string]bool{"lockmode": true},
			GuardedTypes:     map[string]bool{"lockmode.dataset": true},
			FreshFuncs:       map[string]bool{"lockmode.newDataset": true},
			LockModePure:     map[string]bool{"lockmode.dataset.Dim": true},
		}
	case "narrowcast":
		return Config{
			HandlePackages:    map[string]bool{"narrowcast": true},
			HandleBoundFields: map[string]bool{"narrowcast.packer.cap": true},
		}
	}
	return Config{}
}

// want is one expectation parsed from a `// want "regexp" ...` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants extracts every want expectation from the fixture's comments.
func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// sharedLoader is the one Loader every test in this binary loads through.
// The loader memoizes packages by directory, so the standard-library
// closure is type-checked once no matter how many fixtures import it, and
// a fixture loaded twice is the same *Package both times.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, modPath, err := FindModule(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(modPath, root), nil
})

// sharedModule caches the whole-module load behind sharedLoader.
var sharedModule = sync.OnceValues(func() ([]*Package, error) {
	l, err := sharedLoader()
	if err != nil {
		return nil, err
	}
	return l.LoadModule()
})

// testLoader returns sharedLoader or fails the test.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	return l
}

// loadModule returns every package of the module and the module path,
// loaded once per test binary. The packages are shared between tests and
// must not be modified.
func loadModule(t *testing.T) ([]*Package, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads the full module plus its stdlib closure")
	}
	pkgs, err := sharedModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return pkgs, testLoader(t).ModulePath
}

// loadFixture type-checks testdata/src/<name> under the import path <name>.
// The package is shared with every other test that loads the same fixture.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := testLoader(t).LoadDir(filepath.Join("testdata", "src", name), name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", name, terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	return pkg
}

// TestGolden runs the suite over each fixture and matches the diagnostics
// against the `// want` expectations, both ways: every expectation must be
// fulfilled by a diagnostic of the fixture's analyzer on its line, and
// every diagnostic must be expected.
func TestGolden(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			pkg := loadFixture(t, fx.name)
			wants := parseWants(t, pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want expectations", fx.name)
			}
			diags := NewSuite(fixtureConfig(fx.name)).Run([]*Package{pkg})
			for _, d := range diags {
				if d.Check != fx.check {
					t.Errorf("diagnostic from %s, not the fixture's %s: %s", d.Check, fx.check, d)
					continue
				}
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestGoldenAllowStripped re-runs each fixture with its //ordlint:allow
// comments neutralized and checks that extra findings appear: the allow
// machinery must be the only thing keeping those lines quiet. The fixture
// package is shared, so the comments are restored afterwards.
func TestGoldenAllowStripped(t *testing.T) {
	for _, fx := range fixtures {
		name := fx.name
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, name)
			base := len(NewSuite(fixtureConfig(name)).Run([]*Package{pkg}))
			stripped := 0
			for _, f := range pkg.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if strings.Contains(c.Text, "ordlint:allow") {
							text := c.Text
							t.Cleanup(func() { c.Text = text })
							c.Text = "// neutralized"
							stripped++
						}
					}
				}
			}
			if stripped == 0 {
				t.Fatalf("fixture %s has no allow comments; each fixture must cover the escape hatch", name)
			}
			got := len(NewSuite(fixtureConfig(name)).Run([]*Package{pkg}))
			if got <= base {
				t.Errorf("neutralizing %d allow comment(s) did not add findings: %d -> %d", stripped, base, got)
			}
		})
	}
}

// TestSuiteNames pins the analyzer names the allow comments and cmd/ordlint
// -check flag refer to, and that every analyzer has a fixture.
func TestSuiteNames(t *testing.T) {
	s := NewSuite(Config{})
	var names []string
	for _, a := range s.Analyzers {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc string", a.Name)
		}
		names = append(names, a.Name)
	}
	var checks []string
	for _, fx := range fixtures {
		if len(checks) == 0 || checks[len(checks)-1] != fx.check {
			checks = append(checks, fx.check)
		}
	}
	got := strings.Join(names, " ")
	wantNames := strings.Join(checks, " ")
	if got != wantNames {
		t.Errorf("suite analyzers = %q, want %q", got, wantNames)
	}
}

// TestModuleClean loads the whole module and asserts the default
// configuration reports nothing — the tree must stay lint-clean, with
// deliberate exceptions annotated in place.
func TestModuleClean(t *testing.T) {
	pkgs, modPath := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages; the walk is missing the tree", len(pkgs))
	}
	for _, d := range NewSuite(DefaultConfig(modPath)).Run(pkgs) {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestAllowSet exercises the suppression matcher directly: same line,
// line above, wildcard, wrong check.
func TestAllowSet(t *testing.T) {
	set := allowSet{
		"f.go": {
			10: {"floatcmp": true},
			20: {"*": true},
		},
	}
	cases := []struct {
		file  string
		line  int
		check string
		want  bool
	}{
		{"f.go", 10, "floatcmp", true},
		{"f.go", 11, "floatcmp", true}, // comment above the finding
		{"f.go", 12, "floatcmp", false},
		{"f.go", 10, "nopanic", false},
		{"f.go", 20, "anything", true}, // wildcard
		{"g.go", 10, "floatcmp", false},
	}
	for _, c := range cases {
		if got := set.allows(c.file, c.line, c.check); got != c.want {
			t.Errorf("allows(%s, %d, %s) = %v, want %v", c.file, c.line, c.check, got, c.want)
		}
	}
}

// TestQualifiedName pins the owner-naming scheme FloatcmpApproved keys use.
func TestQualifiedName(t *testing.T) {
	pkg := loadFixture(t, "ctxflow")
	var got []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				got = append(got, qualifiedName(pkg.Path, fn))
			}
		}
	}
	joined := " " + strings.Join(got, " ") + " "
	for _, w := range []string{" ctxflow.scanner.Next ", " ctxflow.polls "} {
		if !strings.Contains(joined, w) {
			t.Errorf("qualified names %v missing %q", got, strings.TrimSpace(w))
		}
	}
}
