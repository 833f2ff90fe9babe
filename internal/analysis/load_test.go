package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadDirNonexistent pins the loader's behavior on a directory that does
// not exist: the go/build probe's error must propagate, not be swallowed
// into an empty package.
func TestLoadDirNonexistent(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	l := NewLoader(modPath, root)
	_, err = l.LoadDir(filepath.Join("testdata", "src", "no-such-fixture"), "nope")
	if err == nil {
		t.Fatal("LoadDir on a nonexistent directory returned no error")
	}
	if !strings.Contains(err.Error(), "cannot find package") ||
		!strings.Contains(err.Error(), filepath.Join("testdata", "src", "no-such-fixture")) {
		t.Errorf("error %q should say 'cannot find package' and name the missing directory", err)
	}
}

// TestFindModuleFromSubdirectory pins that the go.mod walk works from deep
// inside the tree — the property `ordlint ./...` from a subdirectory relies
// on.
func TestFindModuleFromSubdirectory(t *testing.T) {
	rootHere, modHere, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule(.): %v", err)
	}
	sub := filepath.Join("testdata", "src", "ctxflow")
	rootSub, modSub, err := FindModule(sub)
	if err != nil {
		t.Fatalf("FindModule(%s): %v", sub, err)
	}
	if rootSub != rootHere || modSub != modHere {
		t.Errorf("FindModule from subdirectory = (%s, %s), want (%s, %s)",
			rootSub, modSub, rootHere, modHere)
	}
}

// TestFindModuleNoGoMod pins the exact failure message when no go.mod
// exists anywhere above the starting directory.
func TestFindModuleNoGoMod(t *testing.T) {
	dir := t.TempDir()
	_, _, err := FindModule(dir)
	if err == nil {
		t.Fatal("FindModule outside any module returned no error")
	}
	if !strings.Contains(err.Error(), "no go.mod found above") {
		t.Errorf("error %q should say 'no go.mod found above'", err)
	}
}

// TestLoadDirBuildTagExcluded pins that files fenced behind unsatisfied
// build constraints never reach the parser: the fixture's excluded.go
// references an undefined symbol and would fail the type check if loaded.
func TestLoadDirBuildTagExcluded(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	l := NewLoader(modPath, root)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "buildtag"), "buildtag")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("unexpected type error (excluded file loaded?): %v", terr)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (excluded.go must be skipped)", len(pkg.Files))
	}
	name := filepath.Base(l.Fset.Position(pkg.Files[0].Pos()).Filename)
	if name != "buildtag.go" {
		t.Errorf("loaded file %s, want buildtag.go", name)
	}
	if pkg.Types == nil || pkg.Types.Scope().Lookup("Included") == nil {
		t.Error("package scope is missing Included")
	}
	if pkg.Types != nil && pkg.Types.Scope().Lookup("Excluded") != nil {
		t.Error("package scope contains Excluded from the tag-fenced file")
	}
}
