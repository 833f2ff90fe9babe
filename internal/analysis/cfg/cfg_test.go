package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// build parses a function body and returns its graph.
func build(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := f.Decls[0].(*ast.FuncDecl)
	return New(fn.Body)
}

// succKinds returns the successor kinds of the first block with the given
// kind.
func succKinds(t *testing.T, g *Graph, kind string) []string {
	t.Helper()
	bs := g.BlocksOf(kind)
	if len(bs) == 0 {
		t.Fatalf("no block of kind %q in\n%s", kind, g)
	}
	var out []string
	for _, s := range bs[0].Succs {
		out = append(out, s.Kind)
	}
	return out
}

func hasKind(kinds []string, k string) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// reaches reports whether to is reachable from from.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestIfElse(t *testing.T) {
	g := build(t, `
		x := 1
		if x > 0 {
			x = 2
		} else {
			x = 3
		}
		_ = x
	`)
	ks := succKinds(t, g, "entry")
	if !hasKind(ks, "if.then") || !hasKind(ks, "if.else") {
		t.Fatalf("entry succs = %v, want then+else branches\n%s", ks, g)
	}
	for _, k := range []string{"if.then", "if.else"} {
		if !hasKind(succKinds(t, g, k), "if.join") {
			t.Errorf("%s does not rejoin\n%s", k, g)
		}
	}
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("exit unreachable:\n%s", g)
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := build(t, `
		x := 1
		if x > 0 {
			x = 2
		}
		_ = x
	`)
	ks := succKinds(t, g, "entry")
	if !hasKind(ks, "if.then") || !hasKind(ks, "if.join") {
		t.Fatalf("entry succs = %v, want then + fallthrough join edge\n%s", ks, g)
	}
}

func TestForLoop(t *testing.T) {
	g := build(t, `
		s := 0
		for i := 0; i < 10; i++ {
			s += i
		}
		_ = s
	`)
	head := succKinds(t, g, "for.head")
	if !hasKind(head, "for.body") || !hasKind(head, "for.done") {
		t.Fatalf("for.head succs = %v, want body+done\n%s", head, g)
	}
	if !hasKind(succKinds(t, g, "for.body"), "for.post") {
		t.Errorf("for.body does not reach post\n%s", g)
	}
	if !hasKind(succKinds(t, g, "for.post"), "for.head") {
		t.Errorf("for.post does not loop back to head\n%s", g)
	}
}

func TestInfiniteForWithBreak(t *testing.T) {
	g := build(t, `
		for {
			break
		}
	`)
	head := g.BlocksOf("for.head")[0]
	if hasKind(succKinds(t, g, "for.head"), "for.done") {
		t.Errorf("condition-free for must not edge head->done\n%s", g)
	}
	done := g.BlocksOf("for.done")[0]
	if !reaches(head, done) {
		t.Errorf("break does not reach for.done\n%s", g)
	}
	if !reaches(g.Entry, g.Exit) {
		t.Errorf("exit unreachable despite break:\n%s", g)
	}
}

func TestRange(t *testing.T) {
	g := build(t, `
		s := []int{1, 2}
		n := 0
		for _, v := range s {
			n += v
		}
		_ = n
	`)
	head := succKinds(t, g, "range.head")
	if !hasKind(head, "range.body") || !hasKind(head, "range.done") {
		t.Fatalf("range.head succs = %v, want body+done\n%s", head, g)
	}
	if !hasKind(succKinds(t, g, "range.body"), "range.head") {
		t.Errorf("range.body does not loop back\n%s", g)
	}
	// The range clause must sit in the header so per-iteration key/value
	// assignment is visible to dataflow, without the body, whose
	// statements belong to range.body alone.
	var found bool
	for _, n := range g.BlocksOf("range.head")[0].Nodes {
		if rs, ok := n.(*ast.RangeStmt); ok {
			found = true
			if len(rs.Body.List) != 0 {
				t.Errorf("range.head carries the loop body\n%s", g)
			}
		}
	}
	if !found {
		t.Errorf("range.head does not carry the RangeStmt\n%s", g)
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	g := build(t, `
		x := 1
		switch x {
		case 1:
			x = 10
			fallthrough
		case 2:
			x = 20
		default:
			x = 30
		}
		_ = x
	`)
	cases := g.BlocksOf("switch.case")
	if len(cases) != 2 {
		t.Fatalf("want 2 case blocks, got %d\n%s", len(cases), g)
	}
	// fallthrough: case 1 edges into case 2.
	var c1toc2 bool
	for _, s := range cases[0].Succs {
		if s == cases[1] {
			c1toc2 = true
		}
	}
	if !c1toc2 {
		t.Errorf("fallthrough edge missing\n%s", g)
	}
	if len(g.BlocksOf("switch.default")) != 1 {
		t.Errorf("default block missing\n%s", g)
	}
	// With a default clause the header must not edge straight to join.
	entrySuccs := g.Entry.Succs
	for _, s := range entrySuccs {
		if s.Kind == "switch.join" {
			t.Errorf("header bypasses exhaustive switch\n%s", g)
		}
	}
}

func TestSwitchNoDefault(t *testing.T) {
	g := build(t, `
		x := 1
		switch x {
		case 1:
			x = 10
		}
		_ = x
	`)
	var headToJoin bool
	for _, s := range g.Entry.Succs {
		if s.Kind == "switch.join" {
			headToJoin = true
		}
	}
	if !headToJoin {
		t.Errorf("non-exhaustive switch must edge header->join\n%s", g)
	}
}

func TestSelect(t *testing.T) {
	g := build(t, `
		ch := make(chan int)
		select {
		case v := <-ch:
			_ = v
		default:
		}
	`)
	comms := g.BlocksOf("select.comm")
	if len(comms) != 2 {
		t.Fatalf("want 2 comm blocks, got %d\n%s", len(comms), g)
	}
	for _, c := range comms {
		if !hasKind([]string{c.Succs[0].Kind}, "select.join") {
			t.Errorf("comm block does not join\n%s", g)
		}
	}
	// The select heads its comm blocks as a shell holding only its
	// default clause, with no statements of its own.
	var shell *ast.SelectStmt
	for _, n := range g.Entry.Nodes {
		if ss, ok := n.(*ast.SelectStmt); ok {
			shell = ss
		}
	}
	if shell == nil {
		t.Fatalf("the select is not recorded before its comm blocks\n%s", g)
	}
	if l := shell.Body.List; len(l) != 1 || l[0].(*ast.CommClause).Comm != nil || l[0].(*ast.CommClause).Body != nil {
		t.Errorf("select shell clauses = %#v, want one empty default", l)
	}
	// An empty select is recorded too: it blocks forever.
	g = build(t, `select {}`)
	if len(g.Entry.Nodes) != 1 {
		t.Fatalf("empty select: entry nodes = %d, want the select\n%s", len(g.Entry.Nodes), g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, `
	outer:
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i+j > 2 {
					break outer
				}
				continue outer
			}
		}
	`)
	if len(g.BlocksOf("label.outer")) != 1 {
		t.Fatalf("label block missing\n%s", g)
	}
	// break outer: the inner if.then must reach the OUTER for.done
	// without passing through the inner loop's back edge.
	dones := g.BlocksOf("for.done")
	if len(dones) != 2 {
		t.Fatalf("want 2 for.done blocks, got %d\n%s", len(dones), g)
	}
	then := g.BlocksOf("if.then")[0]
	outerDone := dones[len(dones)-1] // outer loop's done is created... verify by reachability instead
	_ = outerDone
	reachedDones := 0
	for _, d := range dones {
		if len(then.Succs) == 1 && then.Succs[0] == d {
			reachedDones++
		}
	}
	if reachedDones != 1 {
		t.Errorf("break outer must edge to exactly one for.done, got %d\n%s", reachedDones, g)
	}
	// continue outer: some block edges back to the outer for.post.
	posts := g.BlocksOf("for.post")
	var continueEdge bool
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			br, ok := n.(*ast.BranchStmt)
			if ok && br.Tok.String() == "continue" {
				for _, s := range b.Succs {
					for _, p := range posts {
						if s == p {
							continueEdge = true
						}
					}
				}
			}
		}
	}
	if !continueEdge {
		t.Errorf("continue outer does not edge to a for.post\n%s", g)
	}
}

func TestGoto(t *testing.T) {
	g := build(t, `
		i := 0
	loop:
		i++
		if i < 3 {
			goto loop
		}
	`)
	label := g.BlocksOf("label.loop")[0]
	var gotoEdge bool
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok.String() == "goto" {
				for _, s := range b.Succs {
					if s == label {
						gotoEdge = true
					}
				}
			}
		}
	}
	if !gotoEdge {
		t.Errorf("goto does not edge to its label\n%s", g)
	}
}

func TestReturnAndPanicTerminate(t *testing.T) {
	g := build(t, `
		x := 1
		if x > 0 {
			return
		}
		panic("no")
	`)
	// Every return/panic block must edge to exit, and the statements after
	// them must land in unreachable blocks (no predecessors needed).
	var toExit int
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == g.Exit {
				toExit++
			}
		}
	}
	if toExit < 2 {
		t.Errorf("want >=2 edges to exit (return + panic), got %d\n%s", toExit, g)
	}
}

func TestNilBody(t *testing.T) {
	g := New(nil)
	if g.Entry == nil || g.Exit == nil {
		t.Fatal("nil body must still produce entry/exit")
	}
	if !reaches(g.Entry, g.Exit) {
		t.Error("empty graph: exit unreachable")
	}
}

// TestGraphInvariants checks structural sanity on a mixed-construct body.
func TestGraphInvariants(t *testing.T) {
	g := build(t, `
		m := map[int]int{}
		for k, v := range m {
			switch {
			case v > 0:
				delete(m, k)
			default:
				continue
			}
		}
	`)
	checkInvariants(t, "mixed", g)
}

func checkInvariants(t *testing.T, name string, g *Graph) {
	t.Helper()
	if g.Entry == nil || g.Exit == nil {
		t.Fatalf("%s: missing entry/exit", name)
	}
	if len(g.Exit.Succs) != 0 {
		t.Errorf("%s: exit block has successors", name)
	}
	for i, b := range g.Blocks {
		if b.Index != i {
			t.Errorf("%s: block %d has Index %d", name, i, b.Index)
		}
		for _, s := range b.Succs {
			if s == nil {
				t.Errorf("%s: block %d has nil successor", name, i)
			}
		}
	}
}

// TestModuleFilesNeverPanic is the fuzz-style corpus test: build a CFG for
// every function body (including function literals) in every .go file of
// the module and assert construction never panics and always satisfies the
// basic graph invariants.
func TestModuleFilesNeverPanic(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	files := 0
	funcs := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil // non-package files (if any) are not cfg's problem
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			funcs++
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("cfg.New panicked on %s: %v", fset.Position(n.Pos()), r)
					}
				}()
				g := New(body)
				checkInvariants(t, fset.Position(n.Pos()).String(), g)
			}()
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if files < 20 || funcs < 100 {
		t.Fatalf("corpus too small: %d files, %d funcs — walk is missing the tree", files, funcs)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
