package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewNoalloc builds the noalloc analyzer: a function whose doc comment
// carries the //ordlint:noalloc directive must not allocate, in its own
// body or along any call chain it starts.
//
// In the kernel's own body it flags every site allocSites classifies
// (make/new, slice and map literals, &composite literals, closures, go
// statements, map writes, string concatenation and string<->byte
// conversions) plus two kernel-only kinds: append into a function-local
// (fresh) slice and implicit interface conversions. Callees are judged by
// their summaries, whose AllocSites come from the same classifier: the
// check walks the call graph from the kernel and flags
//
//   - module callees whose summary records an allocation site, and
//   - calls that leave the module into a package not on externAllowed
//     (math, sort, ...),
//
// reporting at the kernel's own call site with the full chain, so the
// contract (and any //ordlint:allow escape) lives next to the annotation.
//
// Sites and calls under a cap/len growth guard (`if cap(s) < n { s =
// make(...) }`) are the sanctioned warm-up path at every hop and stay
// quiet — they are exactly what the dynamic testing.AllocsPerRun gates
// measure as zero after warm-up. Functions named in amortized are skipped
// entirely: documented one-time cache fills (geom's per-dimension simplex
// constants) whose steady state the dynamic gates prove allocation-free.
func NewNoalloc(wsPkg func(pkgPath string) bool, externAllowed, amortized map[string]bool) *Analyzer {
	a := &Analyzer{
		Name:  "noalloc",
		Doc:   "functions annotated //ordlint:noalloc must not allocate, in their own body or through any call chain (growth-guarded warm-up is exempt)",
		Layer: "interproc",
	}
	a.Run = func(pass *Pass) {
		g, sums := pass.Facts.Graph, pass.Facts.Summaries
		if g == nil || sums == nil {
			return
		}
		for _, n := range g.Nodes {
			if n.Pkg.Path != pass.PkgPath || n.Decl == nil || n.Decl.Body == nil || !hasNoallocDirective(n.Decl) {
				continue
			}
			checkNoalloc(pass, wsPkg, n.Decl)
			checkNoallocChains(pass, n, sums, externAllowed, amortized)
		}
	}
	return a
}

// hasNoallocDirective reports whether the function's doc comment group
// contains an //ordlint:noalloc directive line. (CommentGroup.Text strips
// directives, so scan the raw list.)
func hasNoallocDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "ordlint:noalloc" || strings.HasPrefix(text, "ordlint:noalloc ") {
			return true
		}
	}
	return false
}

// allocSites calls site for every allocation site in body's own code — not
// inside nested function literals, whose creation is itself a site. It is
// the one classification behind both halves of noalloc: the kernel's own
// body and the callee summaries its call chains are judged by.
func allocSites(info *types.Info, body ast.Node, site func(pos token.Pos, what string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			site(x.Pos(), "closure literal allocates")
			return false
		case *ast.GoStmt:
			site(x.Pos(), "go statement allocates")
		case *ast.CompositeLit:
			if t := typeOf(info, x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					site(x.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					site(x.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
				site(x.Pos(), "&composite literal allocates on the heap")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info, x) {
				site(x.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info, x.Lhs[0]) {
				site(x.Pos(), "string concatenation allocates")
			}
			for _, l := range x.Lhs {
				if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
					if t := typeOf(info, ix.X); t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							site(l.Pos(), "map write may allocate")
						}
					}
				}
			}
		case *ast.CallExpr:
			// Conversions: string <-> []byte/[]rune copy their payload.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				if src := typeOf(info, x.Args[0]); src != nil && stringBytesConv(tv.Type, src) {
					site(x.Pos(), "conversion "+types.TypeString(tv.Type, nil)+" allocates a copy")
				}
			} else if b, ok := calleeObject(info, x).(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
				site(x.Pos(), b.Name()+" allocates; hoist it behind a cap/len growth guard or into the workspace")
			}
		}
		return true
	})
}

// guardSpansIn collects the extents of if-statements whose condition
// consults cap or len — the growth-guard idiom. Any allocation inside one
// is the cold warm-up path.
func guardSpansIn(body ast.Node) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Cond == nil {
			return true
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					guarded = true
				}
			}
			return true
		})
		if guarded {
			spans = append(spans, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return spans
}

// inSpans reports whether pos lies inside one of the spans.
func inSpans(spans [][2]token.Pos, pos token.Pos) bool {
	for _, s := range spans {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}

// checkNoalloc polices the kernel's own body.
func checkNoalloc(pass *Pass, wsPkg func(string) bool, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	spans := guardSpansIn(fn.Body)
	report := func(pos token.Pos, format string, args ...interface{}) {
		pass.Report(pos, "noalloc function %s: "+format, append([]interface{}{fn.Name.Name}, args...)...)
	}
	allocSites(info, fn.Body, func(pos token.Pos, what string) {
		if !inSpans(spans, pos) {
			report(pos, "%s", what)
		}
	})

	// Kernel-only sites: fresh appends and interface boxing. Appending
	// into a caller-provided or workspace buffer is the library's designed
	// pattern, so callee summaries do not record appends at all.
	var results []types.Type
	if sig, ok := info.Defs[fn.Name].Type().(*types.Signature); ok {
		for i := 0; i < sig.Results().Len(); i++ {
			results = append(results, sig.Results().At(i).Type())
		}
	}
	ifaceConv := func(target types.Type, e ast.Expr) bool {
		if target == nil {
			return false
		}
		if _, ok := target.Underlying().(*types.Interface); !ok {
			return false
		}
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil || tv.IsNil() {
			return false
		}
		_, isIface := tv.Type.Underlying().(*types.Interface)
		return !isIface // interface to interface: no box
	}
	tr := newOriginTracker(pass, pass.Facts, wsPkg, fn.Body)
	inspectShallow(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if lt := typeOf(info, x.Lhs[i]); ifaceConv(lt, x.Rhs[i]) {
						report(x.Rhs[i].Pos(), "assignment boxes %s into an interface", types.TypeString(typeOf(info, x.Rhs[i]), nil))
					}
				}
			}
		case *ast.ReturnStmt:
			if len(x.Results) == len(results) {
				for i, r := range x.Results {
					if ifaceConv(results[i], r) {
						report(r.Pos(), "return boxes %s into an interface", types.TypeString(typeOf(info, r), nil))
					}
				}
			}
		case *ast.CallExpr:
			if b, ok := calleeObject(info, x).(*types.Builtin); ok {
				if b.Name() == "append" && len(x.Args) > 0 && !inSpans(spans, x.Pos()) && freshSliceRoot(tr, x.Args[0]) {
					report(x.Pos(), "append grows a function-local slice with unknown capacity; route it through a workspace buffer")
				}
				return true
			}
			// Interface conversions at call boundaries (fmt.Errorf-style boxing).
			sig, _ := typeOf(info, x.Fun).(*types.Signature)
			if sig == nil || x.Ellipsis.IsValid() {
				return true
			}
			for i, arg := range x.Args {
				var pt types.Type
				if sig.Variadic() && i >= sig.Params().Len()-1 {
					if st, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
						pt = st.Elem()
					}
				} else if i < sig.Params().Len() {
					pt = sig.Params().At(i).Type()
				}
				if ifaceConv(pt, arg) {
					report(arg.Pos(), "argument boxes %s into an interface parameter", types.TypeString(typeOf(info, arg), nil))
				}
			}
		}
		return true
	})
}

// checkNoallocChains BFS-walks the call graph from the kernel root. Every
// finding is reported at the root's own (unguarded) call site that starts
// the offending chain; the root's own sites are checkNoalloc's.
func checkNoallocChains(pass *Pass, root *FuncNode, sums map[*FuncNode]*Summary, externAllowed, amortized map[string]bool) {
	type step struct {
		node  *FuncNode
		chain string // rendered root → ... → node
		// rootPos is the call site inside the kernel that started this
		// chain — where the finding (and any allow comment) belongs.
		rootPos token.Pos
	}
	rootName := shortName(root.Name)
	visited := map[*FuncNode]bool{root: true}
	var queue []step
	expand := func(s step) {
		n := s.node
		spans := guardSpansIn(n.Body())
		at := func(pos token.Pos) token.Pos {
			if n == root {
				return pos
			}
			return s.rootPos
		}
		for _, e := range n.Out {
			c := e.Callee
			if e.Kind == EdgeRef || inSpans(spans, e.Pos) || visited[c] || amortized[c.Name] {
				continue
			}
			visited[c] = true
			queue = append(queue, step{node: c, chain: s.chain + " → " + shortName(c.Name), rootPos: at(e.Pos)})
		}
		for _, ec := range n.Extern {
			if ec.Kind == EdgeRef || inSpans(spans, ec.Pos) || externAllowed[ec.Pkg] {
				continue
			}
			pass.Report(at(ec.Pos), "noalloc function %s: call chain %s leaves the module into %s.%s, which is not on the allocation-free allowlist",
				rootName, s.chain, ec.Pkg, ec.Name)
		}
	}

	expand(step{node: root, chain: rootName})
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if sum := sums[s.node]; sum != nil && len(sum.AllocSites) > 0 {
			site := sum.AllocSites[0]
			p := pass.Fset.Position(site.Pos)
			pass.Report(s.rootPos, "noalloc function %s: call chain %s reaches an allocation at %s:%d: %s",
				rootName, s.chain, shortPath(p.Filename), p.Line, site.What)
			// Do not expand past a reported callee: one finding per chain
			// is actionable; deeper allocations fall out once it is fixed.
			continue
		}
		expand(s)
	}
}

// shortPath trims a path to its last two elements for compact diagnostics.
func shortPath(path string) string {
	slashes := 0
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			slashes++
			if slashes == 2 {
				return path[i+1:]
			}
		}
	}
	return path
}

func isStringType(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// stringBytesConv reports whether the conversion dst(src) copies bytes:
// string <-> []byte / []rune in either direction.
func stringBytesConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// freshSliceRoot reports whether the append destination is rooted in a
// function-local slice of unknown capacity — as opposed to a workspace
// field, receiver/parameter buffer, or global, whose capacity is managed
// by the warm-up contract.
func freshSliceRoot(tr *originTracker, e ast.Expr) bool {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			obj := tr.objOf(x)
			if obj == nil {
				return false
			}
			if !tr.localTo(obj) {
				return false // parameter, receiver, global
			}
			// Local: fresh unless it demonstrably views workspace- or
			// caller-owned memory.
			if tr.tainted[obj] || tr.wsAlias[obj] {
				return false
			}
			return !stableLocal(tr, obj)
		case *ast.SelectorExpr, *ast.IndexExpr:
			return false // field/element of something: capacity is owned elsewhere
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// stableLocal reports whether the local slice variable was (on any
// assignment) derived from non-fresh memory: a reslice of a parameter,
// receiver field, global, or a call result. Only demonstrably fresh
// slices (make, literals, nil declarations, self-appends) count as fresh.
func stableLocal(tr *originTracker, obj types.Object) bool {
	stable := false
	ast.Inspect(tr.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || tr.objOf(id) != obj {
				continue
			}
			if !freshValue(tr, as.Rhs[i], obj) {
				stable = true
			}
		}
		return true
	})
	return stable
}

// freshValue classifies an rhs relative to self (the variable being
// classified): make/new/composite/nil and self-appends are fresh; reslices
// and selector chains rooted outside the frame, other variables, and call
// results are not (their capacity is managed elsewhere).
func freshValue(tr *originTracker, e ast.Expr, self types.Object) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.Ident:
		// x = append(x, ...): the self-reference keeps the fresh verdict.
		return x.Name == "nil" || tr.objOf(x) == self
	case *ast.CallExpr:
		if b, ok := calleeObject(tr.pass.TypesInfo, x).(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				return true
			case "append":
				if len(x.Args) > 0 {
					return freshValue(tr, x.Args[0], self)
				}
			}
		}
		return false // unknown call results manage their own capacity
	case *ast.SliceExpr:
		return freshValue(tr, x.X, self)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return false
	}
	return false
}
