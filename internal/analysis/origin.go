package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Facts is the module-wide context computed once per Suite.Run before the
// analyzers see any package: which named types carry a reuse contract
// (workspaces, builders, pooled scratch) and which package paths were part
// of the analyzed set. Dataflow checks consult it through the Pass.
type Facts struct {
	// wsTypes holds qualified type names ("pkgpath.Type") whose doc
	// comments declare a reuse contract ("not goroutine-safe", "one per
	// worker"), independent of naming convention.
	wsTypes map[string]bool
	// loadedPkgs is the set of package paths in the analyzed package set;
	// the workspace naming convention only applies to types declared in
	// packages we can see (never to stdlib types like strings.Builder).
	loadedPkgs map[string]bool
	// Graph is the module-wide call graph and Summaries the per-function
	// summaries over it, the substrate of the interprocedural checks
	// (ctxflow, noalloc, lockmode). Built once per Suite.Run.
	Graph     *CallGraph
	Summaries map[*FuncNode]*Summary
	// Writers marks the methods lockmode requires the write lock for,
	// computed over Graph after Summaries.
	Writers map[*FuncNode]bool
}

// wsDocPhrases are the doc-comment fragments that mark a type as a
// single-owner reusable workspace regardless of its name.
var wsDocPhrases = []string{"not goroutine-safe", "one per worker", "per goroutine"}

// computeFacts scans every package's type declarations once.
func computeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		wsTypes:    make(map[string]bool),
		loadedPkgs: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		f.loadedPkgs[pkg.Path] = true
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					if doc == nil {
						continue
					}
					text := strings.ToLower(doc.Text())
					for _, phrase := range wsDocPhrases {
						if strings.Contains(text, phrase) {
							f.wsTypes[pkg.Path+"."+ts.Name.Name] = true
							break
						}
					}
				}
			}
		}
	}
	return f
}

// isWorkspaceName is the naming convention backstop for packages whose doc
// comments have not (yet) spelled the contract out.
func isWorkspaceName(name string) bool {
	switch name {
	case "Workspace", "Builder", "Searcher", "Heap":
		return true
	}
	return strings.HasSuffix(name, "Workspace") || strings.HasSuffix(name, "WS")
}

// pointerish reports whether a value of type t can alias heap memory: a
// pointer, slice, map, chan, func or interface, or a composite containing
// one. Escaping a non-pointerish value is always a copy and never a hazard.
func pointerish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerish(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return pointerish(u.Elem())
	case *types.TypeParam:
		return true // unknown instantiation: assume the worst
	}
	return false
}

// originTracker computes, for one function declaration, which local
// variables (and by extension which expressions) hold workspace-backed
// memory. It is a monotone may-analysis: once tainted, always tainted.
type originTracker struct {
	pass  *Pass
	facts *Facts
	// wsPkg gates the naming convention: isWorkspaceName only applies to
	// types declared in packages this predicate accepts.
	wsPkg func(string) bool
	body  *ast.BlockStmt
	// tainted locals hold memory backed by an outliving workspace.
	tainted map[types.Object]bool
	// wsAlias locals are pointers to an outliving workspace (pr := &ws.pr),
	// so chains rooted at them count as workspace-rooted.
	wsAlias map[types.Object]bool
}

func newOriginTracker(pass *Pass, facts *Facts, wsPkg func(string) bool, body *ast.BlockStmt) *originTracker {
	tr := &originTracker{
		pass:    pass,
		facts:   facts,
		wsPkg:   wsPkg,
		body:    body,
		tainted: make(map[types.Object]bool),
		wsAlias: make(map[types.Object]bool),
	}
	tr.solve()
	return tr
}

func (tr *originTracker) typeOf(e ast.Expr) types.Type {
	if tv, ok := tr.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isWS reports whether t (possibly behind a pointer) is a workspace type:
// doc-fact types always, conventionally named types when declared in a
// package the configuration claims.
func (tr *originTracker) isWS(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	qn := obj.Pkg().Path() + "." + obj.Name()
	if tr.facts != nil && tr.facts.wsTypes[qn] {
		return true
	}
	if !isWorkspaceName(obj.Name()) {
		return false
	}
	if tr.wsPkg != nil && tr.wsPkg(obj.Pkg().Path()) {
		return true
	}
	// Inside the analyzed set the convention always applies; outside it
	// (stdlib strings.Builder and friends) it never does.
	return tr.facts != nil && tr.facts.loadedPkgs[obj.Pkg().Path()] && tr.wsPkg == nil
}

func (tr *originTracker) objOf(id *ast.Ident) types.Object {
	info := tr.pass.TypesInfo
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// localTo reports whether obj is declared inside the tracked body (as
// opposed to a parameter, receiver, global, or outer-scope capture).
func (tr *originTracker) localTo(obj types.Object) bool {
	return tr.body != nil && obj.Pos() >= tr.body.Pos() && obj.Pos() < tr.body.End()
}

// outliving reports whether the variable outlives this call: parameters,
// receivers, globals and captures do; function-local workspace values do
// not (their memory dies with the frame) unless they alias an outliving
// workspace.
func (tr *originTracker) outliving(obj types.Object) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	if tr.wsAlias[obj] {
		return true
	}
	return !tr.localTo(obj)
}

// rootedWS reports whether e is a selector/index chain in which some prefix
// has a workspace type and whose base variable outlives the call — i.e. e
// denotes (part of) a live workspace rather than a fresh local one.
func (tr *originTracker) rootedWS(e ast.Expr) bool {
	hasWS := false
	for {
		e = ast.Unparen(e)
		if tr.isWS(tr.typeOf(e)) {
			hasWS = true
		}
		switch x := e.(type) {
		case *ast.Ident:
			if !hasWS {
				return false
			}
			obj := tr.objOf(x)
			return obj != nil && tr.outliving(obj)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			e = x.X
		default:
			return false
		}
	}
}

// taintedExpr reports whether evaluating e may yield memory backed by an
// outliving workspace. Callers gate on pointerish(type) — a tainted float
// is a copy, not an alias.
func (tr *originTracker) taintedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := tr.objOf(x)
		if obj != nil && tr.tainted[obj] {
			return true
		}
		return tr.rootedWS(e)
	case *ast.SelectorExpr:
		if tr.rootedWS(e) {
			return true
		}
		return tr.taintedExpr(x.X)
	case *ast.IndexExpr:
		// Reading an element only propagates when the element itself is a
		// slice view (rows of a workspace matrix); a pooled *node element
		// is a handoff, not an alias of the pool.
		if t := tr.typeOf(e); t != nil {
			if _, ok := t.Underlying().(*types.Slice); ok {
				return tr.taintedExpr(x.X)
			}
		}
		return false
	case *ast.SliceExpr:
		return tr.taintedExpr(x.X)
	case *ast.StarExpr:
		return tr.taintedExpr(x.X)
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
			return tr.taintedExpr(ix.X) // &ws.buf[i] aliases the buffer
		}
		return tr.taintedExpr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if tr.taintedExpr(el) {
				return true
			}
		}
		return false
	case *ast.TypeAssertExpr:
		return tr.taintedExpr(x.X)
	case *ast.CallExpr:
		return tr.taintedCall(x)
	}
	return false
}

// taintedCall applies the call rules: conversions propagate, append
// propagates from its destination (and from spread sources whose elements
// are slices — element copies of scalars are fresh), and a call on or with
// a live workspace is assumed to hand back workspace memory.
func (tr *originTracker) taintedCall(call *ast.CallExpr) bool {
	info := tr.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: shares backing for slice-to-slice conversions; a
		// string conversion copies (string is not pointerish, so callers
		// gate it out anyway).
		return len(call.Args) == 1 && tr.taintedExpr(call.Args[0])
	}
	if obj := calleeObject(info, call); obj != nil {
		if b, ok := obj.(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 && tr.taintedExpr(call.Args[0]) {
					return true
				}
				if call.Ellipsis.IsValid() && len(call.Args) == 2 && tr.taintedExpr(call.Args[1]) {
					// append(dst, src...) copies elements; only slice
					// elements still alias the source's backing arrays.
					if st, ok := tr.typeOf(call.Args[1]).Underlying().(*types.Slice); ok {
						if _, elemSlice := st.Elem().Underlying().(*types.Slice); elemSlice {
							return true
						}
					}
				}
				return false
			default:
				return false
			}
		}
	}
	// Method call on a live workspace: ws.matrix(...), ws.node().
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tr.rootedWS(sel.X) || tr.taintedExpr(sel.X) {
			return true
		}
	}
	// Call handed a live workspace pointer or a tainted slice may return
	// memory carved out of it (MindistWS(w, p, r, ws); beatAll(ws.hs[:0])).
	for _, arg := range call.Args {
		if tr.rootedWS(arg) && tr.isWS(tr.typeOf(arg)) {
			return true
		}
		if tr.taintedExpr(arg) {
			if t := tr.typeOf(arg); t != nil {
				if _, ok := t.Underlying().(*types.Slice); ok {
					return true
				}
			}
		}
	}
	return false
}

// solve runs the assignment transfer to a fixed point (the lattice is two
// monotone bit-sets over locals, so a handful of passes always converges).
func (tr *originTracker) solve() {
	if tr.body == nil {
		return
	}
	for i := 0; i < 8; i++ {
		changed := false
		ast.Inspect(tr.body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				changed = tr.transferAssign(s.Lhs, s.Rhs) || changed
			case *ast.ValueSpec:
				if len(s.Values) > 0 {
					lhs := make([]ast.Expr, len(s.Names))
					for i, id := range s.Names {
						lhs[i] = id
					}
					changed = tr.transferAssign(lhs, s.Values) || changed
				}
			case *ast.RangeStmt:
				if s.Value != nil && tr.taintedExpr(s.X) {
					if id, ok := s.Value.(*ast.Ident); ok {
						if t := tr.typeOf(id); t != nil {
							if _, ok := t.Underlying().(*types.Slice); ok {
								changed = tr.mark(tr.tainted, id) || changed
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

func (tr *originTracker) mark(set map[types.Object]bool, id *ast.Ident) bool {
	obj := tr.objOf(id)
	if obj == nil || !tr.localTo(obj) || set[obj] {
		return false
	}
	set[obj] = true
	return true
}

func (tr *originTracker) transferAssign(lhs, rhs []ast.Expr) bool {
	changed := false
	assignOne := func(l, r ast.Expr) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			return
		}
		obj := tr.objOf(id)
		if obj == nil {
			return
		}
		t := obj.Type() // lhs idents of := are not in the Types map
		if tr.isWS(t) && tr.rootedWS(r) {
			changed = tr.mark(tr.wsAlias, id) || changed
		}
		if pointerish(t) && tr.taintedExpr(r) {
			changed = tr.mark(tr.tainted, id) || changed
		}
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			assignOne(lhs[i], rhs[i])
		}
	} else if len(rhs) == 1 {
		if tr.taintedExpr(rhs[0]) {
			for _, l := range lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					if obj := tr.objOf(id); obj != nil && pointerish(obj.Type()) {
						changed = tr.mark(tr.tainted, id) || changed
					}
				}
			}
		}
	}
	return changed
}
