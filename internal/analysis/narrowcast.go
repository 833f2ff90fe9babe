package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewNarrowcast builds the narrowcast analyzer: every int→int32/uint32
// conversion in the packages holding the flat core's integer handles must
// be dominated by an explicit range guard against a capacity bound, or
// covered by a documented capacity sentinel (//ordlint:bounded on the
// function, or routing the value through narrow.Index32, whose own guard
// this analyzer verifies). An unguarded narrowing silently wraps once the
// arena crosses 2^31 records — the class of bug the ErrTooLarge sentinel
// exists to surface, and one no test can reach.
//
// boundFields are the capacity fields and count runs ("pkgpath.Type.field")
// accepted as guard bounds, alongside constants and len/cap results.
func NewNarrowcast(packages, boundFields map[string]bool) *Analyzer {
	a := &Analyzer{
		Name:  "narrowcast",
		Doc:   "int->int32/uint32 conversions feeding the flat core need a dominating range guard or //ordlint:bounded",
		Layer: "cfg",
	}
	a.Run = func(pass *Pass) {
		if !packages[pass.PkgPath] {
			return
		}
		for _, n := range pass.Facts.Graph.Nodes {
			if n.Pkg.Path != pass.PkgPath || n.Body() == nil {
				continue
			}
			if n.Decl != nil && hasDirective(n.Decl.Doc, "bounded") {
				continue // documented capacity invariant
			}
			tr := newGuardTracker(n, boundFields)
			tr.guardedWalk(func(nd ast.Node, gs *guardState) {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return
				}
				checkNarrowConv(pass, tr, gs, call)
			})
		}
	}
	return a
}

// checkNarrowConv flags one unguarded narrowing conversion.
func checkNarrowConv(pass *Pass, tr *guardTracker, gs *guardState, call *ast.CallExpr) {
	tv, ok := tr.info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	if !narrow32Target(tv.Type) {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if !wideIntSource(typeOf(tr.info, arg)) {
		return // already 32-bit or narrower (NodeRef→int32 round trips)
	}
	if tvArg, ok := tr.info.Types[arg]; ok && tvArg.Value != nil {
		return // constant, checked by the compiler
	}
	if gs.Guarded(tr.info, arg) {
		return // dominated by an upper-bound guard
	}
	pass.Report(call.Pos(),
		"unguarded narrowing conversion %s of %s feeding the flat core — guard the range, route it through narrow.Index32, or annotate the function //ordlint:bounded",
		types.ExprString(call.Fun), types.ExprString(arg))
}

// narrow32Target reports whether a conversion target is (a named type
// over) int32 or uint32 — the flat core's handle widths.
func narrow32Target(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Int32 || b.Kind() == types.Uint32
}

// wideIntSource reports whether the operand type can exceed 32 bits:
// int/uint (64-bit on every platform this module targets), int64/uint64,
// uintptr.
func wideIntSource(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int, types.Uint, types.Int64, types.Uint64, types.Uintptr:
		return true
	}
	return false
}

// guardTracker carries one function's guard analysis: which locals are
// derived purely from capacity sources, and which expressions a dominating
// upper-bound guard covers at each point of the body.
type guardTracker struct {
	n           *FuncNode
	info        *types.Info
	boundFields map[string]bool

	// srcs collects the value sources of each local (1:1 assignments,
	// init specs, self-edges for ++/compound assigns), feeding the
	// capacity-derivation test.
	srcs map[types.Object][]ast.Expr
	// capMemo memoizes capacityDerived per object: 0 unknown, 1 visiting
	// (cycle: not capacity), 2 yes, 3 no.
	capMemo map[types.Object]uint8
}

func newGuardTracker(n *FuncNode, boundFields map[string]bool) *guardTracker {
	tr := &guardTracker{
		n:           n,
		info:        n.Pkg.Info,
		boundFields: boundFields,
		srcs:        make(map[types.Object][]ast.Expr),
		capMemo:     make(map[types.Object]uint8),
	}
	tr.collectSources()
	return tr
}

// collectSources records every local's value sources for the capacity
// test. Self-referential updates (i++, i += k) record the variable itself
// as a source, which the cycle detection maps to "not capacity-derived".
func (tr *guardTracker) collectSources() {
	inspectShallow(tr.n.Body(), func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						if obj := lhsObject(tr.info, lhs); obj != nil {
							tr.srcs[obj] = append(tr.srcs[obj], s.Rhs[i])
						}
					}
				} else {
					// Tuple from a call: opaque to the capacity test.
					for _, lhs := range s.Lhs {
						if obj := lhsObject(tr.info, lhs); obj != nil {
							tr.srcs[obj] = append(tr.srcs[obj], s.Rhs[0])
						}
					}
				}
			} else {
				// Compound assignment: the variable derives from itself.
				for _, lhs := range s.Lhs {
					if obj := lhsObject(tr.info, lhs); obj != nil {
						tr.srcs[obj] = append(tr.srcs[obj], lhs)
					}
				}
			}
		case *ast.IncDecStmt:
			if obj := lhsObject(tr.info, s.X); obj != nil {
				tr.srcs[obj] = append(tr.srcs[obj], s.X)
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if obj := tr.info.Defs[name]; obj != nil && i < len(s.Values) {
					tr.srcs[obj] = append(tr.srcs[obj], s.Values[i])
				}
			}
		case *ast.RangeStmt:
			// Range keys/values are opaque sources (the guard machinery
			// bounds them inside the loop, not the capacity test).
			if obj := lhsObject(tr.info, s.Key); obj != nil {
				tr.srcs[obj] = append(tr.srcs[obj], s.Key)
			}
			if obj := lhsObject(tr.info, s.Value); obj != nil {
				tr.srcs[obj] = append(tr.srcs[obj], s.Value)
			}
		}
		return true
	})
}

// lhsObject resolves an assignment target identifier's object (nil for
// blank, selectors, subscripts).
func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// fieldKey renders a selector as "pkgpath.Type.field" ("" when the base is
// not a (pointer to a) named type).
func (tr *guardTracker) fieldKey(sel *ast.SelectorExpr) string {
	t := typeOf(tr.info, sel.X)
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// --- capacity derivation ---

// capacityDerived reports whether an expression is derived purely from
// constants and capacity sources: configured bound fields (dim, fanout,
// entCap), elements of configured count runs, and len/cap results. Such
// expressions are legitimate guard bounds.
func (tr *guardTracker) capacityDerived(e ast.Expr, depth int) bool {
	if depth > 8 || e == nil {
		return false
	}
	e = ast.Unparen(e)
	if tv, ok := tr.info.Types[e]; ok && tv.Value != nil {
		return true // constant
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if key := tr.fieldKey(x); key != "" && tr.boundFields[key] {
			return true
		}
		return false
	case *ast.IndexExpr:
		// An element of a count run: t.count[n].
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
			if key := tr.fieldKey(sel); key != "" && tr.boundFields[key] {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			return true
		}
		// Conversions unwrap: int(t.count[n]).
		if tv, ok := tr.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return tr.capacityDerived(x.Args[0], depth+1)
		}
		return false
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM, token.SHL, token.SHR:
			return tr.capacityDerived(x.X, depth+1) && tr.capacityDerived(x.Y, depth+1)
		}
		return false
	case *ast.UnaryExpr:
		return tr.capacityDerived(x.X, depth+1)
	case *ast.Ident:
		obj := lhsObject(tr.info, x)
		if obj == nil {
			return false
		}
		return tr.identCapacity(obj, depth)
	}
	return false
}

// identCapacity reports whether every value source of a local is
// capacity-derived. Cycles (i++ self-edges) and source-less objects
// (parameters) are not capacity-derived.
func (tr *guardTracker) identCapacity(obj types.Object, depth int) bool {
	switch tr.capMemo[obj] {
	case 1:
		return false // visiting: self-referential update
	case 2:
		return true
	case 3:
		return false
	}
	srcs := tr.srcs[obj]
	if len(srcs) == 0 {
		tr.capMemo[obj] = 3
		return false
	}
	tr.capMemo[obj] = 1
	ok := true
	for _, s := range srcs {
		if id, isIdent := ast.Unparen(s).(*ast.Ident); isIdent && lhsObject(tr.info, id) == obj {
			ok = false // self-edge (++, +=, range var)
			break
		}
		if !tr.capacityDerived(s, depth+1) {
			ok = false
			break
		}
	}
	if ok {
		tr.capMemo[obj] = 2
	} else {
		tr.capMemo[obj] = 3
	}
	return ok
}

// --- guard tracking ---

// guardState carries the objects and exact expressions currently known to
// be upper-bounded by a capacity-derived expression.
type guardState struct {
	objs  map[types.Object]bool
	exprs map[string]bool
}

func newGuardState() *guardState {
	return &guardState{objs: map[types.Object]bool{}, exprs: map[string]bool{}}
}

func (g *guardState) clone() *guardState {
	c := newGuardState()
	for o := range g.objs {
		c.objs[o] = true
	}
	for e := range g.exprs {
		c.exprs[e] = true
	}
	return c
}

// add records that e is guarded: by object when it is a plain identifier,
// by exact rendering otherwise (len(points), x.n, ...).
func (g *guardState) add(info *types.Info, e ast.Expr) {
	e = ast.Unparen(e)
	if obj := lhsObject(info, e); obj != nil {
		g.objs[obj] = true
		return
	}
	g.exprs[types.ExprString(e)] = true
}

// Guarded reports whether e is under an upper-bound guard.
func (g *guardState) Guarded(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if obj := lhsObject(info, e); obj != nil && g.objs[obj] {
		return true
	}
	return g.exprs[types.ExprString(e)]
}

// guardedWalk walks the function body in execution order, maintaining the
// guard state, and calls visit for every expression node with the state in
// force at that point. Guards come from three shapes:
//
//	if i < cap { ... }        // positive guard inside the branch
//	for i := 0; i < cap; i++  // positive guard inside the body
//	if i >= cap { return }    // negative guard after a terminating branch
//
// where cap is capacity-derived. Assigning to a guarded variable drops its
// guard (the early-out shape re-establishes it on the next iteration).
func (tr *guardTracker) guardedWalk(visit func(n ast.Node, g *guardState)) {
	if body := tr.n.Body(); body != nil {
		tr.walkStmts(body.List, newGuardState(), visit)
	}
}

func (tr *guardTracker) walkStmts(stmts []ast.Stmt, g *guardState, visit func(ast.Node, *guardState)) {
	for _, s := range stmts {
		tr.walkStmt(s, g, visit)
	}
}

// visitExpr runs visit over an expression subtree (skipping nested
// function literals) with the current guard state.
func (tr *guardTracker) visitExpr(e ast.Expr, g *guardState, visit func(ast.Node, *guardState)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		if nd != nil {
			visit(nd, g)
		}
		return true
	})
}

// dropAssigned removes guards for variables the statement writes.
func (tr *guardTracker) dropAssigned(s ast.Stmt, g *guardState) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			if obj := lhsObject(tr.info, lhs); obj != nil {
				delete(g.objs, obj)
			}
		}
	case *ast.IncDecStmt:
		if obj := lhsObject(tr.info, x.X); obj != nil {
			delete(g.objs, obj)
		}
	}
}

// terminates reports whether a block always leaves the enclosing scope
// (return/panic at the end, or an unconditional branch statement).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// conjuncts splits a condition on &&; disjuncts splits on ||.
func conjuncts(e ast.Expr, out []ast.Expr) []ast.Expr {
	if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && b.Op == token.LAND {
		return conjuncts(b.Y, conjuncts(b.X, out))
	}
	return append(out, ast.Unparen(e))
}

func disjuncts(e ast.Expr, out []ast.Expr) []ast.Expr {
	if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && b.Op == token.LOR {
		return disjuncts(b.Y, disjuncts(b.X, out))
	}
	return append(out, ast.Unparen(e))
}

// addPositiveGuards records the guards a condition establishes where it
// holds: every && conjunct of shape x < cap, x <= cap, cap > x, cap >= x.
func (tr *guardTracker) addPositiveGuards(cond ast.Expr, g *guardState) {
	if cond == nil {
		return
	}
	for _, c := range conjuncts(cond, nil) {
		b, ok := c.(*ast.BinaryExpr)
		if !ok {
			continue
		}
		switch b.Op {
		case token.LSS, token.LEQ: // x < cap
			if tr.capacityDerived(b.Y, 0) {
				g.add(tr.info, b.X)
			}
		case token.GTR, token.GEQ: // cap > x
			if tr.capacityDerived(b.X, 0) {
				g.add(tr.info, b.Y)
			}
		}
	}
}

// addNegationGuards records the guards that hold where a condition is
// false: every || disjunct of shape x > cap, x >= cap, cap < x, cap <= x
// bounds x on the fall-through path of a terminating branch.
func (tr *guardTracker) addNegationGuards(cond ast.Expr, g *guardState) {
	if cond == nil {
		return
	}
	for _, c := range disjuncts(cond, nil) {
		b, ok := c.(*ast.BinaryExpr)
		if !ok {
			continue
		}
		switch b.Op {
		case token.GTR, token.GEQ: // !(x > cap) => x <= cap
			if tr.capacityDerived(b.Y, 0) {
				g.add(tr.info, b.X)
			}
		case token.LSS, token.LEQ: // !(cap < x) => x <= cap
			if tr.capacityDerived(b.X, 0) {
				g.add(tr.info, b.Y)
			}
		}
	}
}

func (tr *guardTracker) walkStmt(s ast.Stmt, g *guardState, visit func(ast.Node, *guardState)) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		tr.walkStmts(x.List, g.clone(), visit)
	case *ast.IfStmt:
		if x.Init != nil {
			tr.walkStmt(x.Init, g, visit)
		}
		tr.visitExpr(x.Cond, g, visit)
		thenG := g.clone()
		tr.addPositiveGuards(x.Cond, thenG)
		tr.walkStmts(x.Body.List, thenG, visit)
		if x.Else != nil {
			elseG := g.clone()
			tr.addNegationGuards(x.Cond, elseG)
			tr.walkStmt(x.Else, elseG, visit)
		}
		if terminates(x.Body) {
			// if i >= cap { return }: the fall-through is bounded.
			tr.addNegationGuards(x.Cond, g)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			tr.walkStmt(x.Init, g, visit)
		}
		tr.visitExpr(x.Cond, g, visit)
		bodyG := g.clone()
		tr.addPositiveGuards(x.Cond, bodyG)
		tr.walkStmts(x.Body.List, bodyG, visit)
		if x.Post != nil {
			tr.walkStmt(x.Post, bodyG, visit)
		}
	case *ast.RangeStmt:
		tr.visitExpr(x.X, g, visit)
		bodyG := g.clone()
		if x.Key != nil {
			bodyG.add(tr.info, x.Key)
		}
		if x.Value != nil {
			bodyG.add(tr.info, x.Value)
		}
		tr.walkStmts(x.Body.List, bodyG, visit)
	case *ast.SwitchStmt:
		if x.Init != nil {
			tr.walkStmt(x.Init, g, visit)
		}
		tr.visitExpr(x.Tag, g, visit)
		for _, cc := range x.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				caseG := g.clone()
				for _, e := range c.List {
					tr.visitExpr(e, caseG, visit)
				}
				tr.walkStmts(c.Body, caseG, visit)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			tr.walkStmt(x.Init, g, visit)
		}
		tr.walkStmt(x.Assign, g, visit)
		for _, cc := range x.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				tr.walkStmts(c.Body, g.clone(), visit)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range x.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				commG := g.clone()
				if c.Comm != nil {
					tr.walkStmt(c.Comm, commG, visit)
				}
				tr.walkStmts(c.Body, commG, visit)
			}
		}
	case *ast.LabeledStmt:
		tr.walkStmt(x.Stmt, g, visit)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			tr.visitExpr(e, g, visit)
		}
		for _, e := range x.Lhs {
			tr.visitExpr(e, g, visit)
		}
		tr.dropAssigned(x, g)
	case *ast.IncDecStmt:
		tr.visitExpr(x.X, g, visit)
		tr.dropAssigned(x, g)
	case *ast.ExprStmt:
		tr.visitExpr(x.X, g, visit)
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			tr.visitExpr(e, g, visit)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						tr.visitExpr(v, g, visit)
					}
				}
			}
		}
	case *ast.DeferStmt:
		tr.visitExpr(x.Call, g, visit)
	case *ast.GoStmt:
		tr.visitExpr(x.Call, g, visit)
	case *ast.SendStmt:
		tr.visitExpr(x.Chan, g, visit)
		tr.visitExpr(x.Value, g, visit)
	}
}
