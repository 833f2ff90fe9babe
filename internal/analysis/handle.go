package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// handle.go computes the arena-handle provenance facts behind the handle
// layer (handleprov, stridebound, genstale, narrowcast). The flat spatial
// core addresses everything with integers — node ids into the level/count/
// children arenas, slot indices into the packed point chunks, generation
// counters guarding cached results — and Go's type system sees them all as
// interchangeable ints. This layer re-types them: every integer value is
// abstracted into a provenance class (node handle, slot handle, generation
// value, plain int) by tracking where it was born (returns of the flat
// core's own APIs, induction over its runs, the len-of-arena fresh-handle
// idiom, //ordlint:handle annotations) and how it flows through locals,
// params, struct fields and stride arithmetic. The facts are computed once
// per Suite.Run over the module call graph, like borrow.go's facts, via a
// monotone fixed point: classes only ever grow, so the iteration
// terminates.

// HandleClass is a bitmask of provenance classes an integer value may
// carry. The zero value means plain int: no provenance, no obligations.
type HandleClass uint8

const (
	// HandleNode marks tree-node ids: indices into the R-tree's node
	// arenas (level, count, rseg) and bases of its stride windows.
	HandleNode HandleClass = 1 << iota
	// HandleSlot marks packed point-slot indices: indices into the tree's
	// chunk storage and idAt arena.
	HandleSlot
	// HandleGen marks generation counter values: reads of a configured
	// generation field, compared (never subscripted) to detect staleness.
	HandleGen
)

// String renders the class set for diagnostics ("node", "node|slot", ...).
func (c HandleClass) String() string {
	if c == 0 {
		return "plain"
	}
	var parts []string
	if c&HandleNode != 0 {
		parts = append(parts, "node")
	}
	if c&HandleSlot != 0 {
		parts = append(parts, "slot")
	}
	if c&HandleGen != 0 {
		parts = append(parts, "gen")
	}
	return strings.Join(parts, "|")
}

// parseHandleClass resolves a class name from a //ordlint:handle directive.
func parseHandleClass(word string) (HandleClass, bool) {
	switch word {
	case "node":
		return HandleNode, true
	case "slot":
		return HandleSlot, true
	case "gen":
		return HandleGen, true
	}
	return 0, false
}

// RunSpec describes one flat run: an arena-backed slice (or slot map)
// field of a flat-core structure. Index is the class a subscript into the
// run must carry (zero: any index is fine, the run is only an element
// provider, like a free list). Elem is the class an element read from the
// run yields. Stride marks the capacity-strided window runs (children and
// rect arenas) whose subscripts stridebound audits term by term.
type RunSpec struct {
	Index  HandleClass
	Elem   HandleClass
	Stride bool
}

// HandleConfig scopes the handle layer. All maps are keyed with qualified
// names: packages by import path, fields by "pkgpath.Type.field", types by
// "pkgpath.Type", functions by "pkgpath.Func" / "pkgpath.Recv.Method".
type HandleConfig struct {
	// Packages whose function bodies the handle checks audit.
	Packages map[string]bool
	// Runs are the flat runs (see RunSpec).
	Runs map[string]RunSpec
	// Types are named integer types that ARE handles (rtree.NodeRef): any
	// expression of such a type carries the class.
	Types map[string]HandleClass
	// BoundFields are capacity fields (dim, fanout, entCap) and count
	// runs: expressions derived from them are accepted as stride-window
	// offsets and guard bounds.
	BoundFields map[string]bool
	// GenFields are generation-counter fields: plain reads and atomic
	// .Load() calls on them yield HandleGen values.
	GenFields map[string]bool
	// Owners are the flat-core structures whose //ordlint:writer methods
	// invalidate outstanding handles and views (genstale kill points).
	Owners map[string]bool
	// StableViews are borrow-annotated functions whose views survive
	// mutations of their structure (the slot-stability contract: the
	// chunk storage never reallocates, so slot-backed vectors stay
	// addressable). Borrow-annotated views NOT listed here are killed.
	StableViews map[string]bool
}

// NewHandleConfig picks the handle-layer scoping off the suite Config.
func NewHandleConfig(cfg Config) *HandleConfig {
	return &HandleConfig{
		Packages:    cfg.HandlePackages,
		Runs:        cfg.HandleRuns,
		Types:       cfg.HandleTypes,
		BoundFields: cfg.HandleBoundFields,
		GenFields:   cfg.HandleGenFields,
		Owners:      cfg.HandleOwners,
		StableViews: cfg.HandleStableViews,
	}
}

// HandleInfo is the per-function handle summary.
type HandleInfo struct {
	// Ret is the class of the function's first result (handles are
	// returned first by convention; later results are errors/flags).
	Ret HandleClass
	// RetAnnotated: the //ordlint:handle directive is present, i.e. the
	// returned handle is a documented contract rather than inferred.
	RetAnnotated bool
	// Params are the classes flowing into each parameter, unioned over
	// every call site in the module.
	Params []HandleClass
	// Mutates: calling this function invalidates outstanding handles and
	// unstable views of its receiver — //ordlint:mutates, or an
	// //ordlint:writer method of a configured owner structure.
	Mutates bool
	// MutatesAnnotated: the //ordlint:mutates directive itself is present.
	MutatesAnnotated bool
	// Bounded: //ordlint:bounded is present — the function's stride
	// subscripts and narrowing conversions are vouched for by a documented
	// caller contract or capacity invariant.
	Bounded bool
}

// handleDirectiveClass extracts the class of a //ordlint:handle directive.
func handleDirectiveClass(doc *ast.CommentGroup) (HandleClass, bool) {
	if doc == nil {
		return 0, false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//ordlint:handle ")
		if !ok {
			continue
		}
		word := rest
		if i := strings.IndexAny(word, " \t"); i >= 0 {
			word = word[:i]
		}
		if cls, ok := parseHandleClass(word); ok {
			return cls, true
		}
	}
	return 0, false
}

// ownerTypeOf returns the qualified named type of a method's receiver
// ("pkgpath.Type"), or "" for functions and unresolvable receivers.
func ownerTypeOf(n *FuncNode) string {
	if n.Decl == nil || n.Decl.Recv == nil {
		return ""
	}
	obj := recvObject(n)
	if obj == nil {
		return ""
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// ComputeHandleFacts computes the handle summaries over the module call
// graph. borrows supplies the writer/borrow annotations (computed first in
// Suite.Run) that seed the Mutates facts and classify views for genstale.
func ComputeHandleFacts(g *CallGraph, borrows map[*FuncNode]*BorrowInfo, hc *HandleConfig) map[*FuncNode]*HandleInfo {
	facts := make(map[*FuncNode]*HandleInfo, len(g.Nodes))
	for _, n := range g.Nodes {
		hi := &HandleInfo{}
		if n.Sig != nil {
			hi.Params = make([]HandleClass, n.Sig.Params().Len())
		}
		if n.Decl != nil {
			if cls, ok := handleDirectiveClass(n.Decl.Doc); ok {
				hi.Ret, hi.RetAnnotated = cls, true
			}
			hi.Bounded = hasDirective(n.Decl.Doc, "bounded")
			hi.MutatesAnnotated = hasDirective(n.Decl.Doc, "mutates")
			hi.Mutates = hi.MutatesAnnotated
			if !hi.Mutates {
				if bi := borrows[n]; bi != nil && bi.WriterAnnotated && hc.Owners[ownerTypeOf(n)] {
					hi.Mutates = true
				}
			}
		}
		// Signature rule: a declared handle-typed result is a handle
		// regardless of annotation (rtree.NodeRef returns).
		if n.Sig != nil && n.Sig.Results().Len() > 0 {
			hi.Ret |= typeHandleClass(n.Sig.Results().At(0).Type(), hc)
		}
		facts[n] = hi
	}
	// Monotone fixed point: propagate classes through returns and call
	// arguments until nothing grows. Classes are 3-bit masks, so the
	// iteration is bounded by a few rounds.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Body() == nil {
				continue
			}
			tr := newHandleTracker(n, g, facts, hc)
			tr.solve()
			if ret := tr.returnClass(); facts[n].Ret|ret != facts[n].Ret {
				facts[n].Ret |= ret
				changed = true
			}
			if tr.mergeArgClasses() {
				changed = true
			}
		}
	}
	return facts
}

// typeHandleClass classifies a type: named integer types configured as
// handle types carry their class wherever they appear.
func typeHandleClass(t types.Type, hc *HandleConfig) HandleClass {
	if t == nil {
		return 0
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return 0
	}
	return hc.Types[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// handleTracker infers the provenance classes of a single function's
// locals, flow-insensitively (like borrowTracker): classes only grow, and
// a handful of rounds reaches the fixed point of any realistic body.
type handleTracker struct {
	n     *FuncNode
	g     *CallGraph
	facts map[*FuncNode]*HandleInfo
	hc    *HandleConfig
	info  *types.Info
	cls   map[types.Object]HandleClass

	// srcs collects the value sources of each local (1:1 assignments,
	// init specs, self-edges for ++/compound assigns), feeding the
	// capacity-derivation test of stridebound's guard machinery.
	srcs map[types.Object][]ast.Expr
	// capMemo memoizes capacityDerived per object: 0 unknown, 1 visiting
	// (cycle: not capacity), 2 yes, 3 no.
	capMemo map[types.Object]uint8
}

func newHandleTracker(n *FuncNode, g *CallGraph, facts map[*FuncNode]*HandleInfo, hc *HandleConfig) *handleTracker {
	tr := &handleTracker{
		n: n, g: g, facts: facts, hc: hc,
		info:    n.Pkg.Info,
		cls:     make(map[types.Object]HandleClass),
		srcs:    make(map[types.Object][]ast.Expr),
		capMemo: make(map[types.Object]uint8),
	}
	// Seed parameters from the classes observed at call sites module-wide.
	hi := facts[n]
	var params *types.Tuple
	if n.Sig != nil {
		params = n.Sig.Params()
	}
	if params != nil && n.Decl != nil && n.Decl.Type.Params != nil {
		i := 0
		for _, f := range n.Decl.Type.Params.List {
			for _, name := range f.Names {
				if i < len(hi.Params) && hi.Params[i] != 0 {
					if obj := tr.info.Defs[name]; obj != nil {
						tr.cls[obj] |= hi.Params[i]
					}
				}
				i++
			}
			if len(f.Names) == 0 {
				i++
			}
		}
	}
	tr.collectSources()
	return tr
}

// ownStmts visits the function's own statements, skipping nested function
// literals (they are separate graph nodes with their own trackers).
func (tr *handleTracker) ownInspect(fn func(ast.Node) bool) {
	body := tr.n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		return fn(nd)
	})
}

// collectSources records every local's value sources for the capacity
// test. Self-referential updates (i++, i += k) record the variable itself
// as a source, which the cycle detection maps to "not capacity-derived".
func (tr *handleTracker) collectSources() {
	tr.ownInspect(func(nd ast.Node) bool {
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
			// Range keys/values are opaque sources (handled by the guard
			// machinery and the run element rules, not the capacity test).
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

// solve runs the local class propagation to its fixed point.
func (tr *handleTracker) solve() {
	for round := 0; round < 8; round++ {
		changed := false
		tr.ownInspect(func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						changed = tr.merge(lhs, tr.exprClass(s.Rhs[i])) || changed
					}
				} else if len(s.Rhs) == 1 {
					// Tuple from a call: the handle is the first result.
					changed = tr.merge(s.Lhs[0], tr.exprClass(s.Rhs[0])) || changed
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						changed = tr.merge(name, tr.exprClass(s.Values[i])) || changed
					}
				}
			case *ast.RangeStmt:
				if spec := tr.runSpecOf(s.X); spec != nil {
					// Induction over a run: the key is a valid index into
					// it, the value is one of its elements.
					changed = tr.merge(s.Key, spec.Index) || changed
					changed = tr.merge(s.Value, spec.Elem) || changed
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// merge unions a class into an assignment target's object.
func (tr *handleTracker) merge(lhs ast.Expr, c HandleClass) bool {
	if c == 0 || lhs == nil {
		return false
	}
	obj := lhsObject(tr.info, lhs)
	if obj == nil {
		return false
	}
	if tr.cls[obj]|c == tr.cls[obj] {
		return false
	}
	tr.cls[obj] |= c
	return true
}

// runSpecOf resolves a flat-run selector expression (t.ents, c.idAt) to
// its RunSpec, or nil when the expression is not a configured run.
func (tr *handleTracker) runSpecOf(e ast.Expr) *RunSpec {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	key := tr.fieldKey(sel)
	if key == "" {
		return nil
	}
	if spec, ok := tr.hc.Runs[key]; ok {
		return &spec
	}
	return nil
}

// fieldKey renders a selector as "pkgpath.Type.field" ("" when the base is
// not a (pointer to a) named type).
func (tr *handleTracker) fieldKey(sel *ast.SelectorExpr) string {
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

// exprClass computes the provenance classes an expression may carry.
func (tr *handleTracker) exprClass(e ast.Expr) HandleClass {
	if e == nil {
		return 0
	}
	e = ast.Unparen(e)
	c := typeHandleClass(typeOf(tr.info, e), tr.hc)
	switch x := e.(type) {
	case *ast.Ident:
		if obj := lhsObject(tr.info, x); obj != nil {
			c |= tr.cls[obj]
		}
	case *ast.SelectorExpr:
		if key := tr.fieldKey(x); key != "" && tr.hc.GenFields[key] {
			c |= HandleGen
		}
	case *ast.IndexExpr:
		if spec := tr.runSpecOf(x.X); spec != nil {
			c |= spec.Elem
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
			c |= tr.exprClass(x.X) | tr.exprClass(x.Y)
		}
	case *ast.UnaryExpr:
		if x.Op == token.ADD || x.Op == token.SUB || x.Op == token.XOR {
			c |= tr.exprClass(x.X)
		}
	case *ast.CallExpr:
		c |= tr.callClass(x)
	}
	return c
}

// callClass classifies a call result: conversions pass the operand class
// through (and add the target type's own class), len() of a run yields the
// run's index class (the fresh-handle allocation idiom: slot = len(idAt)),
// atomic loads of a generation field yield gen, and module callees
// contribute their summarized return class.
func (tr *handleTracker) callClass(call *ast.CallExpr) HandleClass {
	// Conversion: T(x).
	if tv, ok := tr.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return typeHandleClass(typeOf(tr.info, call), tr.hc) | tr.exprClass(call.Args[0])
	}
	// Builtin len/cap of a run.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") && len(call.Args) == 1 {
		if spec := tr.runSpecOf(call.Args[0]); spec != nil {
			return spec.Index
		}
		return 0
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// Atomic load of a generation field: nd.gen.Load().
		if sel.Sel.Name == "Load" {
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				if key := tr.fieldKey(inner); key != "" && tr.hc.GenFields[key] {
					return HandleGen
				}
			}
		}
	}
	// Module callee: use its summarized return class.
	if callee := tr.calleeNode(call); callee != nil {
		return tr.facts[callee].Ret
	}
	return 0
}

// calleeNode resolves a call to its module graph node (nil for extern,
// builtin and dynamic calls).
func (tr *handleTracker) calleeNode(call *ast.CallExpr) *FuncNode {
	obj := calleeObject(tr.info, call)
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return tr.g.NodeOf(f)
}

// returnClass unions the classes of the function's first return operand.
func (tr *handleTracker) returnClass() HandleClass {
	var c HandleClass
	tr.ownInspect(func(nd ast.Node) bool {
		if ret, ok := nd.(*ast.ReturnStmt); ok && len(ret.Results) > 0 {
			c |= tr.exprClass(ret.Results[0])
		}
		return true
	})
	return c
}

// mergeArgClasses pushes the classes of call arguments into the callees'
// parameter summaries, reporting whether anything grew.
func (tr *handleTracker) mergeArgClasses() bool {
	changed := false
	tr.ownInspect(func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := tr.calleeNode(call)
		if callee == nil {
			return true
		}
		hi := tr.facts[callee]
		for i, arg := range call.Args {
			if i >= len(hi.Params) {
				break // variadic tail: no summary slot
			}
			c := tr.exprClass(arg)
			if c != 0 && hi.Params[i]|c != hi.Params[i] {
				hi.Params[i] |= c
				changed = true
			}
		}
		return true
	})
	return changed
}

// --- capacity derivation (shared by stridebound and narrowcast guards) ---

// capacityDerived reports whether an expression is derived purely from
// constants and capacity sources: configured bound fields (dim, fanout,
// entCap), elements of configured count runs, and len/cap results. Such
// expressions are legitimate stride-window offsets and guard bounds.
func (tr *handleTracker) capacityDerived(e ast.Expr, depth int) bool {
	if depth > 8 || e == nil {
		return false
	}
	e = ast.Unparen(e)
	if tv, ok := tr.info.Types[e]; ok && tv.Value != nil {
		return true // constant
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if key := tr.fieldKey(x); key != "" && tr.hc.BoundFields[key] {
			return true
		}
		return false
	case *ast.IndexExpr:
		// An element of a count run: t.count[n].
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
			if key := tr.fieldKey(sel); key != "" && tr.hc.BoundFields[key] {
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
func (tr *handleTracker) identCapacity(obj types.Object, depth int) bool {
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

// --- guard tracking (shared by stridebound and narrowcast) ---

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
func (tr *handleTracker) guardedWalk(visit func(n ast.Node, g *guardState)) {
	if body := tr.n.Body(); body != nil {
		tr.walkStmts(body.List, newGuardState(), visit)
	}
}

func (tr *handleTracker) walkStmts(stmts []ast.Stmt, g *guardState, visit func(ast.Node, *guardState)) {
	for _, s := range stmts {
		tr.walkStmt(s, g, visit)
	}
}

// visitExpr runs visit over an expression subtree (skipping nested
// function literals) with the current guard state.
func (tr *handleTracker) visitExpr(e ast.Expr, g *guardState, visit func(ast.Node, *guardState)) {
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
func (tr *handleTracker) dropAssigned(s ast.Stmt, g *guardState) {
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
func (tr *handleTracker) addPositiveGuards(cond ast.Expr, g *guardState) {
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
func (tr *handleTracker) addNegationGuards(cond ast.Expr, g *guardState) {
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

func (tr *handleTracker) walkStmt(s ast.Stmt, g *guardState, visit func(ast.Node, *guardState)) {
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
