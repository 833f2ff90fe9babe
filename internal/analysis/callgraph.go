package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the module-wide call graph the interprocedural checks
// (ctxflow, noalloc, lockmode) and the function summaries run on. The
// graph is a conservative over-approximation in the CHA (class hierarchy
// analysis) tradition, hand-rolled over go/types:
//
//   - every function declaration and function literal in a module package
//     is a node;
//   - static calls, go statements and defers produce edges of the matching
//     kind;
//   - interface calls (including calls through type-parameter constraints)
//     resolve to every module method with the same name and arity;
//   - calls through function values resolve to every address-taken module
//     function or literal with an identical signature, excluding literals
//     consumed directly by extern calls (sort comparators, registered
//     handlers), which module code can never call through a value;
//   - taking a function's value (method values, handler registration,
//     assigning a closure) produces a "ref" edge, so reachability can follow
//     callbacks without claiming the reference itself is a call.
//
// Calls that leave the module (stdlib, since the module has no other
// dependencies) are recorded per caller as ExternCalls and classified by
// the summary layer instead of growing the graph.

// EdgeKind classifies how a call edge transfers control.
type EdgeKind string

const (
	// EdgeCall is an ordinary statically-resolved call.
	EdgeCall EdgeKind = "call"
	// EdgeGo spawns the callee on a new goroutine.
	EdgeGo EdgeKind = "go"
	// EdgeDefer runs the callee at function exit.
	EdgeDefer EdgeKind = "defer"
	// EdgeIface is an interface (or type-parameter constraint) call,
	// resolved by name+arity to every module method that could satisfy it.
	EdgeIface EdgeKind = "iface"
	// EdgeDynamic is a call through a function value, resolved to every
	// address-taken function with a matching signature shape.
	EdgeDynamic EdgeKind = "dynamic"
	// EdgeRef records that the caller takes the callee's value without
	// calling it (method value, callback registration, closure creation).
	EdgeRef EdgeKind = "ref"
)

// FuncNode is one function in the call graph: a declaration or a literal.
type FuncNode struct {
	// Name qualifies the function like the approved-function sets do
	// ("pkg.Func", "pkg.Recv.Method"); literals append ".funcN" to their
	// enclosing function's name in source order.
	Name string
	Pkg  *Package
	// Exactly one of Decl/Lit is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Sig is the function's signature (nil only if type-checking failed).
	Sig *types.Signature
	// Out and In are the call edges, in source order per caller.
	Out []*CallEdge
	In  []*CallEdge
	// Extern are calls that leave the analyzed package set.
	Extern []ExternCall
	// AddrTaken reports that the function's value escapes somewhere, making
	// it a candidate target for dynamic calls.
	AddrTaken bool
	// ExternConsumed marks a literal whose only occurrence hands it straight
	// to extern code — a direct argument to an extern call (a sort.Slice
	// comparator, a registered handler) or an assignment to an extern field
	// or variable (flag.FlagSet.Usage): the callback still runs — the ref
	// edge covers that — but no module-internal call through a function
	// value can obtain it, so it is excluded from dynamic resolution.
	ExternConsumed bool
}

// Body returns the function's body block.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the function's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Spawns returns n's go-edges: the goroutines this function starts.
func Spawns(n *FuncNode) []*CallEdge {
	var out []*CallEdge
	for _, e := range n.Out {
		if e.Kind == EdgeGo {
			out = append(out, e)
		}
	}
	return out
}

// CallEdge is one resolved call site.
type CallEdge struct {
	Caller *FuncNode
	Callee *FuncNode
	// Pos is the call site (or reference site) in the caller.
	Pos  token.Pos
	Kind EdgeKind
	// CtxArg reports that a context.Context value is passed at this site.
	CtxArg bool
}

// ExternCall is a call that leaves the module: stdlib functions and methods.
type ExternCall struct {
	// Pkg is the callee's package path ("sync", "net/http").
	Pkg string
	// Name is the function or method name ("Lock").
	Name string
	// Recv is the receiver's type string for methods, "" for functions.
	Recv string
	Pos  token.Pos
	Kind EdgeKind
	// CtxArg reports that a context.Context value is passed at this site.
	CtxArg bool
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	// Nodes lists every function in deterministic order: packages sorted by
	// path, declarations in file order, literals in source order within
	// their enclosing function.
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
}

// NodeOf resolves a declared function object to its node, normalizing
// generic instantiations to their origin declaration.
func (g *CallGraph) NodeOf(f *types.Func) *FuncNode {
	if f == nil {
		return nil
	}
	return g.byObj[f.Origin()]
}

// NumEdges counts the call edges (all kinds).
func (g *CallGraph) NumEdges() int {
	n := 0
	for _, node := range g.Nodes {
		n += len(node.Out)
	}
	return n
}

// ReachableFrom computes the functions reachable from the entry predicate
// over every edge kind (a referenced callback or spawned goroutine does
// run). The result maps each reachable node to the in-edge it was first
// discovered through (nil for entries), which renders call chains for
// diagnostics.
func (g *CallGraph) ReachableFrom(entry func(*FuncNode) bool) map[*FuncNode]*CallEdge {
	reach := make(map[*FuncNode]*CallEdge)
	var queue []*FuncNode
	for _, n := range g.Nodes {
		if entry(n) {
			reach[n] = nil
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, ok := reach[e.Callee]; !ok {
				reach[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
	}
	return reach
}

// Chain renders the discovery path from an entry point to n as
// "entry → ... → n" using shortened names, given the predecessor map
// returned by ReachableFrom.
func Chain(reach map[*FuncNode]*CallEdge, n *FuncNode) string {
	var names []string
	for cur := n; ; {
		names = append(names, shortName(cur.Name))
		e := reach[cur]
		if e == nil {
			break
		}
		cur = e.Caller
	}
	// Reverse into entry-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	out := names[0]
	for _, s := range names[1:] {
		out += " → " + s
	}
	return out
}

// shortName trims the package path down to its last element:
// "ordu/internal/server.Server.handleQuery" → "server.Server.handleQuery".
func shortName(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}

// pendingCall is an interface or dynamic call recorded during the AST walk
// and resolved once every node and address-taken mark exists.
type pendingCall struct {
	caller *FuncNode
	pos    token.Pos
	kind   EdgeKind
	ctxArg bool
	// iface is the interface method for EdgeIface resolution; nil marks a
	// dynamic call resolved by signature shape instead.
	iface *types.Func
	// sig is the called function type, for dynamic arity matching.
	sig *types.Signature
}

// graphBuilder accumulates the graph during the per-package walks.
type graphBuilder struct {
	g        *CallGraph
	pkg      *Package
	modPkgs  map[string]bool // package paths inside the module
	node     *FuncNode       // current enclosing function
	litSeq   *int            // literal counter of the enclosing declaration
	pending  *[]pendingCall
	callKind map[*ast.CallExpr]EdgeKind
	callPos  map[*ast.Ident]bool // identifiers in call position (not refs)
	called   map[*ast.FuncLit]bool
}

// BuildCallGraph constructs the call graph over the module packages of the
// analyzed set (dependency packages contribute type information only).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
	}
	// Pass 1: a node per function declaration.
	type declWork struct {
		pkg  *Package
		node *FuncNode
	}
	var work []declWork
	for _, pkg := range pkgs {
		if !pkg.InModule || pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				n := &FuncNode{
					Name: qualifiedName(pkg.Path, decl),
					Pkg:  pkg,
					Decl: decl,
				}
				if obj, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok && obj != nil {
					n.Sig, _ = obj.Type().(*types.Signature)
					g.byObj[obj.Origin()] = n
				}
				g.Nodes = append(g.Nodes, n)
				work = append(work, declWork{pkg, n})
			}
		}
	}
	// Pass 2: walk bodies, creating literal nodes and static edges, and
	// queueing interface/dynamic calls.
	modPkgs := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkg.InModule {
			modPkgs[pkg.Path] = true
		}
	}
	var pending []pendingCall
	for _, w := range work {
		seq := 0
		b := &graphBuilder{
			g:        g,
			pkg:      w.pkg,
			modPkgs:  modPkgs,
			node:     w.node,
			litSeq:   &seq,
			pending:  &pending,
			callKind: make(map[*ast.CallExpr]EdgeKind),
			callPos:  make(map[*ast.Ident]bool),
			called:   make(map[*ast.FuncLit]bool),
		}
		b.walk(w.node, w.node.Decl.Body)
	}
	// Pass 3: resolve interface and dynamic calls against the completed
	// node set.
	methodsByName := make(map[string][]*FuncNode)
	var dynPool []*FuncNode
	for _, n := range g.Nodes {
		if n.Decl != nil && n.Decl.Recv != nil {
			methodsByName[n.Decl.Name.Name] = append(methodsByName[n.Decl.Name.Name], n)
		}
		if (n.Lit != nil && !n.ExternConsumed) || n.AddrTaken {
			dynPool = append(dynPool, n)
		}
	}
	for _, p := range pending {
		if p.iface != nil {
			isig, _ := p.iface.Type().(*types.Signature)
			for _, m := range methodsByName[p.iface.Name()] {
				if sigShapeMatch(m.Sig, isig) {
					addEdge(p.caller, m, p.pos, EdgeIface, p.ctxArg)
				}
			}
			continue
		}
		for _, cand := range dynPool {
			if dynSigMatch(cand.Sig, p.sig) {
				addEdge(p.caller, cand, p.pos, EdgeDynamic, p.ctxArg)
			}
		}
	}
	return g
}

// sigShapeMatch reports whether two signatures agree in parameter and
// result count — the arity filter interface CHA uses (exact type identity
// would miss generic instantiations and embedded-interface promotion).
// Variadic signatures relax the parameter comparison.
func sigShapeMatch(a, b *types.Signature) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Results().Len() != b.Results().Len() {
		return false
	}
	if a.Variadic() || b.Variadic() {
		return true
	}
	return a.Params().Len() == b.Params().Len()
}

// dynSigMatch matches a dynamic call against a candidate by exact
// parameter/result type identity (receivers excluded: a stored method
// value's receiver is already bound). Count-only matching would connect
// every func(T) U to every func(V) W and poison reachability across
// unrelated packages.
func dynSigMatch(cand, call *types.Signature) bool {
	if cand == nil || call == nil {
		return false
	}
	if cand.Params().Len() != call.Params().Len() ||
		cand.Results().Len() != call.Results().Len() ||
		cand.Variadic() != call.Variadic() {
		return false
	}
	for i := 0; i < cand.Params().Len(); i++ {
		if !types.Identical(cand.Params().At(i).Type(), call.Params().At(i).Type()) {
			return false
		}
	}
	for i := 0; i < cand.Results().Len(); i++ {
		if !types.Identical(cand.Results().At(i).Type(), call.Results().At(i).Type()) {
			return false
		}
	}
	return true
}

func addEdge(caller, callee *FuncNode, pos token.Pos, kind EdgeKind, ctxArg bool) {
	e := &CallEdge{Caller: caller, Callee: callee, Pos: pos, Kind: kind, CtxArg: ctxArg}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// walk traverses body with cur as the enclosing function, switching to a
// fresh node at each function literal.
func (b *graphBuilder) walk(cur *FuncNode, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			b.callKind[x.Call] = EdgeGo
		case *ast.DeferStmt:
			b.callKind[x.Call] = EdgeDefer
		case *ast.CallExpr:
			b.handleCall(cur, x)
		case *ast.AssignStmt:
			// A literal assigned to an extern field or variable
			// (fs.Usage = func() {...}) leaves the module's reach.
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
					if ok && b.assignTargetExtern(x.Lhs[i]) {
						b.litNodeOf(cur, lit).ExternConsumed = true
					}
				}
			}
		case *ast.FuncLit:
			ln := b.litNodeOf(cur, x)
			if !b.called[x] {
				addEdge(cur, ln, x.Pos(), EdgeRef, false)
			}
			b.walk(ln, x.Body)
			return false
		case *ast.Ident:
			b.maybeRef(cur, x)
		}
		return true
	})
}

// litNodeOf returns (creating if needed) the node of a function literal
// nested in parent.
func (b *graphBuilder) litNodeOf(parent *FuncNode, lit *ast.FuncLit) *FuncNode {
	if n, ok := b.g.byLit[lit]; ok {
		return n
	}
	*b.litSeq++
	n := &FuncNode{
		Name: fmt.Sprintf("%s.func%d", parent.Name, *b.litSeq),
		Pkg:  b.pkg,
		Lit:  lit,
	}
	if tv, ok := b.pkg.Info.Types[lit]; ok && tv.Type != nil {
		n.Sig, _ = tv.Type.(*types.Signature)
	}
	b.g.byLit[lit] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// handleCall records an edge, a pending resolution, or an extern call for
// one call expression.
func (b *graphBuilder) handleCall(cur *FuncNode, call *ast.CallExpr) {
	info := b.pkg.Info
	fun := ast.Unparen(call.Fun)
	// Mark identifiers in call position so maybeRef does not turn them into
	// address-taken references.
	switch f := fun.(type) {
	case *ast.Ident:
		b.callPos[f] = true
	case *ast.SelectorExpr:
		b.callPos[f.Sel] = true
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	kind := b.callKind[call]
	if kind == "" {
		kind = EdgeCall
	}
	ctxArg := false
	for _, a := range call.Args {
		if tv, ok := info.Types[a]; ok && tv.Type != nil && isContextType(tv.Type) {
			ctxArg = true
			break
		}
	}
	if lit, ok := fun.(*ast.FuncLit); ok {
		ln := b.litNodeOf(cur, lit)
		b.called[lit] = true
		addEdge(cur, ln, call.Pos(), kind, ctxArg)
		return
	}
	switch o := calleeObject(info, call).(type) {
	case *types.Builtin:
		return
	case *types.Func:
		f := o.Origin()
		sig, _ := f.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			// Interface or type-parameter constraint call: resolve by CHA
			// in pass 3. (A type parameter's underlying type is its
			// constraint interface, so IsInterface covers both.)
			*b.pending = append(*b.pending, pendingCall{
				caller: cur, pos: call.Pos(), kind: kind, ctxArg: ctxArg, iface: f,
			})
			return
		}
		if callee := b.g.byObj[f]; callee != nil {
			addEdge(cur, callee, call.Pos(), kind, ctxArg)
			return
		}
		recv := ""
		if sig != nil && sig.Recv() != nil {
			recv = types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return "" })
		}
		pkgPath := ""
		if f.Pkg() != nil {
			pkgPath = f.Pkg().Path()
		}
		cur.Extern = append(cur.Extern, ExternCall{
			Pkg: pkgPath, Name: f.Name(), Recv: recv,
			Pos: call.Pos(), Kind: kind, CtxArg: ctxArg,
		})
		// Literal arguments of an extern call never flow back into the
		// module as callable values; keep them out of the dynamic pool.
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				b.litNodeOf(cur, lit).ExternConsumed = true
			}
		}
		return
	default:
		// Call through a function value (variable, field, parameter,
		// result of another call): resolve by signature shape in pass 3.
		if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				*b.pending = append(*b.pending, pendingCall{
					caller: cur, pos: call.Pos(), kind: kind, ctxArg: ctxArg, sig: sig,
				})
			}
		}
	}
}

// assignTargetExtern reports whether an assignment target is a field or
// variable owned by a package outside the module.
func (b *graphBuilder) assignTargetExtern(lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var obj types.Object
	if s, found := b.pkg.Info.Selections[sel]; found {
		obj = s.Obj()
	} else {
		obj = b.pkg.Info.Uses[sel.Sel]
	}
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return !b.modPkgs[obj.Pkg().Path()]
}

// maybeRef records a "ref" edge when an identifier names a module function
// outside call position: the function's value escapes (method value,
// callback registration) and becomes a dynamic-call candidate.
func (b *graphBuilder) maybeRef(cur *FuncNode, id *ast.Ident) {
	if b.callPos[id] {
		return
	}
	f, ok := b.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if target := b.g.NodeOf(f); target != nil {
		target.AddrTaken = true
		addEdge(cur, target, id.Pos(), EdgeRef, false)
	}
}
