package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes the borrow and writer facts behind ordlint's
// lock-discipline checks (borrowck, lockmode). A *borrow* is a value that
// aliases packed point storage guarded by a dataset lock — vectors from
// Collection.Get and Tree.Point, the spatial index from Tree(), query
// result records built from them — and is only valid while that lock is
// held. A *writer* is a method that mutates receiver-reachable state and
// therefore needs the write side of the guarding RWMutex.
//
// Two directive comments seed the interprocedural fixed point:
//
//	//ordlint:borrows — <contract>
//	    the function returns (or hands to its callbacks) memory aliasing
//	    lock-scoped storage; callers inherit the lifetime obligation
//	//ordlint:writer — <contract>
//	    the method mutates receiver state and requires the write lock
//
// Like all Go directives (no space after //), they are excluded from
// rendered documentation, so collection reads the raw comment list rather
// than CommentGroup.Text.

// BorrowInfo summarizes one module function for borrowck and lockmode.
type BorrowInfo struct {
	// ReturnsBorrow: calling this function yields borrows — either
	// annotated with //ordlint:borrows or derived because a pointerish
	// return value carries a borrow obtained from an annotated callee.
	ReturnsBorrow bool
	// BorrowAnnotated: the //ordlint:borrows directive is present, i.e.
	// the borrow return is a documented contract rather than a leak.
	BorrowAnnotated bool
	// PassThrough: a return value may alias the receiver or a pointerish
	// parameter, so borrow taint flows through calls to this function
	// (wire.NewORDResponse wrapping result records, for example).
	PassThrough bool
	// PassMask records which sources pass through, in the callee's own
	// frame bits (bitRecv and paramBit(i)). Callers propagate taint only
	// from the matching argument expressions — handing a context to a
	// query kernel must not make its result alias the context.
	PassMask uint64
	// Writer: the method mutates receiver-reachable state — annotated
	// with //ordlint:writer, derived from direct field writes, or derived
	// transitively from calling a writer on a receiver-rooted chain.
	Writer bool
	// WriterVia names the callee that made this a derived writer
	// (empty when annotated or mutating directly).
	WriterVia string
}

// hasDirective reports whether doc carries the raw //ordlint:<name>
// directive, optionally followed by a justification.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//ordlint:"+name)
		if !ok {
			continue
		}
		if text == "" || text[0] == ' ' || text[0] == '\t' {
			return true
		}
	}
	return false
}

// ComputeBorrowFacts runs the module-wide borrow/writer fixed point over
// the call graph. Annotations seed the lattice; derivation only flips
// facts false→true, so iteration is monotone and terminates.
//
// fresh names the owning constructors (Config.FreshFuncs): functions that
// assemble a new object around borrows of its own storage. Borrow facts do
// not derive out of them — FromPoints wiring its chunks into its own tree
// hands the caller an owner, not a borrow.
func ComputeBorrowFacts(g *CallGraph, fresh map[string]bool) map[*FuncNode]*BorrowInfo {
	facts := make(map[*FuncNode]*BorrowInfo, len(g.Nodes))
	for _, n := range g.Nodes {
		bi := &BorrowInfo{}
		if n.Decl != nil {
			bi.BorrowAnnotated = hasDirective(n.Decl.Doc, "borrows")
			bi.ReturnsBorrow = bi.BorrowAnnotated
			bi.Writer = hasDirective(n.Decl.Doc, "writer")
		}
		facts[n] = bi
	}
	// Direct receiver mutation is a per-body property; compute it once.
	for _, n := range g.Nodes {
		if n.Decl == nil || n.Decl.Body == nil || n.Decl.Recv == nil {
			continue
		}
		if recv := recvObject(n); recv != nil && mutatesReceiver(n.Pkg.Info, n.Decl.Body, recv) {
			facts[n].Writer = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Decl == nil || n.Decl.Body == nil {
				continue
			}
			bi := facts[n]
			if !fresh[n.Name] {
				tr := newBorrowTracker(n, g, facts)
				rb, mask := tr.returnFacts()
				if rb && !bi.ReturnsBorrow {
					bi.ReturnsBorrow = true
					changed = true
				}
				if mask&^bi.PassMask != 0 {
					bi.PassMask |= mask
					bi.PassThrough = true
					changed = true
				}
			}
			if !bi.Writer && n.Decl.Recv != nil {
				if via := callsWriterOnReceiver(n, g, facts); via != "" {
					bi.Writer, bi.WriterVia = true, via
					changed = true
				}
			}
		}
	}
	return facts
}

// recvObject resolves the receiver identifier of a method declaration.
func recvObject(n *FuncNode) types.Object {
	recv := n.Decl.Recv
	if recv == nil || len(recv.List) != 1 || len(recv.List[0].Names) != 1 {
		return nil
	}
	return n.Pkg.Info.Defs[recv.List[0].Names[0]]
}

// rootObj unwraps selector/index/slice/deref/address chains to the base
// identifier and resolves its object (nil when the chain is not rooted at
// a plain identifier).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
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
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// mutatesReceiver reports whether body writes through the receiver object:
// assignments or inc/dec through a receiver-rooted chain (plain rebinding
// of the receiver variable itself does not count), and the mutating
// builtins delete/copy on receiver-rooted arguments. Function literals are
// included — a closure writing a captured receiver field still mutates.
func mutatesReceiver(info *types.Info, body *ast.BlockStmt, recv types.Object) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		if found {
			return false
		}
		switch s := nd.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if writesThrough(info, l, recv) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if writesThrough(info, s.X, recv) {
				found = true
			}
		case *ast.CallExpr:
			if b, ok := calleeObject(info, s).(*types.Builtin); ok && len(s.Args) > 0 {
				switch b.Name() {
				case "delete", "copy":
					if rootObj(info, s.Args[0]) == recv {
						found = true
					}
				}
			}
		}
		return true
	})
	return found
}

// writesThrough reports whether l is a store target reaching through recv:
// a selector/index/deref chain rooted at the receiver identifier. A bare
// identifier never qualifies (that rebinds the local, not the object).
func writesThrough(info *types.Info, l ast.Expr, recv types.Object) bool {
	if _, bare := ast.Unparen(l).(*ast.Ident); bare {
		return false
	}
	return rootObj(info, l) == recv
}

// callsWriterOnReceiver reports (by callee name) whether the method body
// calls a writer method on a receiver-rooted chain — c.tree.Insert(...)
// inside a Collection method. Writer status deliberately does not
// propagate through plain argument passing: handing the receiver's tree to
// a query kernel must not make the query a writer.
func callsWriterOnReceiver(n *FuncNode, g *CallGraph, facts map[*FuncNode]*BorrowInfo) string {
	recv := recvObject(n)
	if recv == nil {
		return ""
	}
	info := n.Pkg.Info
	via := ""
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if via != "" {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f, ok := calleeObject(info, call).(*types.Func)
		if !ok {
			return true
		}
		callee := g.NodeOf(f)
		if callee == nil {
			return true
		}
		if bi := facts[callee]; bi != nil && bi.Writer && rootObj(info, sel.X) == recv {
			via = callee.Name
		}
		return true
	})
	return via
}

// Taint bits of the borrow tracker. Bit 0 marks the receiver, bit 1 marks
// borrowed (lock-scoped) storage, bits 2.. mark the flat parameter list;
// parameters past 61 share the last bit.
const (
	bitRecv   uint64 = 1 << 0
	bitBorrow uint64 = 1 << 1
	bitParam0 uint64 = 1 << 2

	maxParamBit = 61
)

func paramBit(i int) uint64 {
	if i > maxParamBit {
		i = maxParamBit
	}
	return bitParam0 << i
}

// borrowTracker is a flow-insensitive may-alias analysis over one function
// body (nested function literals included): each object accumulates the
// taint bits of everything assigned to it, and calls propagate bits
// through the module's ReturnsBorrow/PassThrough summaries. Calls that
// leave the module return no bits — json.Marshal and friends produce
// owned data, which is exactly the "deep copy" borrowck looks for.
type borrowTracker struct {
	n     *FuncNode
	info  *types.Info
	g     *CallGraph
	facts map[*FuncNode]*BorrowInfo
	bits  map[types.Object]uint64
	lits  []*ast.FuncLit
}

func newBorrowTracker(n *FuncNode, g *CallGraph, facts map[*FuncNode]*BorrowInfo) *borrowTracker {
	tr := &borrowTracker{n: n, info: n.Pkg.Info, g: g, facts: facts, bits: map[types.Object]uint64{}}
	body := n.Body()
	if decl := n.Decl; decl != nil {
		if recv := recvObject(n); recv != nil {
			tr.bits[recv] = bitRecv
		}
		i := 0
		if decl.Type.Params != nil {
			for _, field := range decl.Type.Params.List {
				if len(field.Names) == 0 {
					i++ // unnamed parameter still occupies an index
					continue
				}
				for _, name := range field.Names {
					if o := tr.info.Defs[name]; o != nil {
						tr.bits[o] |= paramBit(i)
					}
					i++
				}
			}
		}
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			tr.lits = append(tr.lits, x)
		case *ast.CallExpr:
			tr.seedCallbackParams(x)
		}
		return true
	})
	tr.solve(body)
	return tr
}

// seedCallbackParams handles the iterator-callback pattern: a function
// literal passed to a borrow-returning callee receives borrows through its
// pointerish parameters, so those parameters start borrow-tainted.
func (tr *borrowTracker) seedCallbackParams(call *ast.CallExpr) {
	f, ok := calleeObject(tr.info, call).(*types.Func)
	if !ok {
		return
	}
	callee := tr.g.NodeOf(f)
	if callee == nil {
		return
	}
	if bi := tr.facts[callee]; bi == nil || !bi.BorrowAnnotated {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok || lit.Type.Params == nil {
			continue
		}
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if o := tr.info.Defs[name]; o != nil && pointerish(o.Type()) {
					tr.bits[o] |= bitBorrow
				}
			}
		}
	}
}

// solve iterates assignment transfer to a fixed point. Eight rounds bound
// chains through locals; real bodies converge in two or three.
func (tr *borrowTracker) solve(body *ast.BlockStmt) {
	for range 8 {
		changed := false
		ast.Inspect(body, func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.AssignStmt:
				if tr.transfer(s.Lhs, s.Rhs) {
					changed = true
				}
			case *ast.ValueSpec:
				if len(s.Values) > 0 {
					lhs := make([]ast.Expr, len(s.Names))
					for i, id := range s.Names {
						lhs[i] = id
					}
					if tr.transfer(lhs, s.Values) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if s.Value != nil {
					if b := tr.exprBits(s.X); b != 0 {
						if id, ok := s.Value.(*ast.Ident); ok && tr.merge(tr.objOf(id), b) {
							changed = true
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

func (tr *borrowTracker) transfer(lhs, rhs []ast.Expr) bool {
	changed := false
	assign := func(l ast.Expr, b uint64) {
		if b == 0 {
			return
		}
		// A store through a chain (res.rows = p) taints the chain's root:
		// the root now reaches the tainted memory.
		if obj := tr.targetObj(l); obj != nil && tr.merge(obj, b) {
			changed = true
		}
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			assign(lhs[i], tr.exprBits(rhs[i]))
		}
		return changed
	}
	if len(rhs) == 1 {
		// Multi-value form: p, ok := c.Get(id). All pointerish targets
		// inherit the call's bits.
		b := tr.exprBits(rhs[0])
		for _, l := range lhs {
			assign(l, b)
		}
	}
	return changed
}

func (tr *borrowTracker) targetObj(l ast.Expr) types.Object {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok {
		return tr.objOf(id)
	}
	return rootObj(tr.info, l)
}

func (tr *borrowTracker) merge(obj types.Object, b uint64) bool {
	if obj == nil || obj.Type() == nil || !pointerish(obj.Type()) {
		return false
	}
	if old := tr.bits[obj]; old|b != old {
		tr.bits[obj] = old | b
		return true
	}
	return false
}

func (tr *borrowTracker) objOf(id *ast.Ident) types.Object {
	if o := tr.info.Uses[id]; o != nil {
		return o
	}
	return tr.info.Defs[id]
}

// exprBits evaluates the taint bits an expression may carry.
func (tr *borrowTracker) exprBits(e ast.Expr) uint64 {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := tr.objOf(x); o != nil {
			return tr.bits[o]
		}
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := tr.objOf(id).(*types.PkgName); isPkg {
				return 0
			}
		}
		return tr.exprBits(x.X)
	case *ast.IndexExpr:
		return tr.exprBits(x.X)
	case *ast.SliceExpr:
		return tr.exprBits(x.X)
	case *ast.StarExpr:
		return tr.exprBits(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return tr.exprBits(x.X)
		}
	case *ast.TypeAssertExpr:
		return tr.exprBits(x.X)
	case *ast.CompositeLit:
		var b uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			b |= tr.exprBits(el)
		}
		return b
	case *ast.CallExpr:
		return tr.callBits(x)
	}
	return 0
}

func (tr *borrowTracker) callBits(call *ast.CallExpr) uint64 {
	if tv, ok := tr.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: geom.Vector(row) aliases its operand.
		if len(call.Args) == 1 {
			return tr.exprBits(call.Args[0])
		}
		return 0
	}
	switch o := calleeObject(tr.info, call).(type) {
	case *types.Builtin:
		if o.Name() != "append" || len(call.Args) == 0 {
			return 0
		}
		b := tr.exprBits(call.Args[0])
		for _, arg := range call.Args[1:] {
			t := typeOf(tr.info, arg)
			if t == nil {
				continue
			}
			if call.Ellipsis.IsValid() {
				// append(dst, src...) copies elements; aliasing survives
				// only when the elements themselves are pointerish.
				if st, ok := t.Underlying().(*types.Slice); ok && pointerish(st.Elem()) {
					b |= tr.exprBits(arg)
				}
				continue
			}
			// A pointerish element keeps aliasing its source inside dst;
			// value elements (float64 coordinates) are copied.
			if pointerish(t) {
				b |= tr.exprBits(arg)
			}
		}
		return b
	case *types.Func:
		callee := tr.g.NodeOf(o)
		if callee == nil {
			return 0 // extern call: result is owned, taint dies here
		}
		bi := tr.facts[callee]
		if bi == nil {
			return 0
		}
		if bi.ReturnsBorrow {
			// The result is a borrow: the lifetime obligation subsumes
			// provenance, so receiver/parameter bits do not tag along —
			// otherwise every local aggregate of query results would look
			// receiver-reachable and the local-aggregate store exemption
			// could never apply.
			return bitBorrow
		}
		var b uint64
		if bi.PassMask&bitRecv != 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				b |= tr.exprBits(sel.X)
			}
		}
		if bi.PassMask&^(bitRecv|bitBorrow) != 0 {
			// Callee parameter indices line up with argument positions;
			// variadic surplus arguments share the last (clamped) bit.
			for i, a := range call.Args {
				if bi.PassMask&paramBit(i) == 0 {
					continue
				}
				if t := typeOf(tr.info, a); t != nil && pointerish(t) {
					b |= tr.exprBits(a)
				}
			}
		}
		return b
	}
	return 0
}

// inLit reports whether the node lies inside a nested function literal.
func (tr *borrowTracker) inLit(nd ast.Node) bool {
	for _, lit := range tr.lits {
		if lit.Body != nil && nd.Pos() >= lit.Body.Pos() && nd.End() <= lit.Body.End() {
			return true
		}
	}
	return false
}

// returnFacts inspects the top-level returns (literals excluded): does
// any pointerish result carry borrow taint, and which receiver/parameter
// bits reach a result (the pass-through mask)?
func (tr *borrowTracker) returnFacts() (returnsBorrow bool, passMask uint64) {
	decl := tr.n.Decl
	if decl == nil || decl.Body == nil {
		return false, 0
	}
	check := func(t types.Type, b uint64) {
		if t == nil || !pointerish(t) {
			return
		}
		if b&bitBorrow != 0 {
			returnsBorrow = true
		}
		passMask |= b &^ bitBorrow
	}
	ast.Inspect(decl.Body, func(nd ast.Node) bool {
		ret, ok := nd.(*ast.ReturnStmt)
		if !ok || tr.inLit(ret) {
			return true
		}
		if len(ret.Results) == 0 && decl.Type.Results != nil {
			// Naked return: the named result variables are the values.
			for _, field := range decl.Type.Results.List {
				for _, name := range field.Names {
					if o := tr.info.Defs[name]; o != nil {
						check(o.Type(), tr.bits[o])
					}
				}
			}
			return true
		}
		for _, res := range ret.Results {
			check(typeOf(tr.info, res), tr.exprBits(res))
		}
		return true
	})
	return returnsBorrow, passMask
}

// funcQName renders a resolved function object the way qualifiedName
// renders declarations: pkgpath.Func, or pkgpath.Recv.Method for methods.
func funcQName(f *types.Func) string {
	if f.Pkg() == nil {
		return f.Name()
	}
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return f.Pkg().Path() + "." + name
}
