package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"ordu/internal/analysis/cfg"
)

// NewBorrowck builds the borrowck analyzer. A borrow — a value aliasing
// lock-scoped packed storage, produced by an //ordlint:borrows function —
// is only valid inside the lock region that covers the producing call.
// borrowck flags every way a borrow can outlive that region:
//
//   - returned from a function that does not itself declare
//     //ordlint:borrows (the contract must propagate, not leak)
//   - stored to a package variable or through a receiver/parameter,
//     i.e. to memory that survives the call frame
//   - sent on a channel or handed to a spawned goroutine
//   - passed to a configured sink (the server's result cache)
//   - used after the region's mutex was released on every path
//
// Calls that leave the module launder taint deliberately: json.Marshal,
// Clone and friends produce owned bytes, which is exactly the deep copy
// the contract asks for. Owning constructors (fresh, Config.FreshFuncs)
// are exempt from the return and store rules: wiring borrows of an
// object's own storage into that object is ownership, not escape.
func NewBorrowck(sinks map[string]string, fresh map[string]bool) *Analyzer {
	a := &Analyzer{
		Name:  "borrowck",
		Doc:   "borrows of lock-scoped storage (//ordlint:borrows) must not outlive the lock region: no undeclared returns, outliving stores, channel sends, goroutine captures, sink calls, or uses after unlock",
		Layer: "interproc",
	}
	a.Run = func(pass *Pass) {
		g, facts := pass.Facts.Graph, pass.Facts.Borrows
		if g == nil || facts == nil {
			return
		}
		for _, n := range g.Nodes {
			// Declared functions only: the tracker and the walks below
			// cover nested literals inside each declaration.
			if n.Pkg.Path != pass.PkgPath || n.Decl == nil || n.Decl.Body == nil {
				continue
			}
			checkBorrowck(pass, n, g, facts, sinks, fresh[n.Name])
		}
	}
	return a
}

func checkBorrowck(pass *Pass, n *FuncNode, g *CallGraph, facts map[*FuncNode]*BorrowInfo, sinks map[string]string, isFresh bool) {
	tr := newBorrowTracker(n, g, facts)
	info := pass.TypesInfo
	bi := facts[n]
	name := shortName(n.Name)

	borrowed := func(e ast.Expr) bool {
		t := typeOf(info, e)
		return t != nil && pointerish(t) && tr.exprBits(e)&bitBorrow != 0
	}

	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.ReturnStmt:
			if bi.BorrowAnnotated || isFresh || tr.inLit(x) {
				return true
			}
			if len(x.Results) == 0 && n.Decl.Type.Results != nil {
				for _, field := range n.Decl.Type.Results.List {
					for _, resName := range field.Names {
						if o := info.Defs[resName]; o != nil && pointerish(o.Type()) && tr.bits[o]&bitBorrow != 0 {
							pass.Report(x.Pos(), "%s returns borrow %s of lock-scoped storage; copy it or declare the contract with //ordlint:borrows", name, resName.Name)
						}
					}
				}
				return true
			}
			for _, res := range x.Results {
				if borrowed(res) {
					pass.Report(res.Pos(), "%s returns a borrow of lock-scoped storage; copy it or declare the contract with //ordlint:borrows", name)
				}
			}
		case *ast.SendStmt:
			if borrowed(x.Value) {
				pass.Report(x.Value.Pos(), "borrow sent on a channel escapes its lock region; send a copy")
			}
		case *ast.GoStmt:
			checkGoBorrow(pass, tr, info, x)
		case *ast.AssignStmt:
			if !isFresh {
				checkBorrowStores(pass, tr, info, x, borrowed)
			}
		case *ast.CallExpr:
			if f, ok := calleeObject(info, x).(*types.Func); ok {
				if reason, isSink := sinks[funcQName(f)]; isSink {
					for _, arg := range x.Args {
						if borrowed(arg) {
							pass.Report(arg.Pos(), "borrow passed to %s, which retains its arguments (%s); deep-copy first", f.Name(), reason)
						}
					}
				}
			}
		}
		return true
	})
	checkBorrowStale(pass, tr, n)
}

// checkGoBorrow flags borrows crossing into a spawned goroutine, either as
// call arguments or captured by the goroutine's function literal.
func checkGoBorrow(pass *Pass, tr *borrowTracker, info *types.Info, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if t := typeOf(info, arg); t != nil && pointerish(t) && tr.exprBits(arg)&bitBorrow != 0 {
			pass.Report(arg.Pos(), "borrow passed to a goroutine outlives the lock region; copy it before spawning")
		}
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		o := info.Uses[id]
		if o == nil || reported[o] || o.Pos() >= lit.Pos() {
			return true
		}
		if pointerish(o.Type()) && tr.bits[o]&bitBorrow != 0 {
			reported[o] = true
			pass.Report(id.Pos(), "goroutine captures borrow %s, which outlives the lock region; copy it before spawning", id.Name)
		}
		return true
	})
}

// checkBorrowStores flags assignments that move a borrow into memory
// outliving the current frame: package variables, or chains reaching
// through the receiver or a parameter. Stores into borrow memory itself
// stay inside the lock region and are fine.
func checkBorrowStores(pass *Pass, tr *borrowTracker, info *types.Info, s *ast.AssignStmt, borrowed func(ast.Expr) bool) {
	flag := func(l, r ast.Expr) {
		if !borrowed(r) {
			return
		}
		if what, bad := outlivingTarget(tr, info, l); bad {
			pass.Report(l.Pos(), "borrow stored to %s outlives the lock region; store a copy", what)
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			flag(s.Lhs[i], s.Rhs[i])
		}
		return
	}
	if len(s.Rhs) == 1 {
		for _, l := range s.Lhs {
			flag(l, s.Rhs[0])
		}
	}
}

// outlivingTarget classifies a store target that survives the call frame.
func outlivingTarget(tr *borrowTracker, info *types.Info, l ast.Expr) (string, bool) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok {
		if v, ok := tr.objOf(id).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "package variable " + v.Name(), true
		}
		return "", false
	}
	root := rootObj(info, l)
	v, ok := root.(*types.Var)
	if !ok {
		return "", false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return "package variable " + v.Name(), true
	}
	if tr.bits[root]&^bitBorrow != 0 { // receiver- or parameter-reachable
		return "memory reachable from " + v.Name(), true
	}
	// Remaining tainted roots are local borrow aggregates; storing a borrow
	// next to another borrow stays inside the lock region (the escape, if
	// any, is reported where the aggregate itself escapes).
	return "", false
}

// checkBorrowStale reports borrows used after their lock region ended: a
// local defined while classes C were (may-)held, then used at a point
// where some class of C is held on no path. The may-held analysis is the
// union fixed point lockmode also runs; requiring the class to be absent
// from the may-set keeps branches honest (released on SOME path is not a
// finding).
func checkBorrowStale(pass *Pass, tr *borrowTracker, n *FuncNode) {
	info := pass.TypesInfo
	const (
		sAcquire = iota
		sRelease
		sDef
		sUse
	)
	type sev struct {
		kind  int
		class string
		obj   types.Object
		pos   token.Pos
	}
	graph := cfg.New(n.Decl.Body)
	events := make([][]sev, len(graph.Blocks))
	haveLocks := false
	for _, b := range graph.Blocks {
		for _, node := range b.Nodes {
			if _, isDefer := node.(*ast.DeferStmt); isDefer {
				// Deferred unlocks run at exit: the lock covers the rest of
				// the body, so they release nothing mid-function.
				continue
			}
			inspectShallow(node, func(m ast.Node) bool {
				switch x := m.(type) {
				case *ast.CallExpr:
					if method, class, ok := syncMutexCall(info, x); ok {
						kind := sAcquire
						if method == "Unlock" || method == "RUnlock" {
							kind = sRelease
						}
						haveLocks = true
						events[b.Index] = append(events[b.Index], sev{kind: kind, class: class, pos: x.Pos()})
					}
				case *ast.Ident:
					if o := info.Defs[x]; o != nil && pointerish(o.Type()) && tr.bits[o]&bitBorrow != 0 {
						events[b.Index] = append(events[b.Index], sev{kind: sDef, obj: o, pos: x.Pos()})
					} else if o := info.Uses[x]; o != nil && tr.bits[o]&bitBorrow != 0 {
						events[b.Index] = append(events[b.Index], sev{kind: sUse, obj: o, pos: x.Pos()})
					}
				}
				return true
			})
		}
	}
	if !haveLocks {
		return
	}

	// May-held fixed point (union meet), locks only.
	entry := make([]map[string]bool, len(graph.Blocks))
	for i := range entry {
		entry[i] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range graph.Blocks {
			held := map[string]bool{}
			for c := range entry[b.Index] {
				held[c] = true
			}
			for _, ev := range events[b.Index] {
				switch ev.kind {
				case sAcquire:
					held[ev.class] = true
				case sRelease:
					delete(held, ev.class)
				}
			}
			for _, succ := range b.Succs {
				for c := range held {
					if !entry[succ.Index][c] {
						entry[succ.Index][c] = true
						changed = true
					}
				}
			}
		}
	}

	// Replay in block order: record the held set at each borrow's first
	// definition, then flag uses where a defining class is gone.
	defHeld := map[types.Object]map[string]bool{}
	reported := map[types.Object]bool{}
	for _, b := range graph.Blocks {
		held := map[string]bool{}
		for c := range entry[b.Index] {
			held[c] = true
		}
		for _, ev := range events[b.Index] {
			switch ev.kind {
			case sAcquire:
				held[ev.class] = true
			case sRelease:
				delete(held, ev.class)
			case sDef:
				if _, seen := defHeld[ev.obj]; !seen && len(held) > 0 {
					snap := make(map[string]bool, len(held))
					for c := range held {
						snap[c] = true
					}
					defHeld[ev.obj] = snap
				}
			case sUse:
				if reported[ev.obj] {
					continue
				}
				for c := range defHeld[ev.obj] {
					if !held[c] {
						reported[ev.obj] = true
						pass.Report(ev.pos, "borrow %s is used after %s was released; copy it under the lock or move the use before the unlock", ev.obj.Name(), c)
						break
					}
				}
			}
		}
	}
}
