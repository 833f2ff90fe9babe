package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes the writer facts behind lockmode: a *writer* is a
// method that mutates receiver-reachable state and therefore needs the
// write side of the guarding RWMutex.
//
// The //ordlint:writer — <contract> directive seeds the interprocedural
// fixed point: the method mutates receiver state and requires the write
// lock. Like all Go directives (no space after //), it is excluded from
// rendered documentation, so collection reads the raw comment list rather
// than CommentGroup.Text.

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

// ComputeWriters runs the module-wide writer fixed point over the call
// graph and returns the writers: methods annotated with //ordlint:writer,
// methods that write through their receiver directly, and methods that
// call a writer on a receiver-rooted chain. Derivation only adds writers,
// so iteration is monotone and terminates.
func ComputeWriters(g *CallGraph) map[*FuncNode]bool {
	writers := make(map[*FuncNode]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		if hasDirective(n.Decl.Doc, "writer") {
			writers[n] = true
		} else if recv := recvObject(n); recv != nil && n.Decl.Body != nil && mutatesReceiver(n.Pkg.Info, n.Decl.Body, recv) {
			writers[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if writers[n] || n.Decl == nil || n.Decl.Body == nil || n.Decl.Recv == nil {
				continue
			}
			if callsWriterOnReceiver(n, g, writers) {
				writers[n] = true
				changed = true
			}
		}
	}
	return writers
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

// callsWriterOnReceiver reports whether the method body calls a writer
// method on a receiver-rooted chain — c.tree.Insert(...) inside a
// Collection method. Writer status deliberately does not propagate through
// plain argument passing: handing the receiver's tree to a query kernel
// must not make the query a writer.
func callsWriterOnReceiver(n *FuncNode, g *CallGraph, writers map[*FuncNode]bool) bool {
	recv := recvObject(n)
	if recv == nil {
		return false
	}
	info := n.Pkg.Info
	found := false
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if found {
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
		if callee := g.NodeOf(f); callee != nil && writers[callee] && rootObj(info, sel.X) == recv {
			found = true
		}
		return true
	})
	return found
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
