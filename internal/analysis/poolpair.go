package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ordu/internal/analysis/cfg"
)

// PoolPair names one Get/Put pair by qualified name
// ("pkgpath.Recv.Method"), e.g. the explorer node pool or the hull facet
// free list.
type PoolPair struct {
	Get string
	Put string
}

// NewPoolpair builds the poolpair analyzer: within one function, every
// value obtained from a configured pool Get must on every control-flow
// path either be handed back with the matching Put, or escape (returned,
// stored, passed on) to a new owner. Double-Puts and uses after a Put are
// flagged too. The analysis is a forward may-analysis over the cfg package
// graphs, so early returns, loops, and panics are all accounted for.
func NewPoolpair(pairs []PoolPair) *Analyzer {
	a := &Analyzer{
		Name:  "poolpair",
		Doc:   "every pool/free-list Get needs a Put on all paths; no double-Put; no use after Put",
		Layer: "cfg",
	}
	a.Run = func(pass *Pass) {
		if len(pairs) == 0 {
			return
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkPoolPairs(pass, pairs, fn)
			}
		}
	}
	return a
}

// poolState is a may-set of lifecycle facts about one pooled variable.
type poolState uint8

const (
	mayLive poolState = 1 << iota // holds a pool object not yet put back
	mayDead                       // was put back
	mayEsc                        // handed off to a new owner
)

// poolEvent is one lifecycle-relevant occurrence of a tracked variable.
type poolEvent struct {
	pos  token.Pos
	kind int // evGen, evPut, evEsc, evUse
}

const (
	evGen = iota
	evPut
	evEsc
	evUse
)

func checkPoolPairs(pass *Pass, pairs []PoolPair, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	getNames := make(map[string]bool, len(pairs))
	putNames := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		getNames[p.Get] = true
		putNames[p.Put] = true
	}
	callee := func(call *ast.CallExpr) string {
		obj := calleeObject(info, call)
		f, ok := obj.(*types.Func)
		if !ok {
			return ""
		}
		return qualifiedFuncName(f)
	}

	// Pass 1: find the tracked variables — simple locals assigned directly
	// from a Get call — and the position of their gen site.
	tracked := make(map[types.Object]token.Pos)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !getNames[callee(call)] {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			if !ok {
				pass.Report(as.Pos(), "pool Get result stored into a non-local; the Put obligation cannot be tracked — assign to a local first")
			} else {
				pass.Report(as.Pos(), "pool Get result discarded; the object leaks from the pool")
			}
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			tracked[obj] = call.Pos()
		}
		return true
	})
	// A bare `ws.node()` expression statement leaks immediately.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && getNames[callee(call)] {
			pass.Report(call.Pos(), "pool Get result discarded; the object leaks from the pool")
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	g := cfg.New(fn.Body)
	for obj, genPos := range tracked {
		runPoolDataflow(pass, g, info, obj, genPos, callee, getNames, putNames)
	}
}

// eventsIn extracts the lifecycle events for obj from one CFG node, in
// source order.
func eventsIn(n ast.Node, info *types.Info, obj types.Object,
	callee func(*ast.CallExpr) string, getNames, putNames map[string]bool) []poolEvent {
	var evs []poolEvent
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		o := info.Uses[id]
		if o == nil {
			o = info.Defs[id]
		}
		return o == obj
	}
	var visit func(n ast.Node, escCtx bool)
	visit = func(n ast.Node, escCtx bool) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.RangeStmt:
			// The cfg range header carries the range clause without its
			// body; of the clause, only the ranged expression is read (key
			// and value are stores).
			visit(x.X, false)
			return
		case *ast.FuncLit:
			// A closure mentioning the object captures it: escape.
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok && isObj(e) {
					evs = append(evs, poolEvent{m.Pos(), evEsc})
				}
				return true
			})
			return
		case *ast.AssignStmt:
			// RHS first (evaluation order), then the store targets.
			gen := len(x.Lhs) == 1 && len(x.Rhs) == 1 && isObj(x.Lhs[0])
			for _, r := range x.Rhs {
				if gen {
					if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && getNames[callee(call)] {
						// x = pool.Get(): rebinding; RHS args first.
						for _, a := range call.Args {
							visit(a, true)
						}
						evs = append(evs, poolEvent{call.Pos(), evGen})
						continue
					}
				}
				// A bare rhs handing the object to a named location is an
				// escape (y := x; n.next = x; s[i] = x).
				if isObj(r) {
					evs = append(evs, poolEvent{r.Pos(), evEsc})
					continue
				}
				visit(r, false)
			}
			for _, l := range x.Lhs {
				if isObj(l) {
					continue // rebinding handled above; plain `x = nil` drops the ref
				}
				visit(l, false)
			}
			return
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if isObj(r) {
					evs = append(evs, poolEvent{r.Pos(), evEsc})
				} else {
					visit(r, true)
				}
			}
			return
		case *ast.SendStmt:
			visit(x.Chan, false)
			if isObj(x.Value) {
				evs = append(evs, poolEvent{x.Value.Pos(), evEsc})
			} else {
				visit(x.Value, true)
			}
			return
		case *ast.CallExpr:
			name := callee(x)
			if putNames[name] {
				put := false
				for _, a := range x.Args {
					if isObj(a) {
						evs = append(evs, poolEvent{a.Pos(), evPut})
						put = true
					} else {
						visit(a, false)
					}
				}
				if put {
					visit(x.Fun, false)
					return
				}
			}
			visit(x.Fun, false)
			for _, a := range x.Args {
				if isObj(a) {
					// Handed to some other call: new owner.
					evs = append(evs, poolEvent{a.Pos(), evEsc})
				} else {
					visit(a, false)
				}
			}
			return
		case *ast.UnaryExpr:
			if x.Op == token.AND && isObj(x.X) {
				evs = append(evs, poolEvent{x.Pos(), evEsc})
				return
			}
		case *ast.SelectorExpr:
			// Reading (or writing) a field copies the field, not the
			// object: a use of the base, wherever it appears.
			visit(x.X, false)
			return
		case *ast.IndexExpr:
			visit(x.X, false)
			visit(x.Index, false)
			return
		case *ast.StarExpr:
			visit(x.X, false)
			return
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isObj(v) {
					evs = append(evs, poolEvent{v.Pos(), evEsc})
				} else {
					visit(v, false)
				}
			}
			return
		case ast.Expr:
			if isObj(x) {
				kind := evUse
				if escCtx {
					kind = evEsc
				}
				evs = append(evs, poolEvent{x.Pos(), kind})
				return
			}
		}
		// Generic descent for anything unhandled.
		var children []ast.Node
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m == n {
				return true
			}
			children = append(children, m)
			return false
		})
		for _, c := range children {
			visit(c, escCtx)
		}
	}
	visit(n, false)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

func runPoolDataflow(pass *Pass, g *cfg.Graph, info *types.Info, obj types.Object,
	genPos token.Pos, callee func(*ast.CallExpr) string, getNames, putNames map[string]bool) {

	blockEvents := make([][]poolEvent, len(g.Blocks))
	for i, b := range g.Blocks {
		for _, n := range b.Nodes {
			blockEvents[i] = append(blockEvents[i], eventsIn(n, info, obj, callee, getNames, putNames)...)
		}
	}

	transfer := func(in poolState, evs []poolEvent, report func(pos token.Pos, kind int)) poolState {
		s := in
		for _, ev := range evs {
			switch ev.kind {
			case evGen:
				if s&mayLive != 0 && report != nil {
					report(ev.pos, evGen) // re-Get over a live object: previous one leaks
				}
				s = mayLive
			case evPut:
				if s&mayDead != 0 && report != nil {
					report(ev.pos, evPut)
				}
				s = (s &^ mayLive) | mayDead
			case evEsc:
				s = (s &^ mayLive) | mayEsc
			case evUse:
				if s&mayDead != 0 && s&mayEsc == 0 && report != nil {
					report(ev.pos, evUse)
				}
			}
		}
		return s
	}

	// Fixed point, then one reporting pass over the stable states.
	in := make([]poolState, len(g.Blocks))
	out := make([]poolState, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for i, b := range g.Blocks {
			var s poolState
			if b == g.Entry {
				s = 0
			}
			for _, p := range g.Blocks {
				for _, succ := range p.Succs {
					if succ == b {
						s |= out[p.Index]
					}
				}
			}
			in[i] = s
			ns := transfer(s, blockEvents[i], nil)
			if ns != out[i] {
				out[i] = ns
				changed = true
			}
		}
	}

	seen := map[token.Pos]bool{}
	for i, b := range g.Blocks {
		transfer(in[i], blockEvents[i], func(pos token.Pos, kind int) {
			if seen[pos] {
				return
			}
			seen[pos] = true
			switch kind {
			case evGen:
				pass.Report(pos, "pool Get overwrites %s while it may still hold a live pool object; Put it back first", obj.Name())
			case evPut:
				pass.Report(pos, "%s may already have been returned to the pool on this path (double Put)", obj.Name())
			case evUse:
				pass.Report(pos, "%s is used after being returned to the pool", obj.Name())
			}
		})
		_ = b
	}
	if in[g.Exit.Index]&mayLive != 0 {
		pass.Report(genPos, "pool Get of %s lacks a matching Put on some path to return; every path must Put or hand the object off", obj.Name())
	}
}

// qualifiedFuncName renders a *types.Func as pkgpath.Func or
// pkgpath.Recv.Method, matching PoolPair keys and FloatcmpApproved keys.
func qualifiedFuncName(f *types.Func) string {
	if f.Pkg() == nil {
		return f.Name()
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, okp := t.Underlying().(*types.Pointer); okp {
			t = p.Elem()
		}
		if named, okn := t.(*types.Named); okn {
			return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
		}
	}
	return f.Pkg().Path() + "." + f.Name()
}
