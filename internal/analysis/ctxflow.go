package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// NewCtxflow builds the ctxflow analyzer, machine-checking the cooperative
// cancellation contract of the query server along the actual call chain.
// A loop is checked when it is *potentially unbounded* — a `for` or
// `range` loop that advances a progressive scan (one of the configured
// scan calls), or an unconditioned `for`/`for i := 0; ; i++` — AND its
// enclosing function is reachable from an entry point (the query server's
// handlers, or the facade's Ctx methods). Such a loop must be cancellable:
// poll ctx.Err()/ctx.Done() directly, or forward a context to a callee
// whose summary proves it polls (transitively). Forwarding ctx to a callee
// that drops it on the floor is a finding, and so is a poll made only
// inside a nested closure, which runs on its own schedule.
//
// Reachability follows every edge kind (a handler's closure or a spawned
// goroutine still runs on behalf of a request); the discovery chain is
// printed so the report explains *why* the loop is entry-reachable.
func NewCtxflow(entryPackages, entryFuncs, scanCalls map[string]bool) *Analyzer {
	a := &Analyzer{
		Name:  "ctxflow",
		Doc:   "potentially-unbounded loops reachable from server handlers or facade entry points must be cancellable through the actual call chain",
		Layer: "interproc",
	}
	// The reachability front is a property of the whole analyzed set;
	// cache it per Facts (Suite.Run is sequential over packages).
	var cachedFacts *Facts
	var reach map[*FuncNode]*CallEdge
	a.Run = func(pass *Pass) {
		if len(entryPackages) == 0 && len(entryFuncs) == 0 {
			return
		}
		g, sums := pass.Facts.Graph, pass.Facts.Summaries
		if g == nil || sums == nil {
			return
		}
		if pass.Facts != cachedFacts {
			cachedFacts = pass.Facts
			reach = g.ReachableFrom(func(n *FuncNode) bool {
				return entryPackages[n.Pkg.Path] || entryFuncs[n.Name]
			})
		}
		for _, n := range g.Nodes {
			if n.Pkg.Path != pass.PkgPath {
				continue
			}
			if _, ok := reach[n]; !ok {
				continue
			}
			checkCtxflowFunc(pass, n, reach, sums, scanCalls)
		}
	}
	return a
}

// checkCtxflowFunc inspects every loop in one reachable function.
func checkCtxflowFunc(pass *Pass, n *FuncNode, reach map[*FuncNode]*CallEdge,
	sums map[*FuncNode]*Summary, scanCalls map[string]bool) {

	info := pass.TypesInfo
	// Call edges by site position, to resolve whether a ctx-forwarding call
	// in the loop body lands on a transitively-polling callee.
	edgeAt := make(map[token.Pos][]*CallEdge)
	for _, e := range n.Out {
		if e.Kind != EdgeRef {
			edgeAt[e.Pos] = append(edgeAt[e.Pos], e)
		}
	}

	inspectShallow(n.Body(), func(m ast.Node) bool {
		var body *ast.BlockStmt
		unconditioned := false
		switch loop := m.(type) {
		case *ast.ForStmt:
			body = loop.Body
			unconditioned = loop.Cond == nil
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		scan := ""
		polled := false
		forwarded := false
		deadEnds := ""
		inspectShallow(body, func(b ast.Node) bool {
			call, ok := b.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if scanCalls[name] && scan == "" {
					scan = exprString(sel)
				}
				if name == "Err" || name == "Done" {
					if t := typeOf(info, sel.X); t != nil && isContextType(t) {
						polled = true
					}
				}
			}
			hasCtx := false
			for _, arg := range call.Args {
				if t := typeOf(info, arg); t != nil && isContextType(t) {
					hasCtx = true
				}
			}
			if !hasCtx || polled {
				return true
			}
			forwarded = true
			// Where does the forwarded ctx go? Module callees must prove
			// (via their summary) that the context is eventually polled;
			// stdlib and unresolved callees get the benefit of the doubt.
			if edges, ok := edgeAt[call.Pos()]; ok {
				for _, e := range edges {
					if sums[e.Callee].PollsCtx {
						polled = true
					} else if deadEnds == "" {
						deadEnds = shortName(e.Callee.Name)
					}
				}
			} else {
				polled = true
			}
			return true
		})
		if polled || (scan == "" && !unconditioned) {
			return true
		}
		what := "runs without a bound (unconditioned for-loop)"
		if scan != "" {
			what = fmt.Sprintf("advances a scan via %s", scan)
		}
		why := "no context reaches the loop; thread ctx through this chain and poll it"
		if forwarded && deadEnds != "" {
			why = fmt.Sprintf("ctx is forwarded only to %s, which never polls it on any path", deadEnds)
		} else if hasCtxParam(n) {
			why = "ctx is in scope but the loop never polls it"
		}
		pass.Report(m.Pos(), "loop %s and is reachable from an entry point (%s) but cannot be cancelled: %s",
			what, Chain(reach, n), why)
		return true
	})
}

// hasCtxParam reports whether the function takes a context.Context.
func hasCtxParam(n *FuncNode) bool {
	if n.Sig == nil {
		return false
	}
	for i := 0; i < n.Sig.Params().Len(); i++ {
		if isContextType(n.Sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// exprString renders a selector chain like "sc.Next" for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprString(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
		return e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	}
	return "…"
}
