package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file computes per-function summaries over the call graph to a fixed
// point: does a function (possibly transitively) allocate, poll a context,
// block, or panic without recovering, and which mutexes does it lock
// directly. The interprocedural checks consume the bits; cmd/ordlint -stats
// dumps the totals.
//
// Propagation rules, per edge kind:
//
//   - call/defer/iface/dynamic edges propagate MayBlock, MayPanic (unless
//     the caller recovers) and Allocates;
//   - PollsCtx propagates only through edges that actually pass a
//     context.Context argument — polling a context the caller never handed
//     over cancels nothing;
//   - go edges propagate Allocates only: the spawned goroutine blocks,
//     polls and panics on its own schedule;
//   - ref edges propagate nothing (taking a value runs no code).

// SummarySite is one position that justifies a summary bit.
type SummarySite struct {
	Pos  token.Pos
	What string
}

// LockOp is one mode-tagged mutex operation: the receiver chain's lock
// class plus whether it is the write side (Lock/Unlock) or the shared read
// side (RLock/RUnlock), the distinction lockmode's mode checks consume.
type LockOp struct {
	Class string
	W     bool
}

// String renders the op for diagnostics ("nd.mu[R]", "s.mu[W]").
func (op LockOp) String() string {
	if op.W {
		return op.Class + "[W]"
	}
	return op.Class + "[R]"
}

// Summary captures what one function does, directly and transitively.
type Summary struct {
	// Direct facts, from a shallow walk of the function's own body
	// (nested literals are separate nodes).
	AllocSites []SummarySite // allocations outside growth guards and noalloc allows
	BlockSites []SummarySite // channel ops, selects without default, blocking stdlib calls
	PollSites  []SummarySite // ctx.Err()/ctx.Done() uses, ctx-forwarding stdlib calls
	PanicSites []SummarySite // panic() calls
	Recovers   bool          // a defer in this function recovers
	Acquires   []LockOp      // mutex ops locked directly, mode-tagged
	Releases   []LockOp      // mutex ops unlocked directly, mode-tagged

	// Transitive closure bits.
	Allocates bool
	MayBlock  bool
	PollsCtx  bool
	MayPanic  bool

	// BlockVia records the callee that first set MayBlock beyond the
	// direct sites, for diagnostics ("" when direct).
	BlockVia string
}

// ComputeSummaries runs the direct extraction over every graph node and
// iterates the propagation rules to a fixed point.
func ComputeSummaries(g *CallGraph, pkgs []*Package) map[*FuncNode]*Summary {
	allows := make(map[*Package]allowSet)
	for _, pkg := range pkgs {
		allows[pkg] = collectAllows(pkg)
	}
	sums := make(map[*FuncNode]*Summary, len(g.Nodes))
	for _, n := range g.Nodes {
		sums[n] = directSummary(n, allows[n.Pkg])
	}
	// Fixed point: the bits only ever flip false→true, so iteration
	// terminates in at most O(nodes) rounds.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			s := sums[n]
			for _, e := range n.Out {
				c := sums[e.Callee]
				switch e.Kind {
				case EdgeRef:
					continue
				case EdgeGo:
					if c.Allocates && !s.Allocates {
						s.Allocates, changed = true, true
					}
					continue
				}
				if c.Allocates && !s.Allocates {
					s.Allocates, changed = true, true
				}
				if c.MayBlock && !s.MayBlock {
					s.MayBlock, s.BlockVia, changed = true, e.Callee.Name, true
				}
				if c.MayPanic && !s.Recovers && !s.MayPanic {
					s.MayPanic, changed = true, true
				}
				if c.PollsCtx && e.CtxArg && !s.PollsCtx {
					s.PollsCtx, changed = true, true
				}
			}
		}
	}
	return sums
}

// directSummary extracts the facts visible in n's own body.
func directSummary(n *FuncNode, allow allowSet) *Summary {
	s := &Summary{}
	body := n.Body()
	if body == nil || n.Pkg.Info == nil {
		return s
	}
	info := n.Pkg.Info
	fset := n.Pkg.Fset
	// A site under a growth guard is warm-up, and a site suppressed for
	// noalloc carries a documented contract; summaries treat both as
	// non-allocating so the exemption propagates to callers.
	spans := guardSpansIn(body)
	allocSites(info, body, func(pos token.Pos, what string) {
		p := fset.Position(pos)
		if !inSpans(spans, pos) && !allow.allows(p.Filename, p.Line, "noalloc") {
			s.AllocSites = append(s.AllocSites, SummarySite{pos, what})
		}
	})
	block := func(pos token.Pos, what string) {
		s.BlockSites = append(s.BlockSites, SummarySite{pos, what})
	}

	polls := pollOps(body)
	inspectShallow(body, func(node ast.Node) bool {
		if what := blockSite(info, node); what != "" && !polls[node] {
			block(node.Pos(), what)
		}
		switch x := node.(type) {
		case *ast.DeferStmt:
			if deferRecovers(info, x) {
				s.Recovers = true
			}
		case *ast.SelectorExpr:
			if x.Sel.Name == "Err" || x.Sel.Name == "Done" {
				if t := typeOf(info, x.X); t != nil && isContextType(t) {
					s.PollSites = append(s.PollSites, SummarySite{x.Pos(), "ctx." + x.Sel.Name})
				}
			}
		case *ast.CallExpr:
			if b, ok := calleeObject(info, x).(*types.Builtin); ok && b.Name() == "panic" {
				s.PanicSites = append(s.PanicSites, SummarySite{x.Pos(), "panic"})
			}
		}
		return true
	})

	// Classify the extern calls the graph builder recorded.
	for _, ec := range n.Extern {
		if ec.Kind == EdgeRef || ec.Kind == EdgeGo {
			continue
		}
		if what := externBlocks(ec.Pkg, ec.Name); what != "" {
			block(ec.Pos, what)
		}
		if ec.CtxArg && ec.Pkg != "context" {
			// Handing ctx to the stdlib (http.NewRequestWithContext,
			// sql.QueryContext, ...) delegates cancellation. The context
			// package itself is excluded: WithTimeout/WithCancel derive
			// contexts without polling the parent.
			s.PollSites = append(s.PollSites, SummarySite{ec.Pos, ec.Pkg + "." + ec.Name})
		}
	}
	s.Acquires, s.Releases = lockClassesIn(info, body)
	s.Allocates = len(s.AllocSites) > 0
	s.MayBlock = len(s.BlockSites) > 0
	s.PollsCtx = len(s.PollSites) > 0
	s.MayPanic = len(s.PanicSites) > 0 && !s.Recovers
	return s
}

// blockSite classifies the channel operations that can block the calling
// goroutine: a send, a receive, a select without default and a range over
// a channel. It returns a short description, or "" for any other node.
// The send or receive of a comm clause is classified like any other;
// callers skip the ones pollOps returns.
func blockSite(info *types.Info, n ast.Node) string {
	switch x := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.SelectStmt:
		if !hasDefault(x) {
			return "select without default"
		}
	case *ast.RangeStmt:
		if t := typeOf(info, x.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel"
			}
		}
	}
	return ""
}

// hasDefault reports whether a select has a default clause.
func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// pollOps returns the sends and receives of the comm clauses of every
// select with a default clause in body. Such a select never blocks, so
// its comm operations poll (a context's Done channel, a stop signal)
// rather than wait.
func pollOps(body ast.Node) map[ast.Node]bool {
	polls := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		s, ok := n.(*ast.SelectStmt)
		if !ok || !hasDefault(s) {
			return true
		}
		for _, c := range s.Body.List {
			switch comm := c.(*ast.CommClause).Comm.(type) {
			case *ast.SendStmt:
				polls[comm] = true
			case *ast.ExprStmt:
				polls[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				polls[ast.Unparen(comm.Rhs[0])] = true
			}
		}
		return true
	})
	return polls
}

// deferRecovers reports whether a defer statement (directly or through a
// deferred closure) calls recover.
func deferRecovers(info *types.Info, d *ast.DeferStmt) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if b, ok := calleeObject(info, call).(*types.Builtin); ok && b.Name() == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}

// lockClassesIn collects the mutex ops locked and unlocked in body, with the
// class rendered as a receiver chain ("s.mu", "c.mu") and the mode taken
// from the method name: Lock/Unlock are the write side, RLock/RUnlock the
// read side.
func lockClassesIn(info *types.Info, body ast.Node) (acquires, releases []LockOp) {
	seenA, seenR := map[LockOp]bool{}, map[LockOp]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, class, ok := syncMutexCall(info, call)
		if !ok {
			return true
		}
		op := LockOp{Class: class, W: method == "Lock" || method == "Unlock"}
		switch method {
		case "Lock", "RLock":
			if !seenA[op] {
				seenA[op] = true
				acquires = append(acquires, op)
			}
		default:
			if !seenR[op] {
				seenR[op] = true
				releases = append(releases, op)
			}
		}
		return true
	})
	sortLockOps(acquires)
	sortLockOps(releases)
	return acquires, releases
}

// syncMutexCall recognizes sync.Mutex/RWMutex method calls (including
// promoted embeddings) and returns the method name and the receiver
// chain's lock class.
func syncMutexCall(info *types.Info, call *ast.CallExpr) (method, class string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	var f *types.Func
	if s, found := info.Selections[sel]; found {
		f, _ = s.Obj().(*types.Func)
	} else {
		f, _ = info.Uses[sel.Sel].(*types.Func)
	}
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch f.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return f.Name(), exprString(sel.X), true
	}
	return "", "", false
}

func sortLockOps(ops []LockOp) {
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Class != ops[j].Class {
			return ops[i].Class < ops[j].Class
		}
		return !ops[i].W && ops[j].W
	})
}

// externBlocks classifies stdlib calls that can block the calling
// goroutine: sync waits, sleeps, and network/file I/O. It returns a short
// description, or "" for non-blocking calls.
func externBlocks(pkg, name string) string {
	switch pkg {
	case "sync":
		// Lock/RLock are deliberately not classified: an internal mutex's
		// critical sections are bounded-short in this module (lockmode
		// enforces exactly that), so treating every locking helper as
		// may-block would flag all nested-mutex use — lock-ordering
		// analysis, which this is not. Waits are unbounded and count.
		switch name {
		case "Wait", "Do":
			return "sync." + name
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile",
			"ReadDir", "Remove", "RemoveAll", "Rename", "Stat", "Pipe":
			return "os." + name
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "ReadAll", "ReadFull", "WriteString", "Pipe":
			return "io." + name
		}
	case "os/exec":
		return "os/exec." + name
	}
	// Anything in net or net/* (net/http, net/rpc, ...) does network I/O.
	if pkg == "net" || strings.HasPrefix(pkg, "net/") {
		return pkg + "." + name
	}
	// Reader/Writer-backed packages: their methods drive an underlying
	// reader that may be a file or socket.
	switch pkg {
	case "bufio", "encoding/csv", "encoding/json":
		switch name {
		case "Read", "ReadString", "ReadBytes", "ReadLine", "ReadRune",
			"Scan", "ReadAll", "Decode", "Flush", "Write", "WriteString", "Encode":
			return pkg + "." + name
		}
	}
	return ""
}

// typeOf is a nil-tolerant info.Types lookup.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
