package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"ordu/internal/analysis/cfg"
)

// NewAtomicpub turns the snapshot-publication pattern around
// atomic.Pointer/atomic.Value into a checked contract: a value published
// through Store is frozen. Concretely, per function:
//
//   - After p.Store(&x) (or p.Store(x)), any write through x on a CFG path
//     reachable from the store — including loop back-edges — mutates memory
//     a concurrent reader may already hold.
//   - If x was built as a copy of another local (x := src), writes through
//     src after the store are flagged too: the copy shares slice, map and
//     pointer fields with the published value. (An append-only contract
//     that appends only past the published length needs a justified allow.)
//   - A value obtained from p.Load() is read-only: writes through a local
//     bound to a Load result are flagged wherever they occur.
//
// Arithmetic atomics (Int64 counters and friends) have no publication
// contract and are ignored; atomicmix already guards their mixed access.
func NewAtomicpub() *Analyzer {
	a := &Analyzer{
		Name:  "atomicpub",
		Doc:   "values published through atomic.Pointer/Value Store are frozen: no writes post-publish (incl. through copy sources), Load results are read-only",
		Layer: "concurrency",
	}
	a.Run = func(pass *Pass) {
		g, conc := pass.Facts.Graph, pass.Facts.Conc
		if g == nil || conc == nil {
			return
		}
		for _, n := range g.Nodes {
			if n.Pkg.Path != pass.PkgPath || n.Body() == nil {
				continue
			}
			checkAtomicPub(pass, n, conc[n])
		}
	}
	return a
}

// apWrite is one assignment/inc-dec through a chain in a function body.
type apWrite struct {
	root  types.Object
	chain bool // lhs is a selector/index/deref chain, not a bare ident
	// define marks a := binding of a bare ident: inside a loop it creates
	// a fresh heap object per iteration once the address escapes, so it
	// never mutates an already-published value.
	define bool
	pos    token.Pos
}

func collectWrites(info *types.Info, body *ast.BlockStmt) []apWrite {
	var out []apWrite
	inspectShallow(body, func(nd ast.Node) bool {
		record := func(lhs ast.Expr, define bool) {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
				return
			}
			if o := rootObj(info, lhs); o != nil {
				_, bare := ast.Unparen(lhs).(*ast.Ident)
				out = append(out, apWrite{root: o, chain: !bare, define: define && bare, pos: lhs.Pos()})
			}
		}
		switch x := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				record(lhs, x.Tok == token.DEFINE)
			}
		case *ast.IncDecStmt:
			record(x.X, false)
		}
		return true
	})
	return out
}

func checkAtomicPub(pass *Pass, n *FuncNode, s *ConcSummary) {
	if s == nil {
		return
	}
	info := n.Pkg.Info
	body := n.Body()
	published := false
	for _, op := range s.Atomics {
		if op.Kind == AtomicStore && (op.Recv == "Pointer" || op.Recv == "Value") && op.Val != nil {
			published = true
		}
	}
	loaded := false
	for _, op := range s.Atomics {
		if op.Kind == AtomicLoad && (op.Recv == "Pointer" || op.Recv == "Value") {
			loaded = true
		}
	}
	if !published && !loaded {
		return
	}
	writes := collectWrites(info, body)

	if published {
		graph := cfg.New(body)
		locate := func(p token.Pos) (blk, idx int) {
			for _, b := range graph.Blocks {
				for i, nd := range b.Nodes {
					if p >= nd.Pos() && p < nd.End() {
						return b.Index, i
					}
				}
			}
			return -1, -1
		}
		for _, op := range s.Atomics {
			if op.Kind != AtomicStore || (op.Recv != "Pointer" && op.Recv != "Value") || op.Val == nil {
				continue
			}
			root := rootObj(info, op.Val)
			if root == nil || root.Parent() == nil || root.Parent() == n.Pkg.Types.Scope() {
				continue // only locally-built values have a visible freeze window
			}
			sources := copySources(info, body, root)
			storeBlk, storeIdx := locate(op.Pos)
			if storeBlk < 0 {
				continue
			}
			after := blocksAfter(graph, storeBlk)
			for _, w := range writes {
				wBlk, wIdx := locate(w.pos)
				if wBlk < 0 {
					continue
				}
				reachable := after[wBlk] ||
					(wBlk == storeBlk && wIdx > storeIdx) ||
					(wBlk == storeBlk && after[storeBlk]) // store block on a cycle
				if !reachable {
					continue
				}
				if w.root == root {
					if w.define {
						continue
					}
					pass.Report(w.pos, "%s was published through %s.Store and is written here on a following path; published snapshots must be frozen", root.Name(), op.Class)
				} else if sources[w.root] && w.chain {
					pass.Report(w.pos, "%s was copied into the snapshot published through %s.Store; this write can reach the snapshot via shared slice/map/pointer fields", w.root.Name(), op.Class)
				}
			}
		}
	}

	if loaded {
		// Locals bound to a Load result are read-only.
		loadLocals := map[types.Object]string{}
		inspectShallow(body, func(nd ast.Node) bool {
			as, ok := nd.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			for _, op := range s.Atomics {
				if op.Kind == AtomicLoad && (op.Recv == "Pointer" || op.Recv == "Value") &&
					op.Pos >= as.Rhs[0].Pos() && op.Pos < as.Rhs[0].End() {
					if o := info.Defs[id]; o != nil {
						loadLocals[o] = op.Class
					} else if o := info.Uses[id]; o != nil {
						loadLocals[o] = op.Class
					}
				}
			}
			return true
		})
		for _, w := range writes {
			if class, ok := loadLocals[w.root]; ok && w.chain {
				pass.Report(w.pos, "%s holds a snapshot obtained from %s.Load and is mutated here; cross-goroutine readers must treat loaded values as read-only", w.root.Name(), class)
			}
		}
	}
}

// copySources finds the locals whose value was copied into root
// (root := src or root = src with a plain ident/selector source): writing
// them after publication can still reach the published value through
// shared reference fields.
func copySources(info *types.Info, body *ast.BlockStmt, root types.Object) map[types.Object]bool {
	out := map[types.Object]bool{}
	inspectShallow(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			o := info.Defs[id]
			if o == nil {
				o = info.Uses[id]
			}
			if o != root {
				continue
			}
			switch src := ast.Unparen(as.Rhs[i]); src.(type) {
			case *ast.Ident, *ast.SelectorExpr:
				if so := rootObj(info, src); so != nil && so != root {
					out[so] = true
				}
			}
		}
		return true
	})
	return out
}

// blocksAfter returns the set of block indices reachable from start's
// successors (start itself is included only if it sits on a cycle).
func blocksAfter(g *cfg.Graph, start int) map[int]bool {
	out := map[int]bool{}
	var stack []int
	for _, s := range g.Blocks[start].Succs {
		stack = append(stack, s.Index)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[i] {
			continue
		}
		out[i] = true
		for _, s := range g.Blocks[i].Succs {
			stack = append(stack, s.Index)
		}
	}
	return out
}
