// Package cfg builds intraprocedural control-flow graphs from go/ast
// function bodies, using nothing outside the standard library. It is the
// dataflow substrate of the ordlint v2 checks (poolpair and friends): a
// Graph exposes basic blocks of statements in execution order with the
// successor edges induced by if/for/range/switch/select, labeled
// break/continue, goto, return and panic.
//
// The graph is deliberately lightweight: expressions are not decomposed
// (short-circuit && / || does not split blocks), function literals are
// opaque (their bodies belong to a different activation and are not
// traversed), and defers are recorded as ordinary nodes. This matches what
// flow-sensitive lint checks need — the statement-level happens-before
// order within one function activation — without the cost or complexity of
// an SSA form.
//
// Every graph has a single synthetic Entry and a single synthetic Exit
// block. Terminating statements (return, panic, calls marked as
// non-returning by the caller) edge to Exit. Statements following a
// terminator land in a fresh unreachable block, so dead code still parses
// into the graph but has no predecessors.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is one basic block: a maximal sequence of nodes that execute in
// order, followed by a branch described by Succs.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable identifier).
	Index int
	// Kind describes why the block exists ("entry", "exit", "if.then",
	// "for.body", "range.loop", "switch.case", "select.comm", "label.x",
	// "join", "unreachable", ...), for diagnostics and tests.
	Kind string
	// Nodes are the AST nodes of the block in execution order. For loop
	// headers the range/cond expression appears here, so per-iteration
	// assignments (range key/value) are visible to dataflow. Compound
	// statements appear as shells without their bodies: a range header
	// holds a copy of the RangeStmt with an empty body, and a select's
	// block a copy of the SelectStmt keeping only its emptied default
	// clause, so walking a node never reaches a statement that also sits
	// in a block of its own.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// String renders the graph compactly for tests and debugging:
// one line per block, "i:kind -> succ,succ".
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%d:%s ->", b.Index, b.Kind)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " %d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// BlocksOf returns the blocks whose Kind equals kind, in index order.
func (g *Graph) BlocksOf(kind string) []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

// builder carries the construction state.
type builder struct {
	g   *Graph
	cur *Block
	// loops is the stack of enclosing breakable/continuable constructs.
	loops []loopCtx
	// labels maps label names to their targets for goto and labeled
	// break/continue. Forward gotos patch in later.
	labels map[string]*labelInfo
}

type loopCtx struct {
	label   string // enclosing label, "" if none
	breakTo *Block
	contTo  *Block // nil for switch/select (continue passes through)
}

type labelInfo struct {
	// target is the block a goto to this label jumps to.
	target *Block
	// pendingGoto lists blocks whose goto awaits the label definition.
	pendingGoto []*Block
}

// New builds the graph of a function body. body may be nil (declarations
// without bodies yield an empty entry->exit graph).
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{},
		labels: make(map[string]*labelInfo),
	}
	entry := b.newBlock("entry")
	b.g.Entry = entry
	exit := b.newBlock("exit")
	b.g.Exit = exit
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, exit)
	return b.g
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock finishes cur with an edge to next and makes next current.
func (b *builder) startBlock(next *Block) {
	b.edge(b.cur, next)
	b.cur = next
}

// terminate ends the current block without a fallthrough successor: the
// next statement (if any) begins an unreachable block.
func (b *builder) terminate() {
	b.cur = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// label resolves the info record for a label name.
func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

// findLoop returns the innermost loop context matching label ("" matches
// any) that satisfies wantCont (continue needs a loop, break takes
// anything).
func (b *builder) findLoop(label string, wantCont bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := &b.loops[i]
		if wantCont && lc.contTo == nil {
			continue
		}
		if label == "" || lc.label == label {
			return lc
		}
	}
	return nil
}

// stmt lowers one statement. enclosingLabel is the label attached directly
// to this statement (so labeled loops register break/continue targets).
func (b *builder) stmt(s ast.Stmt, enclosingLabel string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// A label is a join point: gotos jump to the labeled statement.
		target := b.newBlock("label." + s.Label.Name)
		b.startBlock(target)
		li := b.label(s.Label.Name)
		li.target = target
		for _, p := range li.pendingGoto {
			b.edge(p, target)
		}
		li.pendingGoto = nil
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.terminate()

	case *ast.BranchStmt:
		b.add(s)
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok.String() {
		case "break":
			if lc := b.findLoop(label, false); lc != nil {
				b.edge(b.cur, lc.breakTo)
			}
		case "continue":
			if lc := b.findLoop(label, true); lc != nil {
				b.edge(b.cur, lc.contTo)
			}
		case "goto":
			li := b.label(label)
			if li.target != nil {
				b.edge(b.cur, li.target)
			} else {
				li.pendingGoto = append(li.pendingGoto, b.cur)
			}
		case "fallthrough":
			// Handled structurally by switch lowering (the edge to the
			// next case body is added there); nothing to do here.
			return
		}
		b.terminate()

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		join := b.newBlock("if.join")
		then := b.newBlock("if.then")
		b.edge(condBlk, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(condBlk, els)
			b.cur = els
			b.stmt(s.Else, "")
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
		}
		done := b.newBlock("for.done")
		body := b.newBlock("for.body")
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, done)
		}
		var post *Block
		contTo := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			contTo = post
		}
		b.loops = append(b.loops, loopCtx{label: enclosingLabel, breakTo: done, contTo: contTo})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, contTo)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = done

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		b.startBlock(head)
		// The header carries the range clause without its body: key and
		// value are (re)assigned once per iteration (a channel is received
		// from), which kill-style dataflow (poolpair) relies on, while the
		// body's statements live in their own blocks only.
		clause := *s
		clause.Body = &ast.BlockStmt{Lbrace: s.Body.Lbrace, Rbrace: s.Body.Rbrace}
		b.add(&clause)
		done := b.newBlock("range.done")
		body := b.newBlock("range.body")
		b.edge(head, body)
		b.edge(head, done)
		b.loops = append(b.loops, loopCtx{label: enclosingLabel, breakTo: done, contTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, enclosingLabel, func(cc *ast.CaseClause) {
			for _, e := range cc.List {
				b.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, enclosingLabel, func(cc *ast.CaseClause) {})

	case *ast.SelectStmt:
		// The select itself heads its comm blocks, as a shell that keeps
		// only its default clause, emptied: a check sees whether it may
		// block (an empty select blocks forever) without seeing the clauses
		// twice.
		shell := &ast.SelectStmt{Select: s.Select, Body: &ast.BlockStmt{Lbrace: s.Body.Lbrace, Rbrace: s.Body.Rbrace}}
		for _, c := range s.Body.List {
			if comm := c.(*ast.CommClause); comm.Comm == nil {
				shell.Body.List = []ast.Stmt{&ast.CommClause{Case: comm.Case, Colon: comm.Colon}}
			}
		}
		b.add(shell)
		head := b.cur
		join := b.newBlock("select.join")
		b.loops = append(b.loops, loopCtx{label: enclosingLabel, breakTo: join})
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock("select.comm")
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm, "")
			}
			b.stmtList(comm.Body)
			b.edge(b.cur, join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = join

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.terminate()
		}

	case *ast.DeclStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		if s != nil {
			b.add(s)
		}
	}
}

// switchBody lowers the case clauses of an (expr or type) switch. addExprs
// records the case expressions into the case block (guards are evaluated
// when the case is tried).
func (b *builder) switchBody(body *ast.BlockStmt, label string, addExprs func(*ast.CaseClause)) {
	head := b.cur
	join := b.newBlock("switch.join")
	b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		b.edge(head, blk)
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		b.edge(head, join)
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		addExprs(cc)
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
			}
			b.stmt(st, "")
		}
		if fallsThrough && i+1 < len(caseBlocks) {
			b.edge(b.cur, caseBlocks[i+1])
			b.cur = b.newBlock("unreachable")
		}
		b.edge(b.cur, join)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = join
}

// isPanicCall reports whether e is a direct call of the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
