package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ordu/internal/analysis/cfg"
)

// NewLockmode builds the lockmode analyzer: the lock discipline of the
// scoped packages (the serving layer). Method calls on guarded types must
// hold the guarding RWMutex in the right mode: writers — //ordlint:writer
// methods and everything the field-write derivation classifies as
// mutating — need the write lock on every path; readers need at least the
// read lock. On any mutex, guarded or not, it flags:
//
//   - a lock held across an operation that can block — a channel op, a
//     select without default, or a call whose interprocedural summary
//     says it may block (network/file I/O, sync waits, sleeps). Holding a
//     lock across one turns one slow client into a server-wide stall; the
//     registry's pattern is snapshot-under-lock, release, then do the slow
//     work;
//   - re-acquiring a class that may already be held (a self-deadlock),
//     reported as an upgrade when RLock is followed by Lock;
//   - mode-mismatched unlock pairings (Lock…RUnlock, RLock…Unlock).
//
// The dataflow keeps four held-sets per CFG point — may/must × read/write
// (may joins by union, must by intersection) — plus a must-set of *fresh*
// objects: results of the configured constructors, exempt from lock
// requirements until they escape through a call argument, composite
// literal, store, or channel send. A deferred unlock does not release: it
// runs at exit, so the lock stays held for the rest of the body. Lock
// classes match receivers by root identifier: holding "nd.mu" covers calls
// on "nd.ds". Methods in LockModePure (reads of construction-immutable
// state) are exempt.
func NewLockmode(packages, guarded, fresh, pure map[string]bool) *Analyzer {
	a := &Analyzer{
		Name:  "lockmode",
		Doc:   "lock discipline: writers on guarded types need the write lock, readers the read lock; no lock held across blocking operations, no re-acquired class, no mode-mismatched unlock",
		Layer: "interproc",
	}
	a.Run = func(pass *Pass) {
		if !packages[pass.PkgPath] {
			return
		}
		g, sums, writers := pass.Facts.Graph, pass.Facts.Summaries, pass.Facts.Writers
		if g == nil || sums == nil || writers == nil {
			return
		}
		for _, n := range g.Nodes {
			if n.Pkg.Path != pass.PkgPath || n.Body() == nil {
				continue
			}
			checkLockmode(pass, n, g, sums, writers, guarded, fresh, pure)
		}
	}
	return a
}

// Event kinds of the lockmode dataflow, in block order.
const (
	lmMutex   = iota // direct sync.(RW)Mutex call
	lmSummary        // module callee with net lock ops in its summary
	lmGuard          // method call on a guarded type
	lmGen            // fresh-constructor result bound to a local
	lmKill           // fresh local escapes
	lmBlock          // operation that may block
)

type lmEvent struct {
	kind   int
	method string    // lmMutex: Lock/RLock/Unlock/RUnlock
	class  string    // lmMutex: lock class ("nd.mu")
	callee *FuncNode // lmSummary, lmGuard
	base   string    // lmGuard: receiver root identifier ("nd")
	root   types.Object
	objs   []types.Object // lmGen: bound locals
	what   string         // lmBlock: the blocking operation
	pos    token.Pos
}

// lmState is the dataflow value: may/must held classes per mode, plus the
// must-fresh object set.
type lmState struct {
	mayR, mayW, mustR, mustW map[string]bool
	fresh                    map[types.Object]bool
}

func newLmState() *lmState {
	return &lmState{
		mayR: map[string]bool{}, mayW: map[string]bool{},
		mustR: map[string]bool{}, mustW: map[string]bool{},
		fresh: map[types.Object]bool{},
	}
}

func (s *lmState) clone() *lmState {
	out := newLmState()
	for c := range s.mayR {
		out.mayR[c] = true
	}
	for c := range s.mayW {
		out.mayW[c] = true
	}
	for c := range s.mustR {
		out.mustR[c] = true
	}
	for c := range s.mustW {
		out.mustW[c] = true
	}
	for o := range s.fresh {
		out.fresh[o] = true
	}
	return out
}

// meetInto joins s into dst: union for the may-sets, intersection for the
// must- and fresh-sets. Reports whether dst changed.
func (dst *lmState) meetInto(s *lmState) bool {
	changed := false
	union := func(d, src map[string]bool) {
		for c := range src {
			if !d[c] {
				d[c] = true
				changed = true
			}
		}
	}
	union(dst.mayR, s.mayR)
	union(dst.mayW, s.mayW)
	intersect := func(d, src map[string]bool) {
		for c := range d {
			if !src[c] {
				delete(d, c)
				changed = true
			}
		}
	}
	intersect(dst.mustR, s.mustR)
	intersect(dst.mustW, s.mustW)
	for o := range dst.fresh {
		if !s.fresh[o] {
			delete(dst.fresh, o)
			changed = true
		}
	}
	return changed
}

// baseHeld reports whether any held class is rooted at base ("nd" covers
// "nd.mu" and plain "mu" covers nothing else).
func baseHeld(set map[string]bool, base string) bool {
	for c := range set {
		if c == base || strings.HasPrefix(c, base+".") {
			return true
		}
	}
	return false
}

func checkLockmode(pass *Pass, n *FuncNode, g *CallGraph, sums map[*FuncNode]*Summary, writers map[*FuncNode]bool, guarded, fresh, pure map[string]bool) {
	info := pass.TypesInfo
	// Methods on a guarded type calling sibling methods through their own
	// receiver are internal delegation: the lock obligation lives with the
	// method's callers, and the writer classification already propagates.
	var recv types.Object
	if n.Decl != nil && n.Decl.Recv != nil {
		if r := recvObject(n); r != nil && guarded[namedQName(r.Type())] {
			recv = r
		}
	}
	// Module call edges by site, to consult callee summaries for calls
	// that may block (interface and dynamic dispatch included).
	edgeAt := make(map[token.Pos][]*CallEdge)
	for _, e := range n.Out {
		if e.Kind == EdgeCall || e.Kind == EdgeIface || e.Kind == EdgeDynamic {
			edgeAt[e.Pos] = append(edgeAt[e.Pos], e)
		}
	}
	graph := cfg.New(n.Body())
	polls := pollOps(n.Body())
	events := make([][]lmEvent, len(graph.Blocks))
	for _, b := range graph.Blocks {
		for _, node := range b.Nodes {
			events[b.Index] = append(events[b.Index], lmEventsOf(info, g, sums, edgeAt, polls, node, guarded, fresh, pure)...)
		}
	}

	apply := func(st *lmState, evs []lmEvent, report bool) {
		for _, ev := range evs {
			switch ev.kind {
			case lmMutex:
				applyMutex(pass, st, ev, report)
			case lmSummary:
				applySummary(st, sums[ev.callee])
			case lmGuard:
				if report && (recv == nil || ev.root != recv) {
					checkGuardedCall(pass, st, ev, writers[ev.callee])
				}
			case lmGen:
				for _, o := range ev.objs {
					st.fresh[o] = true
				}
			case lmKill:
				delete(st.fresh, ev.root)
			case lmBlock:
				if report && (len(st.mayR) > 0 || len(st.mayW) > 0) {
					pass.Report(ev.pos, "%s while holding %s; release the lock before the blocking operation (snapshot under lock, then work)",
						ev.what, heldList(st))
				}
			}
		}
	}

	entry := make([]*lmState, len(graph.Blocks))
	seen := make([]bool, len(graph.Blocks))
	entry[graph.Entry.Index] = newLmState()
	seen[graph.Entry.Index] = true
	for changed := true; changed; {
		changed = false
		for _, b := range graph.Blocks {
			if !seen[b.Index] {
				continue
			}
			out := entry[b.Index].clone()
			apply(out, events[b.Index], false)
			for _, succ := range b.Succs {
				if !seen[succ.Index] {
					entry[succ.Index] = out.clone()
					seen[succ.Index] = true
					changed = true
				} else if entry[succ.Index].meetInto(out) {
					changed = true
				}
			}
		}
	}
	for _, b := range graph.Blocks {
		if !seen[b.Index] {
			continue // unreachable
		}
		apply(entry[b.Index].clone(), events[b.Index], true)
	}
}

// heldList renders the may-held classes, sorted, for diagnostics.
func heldList(st *lmState) string {
	var classes []string
	for c := range st.mayR {
		classes = append(classes, c)
	}
	for c := range st.mayW {
		if !st.mayR[c] {
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	return strings.Join(classes, ", ")
}

// applyMutex transitions the held sets for a direct mutex call, reporting
// re-acquisitions and mode-mismatched unlocks when asked to.
func applyMutex(pass *Pass, st *lmState, ev lmEvent, report bool) {
	c := ev.class
	switch ev.method {
	case "Lock", "RLock":
		switch {
		case !report:
		case ev.method == "Lock" && st.mayR[c] && !st.mayW[c]:
			pass.Report(ev.pos, "Lock on %s while the read lock may be held: RLock→Lock upgrades self-deadlock; release the read lock first", c)
		case st.mayR[c] || st.mayW[c]:
			pass.Report(ev.pos, "%s is locked while already held on some path: self-deadlock", c)
		}
		if ev.method == "Lock" {
			st.mayW[c], st.mustW[c] = true, true
		} else {
			st.mayR[c], st.mustR[c] = true, true
		}
	case "Unlock":
		if report && st.mayR[c] && !st.mayW[c] {
			pass.Report(ev.pos, "Unlock on %s pairs with RLock on some path; use RUnlock", c)
		}
		delete(st.mayW, c)
		delete(st.mustW, c)
		delete(st.mayR, c)
		delete(st.mustR, c)
	case "RUnlock":
		if report && st.mayW[c] && !st.mayR[c] {
			pass.Report(ev.pos, "RUnlock on %s pairs with Lock on some path; use Unlock", c)
		}
		delete(st.mayR, c)
		delete(st.mustR, c)
	}
}

// applySummary folds a module callee's net lock effect into the state:
// classes it acquires without releasing become held (in the callee's mode),
// classes it releases without acquiring are dropped. Neutral pairs — the
// registry's dataset() doing RLock+RUnlock — cancel out.
func applySummary(st *lmState, s *Summary) {
	if s == nil {
		return
	}
	releases := map[LockOp]bool{}
	for _, op := range s.Releases {
		releases[op] = true
	}
	acquires := map[LockOp]bool{}
	for _, op := range s.Acquires {
		acquires[op] = true
		if releases[op] {
			continue // neutral pair
		}
		if op.W {
			st.mayW[op.Class], st.mustW[op.Class] = true, true
		} else {
			st.mayR[op.Class], st.mustR[op.Class] = true, true
		}
	}
	for _, op := range s.Releases {
		if acquires[op] {
			continue
		}
		if op.W {
			delete(st.mayW, op.Class)
			delete(st.mustW, op.Class)
		} else {
			delete(st.mayR, op.Class)
			delete(st.mustR, op.Class)
		}
	}
}

// checkGuardedCall verifies the lock mode at a call on a guarded receiver.
func checkGuardedCall(pass *Pass, st *lmState, ev lmEvent, writer bool) {
	if ev.root != nil && st.fresh[ev.root] {
		return // unpublished object: no lock needed yet
	}
	name := shortName(ev.callee.Name)
	if writer {
		if baseHeld(st.mustW, ev.base) {
			return
		}
		if baseHeld(st.mayR, ev.base) && !baseHeld(st.mayW, ev.base) {
			pass.Report(ev.pos, "writer %s called on %s under the read lock; mutations need the write lock", name, ev.base)
			return
		}
		pass.Report(ev.pos, "writer %s called on %s without the write lock held on every path", name, ev.base)
		return
	}
	if baseHeld(st.mustR, ev.base) || baseHeld(st.mustW, ev.base) {
		return
	}
	pass.Report(ev.pos, "reader %s called on %s without the dataset lock; acquire at least the read lock", name, ev.base)
}

// lmEventsOf extracts the ordered lockmode events of one CFG node. Defer
// statements contribute nothing: deferred unlocks run at exit (so the lock
// stays held through the body), and deferred blocking work runs outside
// the critical section's useful span. The comm operations of a select with
// a default (polls) do not block.
func lmEventsOf(info *types.Info, g *CallGraph, sums map[*FuncNode]*Summary, edgeAt map[token.Pos][]*CallEdge,
	polls map[ast.Node]bool, node ast.Node, guarded, fresh, pure map[string]bool) []lmEvent {
	if _, ok := node.(*ast.DeferStmt); ok {
		return nil
	}
	var evs []lmEvent
	inspectShallow(node, func(m ast.Node) bool {
		if what := blockSite(info, m); what != "" && !polls[m] {
			evs = append(evs, lmEvent{kind: lmBlock, what: what, pos: m.Pos()})
		}
		switch x := m.(type) {
		case *ast.AssignStmt:
			if objs := freshTargets(info, x, fresh, guarded); len(objs) > 0 {
				evs = append(evs, lmEvent{kind: lmGen, objs: objs, pos: x.Pos()})
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if o := identObj(info, el); o != nil {
					evs = append(evs, lmEvent{kind: lmKill, root: o, pos: el.Pos()})
				}
			}
		case *ast.SendStmt:
			if o := identObj(info, x.Value); o != nil {
				evs = append(evs, lmEvent{kind: lmKill, root: o, pos: x.Pos()})
			}
		case *ast.CallExpr:
			if method, class, ok := syncMutexCall(info, x); ok {
				evs = append(evs, lmEvent{kind: lmMutex, method: method, class: class, pos: x.Pos()})
				return true
			}
			if what := blockingCall(info, sums, edgeAt, x); what != "" {
				evs = append(evs, lmEvent{kind: lmBlock, what: what, pos: x.Pos()})
			}
			f, ok := calleeObject(info, x).(*types.Func)
			if !ok {
				// Unknown callee: any fresh argument may escape.
				for _, arg := range x.Args {
					if o := identObj(info, arg); o != nil {
						evs = append(evs, lmEvent{kind: lmKill, root: o, pos: arg.Pos()})
					}
				}
				return true
			}
			callee := g.NodeOf(f)
			if callee != nil {
				evs = append(evs, lmEvent{kind: lmSummary, callee: callee, pos: x.Pos()})
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					if qt := guardedRecvType(info, sel.X); guarded[qt] && !pure[funcQName(f)] {
						ev := lmEvent{kind: lmGuard, callee: callee, base: rootName(sel.X), pos: x.Pos()}
						ev.root = rootObj(info, sel.X)
						evs = append(evs, ev)
					}
				}
			}
			// Passing a fresh object as an argument publishes it (the
			// registry's AddDataset); receiver position does not.
			for _, arg := range x.Args {
				if o := identObj(info, arg); o != nil {
					evs = append(evs, lmEvent{kind: lmKill, root: o, pos: arg.Pos()})
				}
			}
		}
		return true
	})
	return evs
}

// blockingCall describes a call that may block — a blocking stdlib call,
// or a module callee (direct, interface or dynamic) whose summary says it
// may block — or returns "".
func blockingCall(info *types.Info, sums map[*FuncNode]*Summary, edgeAt map[token.Pos][]*CallEdge, call *ast.CallExpr) string {
	if f, ok := calleeObject(info, call).(*types.Func); ok && f.Pkg() != nil {
		if what := externBlocks(f.Pkg().Path(), f.Name()); what != "" {
			return "call to " + what
		}
	}
	for _, e := range edgeAt[call.Pos()] {
		if s := sums[e.Callee]; s != nil && s.MayBlock {
			what := "call to " + shortName(e.Callee.Name)
			if s.BlockVia != "" {
				what += " (blocks via " + shortName(s.BlockVia) + ")"
			} else if len(s.BlockSites) > 0 {
				what += " (" + s.BlockSites[0].What + ")"
			}
			return what
		}
	}
	return ""
}

// freshTargets returns the locals bound to a fresh-constructor result (or
// to an address-of composite literal of a guarded type) in s.
func freshTargets(info *types.Info, s *ast.AssignStmt, fresh, guarded map[string]bool) []types.Object {
	isFresh := func(r ast.Expr) bool {
		switch x := ast.Unparen(r).(type) {
		case *ast.CallExpr:
			f, ok := calleeObject(info, x).(*types.Func)
			return ok && fresh[funcQName(f)]
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			return guarded[guardedRecvType(info, x.X)]
		case *ast.CompositeLit:
			return guarded[guardedRecvType(info, x)]
		}
		return false
	}
	var objs []types.Object
	bind := func(l ast.Expr) {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if o := info.Defs[id]; o != nil {
				objs = append(objs, o)
			} else if o := info.Uses[id]; o != nil {
				objs = append(objs, o)
			}
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			if isFresh(s.Rhs[i]) {
				bind(s.Lhs[i])
			}
		}
		return objs
	}
	if len(s.Rhs) == 1 && isFresh(s.Rhs[0]) {
		for _, l := range s.Lhs {
			bind(l)
		}
	}
	return objs
}

// guardedRecvType renders the deref'd static type of e as "pkgpath.Type"
// (empty for non-named types).
func guardedRecvType(info *types.Info, e ast.Expr) string {
	return namedQName(typeOf(info, e))
}

// namedQName renders a (possibly pointer-to-)named type as "pkgpath.Type".
func namedQName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// rootName is the base identifier of a receiver chain ("nd" for nd.ds).
func rootName(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			return ""
		default:
			return ""
		}
	}
}

// identObj resolves a plain identifier argument (nil otherwise).
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}
