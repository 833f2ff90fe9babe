package analysis

import (
	"strings"
	"testing"
)

// TestCallGraphEdges pins the structural facts the interprocedural checks
// depend on, using the ctxflow fixture's graph.
func TestCallGraphEdges(t *testing.T) {
	pkg := loadFixture(t, "ctxflow")
	g := BuildCallGraph([]*Package{pkg})

	node := func(name string) *FuncNode {
		t.Helper()
		for _, n := range g.Nodes {
			if n.Name == name {
				return n
			}
		}
		t.Fatalf("call graph has no node %q", name)
		return nil
	}

	// Direct call edge with no context argument.
	handler, spin := node("ctxflow.Handler"), node("ctxflow.spin")
	foundSpin := false
	for _, e := range handler.Out {
		if e.Callee == spin && e.Kind == EdgeCall {
			foundSpin = true
			if e.CtxArg {
				t.Error("Handler → spin edge should not carry a ctx argument")
			}
		}
	}
	if !foundSpin {
		t.Error("missing call edge ctxflow.Handler → ctxflow.spin")
	}

	// Context-forwarding edge.
	forwards, ignores := node("ctxflow.HandlerForwards"), node("ctxflow.ignores")
	foundCtx := false
	for _, e := range forwards.Out {
		if e.Callee == ignores && e.CtxArg {
			foundCtx = true
		}
	}
	if !foundCtx {
		t.Error("missing ctx-forwarding edge ctxflow.HandlerForwards → ctxflow.ignores")
	}

	// Reachability: entries reach their callees, but not the lonely func.
	reach := g.ReachableFrom(func(n *FuncNode) bool {
		return n.Name == "ctxflow.Handler"
	})
	if _, ok := reach[spin]; !ok {
		t.Error("spin should be reachable from Handler")
	}
	if _, ok := reach[node("ctxflow.lonely")]; ok {
		t.Error("lonely must not be reachable from Handler")
	}
	if got := Chain(reach, spin); got != "ctxflow.Handler → ctxflow.spin" {
		t.Errorf("Chain = %q, want %q", got, "ctxflow.Handler → ctxflow.spin")
	}
}

// TestSummaries pins the fixed-point summary facts on the ctxflow fixture:
// direct polling, transitive polling through a ctx-forwarding chain, and
// the absence of polling in the dead-end callee.
func TestSummaries(t *testing.T) {
	pkg := loadFixture(t, "ctxflow")
	g := BuildCallGraph([]*Package{pkg})
	sums := ComputeSummaries(g, []*Package{pkg})

	byName := make(map[string]*Summary)
	for n, s := range sums {
		byName[n.Name] = s
	}
	cases := []struct {
		name  string
		polls bool
	}{
		{"ctxflow.deeper", true},   // polls ctx.Err directly
		{"ctxflow.polls", true},    // transitively, via a ctx-forwarding call
		{"ctxflow.ignores", false}, // receives ctx but drops it
	}
	for _, c := range cases {
		s, ok := byName[c.name]
		if !ok {
			t.Errorf("no summary for %s", c.name)
			continue
		}
		if s.PollsCtx != c.polls {
			t.Errorf("%s: PollsCtx = %v, want %v", c.name, s.PollsCtx, c.polls)
		}
	}
}

// TestModuleGraphSweep builds the call graph and summaries over the whole
// module — every package, every file — and checks global invariants: the
// build must not panic, every function body must have a node, and the
// facade's context-taking entry points must summarize as polling (the
// property ctxflow's clean run on the module rests on).
func TestModuleGraphSweep(t *testing.T) {
	pkgs, modPath := loadModule(t)
	g := BuildCallGraph(pkgs)
	sums := ComputeSummaries(g, pkgs)

	if len(g.Nodes) < 100 {
		t.Fatalf("call graph has only %d nodes; the walk is missing the tree", len(g.Nodes))
	}
	if g.NumEdges() < len(g.Nodes) {
		t.Errorf("suspiciously sparse graph: %d edges for %d nodes", g.NumEdges(), len(g.Nodes))
	}
	for _, n := range g.Nodes {
		if sums[n] == nil {
			t.Fatalf("no summary computed for %s", n.Name)
		}
		if n.Body() == nil && len(n.Out) > 0 {
			t.Errorf("bodyless node %s has outgoing edges", n.Name)
		}
	}

	// The facade's Ctx methods must prove cancellability transitively.
	for _, entry := range []string{
		modPath + ".Dataset.ORDCtx",
		modPath + ".Dataset.ORUCtx",
	} {
		found := false
		for _, n := range g.Nodes {
			if n.Name == entry {
				found = true
				if !sums[n].PollsCtx {
					t.Errorf("%s does not summarize as polling its context", entry)
				}
			}
		}
		if !found {
			t.Errorf("call graph has no node for facade entry %s", entry)
		}
	}

	// Entry reachability covers a healthy slice of the module but not the
	// whole graph. The offline tools must stay outside the server's cone;
	// cmd/ordud is excepted — the daemon's handler closures are called back
	// by the server it wires up, so they legitimately sit inside it.
	cfg := DefaultConfig(modPath)
	reach := g.ReachableFrom(func(n *FuncNode) bool {
		return cfg.CtxFlowEntryPackages[n.Pkg.Path] || cfg.CtxFlowEntryFuncs[n.Name]
	})
	if len(reach) < 50 || len(reach) >= len(g.Nodes) {
		t.Errorf("entry reachability = %d of %d nodes; expected a proper non-trivial subset", len(reach), len(g.Nodes))
	}
	for n := range reach {
		for _, tool := range []string{"/cmd/ordlint", "/cmd/experiments", "/cmd/benchdiff"} {
			if strings.HasPrefix(n.Pkg.Path, modPath+tool) {
				t.Errorf("offline tool function %s is reachable from a server entry point", n.Name)
			}
		}
	}
}
