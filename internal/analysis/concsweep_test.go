package analysis

import (
	"sort"
	"strings"
	"testing"
)

// TestModuleConcSweep pins the concurrency shape of the real module: the
// exact set of spawn sites, and the channel/WaitGroup/atomic protocol facts
// of each one. The spawn map is exhaustive by construction — a new go
// statement anywhere in the module fails the test until its protocol is
// classified here — making this the machine-checked version of the
// module's concurrency contracts (the explorer's fork-join batches, the
// load generator's job stream, the daemon's context-driven shutdown).
func TestModuleConcSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module plus its stdlib closure")
	}
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	l := NewLoader(modPath, root)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	g := BuildCallGraph(pkgs)
	facts := ComputeConcFacts(g)

	// Exhaustive spawn map: caller -> spawned callees, in edge order.
	spawnMap := map[string][]string{}
	nodeByName := map[string]*FuncNode{}
	for _, n := range g.Nodes {
		nodeByName[n.Name] = n
		for _, e := range Spawns(n) {
			spawnMap[n.Name] = append(spawnMap[n.Name], e.Callee.Name)
		}
	}
	wantSpawns := map[string][]string{
		modPath + "/internal/core.explorer.explore": {
			modPath + "/internal/core.explorer.explore.func1",
		},
		modPath + "/cmd/ordload.loadgen.run": {
			modPath + "/cmd/ordload.loadgen.run.func1",
		},
		modPath + "/cmd/ordud.main": {
			modPath + "/cmd/ordud.main.func1",
			modPath + "/cmd/ordud.main.func2",
			modPath + "/cmd/ordud.main.func3",
		},
	}
	for caller, want := range wantSpawns {
		got := spawnMap[caller]
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s spawns %v, want %v", caller, got, want)
		}
	}
	var extra []string
	for caller := range spawnMap {
		if _, ok := wantSpawns[caller]; !ok {
			extra = append(extra, caller)
		}
	}
	sort.Strings(extra)
	for _, caller := range extra {
		t.Errorf("unclassified spawn site: %s spawns %v; add its protocol to the sweep table", caller, spawnMap[caller])
	}

	cone := func(name string) *ConcSummary {
		t.Helper()
		n := nodeByName[name]
		if n == nil {
			t.Fatalf("module has no function %s", name)
		}
		return ConcCone(n, facts)
	}
	hasChan := func(s *ConcSummary, kind ChanOpKind, class string, deferred bool) bool {
		for _, op := range s.Chans {
			if op.Kind == kind && op.Class == class && op.Deferred == deferred {
				return true
			}
		}
		return false
	}
	hasWG := func(s *ConcSummary, kind WGOpKind, class string) bool {
		for _, op := range s.WGs {
			if op.Kind == kind && op.Class == class {
				return true
			}
		}
		return false
	}
	// Region explorer (internal/core): the per-batch partition workers are
	// counted by a WaitGroup the spawner Waits on, Done deferred.
	part := cone(modPath + "/internal/core.explorer.explore.func1")
	if !hasWG(part, WGDone, "wg") {
		t.Errorf("explore's partition worker no longer Dones wg")
	}
	if !hasWG(cone(modPath+"/internal/core.explorer.explore"), WGWait, "wg") {
		t.Errorf("explore no longer Waits on its partition workers")
	}

	// Load generator (cmd/ordload): workers range over the jobs stream and
	// Done a WaitGroup; the feeder closes jobs and Waits.
	worker := cone(modPath + "/cmd/ordload.loadgen.run.func1")
	if !hasChan(worker, ChanRange, "jobs", false) || !hasWG(worker, WGDone, "wg") {
		t.Errorf("ordload worker protocol changed: want range over jobs + wg.Done")
	}
	feeder := cone(modPath + "/cmd/ordload.loadgen.run")
	if !hasChan(feeder, ChanClose, "jobs", false) || !hasWG(feeder, WGWait, "wg") {
		t.Errorf("ordload feeder protocol changed: want close(jobs) + wg.Wait")
	}

	// Daemon (cmd/ordud): the shutdown goroutines are purely context-driven —
	// every channel operation in their cones bottoms out in a call chain
	// (<-ctx.Done()), class "", so they hold no named-channel protocol at all.
	for _, fn := range []string{"main.func1", "main.func2", "main.func3"} {
		s := cone(modPath + "/cmd/ordud." + fn)
		for _, op := range s.Chans {
			if op.Class != "" {
				t.Errorf("ordud %s gained a named-channel op (%s on %q); the daemon's goroutines are context-driven only", fn, op.Kind, op.Class)
			}
		}
	}
}
