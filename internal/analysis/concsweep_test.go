package analysis

import (
	"sort"
	"strings"
	"testing"
)

// TestModuleConcSweep pins the module's spawn inventory: caller -> spawned
// callees, in edge order. The map is exhaustive, so a new go statement
// anywhere in the module fails here until it is classified. No library
// package spawns: a query runs on its caller's goroutine. The load
// generator's worker pool has a -race test (cmd/ordload); the daemon's
// goroutines only serve and shut down.
func TestModuleConcSweep(t *testing.T) {
	pkgs, modPath := loadModule(t)
	g := BuildCallGraph(pkgs)

	wantSpawns := map[string][]string{
		modPath + "/cmd/ordload.loadgen.run": {
			modPath + "/cmd/ordload.loadgen.run.func1",
		},
		modPath + "/cmd/ordud.main": {
			modPath + "/cmd/ordud.main.func1",
			modPath + "/cmd/ordud.main.func2",
			modPath + "/cmd/ordud.main.func3",
		},
	}
	spawns := map[string][]string{}
	for _, n := range g.Nodes {
		for _, e := range Spawns(n) {
			spawns[n.Name] = append(spawns[n.Name], e.Callee.Name)
		}
	}
	for caller, want := range wantSpawns {
		if got := spawns[caller]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s spawns %v, want %v", caller, got, want)
		}
	}
	var extra []string
	for caller := range spawns {
		if _, ok := wantSpawns[caller]; !ok {
			extra = append(extra, caller)
		}
	}
	sort.Strings(extra)
	for _, caller := range extra {
		t.Errorf("unclassified spawn site: %s spawns %v; add it to the spawn inventory", caller, spawns[caller])
	}
}
