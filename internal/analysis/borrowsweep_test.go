package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// TestModuleBorrowSweep pins the writer classification of the live-dataset
// layer and the lock-mode classification of the server's handlers over the
// real module. The tables below are exhaustive by
// construction: every exported method of Collection must have an entry
// (adding a method without classifying it fails the test), and every
// handle* method of Server must have a lock-mode row. This is the
// machine-checked version of the package concurrency contracts.
func TestModuleBorrowSweep(t *testing.T) {
	pkgs, modPath := loadModule(t)
	g := BuildCallGraph(pkgs)
	writers := ComputeWriters(g)
	nodeByName := make(map[string]*FuncNode, len(g.Nodes))
	for _, n := range g.Nodes {
		nodeByName[n.Name] = n
	}

	// Each exported method's writer column.
	expect := map[string]map[string]bool{
		modPath + "/internal/collection.Collection": {
			"Len":    false,
			"Dim":    false,
			"NewID":  false,
			"Bounds": false,
			"Stats":  false,
			"Tree":   false,
			"Get":    false,
			"Insert": true,
			"Update": true,
			"Upsert": true,
			"Delete": true,
		},
	}

	pkgByPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		pkgByPath[p.Path] = p
	}
	for qtype, methods := range expect {
		dot := strings.LastIndex(qtype, ".")
		pkgPath, typeName := qtype[:dot], qtype[dot+1:]
		p := pkgByPath[pkgPath]
		if p == nil {
			t.Fatalf("module has no package %s", pkgPath)
		}
		obj := p.Types.Scope().Lookup(typeName)
		if obj == nil {
			t.Fatalf("package %s has no type %s", pkgPath, typeName)
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			t.Fatalf("%s is not a named type", qtype)
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		seen := make(map[string]bool, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj().(*types.Func)
			if !m.Exported() {
				continue
			}
			seen[m.Name()] = true
			want, ok := methods[m.Name()]
			if !ok {
				t.Errorf("%s.%s has no row in the sweep table; classify the new method", qtype, m.Name())
				continue
			}
			nodeName := pkgPath + "." + typeName + "." + m.Name()
			n := nodeByName[nodeName]
			if n == nil {
				t.Errorf("call graph has no node %s", nodeName)
				continue
			}
			if writers[n] != want {
				t.Errorf("%s: writer = %v, want %v", nodeName, writers[n], want)
			}
		}
		for name := range methods {
			if !seen[name] {
				t.Errorf("sweep table lists %s.%s but no such exported method exists", qtype, name)
			}
		}
	}

	// Every server handler's lock mode, from the mode-tagged lock summaries.
	// Acquires and releases must agree — a handler returning with a lock
	// held (or releasing in the wrong mode) changes these strings.
	sums := ComputeSummaries(g, pkgs)
	sumByName := make(map[string]*Summary, len(sums))
	for n, s := range sums {
		sumByName[n.Name] = s
	}
	render := func(ops []LockOp) string {
		parts := make([]string, len(ops))
		for i, op := range ops {
			parts[i] = op.String()
		}
		return strings.Join(parts, " ")
	}
	handlers := map[string]string{
		"handleQuery":        "nd.mu[R]",
		"handleAddDataset":   "",
		"handleListDatasets": "nd.mu[R] s.mu[R]",
		"handleWritePoint":   "nd.mu[W]",
		"handleDeletePoint":  "nd.mu[W]",
		"handleHealthz":      "s.mu[R]",
		"handleMetrics":      "",
	}
	serverPrefix := modPath + "/internal/server.Server."
	for h, want := range handlers {
		s := sumByName[serverPrefix+h]
		if s == nil {
			t.Errorf("no summary computed for handler %s", h)
			continue
		}
		if got := render(s.Acquires); got != want {
			t.Errorf("%s acquires %q, want %q", h, got, want)
		}
		if got := render(s.Releases); got != want {
			t.Errorf("%s releases %q, want %q", h, got, want)
		}
	}
	for name := range sumByName {
		if !strings.HasPrefix(name, serverPrefix+"handle") {
			continue
		}
		h := strings.TrimPrefix(name, serverPrefix)
		if strings.Contains(h, ".") {
			continue // nested function literal, covered by its handler
		}
		if _, ok := handlers[h]; !ok {
			t.Errorf("handler %s has no lock-mode row in the sweep table; classify it", name)
		}
	}
}
