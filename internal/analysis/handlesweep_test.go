package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// TestModuleHandleSweep pins the handle classification of the flat spatial
// core's exported API over the real module: the provenance class of each
// method's first result and whether calling it invalidates outstanding
// handles and views (the mutates fact genstale kills on). The tables are
// exhaustive by construction: every exported method of the listed types
// must have a row, so adding an API without classifying its handles fails
// the test. This is the machine-checked version of the arena-handle
// contracts the //ordlint:handle, //ordlint:writer and //ordlint:mutates
// directives document in place.
func TestModuleHandleSweep(t *testing.T) {
	pkgs, modPath := loadModule(t)
	g := BuildCallGraph(pkgs)
	cfg := DefaultConfig(modPath)
	borrows := ComputeBorrowFacts(g, cfg.FreshFuncs)
	facts := ComputeHandleFacts(g, borrows, NewHandleConfig(cfg))
	factByName := make(map[string]*HandleInfo, len(facts))
	for n, hi := range facts {
		factByName[n.Name] = hi
	}

	type fact struct {
		ret     HandleClass
		mutates bool
	}
	expect := map[string]map[string]fact{
		// The flat tree: node handles out of Root/Child, mutators kill.
		// Child's class carries the slot bit too: the ents arena stores
		// child refs and point slots in one int32 run, so an element read
		// is classed with both until the level check disambiguates.
		modPath + "/internal/rtree.Tree": {
			"Dim":              {},
			"Len":              {},
			"Height":           {},
			"Root":             {ret: HandleNode},
			"Level":            {},
			"Count":            {},
			"Child":            {ret: HandleNode | HandleSlot},
			"ChildLo":          {},
			"ChildHi":          {},
			"LeafID":           {},
			"LeafPoint":        {},
			"Point":            {},
			"Bounds":           {},
			"Insert":           {mutates: true},
			"Delete":           {mutates: true},
			"RangeQuery":       {},
			"RangeQueryAppend": {},
			"CountDominated":   {},
			"CountDominators":  {},
		},
		// The pointer-based oracle: no integer handles, but its writers
		// still invalidate node pointers and iterators.
		modPath + "/internal/rtree/legacy.Tree": {
			"Root":             {},
			"Dim":              {},
			"Len":              {},
			"Height":           {},
			"Point":            {},
			"Bounds":           {},
			"Insert":           {mutates: true},
			"Delete":           {mutates: true},
			"RangeQuery":       {},
			"RangeQueryAppend": {},
			"CountDominated":   {},
			"CountDominators":  {},
		},
		// The collection: ids are public currency (plain) and the slots
		// stay inside the tree; only the annotated writers kill.
		modPath + "/internal/collection.Collection": {
			"Len":    {},
			"Dim":    {},
			"Tree":   {},
			"Get":    {},
			"NewID":  {},
			"Bounds": {},
			"Stats":  {},
			"Insert": {mutates: true},
			"Update": {mutates: true},
			"Upsert": {mutates: true},
			"Delete": {mutates: true},
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
				t.Errorf("%s.%s has no row in the handle sweep table; classify the new method", qtype, m.Name())
				continue
			}
			nodeName := pkgPath + "." + typeName + "." + m.Name()
			hi := factByName[nodeName]
			if hi == nil {
				t.Errorf("no handle summary computed for %s", nodeName)
				continue
			}
			if hi.Ret != want.ret || hi.Mutates != want.mutates {
				t.Errorf("%s: (ret, mutates) = (%s, %v), want (%s, %v)",
					nodeName, hi.Ret, hi.Mutates, want.ret, want.mutates)
			}
		}
		for name := range methods {
			if !seen[name] {
				t.Errorf("sweep table lists %s.%s but no such exported method exists", qtype, name)
			}
		}
	}

	// The dataset facade republishes the collection's mutators under the
	// paper-facing API; every one must carry the mutates contract so the
	// serving layer's generation bump (checked by genstale) stays honest.
	dsPrefix := modPath + ".Dataset."
	dsMutators := map[string]bool{
		"Insert": true, "InsertID": true, "Update": true, "Upsert": true, "Delete": true,
	}
	for m, want := range dsMutators {
		hi := factByName[dsPrefix+m]
		if hi == nil {
			t.Errorf("no handle summary computed for %s", dsPrefix+m)
			continue
		}
		if hi.MutatesAnnotated != want {
			t.Errorf("%s: MutatesAnnotated = %v, want %v", dsPrefix+m, hi.MutatesAnnotated, want)
		}
	}
}
