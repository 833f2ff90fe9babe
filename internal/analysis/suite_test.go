package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestDefaultConfigNamesResolve checks that every qualified module name in
// DefaultConfig names something the module declares, of the kind its entry
// expects: a package, a type, a field declared on a type, or a function or
// method. A row naming deleted code matches nothing, so it checks nothing
// and no analyzer reports it; this test does. The table of kinds is
// exhaustive by construction: a new map in Config fails the test until it
// is classified. ScanCalls (bare method names) and NoallocExternals
// (stdlib paths) hold no module names and are skipped.
func TestDefaultConfigNamesResolve(t *testing.T) {
	pkgs, modPath := loadModule(t)
	cfg := DefaultConfig(modPath)

	type kind int
	const (
		kindPackage kind = iota
		kindType
		kindField
		kindFunc // a function or a method
	)
	kinds := map[string]kind{
		"FloatcmpApproved":     kindFunc,
		"CtxFlowEntryPackages": kindPackage,
		"CtxFlowEntryFuncs":    kindFunc,
		"NoallocAmortized":     kindFunc,
		"MapOrderPackages":     kindPackage,
		"LockModePackages":     kindPackage,
		"GuardedTypes":         kindType,
		"FreshFuncs":           kindFunc,
		"LockModePure":         kindFunc,
		"HandlePackages":       kindPackage,
		"HandleBoundFields":    kindField,
	}
	skip := map[string]bool{"ScanCalls": true, "NoallocExternals": true}

	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		if p.InModule {
			byPath[p.Path] = p
		}
	}
	// resolve finds the declaration a "pkgpath.Name" or
	// "pkgpath.Type.member" name refers to. The package is the longest
	// prefix ending before a dot that names a module package.
	resolve := func(name string) (types.Object, error) {
		for i := len(name) - 1; i > 0; i-- {
			if name[i] != '.' || byPath[name[:i]] == nil {
				continue
			}
			p := byPath[name[:i]]
			parts := strings.Split(name[i+1:], ".")
			obj := p.Types.Scope().Lookup(parts[0])
			switch {
			case obj == nil:
				return nil, fmt.Errorf("package %s declares no %s", p.Path, parts[0])
			case len(parts) == 1:
				return obj, nil
			case len(parts) > 2:
				return nil, fmt.Errorf("%s is not a package member or a member of one of its types", name[i+1:])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				return nil, fmt.Errorf("%s.%s is not a type", p.Path, parts[0])
			}
			member, index, _ := types.LookupFieldOrMethod(tn.Type(), true, p.Types, parts[1])
			if member == nil || len(index) != 1 {
				return nil, fmt.Errorf("type %s declares no field or method %s", parts[0], parts[1])
			}
			return member, nil
		}
		return nil, fmt.Errorf("no module package prefixes it")
	}
	check := func(entry, name string, want kind) {
		if want == kindPackage {
			if byPath[name] == nil {
				t.Errorf("%s: %s is not a module package", entry, name)
			}
			return
		}
		obj, err := resolve(name)
		if err != nil {
			t.Errorf("%s: %s does not resolve: %v", entry, name, err)
			return
		}
		var ok bool
		switch want {
		case kindType:
			_, ok = obj.(*types.TypeName)
		case kindField:
			v, isVar := obj.(*types.Var)
			ok = isVar && v.IsField()
		case kindFunc:
			_, ok = obj.(*types.Func)
		}
		if !ok {
			t.Errorf("%s: %s resolves to %v, which is not of the kind the entry expects", entry, name, obj)
		}
	}

	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Map || skip[f.Name] {
			continue
		}
		want, ok := kinds[f.Name]
		if !ok {
			t.Errorf("Config.%s has no kind in this test; classify the new map", f.Name)
			continue
		}
		var names []string
		for _, k := range v.Field(i).MapKeys() {
			names = append(names, k.String())
		}
		sort.Strings(names)
		for _, name := range names {
			check(f.Name, name, want)
		}
	}
	for _, pp := range cfg.PoolPairs {
		check("PoolPairs", pp.Get, kindFunc)
		check("PoolPairs", pp.Put, kindFunc)
	}
}

// TestAllowNamesResolve checks that every //ordlint:allow comment in the
// module names a check of the default suite, or "*". An allow naming a
// deleted or misspelt check suppresses nothing, so it would outlive the
// check it was written for without anyone noticing; this test notices.
func TestAllowNamesResolve(t *testing.T) {
	pkgs, modPath := loadModule(t)
	known := map[string]bool{"*": true}
	for _, a := range NewSuite(DefaultConfig(modPath)).Analyzers {
		known[a.Name] = true
	}
	var bad []string
	for _, pkg := range pkgs {
		if !pkg.InModule {
			continue
		}
		for file, lines := range collectAllows(pkg) {
			for line, checks := range lines {
				for name := range checks {
					if !known[name] {
						bad = append(bad, fmt.Sprintf("%s:%d: //ordlint:allow names %q, which is not a check of the default suite", file, line, name))
					}
				}
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
