package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewMaporder builds the maporder analyzer, guarding the determinism of
// ordered output (the paper's operators return rank-sensitive results, and
// the byte-for-byte parity tests depend on reproducible
// orderings): inside the scoped packages, appending to a slice while
// ranging over a map bakes Go's randomized iteration order into the
// result. The append is exempt when the destination slice is passed to a
// sort call after the range statement — the collect-then-sort idiom the
// module uses (`for id := range cand { ids = append(ids, id) }` followed
// by `sort.Ints(ids)`), which re-establishes a canonical order.
func NewMaporder(packages map[string]bool) *Analyzer {
	a := &Analyzer{
		Name:  "maporder",
		Doc:   "appends inside map-range iteration feed randomized order into results unless the destination is sorted afterwards",
		Layer: "interproc",
	}
	a.Run = func(pass *Pass) {
		if !packages[pass.PkgPath] {
			return
		}
		info := pass.TypesInfo
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkMaporder(pass, info, fn.Body)
			}
		}
	}
	return a
}

func checkMaporder(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	// Also check function literals: handlers collect results in closures.
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := typeOf(info, rng.X); t == nil || !isMapType(t) {
			return true
		}
		inspectShallow(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			b, ok := calleeObject(info, call).(*types.Builtin)
			if !ok || b.Name() != "append" || len(call.Args) == 0 {
				return true
			}
			dest := exprString(ast.Unparen(call.Args[0]))
			if dest == "" || sortedAfter(info, body, rng.End(), dest) {
				return true
			}
			pass.Report(call.Pos(), "append to %s inside map-range iteration bakes randomized order into the result; sort the keys first or sort %s after the loop",
				dest, dest)
			return true
		})
		return true
	})
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortedAfter reports whether dest (matched by its rendered expression) is
// passed to a sort call after position `after` — the canonical re-ordering
// that neutralizes map iteration order. Recognized sorters: the sort
// package's Ints/Strings/Float64s/Slice/SliceStable/Sort/Stable and the
// slices package's Sort* functions, with dest as the first argument.
func sortedAfter(info *types.Info, body *ast.BlockStmt, after token.Pos, dest string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || len(call.Args) == 0 {
			return true
		}
		f, ok := calleeObject(info, call).(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		sorter := false
		switch f.Pkg().Path() {
		case "sort":
			switch f.Name() {
			case "Ints", "Strings", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
				sorter = true
			}
		case "slices":
			sorter = strings.HasPrefix(f.Name(), "Sort")
		}
		if sorter && exprString(ast.Unparen(call.Args[0])) == dest {
			found = true
		}
		return true
	})
	return found
}
