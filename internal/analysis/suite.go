package analysis

import "strings"

// Config scopes the analyzers. The zero value disables every path-scoped
// check; DefaultConfig returns the configuration enforced on this module.
type Config struct {
	// FloatcmpApproved lists qualified function names
	// ("pkgpath.Recv.Method" or "pkgpath.Func") whose bodies may compare
	// floats exactly — the vetted epsilon/dominance primitives.
	FloatcmpApproved map[string]bool
	// SenterrCallee restricts senterr to calls into matching packages.
	SenterrCallee func(pkgPath string) bool
	// NopanicPackage selects the library packages where nopanic applies.
	NopanicPackage func(pkgPath string) bool
	// PrintguardPackage selects the library packages where printguard
	// applies.
	PrintguardPackage func(pkgPath string) bool
	// WorkspacePackage gates the workspace naming convention used by the
	// dataflow checks: types named Workspace/Builder/Searcher/Heap (or
	// suffixed …Workspace/…WS) declared in a matching package are treated
	// as single-owner reusable state. Types whose doc comment says
	// "not goroutine-safe" (and friends) are recognized regardless.
	WorkspacePackage func(pkgPath string) bool
	// PoolPairs lists the Get/Put method pairs poolpair balances.
	PoolPairs []PoolPair
	// CtxFlowEntryPackages are the packages whose every function is a
	// ctxflow entry point (the query server's handlers).
	CtxFlowEntryPackages map[string]bool
	// CtxFlowEntryFuncs are additional qualified function names treated as
	// ctxflow entry points (the facade's Ctx methods).
	CtxFlowEntryFuncs map[string]bool
	// ScanCalls are the method names that advance a progressive scan;
	// ctxflow treats a loop calling one as potentially unbounded.
	ScanCalls map[string]bool
	// NoallocExternals are package paths noalloc accepts as
	// allocation-free when a kernel's call chain leaves the module.
	NoallocExternals map[string]bool
	// NoallocAmortized are qualified function names noalloc's call-chain
	// walk skips entirely: documented one-time cache fills whose steady
	// state the dynamic allocation gates prove free.
	NoallocAmortized map[string]bool
	// MapOrderPackages are the packages maporder audits for map-range
	// iteration feeding appended results.
	MapOrderPackages map[string]bool
	// LockModePackages are the packages lockmode audits: RWMutex
	// read/write discipline over the guarded types, and locks held across
	// blocking operations.
	LockModePackages map[string]bool
	// GuardedTypes are qualified type names whose methods require the
	// per-dataset lock: writers the write lock, readers at least the read
	// lock.
	GuardedTypes map[string]bool
	// FreshFuncs are qualified constructor names whose results are still
	// unpublished: lockmode exempts calls on them until they escape
	// (passed as an argument, stored, or sent).
	FreshFuncs map[string]bool
	// LockModePure are qualified methods on guarded types that read only
	// construction-immutable state and may run without the lock.
	LockModePure map[string]bool
	// HandlePackages are the packages holding the flat core's integer
	// handles, whose narrowing conversions narrowcast audits.
	HandlePackages map[string]bool
	// HandleBoundFields are the capacity fields and count runs
	// ("pkgpath.Type.field") narrowcast accepts as guard bounds.
	HandleBoundFields map[string]bool
}

// DefaultConfig is the configuration `cmd/ordlint` enforces on this module:
//
//   - floatcmp approves the exact-comparison primitives of internal/geom and
//     internal/linalg (Vector.Equal; the pivot-skip zero tests inside the
//     eliminators, which compare against values that are exactly zero by
//     construction);
//   - senterr applies to calls into any module package that exports Err*
//     sentinels (the facade's ErrBadSeed/ErrBadParams contract and friends);
//   - nopanic/printguard cover every internal/* library package, leaving
//     cmd/ and examples/ free to print and exit;
//   - wsescape and noalloc recognize workspace types in every module
//     package (the naming convention plus "not goroutine-safe" doc
//     phrases), so escaping aliases and annotated kernels are checked
//     wherever they live;
//   - poolpair balances the two free lists: the explorer's node pool
//     (exploreWS.node/recycle) and the hull builder's facet pool
//     (Builder.allocFacet/freeFacet);
//   - narrowcast covers every package that holds the flat core's integer
//     handles — rtree (and the legacy oracle), collection, skyband, topk,
//     the server and narrow (the guarded conversion gate) — and accepts
//     the tree's dim, fanout and entCap fields and its count run as guard
//     bounds;
//   - ctxflow treats every function of internal/server plus the facade's
//     ORDCtx/ORUCtx as entry points: whatever a request can reach must stay
//     cancellable, and a loop calling Next, NextCtx or fetch advances a
//     progressive scan;
//   - noalloc accepts math, sort and sync/atomic as allocation-free
//     stdlib destinations of a kernel's call chains and skips
//     geom.simplexFor, the documented per-dimension constant-cache fill;
//   - maporder audits the packages that assemble ordered results from
//     map-keyed state: internal/core, internal/skyband, internal/server;
//   - lockmode audits internal/server, the only package that holds locks
//     near I/O, where the per-dataset RWMutex guards Dataset/Collection
//     calls; Dataset.Dim is pure (construction-immutable) and the dataset
//     constructors yield fresh unpublished objects. No borrow check is
//     needed beside it: every slice the facade returns is the caller's
//     own copy, and Collection/Tree views never leave package ordu.
func DefaultConfig(modulePath string) Config {
	internal := func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, modulePath+"/internal/")
	}
	rt := modulePath + "/internal/rtree"
	return Config{
		FloatcmpApproved: map[string]bool{
			modulePath + "/internal/geom.Vector.Equal": true,
			modulePath + "/internal/linalg.Solve":      true,
			modulePath + "/internal/linalg.NullVector": true,
		},
		SenterrCallee: func(pkgPath string) bool {
			return pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/")
		},
		NopanicPackage:    internal,
		PrintguardPackage: internal,
		WorkspacePackage: func(pkgPath string) bool {
			return pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/")
		},
		PoolPairs: []PoolPair{
			{Get: modulePath + "/internal/core.exploreWS.node", Put: modulePath + "/internal/core.exploreWS.recycle"},
			{Get: modulePath + "/internal/hull.Builder.allocFacet", Put: modulePath + "/internal/hull.Builder.freeFacet"},
			// Scratch pooled across queries (sync.Pools): the scan state of
			// the skyband retrievals, ORD's scan state, the explorer's
			// workspaces, and the explorer that holds its main workspace.
			{Get: modulePath + "/internal/skyband.acquireScan", Put: modulePath + "/internal/skyband.releaseScan"},
			{Get: modulePath + "/internal/core.acquireOrd", Put: modulePath + "/internal/core.releaseOrd"},
			{Get: modulePath + "/internal/core.acquireWS", Put: modulePath + "/internal/core.releaseWS"},
			{Get: modulePath + "/internal/core.newExplorer", Put: modulePath + "/internal/core.releaseExplorer"},
		},
		CtxFlowEntryPackages: map[string]bool{
			modulePath + "/internal/server": true,
		},
		CtxFlowEntryFuncs: map[string]bool{
			modulePath + ".Dataset.ORDCtx": true,
			modulePath + ".Dataset.ORUCtx": true,
		},
		ScanCalls: map[string]bool{
			"Next":    true,
			"NextCtx": true,
			"fetch":   true,
		},
		NoallocExternals: map[string]bool{
			"math":        true,
			"sort":        true,
			"sync/atomic": true,
		},
		NoallocAmortized: map[string]bool{
			modulePath + "/internal/geom.simplexFor": true,
		},
		MapOrderPackages: map[string]bool{
			modulePath + "/internal/core":    true,
			modulePath + "/internal/skyband": true,
			modulePath + "/internal/server":  true,
		},
		LockModePackages: map[string]bool{
			modulePath + "/internal/server": true,
		},
		GuardedTypes: map[string]bool{
			modulePath + ".Dataset":                        true,
			modulePath + "/internal/collection.Collection": true,
		},
		FreshFuncs: map[string]bool{
			modulePath + ".NewDataset":                     true,
			modulePath + "/internal/server.BuildDataset":   true,
			modulePath + "/internal/collection.New":        true,
			modulePath + "/internal/collection.FromPoints": true,
		},
		LockModePure: map[string]bool{
			modulePath + ".Dataset.Dim": true,
		},
		HandlePackages: map[string]bool{
			modulePath + "/internal/rtree":        true,
			modulePath + "/internal/rtree/legacy": true,
			modulePath + "/internal/collection":   true,
			modulePath + "/internal/skyband":      true,
			modulePath + "/internal/topk":         true,
			modulePath + "/internal/server":       true,
			modulePath + "/internal/narrow":       true,
		},
		HandleBoundFields: map[string]bool{
			rt + ".Tree.dim":    true,
			rt + ".Tree.fanout": true,
			rt + ".Tree.entCap": true,
			rt + ".Tree.count":  true,
		},
	}
}

// NewSuite assembles the full analyzer suite for a configuration.
func NewSuite(cfg Config) *Suite {
	nope := func(string) bool { return false }
	senterr, nopanic, printguard := cfg.SenterrCallee, cfg.NopanicPackage, cfg.PrintguardPackage
	if senterr == nil {
		senterr = nope
	}
	if nopanic == nil {
		nopanic = nope
	}
	if printguard == nil {
		printguard = nope
	}
	return &Suite{Analyzers: []*Analyzer{
		NewFloatcmp(cfg.FloatcmpApproved),
		NewSenterr(senterr),
		NewNopanic(nopanic),
		NewPrintguard(printguard),
		NewWsescape(cfg.WorkspacePackage),
		NewPoolpair(cfg.PoolPairs),
		NewNarrowcast(cfg.HandlePackages, cfg.HandleBoundFields),
		NewCtxflow(cfg.CtxFlowEntryPackages, cfg.CtxFlowEntryFuncs, cfg.ScanCalls),
		NewNoalloc(cfg.WorkspacePackage, cfg.NoallocExternals, cfg.NoallocAmortized),
		NewMaporder(cfg.MapOrderPackages),
		NewLockmode(cfg.LockModePackages, cfg.GuardedTypes, cfg.FreshFuncs, cfg.LockModePure),
	}}
}
