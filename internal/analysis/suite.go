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
	// NoallocExternals are package paths deepnoalloc accepts as
	// allocation-free when a kernel's call chain leaves the module.
	NoallocExternals map[string]bool
	// NoallocAmortized are qualified function names deepnoalloc skips
	// entirely: documented one-time cache fills whose steady state the
	// dynamic allocation gates prove free.
	NoallocAmortized map[string]bool
	// LockHoldPackages are the packages lockhold audits for mutexes held
	// across blocking operations.
	LockHoldPackages map[string]bool
	// MapOrderPackages are the packages maporder audits for map-range
	// iteration feeding appended results.
	MapOrderPackages map[string]bool
	// BorrowSinks maps qualified function names to the reason borrowck
	// must keep borrows out of them: calls that retain their arguments
	// beyond the request (the server's result cache).
	BorrowSinks map[string]string
	// LockModePackages are the packages lockmode audits for RWMutex
	// read/write discipline over the guarded types.
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
	// HandlePackages are the packages whose bodies the handle layer
	// (handleprov, stridebound, genstale, narrowcast) audits.
	HandlePackages map[string]bool
	// HandleRuns are the flat runs ("pkgpath.Type.field" -> RunSpec): the
	// arena-backed slices and slot maps whose subscripts need provenance.
	HandleRuns map[string]RunSpec
	// HandleTypes are named integer types that carry a handle class
	// wherever they appear (rtree.NodeRef).
	HandleTypes map[string]HandleClass
	// HandleBoundFields are capacity fields and count runs accepted as
	// stride offsets and guard bounds ("pkgpath.Type.field").
	HandleBoundFields map[string]bool
	// HandleGenFields are generation-counter fields whose reads yield
	// HandleGen values ("pkgpath.Type.field").
	HandleGenFields map[string]bool
	// HandleOwners are flat-core structures whose //ordlint:writer methods
	// invalidate outstanding handles and views ("pkgpath.Type").
	HandleOwners map[string]bool
	// HandleStableViews are borrow-annotated functions whose views
	// survive mutations (the slot-stability contract); unlisted borrow
	// views are killed by genstale's invalidation points.
	HandleStableViews map[string]bool
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
//   - ctxflow treats every function of internal/server plus the facade's
//     ORDCtx/ORUCtx as entry points: whatever a request can reach must stay
//     cancellable, and a loop calling Next, NextCtx or fetch advances a
//     progressive scan;
//   - deepnoalloc accepts math, sort and sync/atomic as allocation-free
//     stdlib destinations and skips geom.simplexFor, the documented
//     per-dimension constant-cache fill;
//   - lockhold audits internal/server, the only package that holds locks
//     near I/O;
//   - maporder audits the packages that assemble ordered results from
//     map-keyed state: internal/core, internal/skyband, internal/server;
//   - borrowck runs everywhere (//ordlint:borrows annotations seed it) and
//     keeps borrows of packed point storage out of the server's result
//     cache, the one store that outlives requests;
//   - lockmode audits internal/server, where the per-dataset RWMutex
//     guards Dataset/Collection calls; Dataset.Dim is pure
//     (construction-immutable) and the dataset constructors yield fresh
//     unpublished objects;
//   - the handle layer (handleprov, stridebound, genstale, narrowcast)
//     covers the flat spatial core, every package that holds its integer
//     handles — rtree (and the legacy oracle), skyband, topk, the server
//     (whose generation field is the configured gen counter), and narrow
//     (the guarded conversion gate) — and collection, whose writers
//     mutate the tree. The runs, capacity fields and stable views mirror
//     the arena layout documented in internal/rtree: node-indexed
//     level/count/rseg arenas, the stride-windowed ents/rects runs, the
//     slot-indexed chunk storage that holds the one copy of each record,
//     and the free lists as element providers.
func DefaultConfig(modulePath string) Config {
	internal := func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, modulePath+"/internal/")
	}
	rt := modulePath + "/internal/rtree"
	col := modulePath + "/internal/collection"
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
		LockHoldPackages: map[string]bool{
			modulePath + "/internal/server": true,
		},
		MapOrderPackages: map[string]bool{
			modulePath + "/internal/core":    true,
			modulePath + "/internal/skyband": true,
			modulePath + "/internal/server":  true,
		},
		BorrowSinks: map[string]string{
			modulePath + "/internal/server.lruCache.Put": "the result cache retains bodies across requests",
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
		HandleRuns: map[string]RunSpec{
			rt + ".Tree.level":     {Index: HandleNode},
			rt + ".Tree.count":     {Index: HandleNode},
			rt + ".Tree.rseg":      {Index: HandleNode, Elem: HandleNode},
			rt + ".Tree.ents":      {Index: HandleNode, Elem: HandleNode | HandleSlot, Stride: true},
			rt + ".Tree.rects":     {Index: HandleNode, Stride: true},
			rt + ".Tree.chunks":    {Index: HandleSlot},
			rt + ".Tree.idAt":      {Index: HandleSlot},
			rt + ".Tree.slotOf":    {Elem: HandleSlot},
			rt + ".Tree.freeNodes": {Elem: HandleNode},
			rt + ".Tree.freeSegs":  {Elem: HandleNode},
			rt + ".Tree.freeSlots": {Elem: HandleSlot},
		},
		HandleTypes: map[string]HandleClass{
			rt + ".NodeRef": HandleNode,
		},
		HandleBoundFields: map[string]bool{
			rt + ".Tree.dim":    true,
			rt + ".Tree.fanout": true,
			rt + ".Tree.entCap": true,
			rt + ".Tree.count":  true,
		},
		HandleGenFields: map[string]bool{
			modulePath + "/internal/server.namedDataset.gen": true,
		},
		HandleOwners: map[string]bool{
			modulePath + ".Dataset": true,
			col + ".Collection":     true,
			rt + ".Tree":            true,
			rt + "/legacy.Tree":     true,
		},
		HandleStableViews: map[string]bool{
			// Slot-backed vectors: the chunk storage never reallocates, so
			// these views stay addressable across mutations (their
			// coordinates may change — they track the live record).
			rt + ".Tree.LeafPoint":  true,
			rt + ".Tree.Point":      true,
			rt + ".Tree.slotVec":    true,
			col + ".Collection.Get": true,
			// Stable by construction: the tree pointer itself.
			col + ".Collection.Tree": true,
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
	hc := NewHandleConfig(cfg)
	return &Suite{fresh: cfg.FreshFuncs, handle: hc, Analyzers: []*Analyzer{
		NewFloatcmp(cfg.FloatcmpApproved),
		NewSenterr(senterr),
		NewNopanic(nopanic),
		NewPrintguard(printguard),
		NewWsescape(cfg.WorkspacePackage),
		NewPoolpair(cfg.PoolPairs),
		NewNoalloc(cfg.WorkspacePackage),
		NewCtxflow(cfg.CtxFlowEntryPackages, cfg.CtxFlowEntryFuncs, cfg.ScanCalls),
		NewDeepnoalloc(cfg.NoallocExternals, cfg.NoallocAmortized),
		NewLockhold(cfg.LockHoldPackages),
		NewMaporder(cfg.MapOrderPackages),
		NewBorrowck(cfg.BorrowSinks, cfg.FreshFuncs),
		NewLockmode(cfg.LockModePackages, cfg.GuardedTypes, cfg.FreshFuncs, cfg.LockModePure),
		NewHandleprov(hc),
		NewStridebound(hc),
		NewGenstale(hc),
		NewNarrowcast(hc),
	}}
}
