GO ?= go

.PHONY: all build lint lint-budget test race cover bench benchdiff fuzz serve experiments examples clean

all: build test

build:
	$(GO) build ./...

# Project-specific static analysis, all eleven checks: the syntactic
# suite (floatcmp, senterr, nopanic, printguard), the CFG/dataflow suite
# (wsescape, poolpair, narrowcast) and the interprocedural suite (ctxflow,
# noalloc, maporder, lockmode); exits non-zero on any finding.
# This target is the single lint invocation: `make test` and CI both go
# through it.
lint:
	$(GO) run ./cmd/ordlint ./...

# Lint wall-time budget: the suite must finish within LINT_BUDGET seconds.
# The full 11-check run takes ~5s locally (dominated by type-checking the
# stdlib closure from source); the default budget is ~4x that plus headroom
# for slower CI runners. A blown budget means a check went super-linear —
# catch it here, not by watching CI get slower release by release.
LINT_BUDGET ?= 20
lint-budget:
	@start=$$(date +%s); \
	$(GO) run ./cmd/ordlint ./... || exit $$?; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "ordlint ./... took $${elapsed}s (budget $(LINT_BUDGET)s)"; \
	if [ $$elapsed -gt $(LINT_BUDGET) ]; then \
		echo "lint wall time $${elapsed}s exceeds budget $(LINT_BUDGET)s" >&2; exit 1; \
	fi

test: lint
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Run the full benchmark suite and snapshot it as BENCH_$(TAG).json (e.g.
# `make bench TAG=pr3`). The raw output lands in BENCH_$(TAG).txt; the JSON
# snapshot is what gets committed and fed to cmd/benchdiff. -cpu 2 matches
# CI's flat-core gate: ORU's allocations depend on GOMAXPROCS, because a
# sync.Pool keeps the pooled query scratch per P, and the snapshot records
# the value (benchdiff -allocs-only refuses to compare runs at different
# ones).
TAG ?= local
bench:
	$(GO) test -cpu 2 -bench=. -benchmem . | tee BENCH_$(TAG).txt
	$(GO) run ./cmd/benchdiff -dump BENCH_$(TAG).txt > BENCH_$(TAG).json

# Compare two bench snapshots (raw .txt or .json); fails on threshold
# regressions. Usage: make benchdiff OLD=BENCH_pr3.json NEW=BENCH_local.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# Exercise the property-based fuzz targets beyond their seed corpora.
fuzz:
	$(GO) test ./internal/geom -fuzz FuzzDominates -fuzztime 30s
	$(GO) test ./internal/rtree -fuzz FuzzFlatTreeMutations -fuzztime 30s
	$(GO) test ./internal/skyband -fuzz FuzzIRD -fuzztime 30s
	$(GO) test ./internal/core -fuzz FuzzORD -fuzztime 30s

# Start the query server on :8375 with a generated demo dataset.
serve:
	$(GO) run ./cmd/ordud -addr :8375 -gen demo=ANTI:50000:4:1

# Regenerate every table/figure of the paper's evaluation (reduced grid).
experiments:
	$(GO) run ./cmd/experiments -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/nba
	$(GO) run ./examples/tripadvisor
	$(GO) run ./examples/hotels

clean:
	$(GO) clean ./...
