#!/usr/bin/env bash
# Builds ordbench from source and runs it. Run from the repository root:
#
#   bash _bench/run.sh --workload ord-zipf --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the binary, the Go build cache and the spans of traced
# runs. A failed build exits non-zero before the benchmark prints anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/_bench" && go build -buildvcs=false -o "$out/ordbench" .)
exec "$out/ordbench" "$@"
