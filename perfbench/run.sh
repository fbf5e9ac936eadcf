#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload thm1-sparse-adv --seed 1 --seconds 20 --trace 0
#
# perfbench/ is a Go module of its own that imports the repository module
# through a replace directive. The build never touches the network, and its
# binary, cache and temporary files all stay under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; go.mod and perfbench/go.mod are both needed" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
	go -C perfbench build -buildvcs=false -o "$build/perfbench" .

commit=unknown
if [ -d .git ]; then
	commit=$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT=$commit exec "$build/perfbench" "$@"
