#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload deep-views --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every other build output stay inside the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so a run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# Keep the toolchain local and its caches and settings inside the build
# directory.
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
export CARGO_TARGET_DIR="$build"
exec "$build/perfbench" "$@"
