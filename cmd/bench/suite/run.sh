#!/usr/bin/env bash
# Builds the benchmark and gschedd from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash cmd/bench/suite/run.sh --workload proxies --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go caches live under $CARGO_TARGET_DIR (default
# .bench_build) at the repository root, so nothing is written outside it.
set -euo pipefail

suite=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$suite/../../.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off
# The build needs nothing from the network: no modules, no toolchain.
export GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$build/bin" "$build/tmp"

go build -o "$build/bin/gschedd" ./cmd/gschedd
(cd "$suite" && go build -o "$build/bin/suite" .)
if [ "${1:-}" = compare ]; then
	exec "$build/bin/suite" "$@"
fi
exec "$build/bin/suite" -gschedd "$build/bin/gschedd" "$@"
