#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json). Builds the
# benchmark program from source into .bench_build/ at the checkout root and
# runs it there; everything the toolchain and the benchmark write — build
# cache, binaries, inputs, store directories, traces — stays under that one
# directory, which .gitignore names.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pinpoint" ]; then
	echo "benchmark: $root is not the pinpoint repository (no go.mod or cmd/pinpoint): nothing to measure" >&2
	exit 2
fi
mkdir -p "$build/bin" "$build/gotmp"
# The toolchain's cache, temp files, module cache and config/telemetry
# directory all default to places under $HOME; keep them in the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
(cd "$bench" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
