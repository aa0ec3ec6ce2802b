#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the arguments
# given. Everything the build and the run write — Go's build cache
# included — stays inside that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" CGO_ENABLED=0 GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -scratch "$build" "$@"
