#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cmd/tleserved and the driver
# from the checkout's sources, then runs one workload. Everything it writes
# stays under the checkout (.bench_build/, benchmark/out/).
#
#   bash benchmark/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOENV=off GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$build/tleserved" ./cmd/tleserved) >&2
(cd "$here" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" -tleserved "$build/tleserved" -build-dir "$build" -out "$here/out" "$@"
