#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments are passed through, e.g.
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory. The build fails, and the script exits non-zero
# without printing a result, when the repository around perfbench/ is
# missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
