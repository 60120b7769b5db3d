#!/usr/bin/env bash
# Builds the round-level benchmark from source and runs it from the
# repository root. Build outputs and the Go build cache stay under
# .bench_build/ in the repository, so a run writes nothing outside it.
#
#   bash roundbench/run.sh --workload joint-10ap --seed 1 --seconds 30 --trace 0
#   bash roundbench/run.sh steady [-sets 2]
#   bash roundbench/run.sh layers
#   bash roundbench/run.sh reference
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/roundbench" . 1>&2
cd "$root"
exec "$out/roundbench" "$@"
