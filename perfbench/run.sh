#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload optimize_fig1 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build
# cache included, stays in .bench_build/ under the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --ledger "$out/ledger" "$@"
