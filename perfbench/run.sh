#!/usr/bin/env bash
# Builds the benchmark and fpvm-serve from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload vanilla-trap --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the root
# of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal || ! -d cmd/fpvm-serve ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod, internal/ or cmd/fpvm-serve/)" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"

go build -o "$out/bin/fpvm-serve" ./cmd/fpvm-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
