#!/usr/bin/env bash
# Repository benchmark entry point. Run it from the repository root:
#
#   bash perfbench/run.sh --workload rl-solve --seed 1 --seconds 20 --trace 0
#
# It builds the shipped tacsolve and tacsim binaries and the perfbench
# driver into .bench_build/ (the Go build cache too, so nothing is written
# outside the checkout), then runs the driver with the given arguments.
# The last line of standard output is the JSON result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tacsolve || ! -d cmd/tacsim || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; go.mod, cmd/tacsolve and cmd/tacsim are needed" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off

go build -o "$out/bin/" ./cmd/tacsolve ./cmd/tacsim
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -tmp "$out/tmp" "$@"
