#!/usr/bin/env bash
# Builds selserve and the benchmark from this checkout, then runs the
# benchmark with the arguments given, e.g.
#
#	bash cmd/perfbench/run.sh --workload point-replay --seed 1 --seconds 12 --trace 0
#
# Every build output and run file stays under .bench_build/ at the checkout
# root. Without the repository's sources around cmd/perfbench/ the build
# fails and the script exits nonzero before printing any result.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/cmd/perfbench"
go build -o "$out/selserve" repro/cmd/selserve >&2
go build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" -selserve "$out/selserve" -out "$out" "$@"
