#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash e2ebench/run.sh --workload mesh-study --seed 42 --seconds 36 --trace 0
#
# It builds the benchmark and the onocsimd daemon from source into
# .bench_build/ (build cache included, so nothing is written outside the
# checkout), then runs the benchmark. Without the onocsim module next to it
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

go -C "$root/e2ebench" build -o "$out/bin/e2ebench" .
go -C "$root/e2ebench" build -o "$out/bin/onocsimd" onocsim/cmd/onocsimd
exec "$out/bin/e2ebench" -root "$root" "$@"
