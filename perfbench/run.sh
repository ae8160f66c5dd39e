#!/usr/bin/env bash
# Builds the benchmark and the sketchd server from this checkout, then runs
# one workload (or compares two run records):
#
#   bash perfbench/run.sh --workload da1-seq --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare A.json B.json
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, temporary files, the two binaries, run
# records and span dumps. Build output goes to standard error, so the last
# line of standard output is the benchmark's result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root" && go build -o "$out/bin/sketchd" ./cmd/sketchd) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
cd "$root"
if [ "${1:-}" = compare ]; then
  exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -sketchd "$out/bin/sketchd" -out "$out/runs" "$@"
