#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload synthetic-drain --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, temporary files, the
# engine's in-flight spill files, CPU profiles, span dumps) stays under
# .bench_build/perfbench in the current directory. Build output goes to
# standard error so the last line of standard output is the result.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomodcache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
