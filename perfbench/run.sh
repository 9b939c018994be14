#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it
# with the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload fig9-local-hdf5 --seed 1789 --seconds 40 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
