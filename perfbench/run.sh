#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#   bash perfbench/run.sh --workload xmark-hot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare BASE.jsonl CHANGE.jsonl
# Build outputs, the Go build cache, stores and span files all stay
# under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-$root/.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local \
	GOENV=off XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --work-dir "$build/work" "$@"
