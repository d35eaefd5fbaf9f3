#!/usr/bin/env bash
# Runs a set of measured runs and appends one record per run to OUT,
# as JSON lines {"workload", "seed", "result"} for `run.sh compare`:
#   bash perfbench/runs.sh OUT.jsonl FIRST_SEED COUNT [SECONDS [WORKLOAD...]]
# Seeds FIRST_SEED .. FIRST_SEED+COUNT-1 run in turn on each workload
# (default: the two declared in BENCHMARK.json, 30 s windows). To
# compare two commits, run this from each checkout in alternation, one
# seed at a time, so neither side always runs first.
set -euo pipefail
out="$1" first="$2" count="$3" seconds="${4:-30}"
shift $(($# < 4 ? $# : 4))
wls=("$@")
[ ${#wls[@]} -gt 0 ] || wls=(xmark-hot xmark-adhoc)
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for ((seed = first; seed < first + count; seed++)); do
	for wl in "${wls[@]}"; do
		line="$(bash "$here/run.sh" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
		printf '{"workload":"%s","seed":%d,"result":%s}\n' "$wl" "$seed" "$line" >>"$out"
	done
done
