#!/usr/bin/env bash
# Same-runner throughput A/B between two source trees of this repository.
#
#   bash .github/perf_ab.sh BASE_TREE HEAD_TREE
#
# Runs the `deep` perfbench workload (seed 1, 10 s, untraced) from each tree,
# three times each, alternating which tree runs first.
# Each tree builds into its own CARGO_TARGET_DIR.  Reads
# `metrics.scenarios_per_s.value` from the last line of each run's output and
# exits 1 if the head's median falls below (1 - 0.25) x the base's median;
# 0.25 is the `scenarios_per_s` bound in BENCHMARK.json.
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
pairs=3
max_drop=0.25

# Prints one run's scenarios/s.
scenarios_per_s() {
  (cd "$1" && CARGO_TARGET_DIR="$1/.bench_build" \
    bash perfbench/run.sh --workload deep --seed 1 --seconds 10 --trace 0) |
    tail -n 1 | jq -e '.metrics.scenarios_per_s.value'
}

# The middle value of an odd number of arguments.
median() {
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print v[(NR + 1) / 2] }'
}

base_runs=()
head_runs=()
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    base_runs+=("$(scenarios_per_s "$base")")
    head_runs+=("$(scenarios_per_s "$head")")
  else
    head_runs+=("$(scenarios_per_s "$head")")
    base_runs+=("$(scenarios_per_s "$base")")
  fi
  echo "pair $((i + 1)): base ${base_runs[i]} scenarios/s, head ${head_runs[i]} scenarios/s"
done

base_median=$(median "${base_runs[@]}")
head_median=$(median "${head_runs[@]}")
floor=$(awk -v b="$base_median" -v d="$max_drop" 'BEGIN { print b * (1 - d) }')
echo "median: base $base_median, head $head_median scenarios/s (floor $floor)"
if awk -v h="$head_median" -v f="$floor" 'BEGIN { exit !(h < f) }'; then
  echo "perf A/B: FAILED (head is more than ${max_drop} below base)"
  exit 1
fi
echo "perf A/B: OK"
