#!/usr/bin/env bash
# The BAT benchmark's one command. Run from anywhere inside a checkout.
#
# One run (the form a harness repeats):
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# builds build-bench/ when needed, runs that workload once in its own
# process and prints its result as the last line of stdout.
#
# A suite (what a person runs):
#   benchmark/run.sh [--seed N] [--workload NAME] [--repeat K]
#                    [--vary-seed] [--trace 0]
# runs the self-test, then K untraced runs (default 5; with --vary-seed
# on seeds N, N+1, ...) plus one traced run of every workload (or of
# NAME), prints one "workload metric median unit p25= p75= spread= n="
# line per metric, writes build-bench/results-seed<N>-<time>.json and
# exits non-zero on any failed check.
#
# Workloads: analysis grid surrogate http. See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no repository sources beside benchmark/ in $root" >&2
  exit 2
fi

suite=1
seed=1
for ((i = 1; i <= $#; i++)); do
  case "${!i}" in
    --seconds) suite=0 ;;
    --repeat) suite=1; break ;;
  esac
done
for ((i = 1; i < $#; i++)); do
  if [[ "${!i}" == --seed ]]; then
    j=$((i + 1))
    seed="${!j}"
  fi
done

# Datasets come from bat_bench's memory-only repository, never a disk
# cache a previous run left behind.
unset BAT_DATASET_DIR

build=build-bench
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
if ((suite)); then
  cmake --build "$build" -j "$jobs" >&2
  ctest --test-dir "$build" --output-on-failure >&2
  exec "$build/bat_bench" --suite "$@" --goldens benchmark/goldens.json \
    --out "$build/results-seed$seed-$(date +%Y%m%d-%H%M%S).json"
fi
cmake --build "$build" --target bat_bench -j "$jobs" >&2
workload=unknown
for ((i = 1; i < $#; i++)); do
  if [[ "${!i}" == --workload ]]; then
    j=$((i + 1))
    workload="${!j}"
  fi
done
exec "$build/bat_bench" "$@" --goldens benchmark/goldens.json \
  --trace-out "$build/trace-$workload-seed$seed.json"
