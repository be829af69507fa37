#!/usr/bin/env bash
# Interleaved A/B perf harness: the paired-ratio methodology the perf PRs
# use to claim wins on a noisy host.
#
# Builds the baseline rev into a scratch worktree (build-ab/), builds HEAD's
# working tree with the release preset, then alternates runs pair by pair —
# base/head on even pairs, head/base on odd — so slow drift in host load
# cancels out of each pair instead of biasing one side. Reports the MEDIAN
# of the per-pair head/base ratios per metric (ratio < 1.0 means HEAD is
# faster); medians of paired ratios survive the load spikes that make
# absolute numbers on this host meaningless.
#
# Metrics:
#   BM_NewidlePass, BM_NewidlePassNothingQueued, BM_SimulatedSecond,
#   BM_WakeupPlacementBusyNode/{4,32}    (micro_sched_ops real_time)
#   random/99-4 us/event                 (sweep_driver: wall_ms*1000/sim_events)
#
# Usage: scripts/ab_bench.sh [--baseline=REV] [--pairs=N] [--min-time=S] [--smoke]
#   --baseline=REV  rev to A/B the working tree against (default: HEAD, i.e.
#                   dirty-tree-vs-last-commit; pass the pre-PR rev for PR claims)
#   --pairs=N       number of interleaved pairs (default 8; claims need >= 8)
#   --smoke         harness self-test for CI: one tiny-budget pair, both sides
#                   the HEAD build (no worktree, ratios ~1.0). Exercises the
#                   interleave loop, both parsers, and the ratio math; the
#                   numbers mean nothing, only exit status does.
#
# Writes the per-pair ratios and medians to out/BENCH_ab.json.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="HEAD"
PAIRS=8
MIN_TIME=0.1
SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --baseline=*) BASELINE="${arg#*=}" ;;
    --pairs=*)    PAIRS="${arg#*=}" ;;
    --min-time=*) MIN_TIME="${arg#*=}" ;;
    --smoke)      SMOKE=1 ;;
    *) echo "usage: $0 [--baseline=REV] [--pairs=N] [--min-time=S] [--smoke]" >&2
       exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"
FILTER='BM_NewidlePass$|BM_NewidlePassNothingQueued|BM_SimulatedSecond|BM_WakeupPlacementBusyNode'

echo "==== [ab] build HEAD (release preset) ===="
cmake --preset release >/dev/null
cmake --build --preset release -j "$JOBS" --target micro_sched_ops sweep_driver

HEAD_ROOT="$PWD"
HEAD_BUILD="$PWD/build-release"
RUNS="$(mktemp -d)"
WORKTREE=""
cleanup() {
  rm -rf "$RUNS"
  if [ -n "$WORKTREE" ]; then
    git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true
  fi
}
trap cleanup EXIT

if [ "$SMOKE" = 1 ]; then
  # Both sides are the HEAD build: no second compile in CI, and a median
  # ratio far from 1.0 would itself flag a broken harness (not enforced —
  # one tiny-budget pair is pure plumbing).
  PAIRS=1
  MIN_TIME=0.001
  BASE_ROOT="$HEAD_ROOT"
  BASE_BUILD="$HEAD_BUILD"
  SWEEP_ARGS=(--threads=1 --scale=0.02 --random=1)
  SCENARIO="random/99-0"
else
  WORKTREE="$PWD/build-ab/tree"
  BASE_ROOT="$WORKTREE"
  BASE_BUILD="$PWD/build-ab/build"
  echo "==== [ab] build baseline $BASELINE (worktree) ===="
  git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true
  git worktree add --force --detach "$WORKTREE" "$BASELINE" >/dev/null
  cmake -S "$BASE_ROOT" -B "$BASE_BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BASE_BUILD" -j "$JOBS" --target micro_sched_ops sweep_driver
  SWEEP_ARGS=(--threads=1)
  SCENARIO="random/99-4"
fi

# One side's turn within a pair: micro benches then the sweep, binaries run
# from their own source root (sweep scenarios resolve paths off the cwd).
run_side() {
  local root="$1" build="$2" dir="$3"
  mkdir -p "$dir"
  (cd "$root" && "$build/bench/micro_sched_ops" --out="$dir" \
      --benchmark_filter="$FILTER" --benchmark_min_time="$MIN_TIME" >/dev/null)
  (cd "$root" && "$build/bench/sweep_driver" --out="$dir" \
      "${SWEEP_ARGS[@]}" >/dev/null)
}

for ((i = 0; i < PAIRS; ++i)); do
  if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
  echo "==== [ab] pair $((i + 1))/$PAIRS ($order) ===="
  for side in $order; do
    if [ "$side" = base ]; then
      run_side "$BASE_ROOT" "$BASE_BUILD" "$RUNS/base-$i"
    else
      run_side "$HEAD_ROOT" "$HEAD_BUILD" "$RUNS/head-$i"
    fi
  done
done

mkdir -p out
python3 - "$RUNS" "$PAIRS" "$SCENARIO" "$BASELINE" out/BENCH_ab.json <<'EOF'
import json
import statistics
import sys

runs, pairs, scenario, baseline, report_path = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5])


def metrics(side, i):
    m = {}
    with open(f"{runs}/{side}-{i}/BENCH_micro_sched_ops.json") as f:
        for row in json.load(f)["results"]:
            m[row["name"]] = row["real_time"]
    with open(f"{runs}/{side}-{i}/BENCH_sweep.json") as f:
        for row in json.load(f)["results"]:
            if row["name"] == scenario:
                m[f"{scenario} us/event"] = (
                    row["wall_ms"] * 1000.0 / row["sim_events"])
    return m


ratios = {}
for i in range(pairs):
    base, head = metrics("base", i), metrics("head", i)
    for name in sorted(base):
        if name in head and base[name] > 0:
            ratios.setdefault(name, []).append(head[name] / base[name])

report = {"baseline": baseline, "pairs": pairs, "metrics": {}}
print(f"\npaired head/base ratios vs {baseline} ({pairs} pairs; <1.0 = HEAD faster)")
for name, rs in ratios.items():
    med = statistics.median(rs)
    report["metrics"][name] = {"median_ratio": med, "ratios": rs}
    print(f"  {name:<34} median {med:.3f}  "
          f"[{min(rs):.3f} .. {max(rs):.3f}]")
    if not all(r > 0 for r in rs):
        sys.exit(f"non-positive ratio for {name}: {rs}")
if not ratios:
    sys.exit("no common metrics parsed out of either side")

with open(report_path, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
print(f"wrote {report_path}")
EOF
