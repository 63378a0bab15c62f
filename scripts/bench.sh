#!/usr/bin/env bash
# Host-performance bench driver.
#
# Runs the exp_hostperf report (end-to-end + per-stage host MB/s for
# cuSZ-i and the baselines on all six synthetic datasets) followed by
# the per-stage wall-clock bench, writing BENCH_<n>.json where <n> is
# the first unused index in the output directory.
#
# Usage: scripts/bench.sh [--quick] [--profile] [--gate] [--serve|--multigpu] [--out-dir DIR] [extra exp args...]
#   --quick     2 samples per measurement (CI smoke); default is 5.
#   --profile   enable the cuszi-profile tracer/kernel-table during the
#               run; writes profile_<n>.json next to BENCH_<n>.json and
#               prints the per-kernel roofline report (hostperf only).
#   --gate      after the run, compare BENCH_<n>.json against the newest
#               existing report with the noise-aware regression sentinel
#               (--compare); exits nonzero on a significant regression.
#               A baseline taken under a different config or experiment
#               (e.g. gating a --serve run against a hostperf report) is
#               reported as "not comparable" and skipped, not failed.
#               First run just records.
#   --serve     run the exp_serve open-loop serving-latency sweep
#               (p50/p99/p99.9, saturation curve, cache hit rates)
#               against the multi-tenant engine instead of the hostperf
#               throughput grid. See docs/SERVING.md.
#   --multigpu  run the exp_multigpu sharding sweep (device count x
#               link class x codec: per-device sim clocks, modelled
#               gather-transfer time, sim speedup, byte-identity
#               assert) instead of the hostperf grid. See
#               docs/SHARDING.md.
#   --out-dir   where BENCH_<n>.json goes (default: repo root).
#
# The report includes a per-dataset "overlap" section (batch + slab
# compression at --streams 1 vs --streams N, default 4; pass
# `--streams N` through to change it). sim_speedup is the modelled
# stream-overlap win; wall_speedup only follows it on multi-core hosts.
# Env: CUSZI_BENCH_SAMPLES overrides the sample count either way;
#      CUSZI_PROFILE=1 is equivalent to --profile.
#
# Benchmarks measure the default release build, the one users get: no
# RUSTFLAGS are exported here (a pre-set RUSTFLAGS still applies).

set -euo pipefail
cd "$(dirname "$0")/.."

out_dir="."
quick=0
profile=0
gate=0
serve=0
multigpu=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) quick=1 ;;
        --profile) profile=1 ;;
        --gate) gate=1 ;;
        --serve) serve=1 ;;
        --multigpu) multigpu=1 ;;
        --out-dir) out_dir="$2"; shift ;;
        *) extra+=("$1") ;;
    esac
    shift
done
mkdir -p "$out_dir"

n=1
while [ -e "$out_dir/BENCH_$n.json" ]; do n=$((n + 1)); done
out="$out_dir/BENCH_$n.json"

if [ "$gate" = 1 ]; then
    if [ "$n" -gt 1 ]; then
        baseline="$out_dir/BENCH_$((n - 1)).json"
        extra+=("--compare" "$baseline")
        echo "gate: comparing against $baseline"
    else
        echo "gate: no previous BENCH report in $out_dir — recording a baseline"
    fi
fi

if [ "$quick" = 1 ]; then
    export CUSZI_BENCH_QUICK=1
fi
if [ "$profile" = 1 ]; then
    extra+=("--profile")
fi

if [ "$serve" = 1 ]; then
    tool=exp_serve
elif [ "$multigpu" = 1 ]; then
    tool=exp_multigpu
else
    tool=exp_hostperf
fi

cargo build --release -p cuszi-bench --bin "$tool" --benches
rc=0
./target/release/"$tool" --out "$out" ${extra[@]+"${extra[@]}"} || rc=$?
if [ "$rc" = 2 ]; then
    # Sentinel exit 2 means the baseline was refused (different
    # config/experiment fingerprint), not a regression: the fresh
    # report is still on disk, so record it and move on.
    echo "gate: baseline not comparable — recorded $out without gating"
elif [ "$rc" != 0 ]; then
    exit "$rc"
fi
if [ "$serve" = 0 ] && [ "$multigpu" = 0 ]; then
    cargo bench -p cuszi-bench --bench stages
fi

echo "report: $out"
