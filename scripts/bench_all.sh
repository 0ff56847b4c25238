#!/usr/bin/env bash
# Build Release and run every artifact-producing bench binary from the
# repository root, so each drops its BENCH_<name>.json next to the
# sources.  Commit the refreshed artifacts to extend the perf
# trajectory; scripts/perf_gate.py holds fresh runs to the committed
# baseline.
#
# Usage:  scripts/bench_all.sh [bench ...]
#   With no arguments every artifact bench runs; otherwise only the
#   named ones (e.g. `scripts/bench_all.sh bench_kernel bench_campaign`).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-release"

# Every bench that calls writeBenchArtifact(), cheapest first.
all_benches=(
    fig1_configs fig2_drf0 fig3_stall sweep_latency sweep_syncratio
    sweep_mlp sweep_procs bench_spinning bench_monitor bench_kernel
    bench_explore bench_campaign bench_profiler bench_fleet
)
benches=("${@:-${all_benches[@]}}")

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j"$(nproc)" --target "${benches[@]}"

cd "$root"
for b in "${benches[@]}"; do
    echo "== $b =="
    "$build/bench/$b"
done

echo
echo "Artifacts at the repo root:"
ls -l "$root"/BENCH_*.json
