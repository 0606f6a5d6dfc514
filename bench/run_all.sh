#!/usr/bin/env bash
# Smoke-runs every experiment binary (tables print; the google-benchmark
# timing loops are skipped via --benchmark_filter=skip), including the
# campaign-engine gates (bench_campaign) and the streaming-SCA gates
# (bench_sca_streaming). Their verdict records land in the build dir.
# Speed is perfbench's job (perfbench/run.py), not this script's.
#
# Hardened for unattended CI use: each binary runs under a wall-clock
# timeout, a failing or hanging binary is reported and counted instead of
# silently truncating the sweep, and the script exits non-zero if any
# experiment failed.
#
# Usage: bench/run_all.sh [build-dir]   (default: build)
# Knobs: HWSEC_CAMPAIGN_TRIALS  trials per in-process gate run (default 400)
#        HWSEC_SHARD_TRIALS     trials per sharded run (default 1024)
#        HWSEC_BENCH_JSON       campaign verdicts (default <build-dir>/BENCH_campaign.json)
#        HWSEC_STREAM_TRACES    streaming-SCA campaign size (default 10^6)
#        HWSEC_STREAM_JSON      streaming record (default <build-dir>/BENCH_sca_streaming.json)
#        HWSEC_BENCH_TIMEOUT    per-binary timeout in seconds (default 900)
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"
TIMEOUT_SECS="${HWSEC_BENCH_TIMEOUT:-900}"
export HWSEC_BENCH_JSON="${HWSEC_BENCH_JSON:-$BUILD_DIR/BENCH_campaign.json}"
export HWSEC_STREAM_JSON="${HWSEC_STREAM_JSON:-$BUILD_DIR/BENCH_sca_streaming.json}"

if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found — build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

# coreutils timeout is present everywhere we run CI; degrade gracefully
# (no wall-clock guard) where it is missing rather than failing outright.
if command -v timeout >/dev/null 2>&1; then
  run_guarded() { timeout --signal=KILL "$TIMEOUT_SECS" "$@"; }
else
  echo "warning: 'timeout' not found; benches run without a wall-clock guard" >&2
  run_guarded() { "$@"; }
fi

BENCHES=(
  bench_fig1_matrix
  bench_sec3_architectures
  bench_sec41_cache_attacks
  bench_sec41_defenses
  bench_sec41_other_channels
  bench_sec42_spectre
  bench_sec42_meltdown_foreshadow
  bench_sec5_power_sca
  bench_sec5_fault
  bench_sec5_clkscrew
  bench_sim_microbench
  bench_conclusion_advisor
  bench_campaign
  bench_sca_streaming
)

failures=0
failed_names=()
for b in "${BENCHES[@]}"; do
  echo "==== $b ===="
  rc=0
  run_guarded "$BENCH_DIR/$b" --benchmark_filter=skip || rc=$?
  if [ "$rc" -ne 0 ]; then
    if [ "$rc" -ge 124 ]; then
      echo "FAIL: $b timed out or was killed (exit $rc, limit ${TIMEOUT_SECS}s)" >&2
    else
      echo "FAIL: $b exited with status $rc" >&2
    fi
    failures=$((failures + 1))
    failed_names+=("$b")
  fi
  echo
done

if [ "$failures" -ne 0 ]; then
  echo "== $failures experiment(s) FAILED: ${failed_names[*]}" >&2
  exit 1
fi
echo "== all ${#BENCHES[@]} experiments passed (records: $HWSEC_BENCH_JSON, $HWSEC_STREAM_JSON)"
