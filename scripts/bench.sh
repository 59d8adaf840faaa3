#!/usr/bin/env bash
# Regenerates the checked-in benchmark JSON:
#
#   BENCH_PR3.json — incremental-session sweep (rebuild-per-iteration vs
#                    one persistent solver session across the backward
#                    fixed point, with session-reuse counters);
#   BENCH_PR4.json — budget-polling overhead probe (unlimited enumeration
#                    vs a generous never-tripping budget + cancel token);
#   BENCH_PR5.json — propagation-throughput probe (flat clause arena vs a
#                    faithful replica of the pre-arena Vec-of-Vec store:
#                    BCP sweeps, resident clause bytes, worker-clone cost);
#   BENCH_PR6.json — clause-DB flatness probe (peak clause-DB size vs
#                    solution count, blocking vs chrono enumeration);
#   BENCH_PR7.json — propagation-throughput rerun after the binary-watch
#                    split plus the root-level inprocessing row (live
#                    clause words before/after on the churn workload).
#                    Supersedes BENCH_PR5.json, kept for history.
#   BENCH_PR10.json — cube-store scaling sweep (occurrence-indexed CubeSet
#                    vs the retained naive two-scan store on seeded insert
#                    streams: sparse growth regime at 1k–10k inserts plus a
#                    dense absorption regime, with the index work counters).
#
# All binaries assert result equality between the compared configurations
# before timing anything, so a successful run is also a determinism check.
#
# BENCH_PR2.json (thread scaling, table R5) and BENCH_PR8.json (cube
# balance, table R11) are historical records: their binaries are retired,
# and the perf suite's `par.speedup` (perf/README.md) now measures the
# parallel engine end to end.
#
#   scripts/bench.sh              # 5 samples per case (default)
#   PRESAT_BENCH_SAMPLES=11 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p presat-bench
./target/release/reach_incremental BENCH_PR3.json
./target/release/budget_overhead BENCH_PR4.json
./target/release/propagation_throughput BENCH_PR7.json
./target/release/chrono_db_flatness BENCH_PR6.json
./target/release/cubeset_scaling BENCH_PR10.json

# Show how the checked-in numbers moved (informational; timings drift with
# hardware, the structure should not).
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git --no-pager diff --stat -- BENCH_PR3.json BENCH_PR4.json BENCH_PR5.json BENCH_PR6.json BENCH_PR7.json BENCH_PR10.json || true
fi
echo "bench: OK"
