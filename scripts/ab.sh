#!/usr/bin/env bash
# Alternating A/B pairs of the end-to-end perf suite.
#
#   scripts/ab.sh <workload> <parent presat-perf> <change presat-perf> <seed>...
#
# Runs every seed once on each binary for BENCHMARK.json's run_seconds: the
# parent first on odd seeds, the change first on even ones, so a drift of
# the host does not always favour one side. Prints one line per run (which
# side, the seed, the correctness gate, failed/attempted operations, the
# round count and every end-to-end metric), then per metric each side's
# median and quartiles, the change's median over the parent's minus one,
# in how many pairs the change read lower, and the verdict the benchmark
# pipeline applies to the metric, from its `better` and `bound` in
# BENCHMARK.json:
#   worse       the change median is past the parent median by more than
#               the bound;
#   unresolved  the parent's quartile spread is wider than the bound;
#   gain        the change is better in at least 9 of every 10 pairs (and
#               there are at least 10), and the medians differ in its
#               favour by more than the parent's quartile spread;
#   within      anything else.
# Bound and spread are fractions of the parent median. The verdicts are
# printed only; the gates below decide the exit status.
#
# Every pair must keep three gates: both sides correct, no failed
# operation, and the same result_cubes on both sides. After the table the
# script prints one line per pair that breaks a gate and then exits 1.
#
# Build each side's binary once beforehand, e.g. from a checkout of each
# commit with
#   cargo build --release --offline --manifest-path perf/Cargo.toml
# and run nothing else meanwhile. A run that errors stops the script; a
# run whose answers were wrong is reported with correct=false and fails
# the correctness gate.
set -euo pipefail

if [ "$#" -lt 4 ]; then
  echo "usage: $0 <workload> <parent presat-perf> <change presat-perf> <seed>..." >&2
  exit 2
fi
workload="$1"
parent="$2"
change="$3"
shift 3
root="$(cd "$(dirname "$0")/.." && pwd)"
seconds="$(awk -F: '/"run_seconds"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' \
  "$root/BENCHMARK.json")"
if [ -z "$seconds" ]; then
  echo "ab.sh: no run_seconds in $root/BENCHMARK.json" >&2
  exit 2
fi
# name:better:bound for every end-to-end metric, space-separated.
rules="$(awk -F'"' '
  /"end_to_end"/ { inside = 1 }
  /"per_layer"/ { inside = 0 }
  inside && $2 == "name" { name = $4 }
  inside && $2 == "better" { better = $4 }
  inside && $2 == "bound" {
    bound = $3
    gsub(/[^0-9.]/, "", bound)
    printf "%s:%s:%s ", name, better, bound
  }' "$root/BENCHMARK.json")"

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

# run_one <side> <binary> <seed>: one run, summarised on one line.
run_one() {
  local out status=0
  out="$("$2" --workload "$workload" --seed "$3" --seconds "$seconds")" || status=$?
  # Exit 1 means wrong answers, still with a full report; anything else
  # (or no result line) is an error.
  if [ "$status" -gt 1 ] || ! printf '%s\n' "$out" | grep -q '^{"correct"'; then
    echo "ab.sh: $1 run of seed $3 failed (exit $status)" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  printf '%s\n' "$out" | awk -v side="$1" -v seed="$3" '
    /^samples rounds / { rounds = $3 }
    /^metric / { names[++n] = $2; vals[n] = $3 }
    /^\{"correct"/ {
      correct = ($0 ~ /"correct":true/) ? "true" : "false"
      match($0, /"attempted":[0-9]+/)
      attempted = substr($0, RSTART + 12, RLENGTH - 12)
      match($0, /"failed":[0-9]+/)
      failed = substr($0, RSTART + 9, RLENGTH - 9)
    }
    END {
      line = sprintf("%-6s seed=%s correct=%s failed=%s/%s rounds=%s", side, seed,
        correct, failed, attempted, rounds == "" ? "-" : rounds)
      for (i = 1; i <= n; i++) line = line " " names[i] "=" vals[i]
      print line
    }'
}

echo "ab.sh: $workload, ${seconds} s per run, seeds $*"
for seed in "$@"; do
  if [ $((seed % 2)) -eq 1 ]; then
    order="parent change"
  else
    order="change parent"
  fi
  for side in $order; do
    if [ "$side" = parent ]; then bin="$parent"; else bin="$change"; fi
    run_one "$side" "$bin" "$seed" | tee -a "$runs"
  done
done

awk -v rules="$rules" '
  # Quantile p of the sorted a[1..n], interpolated between ranks.
  function quantile(a, n, p,   h, lo) {
    h = (n - 1) * p
    lo = int(h)
    if (lo + 1 >= n) return a[n]
    return a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
  }
  # Sorts the values of one side and metric into s[1..n]; returns n.
  function sorted(side, m, s,   n, i, j, k, x) {
    n = 0
    for (k = 1; k <= nseeds; k++)
      if ((side, m, seeds[k]) in val) s[++n] = val[side, m, seeds[k]] + 0
    for (i = 2; i <= n; i++) {
      x = s[i]
      for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
      s[j + 1] = x
    }
    return n
  }
  {
    side = $1
    split($2, kv, "=")
    seed = kv[2]
    if (!(seed in known)) { known[seed] = 1; seeds[++nseeds] = seed }
    split($3, kv, "=")
    correct[side, seed] = kv[2]
    split($4, kv, "[=/]")
    failed[side, seed] = kv[2]
    for (i = 6; i <= NF; i++) {
      split($i, kv, "=")
      if (!(kv[1] in named)) { named[kv[1]] = 1; metrics[++nmetrics] = kv[1] }
      val[side, kv[1], seed] = kv[2]
    }
  }
  END {
    nrules = split(rules, rule, " ")
    for (j = 1; j <= nrules; j++) {
      split(rule[j], r, ":")
      better[r[1]] = r[2]
      bound[r[1]] = r[3]
    }
    printf "\n%-14s %34s   %34s   %15s   %12s   %s\n", "", "parent: q1 median q3",
      "change: q1 median q3", "change/parent-1", "change lower", "verdict"
    for (j = 1; j <= nmetrics; j++) {
      m = metrics[j]
      np = sorted("parent", m, p)
      nc = sorted("change", m, c)
      lower = 0
      higher = 0
      pairs = 0
      for (k = 1; k <= nseeds; k++) {
        sd = seeds[k]
        if (("parent", m, sd) in val && ("change", m, sd) in val) {
          pairs++
          if (val["change", m, sd] + 0 < val["parent", m, sd] + 0) lower++
          if (val["change", m, sd] + 0 > val["parent", m, sd] + 0) higher++
        }
      }
      pq1 = quantile(p, np, 0.25)
      pm = quantile(p, np, 0.5)
      pq3 = quantile(p, np, 0.75)
      cm = quantile(c, nc, 0.5)
      delta = pm == 0 ? "-" : sprintf("%+.1f%%", (cm / pm - 1) * 100)
      # The gap in the better direction, and the pairs that read better.
      if (!(m in better)) verdict = "-"
      else {
        gap = better[m] == "higher" ? cm - pm : pm - cm
        wins = better[m] == "higher" ? higher : lower
        if (-gap > bound[m] * pm) verdict = "worse"
        else if (pq3 - pq1 > bound[m] * pm) verdict = "unresolved"
        else if (pairs >= 10 && wins * 10 >= pairs * 9 && gap > pq3 - pq1) verdict = "gain"
        else verdict = "within"
      }
      printf "%-14s %11.6g %11.6g %11.6g   %11.6g %11.6g %11.6g   %15s   %12s   %s\n", m,
        pq1, pm, pq3, quantile(c, nc, 0.25), cm, quantile(c, nc, 0.75), delta,
        lower "/" pairs, verdict
    }
    # The gates every pair must keep.
    broken = 0
    for (k = 1; k <= nseeds; k++) {
      sd = seeds[k]
      for (s = 1; s <= 2; s++) {
        side = s == 1 ? "parent" : "change"
        if (correct[side, sd] != "true") {
          printf "gate: seed %s: %s run not correct\n", sd, side
          broken++
        }
        if (failed[side, sd] + 0 > 0) {
          printf "gate: seed %s: %s run failed %s operations\n", sd, side, failed[side, sd]
          broken++
        }
      }
      if (val["parent", "result_cubes", sd] != val["change", "result_cubes", sd]) {
        printf "gate: seed %s: result_cubes %s (parent) vs %s (change)\n", sd,
          val["parent", "result_cubes", sd], val["change", "result_cubes", sd]
        broken++
      }
    }
    if (broken > 0) {
      printf "ab.sh: %d gate(s) broken\n", broken
      exit 1
    }
  }' "$runs"
