#!/usr/bin/env bash
# Tier-1 verification: hermetic build + full test suite + lint, all offline.
# Referenced from ROADMAP.md; CI and pre-merge checks run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: also builds the bench crate's `tables` binary, which a plain
# build of the root package does not produce.
cargo build --release --offline --workspace

# The suite runs twice: sequential and multi-threaded enumeration. The
# parallel determinism tests consult PRESAT_TEST_JOBS, so the =4 pass
# exercises real worker threads and the =1 pass the delegation path.
PRESAT_TEST_JOBS=1 cargo test -q --workspace --offline
PRESAT_TEST_JOBS=4 cargo test -q --workspace --offline

# Differential cross-engine fuzz harness (fixed seed): every enumeration
# engine — blocking, min-blocking, success-driven, parallel, chrono — must
# produce semantically identical model sets, pinned against the BDD
# package's existential projection and satcount. Run explicitly at both
# thread counts so a workspace-filter change can never silently skip it.
PRESAT_TEST_JOBS=1 cargo test -q -p presat --test differential --offline
PRESAT_TEST_JOBS=4 cargo test -q -p presat --test differential --offline

# The incremental cross-check suite already compares both reachability
# paths head-to-head; its oracle test additionally honours
# PRESAT_TEST_INCREMENTAL, so run it once per mode (=1 session path,
# =0 rebuild path) to pin both against ground truth.
PRESAT_TEST_INCREMENTAL=0 cargo test -q -p presat --test incremental --offline
PRESAT_TEST_INCREMENTAL=1 cargo test -q -p presat --test incremental --offline

cargo clippy --workspace --all-targets --offline -- -D warnings

# Format gate: the workspace stays rustfmt-clean, so running `cargo fmt`
# never rewrites lines a change did not touch. (perf/ is a workspace of
# its own and outside this check.)
cargo fmt --all -- --check

# Doc gate: every intra-doc link must resolve, in private modules too —
# the engine modules are private, so a plain `cargo doc` never renders
# their docs and a link to a deleted item would dangle silently. --lib
# sidesteps cargo's doc-name collision between presatd's lib and bin.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --document-private-items --offline

# The benchmark package (perf/, a workspace of its own) reads the library
# crates' pub API field by field — counters, job accessors, engine
# options — so build, test and lint it here: a library change that breaks
# the benchmark fails tier-1, not the next benchmark run.
cargo test --release --offline --manifest-path perf/Cargo.toml
cargo clippy --release --offline --manifest-path perf/Cargo.toml --all-targets -- -D warnings

# Lint gate: unordered float comparisons must use total_cmp, never
# partial_cmp(..).expect(..) — NaN-poisoned activities once turned a sort
# into a panic deep inside reduce_db.
if grep -rn --include='*.rs' 'partial_cmp' crates src examples 2>/dev/null \
    | grep '\.expect' | grep -v '/tests/'; then
  echo "verify: FAIL — partial_cmp(..).expect in non-test code (use total_cmp)" >&2
  exit 1
fi

# Lint gate: the chrono enumeration engine is blocking-clause-free by
# construction — nothing in crates/core/src/chrono.rs may reach for
# add_clause (or any other clause-DB mutation: block_model stores a
# blocking clause, solve_continue learns clauses). The differential and
# cross-engine suites check the counters at runtime; this pins the source.
# (Comments and the in-file unit tests — which build Cnf fixtures — are
# out of scope; only engine code above the #[cfg(test)] marker counts.)
if sed -n '1,/#\[cfg(test)\]/p' crates/core/src/chrono.rs \
    | grep -v '^\s*//' | grep -n 'add_clause\|add_blocking\|block_model\|solve_continue'; then
  echo "verify: FAIL — chrono enumeration must not touch the clause DB" >&2
  exit 1
fi

# Lint gate: presatd resumes a sliced job by running its enumeration again,
# through the success cache, never by adding clauses to the job's solver —
# nothing in crates/presatd/src may call add_clause, block_states or
# block_model. (Comments and in-file unit tests below the #[cfg(test)]
# marker are out of scope, as above.)
for f in crates/presatd/src/*.rs; do
  if sed -n '1,/#\[cfg(test)\]/p' "$f" \
      | grep -v '^\s*//' | grep -n 'add_clause\|block_states\|block_model'; then
    echo "verify: FAIL — $f adds clauses to a job's solver (resume through the success cache)" >&2
    exit 1
  fi
done

# Lint gate: the preimage layer maps circuit leaves to CNF variables in one
# place, `frame` in crates/preimage/src/encoding.rs, so no other module of
# that crate builds a Tseitin encoder itself. (Comments and in-file unit
# tests below the #[cfg(test)] marker are out of scope, as above.)
for f in crates/preimage/src/*.rs; do
  [ "$f" = crates/preimage/src/encoding.rs ] && continue
  if sed -n '1,/#\[cfg(test)\]/p' "$f" \
      | grep -v '^\s*//' | grep -n 'Tseitin::\(new\|with_base_cnf\)'; then
    echo "verify: FAIL — $f builds a Tseitin encoder (use encoding::frame)" >&2
    exit 1
  fi
done

# Anytime smoke test: a backward-reachability run on a 24-bit LFSR (cycle
# length ~16M states, far beyond any 50 ms budget) must stop on the
# deadline with exit code 0 and report "complete":false in the stats JSON
# — never hang, crash, or claim a converged fixed point.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
{
  echo "# 24-bit LFSR (taps 24,23,22,17) for the anytime smoke test"
  echo "OUTPUT(z)"
  echo "x0 = XOR(s23, s22)"
  echo "x1 = XOR(s21, s16)"
  echo "fb = XOR(x0, x1)"
  echo "s0 = DFF(fb)"
  for j in $(seq 1 23); do echo "s$j = DFF(s$((j-1)))"; done
  echo "z = BUF(s0)"
} > "$smoke_dir/lfsr24.bench"
smoke_out="$(timeout 30 ./target/release/presat reach "$smoke_dir/lfsr24.bench" \
  --target 1 --timeout-ms 50 --stats)"
if ! printf '%s\n' "$smoke_out" | grep -q '"complete":false'; then
  echo "verify: FAIL — budgeted reach did not report \"complete\":false" >&2
  printf '%s\n' "$smoke_out" >&2
  exit 1
fi
if ! printf '%s\n' "$smoke_out" | grep -q '"stop_reason":"deadline"'; then
  echo "verify: FAIL — budgeted reach did not report the deadline stop" >&2
  printf '%s\n' "$smoke_out" >&2
  exit 1
fi
# The arena and clause-database gauges must be non-zero on any real run;
# this one runs the session path, whose solver inherits its clauses from
# earlier calls. (That every counter of every layer is present is pinned
# by tests/cli.rs, which walks the counter tables' FIELDS lists.)
for gauge in arena_bytes db_clauses_peak; do
  if ! printf '%s\n' "$smoke_out" | grep -q "\"$gauge\":[1-9]"; then
    echo "verify: FAIL — stats JSON missing a non-zero $gauge gauge" >&2
    printf '%s\n' "$smoke_out" >&2
    exit 1
  fi
done

# Forced-open fleet smoke: a 6-bit LFSR reachability with the spawn gate
# forced open runs the partitioned worker fleet at every step; it must
# converge and reach exactly the states a --jobs 1 run reaches.
{
  echo "# 6-bit LFSR for the forced-open fleet smoke test"
  echo "OUTPUT(z)"
  echo "fb = XOR(s5, s4)"
  echo "s0 = DFF(fb)"
  for j in $(seq 1 5); do echo "s$j = DFF(s$((j-1)))"; done
  echo "z = BUF(s0)"
} > "$smoke_dir/lfsr6.bench"
reached_states() {
  printf '%s\n' "$1" | grep -o '[0-9]* backward-reachable states'
}
seq_out="$(timeout 60 ./target/release/presat reach "$smoke_dir/lfsr6.bench" \
  --target 1 --jobs 1 --stats)"
fleet_out="$(timeout 60 ./target/release/presat reach "$smoke_dir/lfsr6.bench" \
  --target 1 --jobs 4 --par-threshold 0 --stats)"
if ! printf '%s\n' "$fleet_out" | grep -q '"complete":true'; then
  echo "verify: FAIL — forced-open fleet reach did not converge" >&2
  printf '%s\n' "$fleet_out" >&2
  exit 1
fi
# The workers' clause-database gauge counts the clauses their solver
# clones inherit, so it cannot read 0.
if ! printf '%s\n' "$fleet_out" | grep -q '"db_clauses_peak":[1-9]'; then
  echo "verify: FAIL — fleet stats JSON missing a non-zero db_clauses_peak gauge" >&2
  printf '%s\n' "$fleet_out" >&2
  exit 1
fi
if [ -z "$(reached_states "$seq_out")" ] \
    || [ "$(reached_states "$fleet_out")" != "$(reached_states "$seq_out")" ]; then
  echo "verify: FAIL — forced-open fleet reach disagrees with --jobs 1" >&2
  printf '%s\n%s\n' "$seq_out" "$fleet_out" >&2
  exit 1
fi

# Lint gate: every hot-path cube-store insert goes through the indexed
# CubeSet — the naive linear scan `cubes.iter().any(|c| c.subsumes(..))`
# lives only in the reference module the differential suites pin the
# index against. (cover_rec's `cover.iter().any(..)` walks a bounded
# cover argument, not a store, and stays legal.)
if grep -rn --include='*.rs' -F 'cubes.iter().any(|c| c.subsumes(' \
    crates src examples 2>/dev/null | grep -v 'crates/logic/src/naive\.rs'; then
  echo "verify: FAIL — naive subsumption scan outside crates/logic/src/naive.rs (use CubeSet)" >&2
  exit 1
fi

# Lint gate: daemon code never .unwrap()s values derived from untrusted
# requests — every parse/lock/IO edge must degrade to an error event.
# (Tests use expect; unwrap_or / unwrap_or_else / unwrap_or_default stay
# legal — only bare .unwrap() is banned.)
if grep -rn --include='*.rs' '\.unwrap()' crates/presatd/src src/bin/presatd.rs \
    2>/dev/null | grep -v '^\s*//'; then
  echo "verify: FAIL — bare .unwrap() in presatd (degrade to an error event)" >&2
  exit 1
fi
# The request parser is the workspace's one JSON reader in presat-obs, so
# the ban covers its non-test code too (above the #[cfg(test)] marker).
if sed -n '1,/#\[cfg(test)\]/p' crates/obs/src/json.rs \
    | grep -v '^\s*//' | grep -n '\.unwrap()'; then
  echo "verify: FAIL — bare .unwrap() in the JSON reader (return an Err)" >&2
  exit 1
fi

# Daemon smoke: a budget-capped reach, a solve, a cancel race, and a clean
# shutdown over --stdin, all answered with line-JSON carrying the request
# ids. The 16-bit counter reach (65k-state cycle) cannot finish inside 40
# conflicts, so its done event must report the conflicts stop; the solve
# must come back sat; every request's terminal event must be present.
{
  echo "# 16-bit binary counter for the daemon smoke test"
  echo "INPUT(en)"
  echo "OUTPUT(z)"
  echo "n0 = NOT(s0)"
  echo "c0 = BUF(s0)"
  echo "s0 = DFF(n0)"
  for j in $(seq 1 15); do
    echo "n$j = XOR(s$j, c$((j-1)))"
    echo "s$j = DFF(n$j)"
    if [ "$j" -lt 15 ]; then echo "c$j = AND(s$j, c$((j-1)))"; fi
  done
  echo "z = BUF(s0)"
} > "$smoke_dir/counter16.bench"
counter16="$(awk '{printf "%s\\n", $0}' "$smoke_dir/counter16.bench")"
# `shutdown` cancels whatever is still running by design, so it must not
# be piped in the same burst as the jobs: on a single-CPU host the reader
# thread can process all five lines before the worker runs its first
# slice, cancelling even the trivial solve. Drive stdin through a FIFO
# and hold the shutdown line until both jobs have printed their terminal
# events.
daemon_in="$smoke_dir/presatd.in"
daemon_log="$smoke_dir/presatd.out"
mkfifo "$daemon_in"
(
  printf '{"op":"solve","id":"q1","session":"smoke","cnf":"p cnf 2 2\\n1 2 0\\n-1 2 0\\n"}\n'
  printf '{"op":"reach","id":"q2","session":"smoke","circuit":"%s","target":"0b0000000000000000","conflict_budget":40}\n' "$counter16"
  printf '{"op":"cancel","id":"q3","job":"q2"}\n'
  for _ in $(seq 1 600); do
    if grep -q '"id":"q1","event":"done"' "$daemon_log" 2>/dev/null \
        && grep -q '"id":"q2","event":"done"' "$daemon_log" 2>/dev/null; then
      break
    fi
    sleep 0.1
  done
  printf '{"op":"stats","id":"q4"}\n'
  printf '{"op":"shutdown","id":"q5"}\n'
) > "$daemon_in" &
daemon_writer=$!
timeout 120 ./target/release/presatd --stdin --slice-conflicts 10 \
  < "$daemon_in" > "$daemon_log"
wait "$daemon_writer" || true
daemon_out="$(cat "$daemon_log")"
daemon_check() {
  if ! printf '%s\n' "$daemon_out" | grep -q "$1"; then
    echo "verify: FAIL — daemon smoke output missing $1" >&2
    printf '%s\n' "$daemon_out" >&2
    exit 1
  fi
}
daemon_check '"id":"q1","event":"done".*"result":"sat"'
# Cancel vs budget is a race; either stop is a sound incomplete answer.
daemon_check '"id":"q2","event":"done".*"complete":false'
daemon_check '"stop_reason":"\(conflicts\|cancelled\)"'
daemon_check '"id":"q4","event":"stats".*"session":"smoke"'
daemon_check '"id":"q5","event":"ok"'
# Every line the daemon emits must be one standalone JSON object.
if printf '%s\n' "$daemon_out" | grep -v '^{.*}$' | grep -q .; then
  echo "verify: FAIL — daemon emitted a non-JSON line" >&2
  printf '%s\n' "$daemon_out" >&2
  exit 1
fi

echo "verify: OK"
