#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests, and an invariant-audit
# smoke run. Everything is offline (vendored deps; see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --all-targets --offline -- -D warnings

echo "== mcs-lint (source invariants)"
# Hard gate: zero error-severity findings after suppressions and the
# (kept-empty) baseline. Exit code 1 means a violation.
cargo run -q --offline -p mcs-lint --bin mcs-lint
# The --json report must stay machine-readable.
if command -v python3 > /dev/null; then
  cargo run -q --offline -p mcs-lint --bin mcs-lint -- --json | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["tool"] == "mcs-lint", r
assert r["errors"] == 0, r
print("ci: mcs-lint json ok (%d files, %d suppressed)" % (r["files"], r["suppressed"]))
'
else
  cargo run -q --offline -p mcs-lint --bin mcs-lint -- --json | grep -q '"tool":"mcs-lint"' \
    || { echo "ci: mcs-lint --json malformed"; exit 1; }
fi

echo "== cargo build --release"
cargo build --release --offline

echo "== cargo test"
cargo test -q --offline

echo "== mcs-exp audit (smoke)"
cargo run -q --release --offline -p mcs-exp -- audit --trials "${AUDIT_TRIALS:-500}"

echo "== mcs-exp harness determinism (1 thread vs 8)"
MCS_EXP="$(pwd)/target/release/mcs-exp"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$MCS_EXP" sweep --trials "${SWEEP_TRIALS:-200}" --threads 1 > "$TMP/sweep-t1.txt"
"$MCS_EXP" sweep --trials "${SWEEP_TRIALS:-200}" --threads 8 > "$TMP/sweep-t8.txt"
diff "$TMP/sweep-t1.txt" "$TMP/sweep-t8.txt" \
  || { echo "ci: sweep output differs between 1 and 8 threads"; exit 1; }

echo "== mcs-exp admission smoke (shard identity + rebuild gate)"
# Online admission streams: per-shard engines must not leak state across
# shard boundaries (stdout byte-identical at any thread count), and the
# binary itself exits non-zero unless every policy's live core sums are
# bit-identical to a from-scratch rebuild of the survivors.
"$MCS_EXP" admit --trials "${ADMIT_TRIALS:-50}" --threads 1 > "$TMP/admit-t1.txt"
"$MCS_EXP" admit --trials "${ADMIT_TRIALS:-50}" --threads 8 > "$TMP/admit-t8.txt"
diff "$TMP/admit-t1.txt" "$TMP/admit-t8.txt" \
  || { echo "ci: admit output differs between 1 and 8 threads"; exit 1; }
grep -q "admission state identical: true" "$TMP/admit-t1.txt" \
  || { echo "ci: admission rebuild-identity gate missing or false"; exit 1; }

echo "== mcs-exp simulate smoke (weakly-hard metrics + trace identity)"
# The runtime-behaviour command runs both simulator engines in lock-step
# on every trial x behaviour level: stdout must be byte-identical at any
# thread count, and the final line is the machine-checked tick-vs-event
# trace-identity gate (the binary exits non-zero on divergence).
"$MCS_EXP" simulate --trials "${SIM_TRIALS:-40}" --threads 1 > "$TMP/sim-t1.txt"
"$MCS_EXP" simulate --trials "${SIM_TRIALS:-40}" --threads 8 > "$TMP/sim-t8.txt"
diff "$TMP/sim-t1.txt" "$TMP/sim-t8.txt" \
  || { echo "ci: simulate output differs between 1 and 8 threads"; exit 1; }
grep -q "tick-vs-event traces identical: true" "$TMP/sim-t1.txt" \
  || { echo "ci: simulate trace-identity gate missing or false"; exit 1; }

echo "== mcs-exp simulator-backed results reproduce"
# Each of these results/ files is the command's stderr header line
# ("[mcs-exp] ...") followed by its stdout; the stdout must reproduce
# byte for byte.
while IFS='|' read -r file args; do
  # shellcheck disable=SC2086  # $args is a word list on purpose
  "$MCS_EXP" $args < /dev/null 2> /dev/null > "$TMP/$file"
  diff <(sed '1{/^\[mcs-exp\] /d}' "results/$file") "$TMP/$file" \
    || { echo "ci: results/$file no longer reproduces"; exit 1; }
done <<'RESULTS'
soundness_linear.txt|soundness --trials 300 --horizon-periods 8
soundness_geometric.txt|soundness --trials 300 --horizon-periods 8 --geometric
overhead.txt|overhead --trials 200 --horizon-periods 6
elastic.txt|elastic --trials 100 --horizon-periods 6
globalcmp.txt|globalcmp --trials 500 --horizon-periods 6
sim_weaklyhard.txt|simulate
RESULTS

echo "== mcs-exp checkpoint resume (smoke)"
# A short run, then an identical longer run resumed from its checkpoint,
# must produce the same stdout and the same JSONL records as one
# uninterrupted long run.
"$MCS_EXP" sweep --trials 20 --jsonl "$TMP/ck.jsonl" > /dev/null
"$MCS_EXP" sweep --trials 50 --resume --jsonl "$TMP/ck.jsonl" > "$TMP/resumed.txt"
"$MCS_EXP" sweep --trials 50 --jsonl "$TMP/fresh.jsonl" > "$TMP/fresh.txt"
diff "$TMP/resumed.txt" "$TMP/fresh.txt" \
  || { echo "ci: resumed sweep output differs from an uninterrupted run"; exit 1; }
# Headers carry the (differing) git-describe of each invocation only when
# the tree moves between runs; the data lines must match exactly.
diff <(tail -n +2 "$TMP/ck.jsonl") <(tail -n +2 "$TMP/fresh.jsonl") \
  || { echo "ci: resumed JSONL records differ from an uninterrupted run"; exit 1; }

echo "== mcs-exp telemetry smoke"
# Telemetry must never perturb published stdout: a sweep with --telemetry
# is byte-identical to one without, and the sidecar is valid JSONL with
# the provenance header first.
"$MCS_EXP" sweep --trials "${SWEEP_TRIALS:-200}" > "$TMP/sweep-plain.txt" 2> /dev/null
"$MCS_EXP" sweep --trials "${SWEEP_TRIALS:-200}" --telemetry "$TMP/telemetry.jsonl" \
  > "$TMP/sweep-telemetry.txt" 2> /dev/null
diff "$TMP/sweep-plain.txt" "$TMP/sweep-telemetry.txt" \
  || { echo "ci: --telemetry changed sweep stdout"; exit 1; }
if command -v python3 > /dev/null; then
  python3 - "$TMP/telemetry.jsonl" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines, "telemetry sidecar is empty"
head = lines[0]
assert head.get("kind") == "header", f"first line is not the header: {head}"
for key in ("schema", "command", "seed", "trials", "threads", "schemes",
            "git", "build_profile", "timing"):
    assert key in head, f"header missing {key!r}"
kinds = {l["kind"] for l in lines}
assert "counter" in kinds, "no counter lines in sidecar"
assert "phase" in kinds, "no phase lines in sidecar"
print(f"ci: telemetry sidecar ok ({len(lines)} lines)")
EOF
else
  grep -q '"kind":"header"' "$TMP/telemetry.jsonl" \
    && grep -q '"kind":"counter"' "$TMP/telemetry.jsonl" \
    || { echo "ci: telemetry sidecar malformed"; exit 1; }
fi

echo "== mcs-exp flight-recorder smoke (stdout identity + thread-invariant export)"
# The recorder is write-only like telemetry: a sweep with --trace must be
# byte-identical to one without, and the exported Chrome trace-event
# stream (logical clocks only) must not depend on the worker schedule.
"$MCS_EXP" sweep --trials "${SWEEP_TRIALS:-200}" --trace "$TMP/sweep-trace.json" \
  > "$TMP/sweep-traced.txt" 2> /dev/null
diff "$TMP/sweep-plain.txt" "$TMP/sweep-traced.txt" \
  || { echo "ci: --trace changed sweep stdout"; exit 1; }
"$MCS_EXP" trace --trials "${TRACE_TRIALS:-8}" --threads 1 \
  --trace "$TMP/trace-t1.json" > "$TMP/trace-t1.txt" 2> /dev/null
"$MCS_EXP" trace --trials "${TRACE_TRIALS:-8}" --threads 8 \
  --trace "$TMP/trace-t8.json" > "$TMP/trace-t8.txt" 2> /dev/null
diff "$TMP/trace-t1.txt" "$TMP/trace-t8.txt" \
  || { echo "ci: trace span tree differs between 1 and 8 threads"; exit 1; }
diff "$TMP/trace-t1.json" "$TMP/trace-t8.json" \
  || { echo "ci: exported trace stream differs between 1 and 8 threads"; exit 1; }
if command -v python3 > /dev/null; then
  python3 - "$TMP/trace-t1.json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
events = t["traceEvents"]
assert events, "traced replay recorded no events"
assert "dropped_events" in t["otherData"], "export lost the drop counter"
for ev in events:
    for key in ("name", "ph", "ts", "pid", "tid", "args"):
        assert key in ev, f"event missing {key!r}: {ev}"
print(f"ci: trace export ok ({len(events)} events, "
      f"{t['otherData']['dropped_events']} dropped)")
EOF
else
  grep -q '"traceEvents"' "$TMP/trace-t1.json" \
    && grep -q '"dropped_events"' "$TMP/trace-t1.json" \
    || { echo "ci: trace export malformed"; exit 1; }
fi

echo "== cargo build (telemetry and the flight recorder compiled out)"
cargo build -q --offline --features telemetry-off

echo "== mcsbench tests (the benchmark still builds against the mcs-obs API)"
cargo test -q --offline --manifest-path mcsbench/Cargo.toml

# Refreshes BENCH_partition.json unless an `Exact` identity bit or the
# recorder `Ceiling` budget fails (the binary then exits non-zero and
# writes nothing). The JSON assertions below keep the identity gates
# explicit and machine-checked. The `Floor` throughput rows are only
# gated by `perf --check` further down — they move with the host.
echo "== mcs-exp perf smoke (partition identity + batch-vs-scalar gates)"
cargo run -q --release --offline -p mcs-exp -- perf --json \
  --trials "${PERF_TRIALS:-2000}" > "$TMP/perf.json"
if command -v python3 > /dev/null; then
  python3 - "$TMP/perf.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["partitions_identical"] is True, "reference and engine partitions diverged"
assert r["probe_path_batch_matches_scalar"] is True, "batch kernel diverged from scalar verdicts"
cells = [k for k in r if k.startswith("probe_scaling_") and k.endswith("_per_sec")]
assert cells, "per-(cores, K) scaling table is empty"
assert r["admission_state_identical"] is True, "admission engine drifted from the rebuild"
assert r["admissions_per_sec"] > 0, "no admission throughput measured"
assert r["sim_trace_identical"] is True, "event-engine simulator diverged from the tick oracle"
assert r["sim_events_per_sec"] > 0, "no simulator throughput measured"
print("ci: perf smoke ok (batch %.1fM probes/s over %d sets, scaling cells %d, %.2fM admissions/s, %.2fM sim events/s)"
      % (r["probe_path_engine_per_sec"] / 1e6, r["task_sets"], len(cells),
         r["admissions_per_sec"] / 1e6, r["sim_events_per_sec"] / 1e6))
EOF
else
  grep -q '"partitions_identical": true' "$TMP/perf.json" \
    && grep -q '"probe_path_batch_matches_scalar": true' "$TMP/perf.json" \
    && grep -q '"admission_state_identical": true' "$TMP/perf.json" \
    && grep -q '"sim_trace_identical": true' "$TMP/perf.json" \
    || { echo "ci: perf smoke gates failed"; exit 1; }
fi

# Record-then-check: the run above refreshed BENCH_partition.json (and
# appended the BENCH_history.jsonl trajectory), so the regression gate
# must pass against its own recording, and a baseline with an artificially
# inflated throughput must make it fail (negative test — proves the gate
# can actually fire). --check never rewrites the baseline.
echo "== mcs-exp perf --check (regression gate vs the fresh baseline)"
cargo run -q --release --offline -p mcs-exp -- perf --check \
  --trials "${PERF_TRIALS:-2000}" > /dev/null
if command -v python3 > /dev/null; then
  mkdir -p "$TMP/perf-neg"
  python3 - BENCH_partition.json "$TMP/perf-neg/BENCH_partition.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
key = "admissions_per_sec"  # a `Floor` row: --check must fail on it
assert isinstance(r.get(key), (int, float)) and r[key] > 0, f"baseline lacks {key}"
r[key] *= 100.0  # no host is 100x faster than itself
json.dump(r, open(sys.argv[2], "w"))
print(f"ci: injected regression into {key}")
EOF
  if (cd "$TMP/perf-neg" && "$MCS_EXP" perf --check \
        --trials "${PERF_TRIALS:-2000}" > /dev/null 2> "$TMP/perf-neg/err.txt"); then
    echo "ci: perf --check accepted an injected 100x regression"; exit 1
  fi
  grep -q "perf regression: admissions_per_sec" "$TMP/perf-neg/err.txt" \
    || { echo "ci: perf --check failed for the wrong reason:"; \
         cat "$TMP/perf-neg/err.txt"; exit 1; }
  echo "ci: perf --check negative test ok (gate fires on regression)"
fi

echo "== ci: all green"
