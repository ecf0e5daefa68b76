#!/usr/bin/env bash
# Full pre-merge gate: formatting, release build, whole test suite,
# pedantic clippy, warning-free docs.
set -euo pipefail
cd "$(dirname "$0")"

# Formatting of the workspace (the benchmark package is not a member).
cargo fmt --check
cargo build --release
cargo test --workspace -q
# The timer wheel's speed as a same-process ratio against the reference
# heap (crates/sim/tests/kernel_ratio.rs): a timing test, so it runs only
# in a release build.
cargo test --release -p slsb-sim -q
cargo clippy --workspace --all-targets -- -D warnings
# The API docs build without a warning: no broken or private intra-doc
# link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The benchmark package is a workspace of its own, so the two lines above
# never build it, yet it drives the slsb_core API: test it and run its
# smoke pass (every workload at smoke size, outputs checked).
cargo test --release --offline -q --manifest-path slsb-benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path slsb-benchmark/Cargo.toml -- --smoke

# Scratch files of every gate below; removed on exit.
scratch="$(mktemp -d /tmp/verify-slsb.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

# Full-size digest checks: at its default seed each of these workloads
# must reproduce the committed digests (--smoke checks no digests).
# faulted_retry pins the run_metrics bytes of its four deployments on the
# retry and fault path; fleet_zipf the fleet's metrics, whose serverless
# path draws every service time from the lognormal sampler; trace_record
# the fleet's recorded trace; trace_explore the read half of tracing: its
# 196,687-event trace, every `slsb trace` rendering of it and the trace
# oracle. fleet_zipf runs three times, for the speed gate below.
fleet_walls=()
for workload in faulted_retry fleet_zipf fleet_zipf fleet_zipf trace_record trace_explore; do
    digest_line="$(cargo run --release --offline -q --manifest-path slsb-benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 | tail -n 1)"
    if [[ "$digest_line" != *'"correct":true'* ]]; then
        echo "verify.sh: $workload at its default seed is not correct: $digest_line" >&2
        exit 1
    fi
    echo "verify.sh: $workload digests ok"
    [[ "$workload" == fleet_zipf ]] && fleet_walls+=("$digest_line")
done

# Fleet speed gate: each run's wall_s is its median rep in reference-host
# seconds (slsb-benchmark rescales every rep by the host's speed, sampled
# just before it), and the median of the three runs must stay under a
# fixed ceiling. On a 2-vCPU VM the median read 0.32-0.42 s over 22
# clean triples; the ceiling sits 7% above the highest. Rescaling leaves
# about +-12% of host noise, so only large slowdowns fail every time:
# slowing FleetRunner::run by 60% failed 10 triples of 10, by 40% 8 of
# 10, by 25% 2 of 10 in one window and 5 of 12 in another.
fleet_max_wall_s=0.45
python3 - "$fleet_max_wall_s" "${fleet_walls[@]}" <<'EOF'
import json, sys
ceiling = float(sys.argv[1])
walls = sorted(json.loads(line)["metrics"]["wall_s"]["value"] for line in sys.argv[2:])
wall = walls[len(walls) // 2]
shown = ", ".join(f"{w:.3f}" for w in walls)
assert wall <= ceiling, f"fleet_zipf median wall_s {wall:.3f} s ({shown}) above {ceiling} s"
print(f"verify.sh: fleet speed ok (fleet_zipf wall_s {shown}; median {wall:.3f} s <= {ceiling} s)")
EOF

# Trace round-trip smoke: a recorded run must emit a JSONL trace the
# explorer can parse, with event counts that cross-check exactly.
# (A bare `cargo build --release` only builds the root package, so make
# sure the slsb binary itself is current.)
cargo build --release -p slsb-bench
tracefile="$scratch/trace.jsonl"
run_out="$(./target/release/slsb run scenarios/flash_crowd_serverless.json --trace "$tracefile")"
reported="$(sed -n 's/^trace events  : //p' <<<"$run_out")"
engine="$(sed -n 's/^engine events : //p' <<<"$run_out")"
lines="$(wc -l <"$tracefile")"
if [[ -z "$reported" || "$reported" != "$lines" ]]; then
    echo "verify.sh: trace event count mismatch (reported ${reported:-none}, file has $lines)" >&2
    exit 1
fi
explorer_out="$(./target/release/slsb trace "$tracefile")"
explorer_engine="$(sed -n 's/^engine events : //p' <<<"$explorer_out")"
if [[ -z "$engine" || "$engine" != "$explorer_engine" ]]; then
    echo "verify.sh: engine event count mismatch (run ${engine:-none}, trace ${explorer_engine:-none})" >&2
    exit 1
fi
echo "verify.sh: trace round-trip ok ($lines trace events, $engine engine events)"

# Paper report gate: the full-scale regeneration at the default seed must
# reproduce the committed report byte for byte (a few seconds on 2 cores).
if ! cmp -s <(./target/release/repro all --no-out --jobs 2) results/full_report.md; then
    echo "verify.sh: repro all differs from results/full_report.md" >&2
    exit 1
fi
echo "verify.sh: paper report ok (repro all == results/full_report.md)"

# Fault-matrix smoke: run the fault scenario with retries on two seeds and
# cross-check the recorded fault events against the analyzer's totals
# (platform faults + client-path faults == "fault" lines in the trace).
for smoke_seed in 7 99; do
    smoke_out="$(./target/release/slsb run scenarios/fault_smoke.json \
        --retry attempts=3,base=0.2 --seed "$smoke_seed" --trace "$tracefile")"
    plat_faults="$(sed -n 's/^plat. faults  : //p' <<<"$smoke_out")"
    client_faults="$(sed -n 's/^client faults : //p' <<<"$smoke_out")"
    retries="$(sed -n 's/^retries       : //p' <<<"$smoke_out")"
    fault_lines="$(grep -c '"event":"fault"' "$tracefile" || true)"
    if [[ -z "$plat_faults" || -z "$client_faults" ]]; then
        echo "verify.sh: fault smoke (seed $smoke_seed): missing fault totals in run output" >&2
        exit 1
    fi
    if (( plat_faults + client_faults != fault_lines )); then
        echo "verify.sh: fault smoke (seed $smoke_seed): analyzer totals ($plat_faults+$client_faults) != $fault_lines recorded fault events" >&2
        exit 1
    fi
    if (( plat_faults + client_faults == 0 )); then
        echo "verify.sh: fault smoke (seed $smoke_seed): the fault plan injected nothing" >&2
        exit 1
    fi
    if (( retries == 0 )); then
        echo "verify.sh: fault smoke (seed $smoke_seed): retries did not fire" >&2
        exit 1
    fi
    echo "verify.sh: fault smoke ok (seed $smoke_seed: $fault_lines fault events, $retries retries)"
done

# Profile smoke: a profiled run must attribute nearly all of its wall time
# to named regions, and the profile document must parse. Attribution is
# the tentpole guarantee — an unattributed remainder above 5% means a
# subsystem lost its ProfGuard.
profilefile="$scratch/profile.json"
metricsfile="$scratch/metrics.json"
./target/release/slsb run scenarios/flash_crowd_serverless.json \
    --profile "$profilefile" --metrics-out "$metricsfile" \
    --slo "p99=0.5,sr=0.99" >/dev/null
python3 - "$profilefile" <<'EOF'
import json, sys
p = json.load(open(sys.argv[1]))
assert p["schema"].startswith("slsb-profile/"), p["schema"]
assert p["wall_secs"] > 0, p["wall_secs"]
assert p["roots"], "profile has no root regions"
# Unsharded run: region time is single-threaded, so the attributed sum
# must fit inside the wall window (2% slack for clock granularity).
assert p["attributed_secs"] <= p["wall_secs"] * 1.02, (
    f"region sums exceed wall: {p['attributed_secs']:.3f}s > {p['wall_secs']:.3f}s")
frac = p["attributed_frac"]
assert frac >= 0.95, f"only {frac:.1%} of wall time attributed (need >= 95%)"
print(f"verify.sh: profile gate ok ({frac:.1%} of "
      f"{p['wall_secs']:.3f}s wall attributed, {len(p['roots'])} roots)")
EOF
./target/release/slsb profile "$profilefile" --top 5 >/dev/null

# Diff gates: self-diff must be clean (exit 0), and a doctored metrics
# snapshot must trip the thresholds with the regression exit code (2),
# which is what CI consumers key on.
./target/release/slsb diff "$metricsfile" "$metricsfile" >/dev/null
echo "verify.sh: self-diff gate ok (exit 0)"
python3 - "$metricsfile" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
m["counters"]["requests_ok"] = int(m["counters"]["requests_ok"] * 0.9)
json.dump(m, open(sys.argv[1] + ".doctored", "w"))
EOF
set +e
./target/release/slsb diff "$metricsfile" "$metricsfile.doctored" >/dev/null
diff_rc=$?
set -e
if (( diff_rc != 2 )); then
    echo "verify.sh: diff gate: doctored metrics should exit 2, got $diff_rc" >&2
    exit 1
fi
echo "verify.sh: diff regression gate ok (doctored snapshot exits 2)"

# Fleet gate: the streaming multi-tenant engine must (a) run a 1M+-request,
# 500+-app fleet, and (b) hold arrival-side allocations at O(apps) — the
# lazy k-way merge pulls one arrival per cell at a time, so doubling the
# run duration (and with it the request count) must not grow the
# arrival-side allocation count. The count is read off the profile tree,
# so both runs are profiled.
fleet_small_out="$(./target/release/slsb run scenarios/fleet_zipf.json --scale 0.5 --jobs 4 \
    --profile "$profilefile")"
fleet_big_out="$(./target/release/slsb run scenarios/fleet_zipf.json --jobs 4 \
    --profile "$profilefile")"
small_requests="$(sed -n 's/^requests      : //p' <<<"$fleet_small_out")"
small_allocs="$(sed -n 's/^arrival allocs: //p' <<<"$fleet_small_out")"
big_requests="$(sed -n 's/^requests      : //p' <<<"$fleet_big_out")"
big_apps="$(sed -n 's/^apps          : //p' <<<"$fleet_big_out")"
big_allocs="$(sed -n 's/^arrival allocs: //p' <<<"$fleet_big_out")"
big_balance="$(sed -n 's/^cell balance  : //p' <<<"$fleet_big_out")"
python3 - "$big_apps" "$small_requests" "$big_requests" "$small_allocs" "$big_allocs" <<'EOF'
import sys
apps, small_req, big_req, small_allocs, big_allocs = map(int, sys.argv[1:6])
assert apps >= 500, f"fleet gate needs >= 500 apps, got {apps}"
assert big_req >= 1_000_000, f"fleet gate needs >= 1M requests, got {big_req}"
assert big_req > small_req * 4 // 3, (small_req, big_req)
# The O(apps) memory claim: the big run sees substantially more requests
# (half the duration does not mean half the requests for heavy-tailed
# on/off tenants, but the full run must still be >4/3 the half run), so a
# request-proportional arrival path would grow its allocation count in
# step. Flat-with-slack catches that regression on any hardware.
ceiling = small_allocs * 1.3 + 4096
assert big_allocs <= ceiling, (
    f"arrival allocs not flat: {big_allocs} at {big_req} requests vs "
    f"{small_allocs} at {small_req} (ceiling {ceiling:.0f})")
print(f"verify.sh: fleet gate ok ({apps} apps, {big_req} requests, "
      f"arrival allocs {small_allocs} -> {big_allocs})")
EOF

# Cell-balance gate: the weighted LPT partition must keep the heaviest
# cell within 2x the mean cell weight on the Zipf fleet — unless a single
# head app alone outweighs that bound, which no partition can fix (the
# cell holding it can never weigh less than the app). The run prints the
# verdict with the same exemption; re-derive it here from the numbers so
# a formatting change cannot silently weaken the gate.
python3 - "$big_balance" <<'EOF'
import re, sys
line = sys.argv[1]
m = re.fullmatch(
    r"(\d+) cells, max ([\d.]+) / mean ([\d.]+) / max-app ([\d.]+) \((\w+)\)",
    line)
assert m, f"unparseable cell balance line: {line!r}"
cells, max_cell, mean_cell, max_app, verdict = m.groups()
max_cell, mean_cell, max_app = map(float, (max_cell, mean_cell, max_app))
assert int(cells) > 1, f"fleet smoke should use multiple cells: {line!r}"
bound = max(2.0 * mean_cell, max_app * (1 + 1e-9))
assert max_cell <= bound, (
    f"partition imbalanced: max cell {max_cell:.1f} > bound {bound:.1f} "
    f"(mean {mean_cell:.1f}, max app {max_app:.1f})")
assert verdict == "balanced", f"run reports {verdict!r}: {line!r}"
print(f"verify.sh: cell balance ok ({cells} cells, "
      f"max {max_cell:.1f} <= bound {bound:.1f}, mean {mean_cell:.1f})")
EOF

# Fleet determinism: --jobs and --shards are thread budgets only, so the
# metrics snapshot must be byte-identical across worker budgets.
fleet_m1="$scratch/fleet1.json"
fleet_m2="$scratch/fleet2.json"
./target/release/slsb run scenarios/fleet_zipf.json --scale 0.25 --jobs 1 \
    --metrics-out "$fleet_m1" >/dev/null
for budget in "--jobs 4" "--shards 4"; do
    # shellcheck disable=SC2086
    ./target/release/slsb run scenarios/fleet_zipf.json --scale 0.25 $budget \
        --metrics-out "$fleet_m2" >/dev/null
    if ! cmp -s "$fleet_m1" "$fleet_m2"; then
        echo "verify.sh: fleet run with $budget is not byte-identical to --jobs 1" >&2
        exit 1
    fi
done
echo "verify.sh: fleet determinism ok (--jobs/--shards byte-identical)"

# Trace determinism: cells reach the recorder in cell order on any worker
# budget, so the recorded JSONL must be byte-identical too, for the fleet
# (whose Zipf head cell finishes last) and for the sharded executor, also
# with client jitter, batching and retries on (every client is a lane
# drawing its own share of the jitter).
trace_1="$scratch/trace1.jsonl"
trace_n="$scratch/traceN.jsonl"
for pair in "scenarios/fleet_zipf.json --scale 0.05|--jobs 1|--jobs 4" \
            "scenarios/fault_smoke.json|--shards 1|--shards 4" \
            "scenarios/batched_serverless.json --faults scenarios/faults/client_jitter.json --retry attempts=3,base=0.2|--shards 1|--shards 4"; do
    IFS='|' read -r run_args budget_1 budget_n <<<"$pair"
    # shellcheck disable=SC2086
    ./target/release/slsb run $run_args $budget_1 --trace "$trace_1" >/dev/null
    # shellcheck disable=SC2086
    ./target/release/slsb run $run_args $budget_n --trace "$trace_n" >/dev/null
    if ! cmp -s "$trace_1" "$trace_n"; then
        echo "verify.sh: $run_args trace with $budget_n is not byte-identical to $budget_1" >&2
        exit 1
    fi
done
echo "verify.sh: trace determinism ok (fleet --jobs, executor --shards byte-identical, plain and jittered/batched/retried)"

# Policy-zoo smoke: every zoo member must run the fault scenario cleanly,
# keep the analyzer's fault totals in exact agreement with the recorded
# trace, and never beat the clairvoyant oracle's cold-start lower bound.
for policy in default fixed hybrid_histogram least_loaded no_overprovision; do
    policy_out="$(./target/release/slsb run scenarios/fault_smoke.json \
        --policy "$policy" --trace "$tracefile")"
    plat_faults="$(sed -n 's/^plat. faults  : //p' <<<"$policy_out")"
    client_faults="$(sed -n 's/^client faults : //p' <<<"$policy_out")"
    cold="$(sed -n 's/^cold starts   : //p' <<<"$policy_out")"
    oracle_cold="$(sed -n 's/^oracle        : cold >= \([0-9]*\).*/\1/p' <<<"$policy_out")"
    fault_lines="$(grep -c '"event":"fault"' "$tracefile" || true)"
    if [[ -z "$cold" || -z "$oracle_cold" ]]; then
        echo "verify.sh: policy zoo ($policy): missing cold-start/oracle lines" >&2
        exit 1
    fi
    if (( plat_faults + client_faults != fault_lines )); then
        echo "verify.sh: policy zoo ($policy): analyzer faults ($plat_faults+$client_faults) != $fault_lines recorded" >&2
        exit 1
    fi
    if (( oracle_cold > cold )); then
        echo "verify.sh: policy zoo ($policy): oracle bound $oracle_cold exceeds actual cold starts $cold" >&2
        exit 1
    fi
    echo "verify.sh: policy zoo ok ($policy: $cold cold starts, oracle >= $oracle_cold, $fault_lines fault events)"
done

# Unknown policy names must fail loudly, not fall back to a default.
set +e
./target/release/slsb run scenarios/fault_smoke.json --policy no_such_policy >/dev/null 2>&1
policy_rc=$?
set -e
if (( policy_rc == 0 )); then
    echo "verify.sh: policy zoo: unknown policy name was silently accepted" >&2
    exit 1
fi
echo "verify.sh: policy zoo rejects unknown names (exit $policy_rc)"

# Non-default policies must stay worker-budget invariant too: sharded
# single-run metrics and fleet metrics must be byte-identical across
# --shards/--jobs under the adaptive hybrid-histogram policy.
./target/release/slsb run scenarios/fault_smoke.json --policy hybrid_histogram \
    --shards 2 --metrics-out "$fleet_m1" >/dev/null
./target/release/slsb run scenarios/fault_smoke.json --policy hybrid_histogram \
    --shards 4 --metrics-out "$fleet_m2" >/dev/null
if ! cmp -s "$fleet_m1" "$fleet_m2"; then
    echo "verify.sh: sharded run under hybrid_histogram differs between --shards 2 and --shards 4" >&2
    exit 1
fi
./target/release/slsb run scenarios/fleet_zipf.json --policy hybrid_histogram \
    --scale 0.25 --jobs 1 --metrics-out "$fleet_m1" >/dev/null
./target/release/slsb run scenarios/fleet_zipf.json --policy hybrid_histogram \
    --scale 0.25 --jobs 4 --metrics-out "$fleet_m2" >/dev/null
if ! cmp -s "$fleet_m1" "$fleet_m2"; then
    echo "verify.sh: fleet run under hybrid_histogram differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
echo "verify.sh: policy determinism ok (hybrid_histogram byte-identical across worker budgets)"

echo "verify.sh: all gates passed"
