#!/usr/bin/env bash
# Repository CI: build, test, lint, bench report + trace-analysis smoke.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Confinement gate: the coroutine switch under `Sim::run` is the only
# unsafe code in the workspace crates, and it stays in its one file.
strays="$(grep -rln 'unsafe' crates --include='*.rs' | grep -vx 'crates/sim-core/src/switch.rs' || true)"
if [ -n "$strays" ]; then
    echo "unsafe outside crates/sim-core/src/switch.rs:" $strays >&2
    exit 1
fi

# Dispatch-table confinement: outside `#[cfg(test)]` modules, `tests/`
# and `benches/`, a threshold is compared against a length in exactly
# one source file — the table, `obs::plan` — and nothing claims to
# mirror it.
names='loopback_put_limit|loopback_get_limit|loopback_dd_limit|gdr_put_limit|gdr_get_limit|proxy_get_min'
cmp_sites="$(find crates src compat -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ": " $0 }' "$f"
done | grep -E "(<=|>=|<|>|\.min\(|\.max\() *[a-z_.]*\b($names)\b|\b($names)\b *(<=|>=|<|>)[^>]" \
    | cut -d: -f1 | sort -u)"
if [ "$cmp_sites" != "crates/obs/src/plan.rs" ]; then
    echo "thresholds compared outside crates/obs/src/plan.rs:" $cmp_sites >&2
    exit 1
fi
if git grep -n 'must mirror\|mirrors the .* dispatch' crates/; then
    echo "a copy of the dispatch rules is back (see the lines above)" >&2
    exit 1
fi

# Lazy-memory gate: the long differential sweep of `pcie_sim::mem`
# against a flat eager model (64 seeds x 10^5 ops; ~10 s in release).
# `cargo test` above ran the short one.
cargo test --release -q -p pcie-sim --test mem_differential -- --ignored

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# run_twice_cmp NAME CMD [ARGS...] — the determinism gate shared by
# every byte-identical-replay check below. Runs CMD twice, substituting
# the literal argv token OUT with "$tmp/NAME" on the first run and
# "$tmp/NAME.rerun" on the second, and requires both the artifact pair
# and the captured stdout pair to match byte-for-byte (a tool that
# echoes its output path gets it normalized back to OUT first). Stderr
# lands in "$tmp/NAME.stderr" for later greps (not compared — cargo may
# chat there). Commands without an OUT token compare stdout only.
run_twice_cmp() {
    local name="$1"; shift
    local a="$tmp/$name" b="$tmp/$name.rerun"
    "${@/OUT/$a}" > "$a.stdout.raw" 2> "$a.stderr"
    "${@/OUT/$b}" > "$b.stdout.raw" 2> "$b.stderr"
    [ ! -e "$a" ] || cmp "$a" "$b"
    sed "s|$b|OUT|g; s|$a|OUT|g" "$a.stdout.raw" > "$a.stdout"
    sed "s|$b|OUT|g; s|$a|OUT|g" "$b.stdout.raw" > "$b.stdout"
    cmp "$a.stdout" "$b.stdout"
}

# Dispatch-matrix gate: the table's regression golden regenerates
# byte-identically, twice (`cargo test` above compared it cell by cell).
run_twice_cmp matrix.txt bash -c 'GDR_DISPATCH_MATRIX_WRITE="OUT" cargo test --release -q --test dispatch_matrix > /dev/null'
cmp "$tmp/matrix.txt" tests/golden/dispatch_matrix.txt

# Bench report: run the OMB matrix + traced workload, write the
# machine-readable report at the repo root, and prove determinism by
# re-running and comparing byte-for-byte.
cargo run --release -q -p omb --bin bench_omb BENCH_omb.json "$tmp/trace.json" "$tmp/sweep.json"
run_twice_cmp BENCH.json cargo run --release -q -p omb --bin bench_omb OUT
cmp BENCH_omb.json "$tmp/BENCH.json"

# gdrprof smoke: the traced workload must analyze to a nonzero critical
# path with the expected anchor lines.
out="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/trace.json" --json "$tmp/report.json")"
grep -Eq 'ops-analyzed: [1-9]' <<<"$out"
grep -q 'critical path' <<<"$out"
# the v2 report carries latency quantile sketches
grep -q 'latency quantiles' <<<"$out"
grep -q '"quantiles"' "$tmp/report.json"
grep -q '"p999_us"' "$tmp/report.json"
# a self-diff must report no regressions
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/report.json" "$tmp/report.json" --threshold 5 >/dev/null
# ... and --json writes the machine-readable diff document
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/report.json" "$tmp/report.json" --json "$tmp/diff.json" >/dev/null
grep -q '"schema":"gdrprof-diff-v1"' "$tmp/diff.json"

# Crossover profiler: the sweep trace must yield latency curves and at
# least one observed protocol switch per socket relation, each tagged
# with the governing threshold's provenance; the profile is
# deterministic (byte-identical across re-runs) and --suggest emits a
# loadable thresholds-v1 artifact.
run_twice_cmp x.json cargo run --release -q -p obs-analyze --bin gdrprof -- \
    crossover "$tmp/sweep.json" --json OUT --suggest "$tmp/suggest.json"
grep -q 'crossover .*/intra-socket:' "$tmp/x.json.stdout"
grep -q 'crossover .*/inter-socket:' "$tmp/x.json.stdout"
grep -q 'threshold gdr_put_limit=32768, builtin' "$tmp/x.json.stdout"
grep -q 'threshold proxy_get_min=524288, builtin' "$tmp/x.json.stdout"
grep -q '"schema":"thresholds-v1"' "$tmp/suggest.json"

# What-if replay: re-deciding every recorded protocol choice under the
# currently-tuned table must be a no-op (delta exactly zero), and the
# degraded fixture table (GDR get disabled, proxy floor collapsed)
# must predict a strictly positive latency delta.
wout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- whatif "$tmp/sweep.json" \
    --thresholds tests/golden/thresholds_current.json)"
grep -q 'decisions-changed: 0' <<<"$wout"
grep -q 'predicted-delta-us: +0.000' <<<"$wout"
# ... and the replay is the runtime's own table: on an unfaulted trace
# it re-decides every op the way the dispatch did
if grep 'model-mismatch:' <<<"$wout"; then
    echo "gdrprof whatif disagrees with the recorded dispatch" >&2
    exit 1
fi
dgout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- whatif "$tmp/sweep.json" \
    --thresholds tests/golden/thresholds_degraded.json)"
grep -Eq 'decisions-changed: [1-9]' <<<"$dgout"
grep -Eq 'predicted-delta-us: \+[0-9]' <<<"$dgout"
awk '/predicted-delta-us:/ { sub(/\+/, "", $2); exit !($2 > 0) }' <<<"$dgout"

# Link-contention gate: the fixture pair holds latencies flat while one
# link's contended fraction grows past the threshold — diff must trip
# with the contention-specific exit code 5, not the latency code 4.
set +e
cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_contention_base.json tests/golden/report_contention_regressed.json \
    --threshold 10 > "$tmp/cont.txt"
rc=$?
set -e
if [ "$rc" -ne 5 ]; then
    echo "gdrprof diff contention gate: expected exit 5, got $rc" >&2
    exit 1
fi
grep -q 'link-contention' "$tmp/cont.txt"
grep -q 'REGRESSED' "$tmp/cont.txt"

# and a malformed trace must fail with a nonzero exit code
printf '{"traceEvents":[' > "$tmp/bad.json"
if cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/bad.json" 2>/dev/null; then
    echo "gdrprof accepted a malformed trace" >&2
    exit 1
fi

# Chaos gate: the seeded fault-injection suite must hold on two fixed
# seed trajectories (each seed replays its faults deterministically).
GDR_CHAOS_SEED=7 cargo test --release -q --test chaos
GDR_CHAOS_SEED=11 cargo test --release -q --test chaos

# gdrprof over a faulted trace: the report must surface the injected
# faults, the retries they cost, and the capability-fault fallback.
cargo run --release -q -p omb --bin chaos_trace "$tmp/chaos.json"
cout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/chaos.json" --json "$tmp/chaos_rep.json")"
grep -q 'fault injection:' <<<"$cout"
grep -Eq 'retried [1-9]' <<<"$cout"
grep -Eq 'fallbacks [1-9]' <<<"$cout"
grep -q 'put/proxy-pipeline' <<<"$cout"
# a healthy run self-diffs clean, including the recovery-rate gate
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/chaos_rep.json" "$tmp/chaos_rep.json" --threshold 5 >/dev/null

# Recovery-rate regression gate: a degraded run (retry budget starved)
# must trip `gdrprof diff` against the healthy report ...
cargo run --release -q -p omb --bin chaos_trace "$tmp/chaos_bad.json" --degraded
cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/chaos_bad.json" --json "$tmp/chaos_bad_rep.json" >/dev/null
if cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/chaos_rep.json" "$tmp/chaos_bad_rep.json" --threshold 10 >/dev/null; then
    echo "gdrprof diff missed a recovery-rate regression" >&2
    exit 1
fi
# ... and the checked-in regression fixture must keep tripping it too
if cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_recovery_base.json tests/golden/report_recovery_regressed.json \
    --threshold 10 >/dev/null; then
    echo "gdrprof diff missed the fixture recovery-rate regression" >&2
    exit 1
fi

# Chunk-recovery gate: the pipeline fault plan (large D-D put, chunk
# posts drawing from the CQE stream with a retry budget of one) must
# record chunk replays and a typed partial delivery in the trace, must
# replay byte-identically, and gdrprof must surface both.
run_twice_cmp pipe.json cargo run --release -q -p omb --bin chaos_trace OUT --pipeline
grep -q '"name":"chunk-retry"' "$tmp/pipe.json"
grep -q '"name":"partial-delivery"' "$tmp/pipe.json"
pout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/pipe.json" --json "$tmp/pipe_rep.json")"
grep -Eq 'chunk-retries [1-9]' <<<"$pout"
grep -Eq 'partial-deliveries [1-9]' <<<"$pout"
# the partial-delivery diff gate: a clean report against the partial one
# must trip, exit code 4 like every regression ...
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/chaos_rep.json" "$tmp/pipe_rep.json" --threshold 10 >/dev/null && {
    echo "gdrprof diff missed a partial-delivery regression" >&2
    exit 1
}
# ... and the fixture pair isolates that gate: identical latency and
# recovery rates, only the delivered-byte fraction fell
if cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_partial_base.json tests/golden/report_partial_regressed.json \
    --threshold 10 >/dev/null; then
    echo "gdrprof diff missed the fixture partial-delivery regression" >&2
    exit 1
fi

# Burst-recovery gate: a correlated burst window with the health
# breaker armed must drive the full circuit lifecycle — demote on
# sustained failure, half-open probe after cooldown, promote on the
# probe's success — all visible as trace instants, with the trace
# replaying byte-identically under its seed ...
run_twice_cmp burst.json cargo run --release -q -p omb --bin chaos_trace OUT --burst
grep -q '"cqe-burst"' "$tmp/burst.json"
grep -q '"name":"demote"' "$tmp/burst.json"
grep -q '"name":"probe"' "$tmp/burst.json"
grep -q '"name":"promote"' "$tmp/burst.json"
# ... and in gdrprof's health section
bout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/burst.json" --json "$tmp/burst_rep.json")"
grep -q 'protocol health:' <<<"$bout"
grep -Eq 'demotes [1-9]' <<<"$bout"
grep -Eq 'promotes [1-9]' <<<"$bout"
# a completed lifecycle self-diffs clean, including the promote-rate gate
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/burst_rep.json" "$tmp/burst_rep.json" --threshold 5 >/dev/null
# the fixture pair isolates the promote-rate gate (a run whose breaker
# never re-promotes) and the stage-level attribution of a regressed
# mean (the rdma leg grew; the diff must say so)
dout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_health_base.json tests/golden/report_health_regressed.json \
    --threshold 10)" && {
    echo "gdrprof diff missed the fixture promote-rate regression" >&2
    exit 1
}
grep -q 'promote-rate' <<<"$dout"
grep -q 'stage rdma' <<<"$dout"

# Timeline gate: the burst trace carries the windowed metrics plane —
# gdrprof timeline must align the fault burst with a change-point, fold
# in the demote -> probe -> promote lifecycle, and place the single SLO
# violation (the burst window's collapsed recovery rate) inside the
# burst and nowhere else. The timeline itself is deterministic.
run_twice_cmp tl.json cargo run --release -q -p obs-analyze --bin gdrprof -- \
    timeline "$tmp/burst.json" --json OUT
grep -q '"schema":"gdrprof-timeline-v1"' "$tmp/tl.json"
grep -q 'CHANGE-POINT' "$tmp/tl.json.stdout"
grep -q 'fault burst: windows 3..3, aligned with a p99/contention change-point' "$tmp/tl.json.stdout"
grep -q 'lifecycle direct-gdr: demote @w3' "$tmp/tl.json.stdout"
grep -q 'slo-violations: 1 in 1 windows (first w3, last w3)' "$tmp/tl.json.stdout"
grep -q '"name":"window-snapshot"' "$tmp/burst.json"
grep -q '"name":"slo-violation"' "$tmp/burst.json"

# SLO-violation-count gate: the fixture pair holds every latency and
# fault metric flat while the candidate's windowed plane breaches more
# budgets — diff must trip with the SLO-specific exit code 6.
set +e
cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_slo_base.json tests/golden/report_slo_regressed.json \
    --threshold 10 > "$tmp/slo.txt"
rc=$?
set -e
if [ "$rc" -ne 6 ]; then
    echo "gdrprof diff slo gate: expected exit 6, got $rc" >&2
    exit 1
fi
grep -q 'slo-violations' "$tmp/slo.txt"
grep -q 'REGRESSED' "$tmp/slo.txt"

# the bench report's analysis carries the timeline rollup, and the
# additive partitions rollup stays all-zero on an unfaulted run
grep -q '"timeline":{"windows":' BENCH_omb.json
grep -q '"partitions":{"partitions":0,"fences":0,"heals":0' BENCH_omb.json

# Campaign gate: a seeded fuzzing campaign over generated fault plans
# must complete with zero invariant violations, and two runs of the
# same seed must render byte-identical summaries. A second seed guards
# against a trajectory that happens to dodge the fault space.
run_twice_cmp camp7 cargo run --release -q -p chaos --bin gdrchaos -- run --seed 7 --trials 200
grep -q '^violations: 0$' "$tmp/camp7.stdout"
cargo run --release -q -p chaos --bin gdrchaos -- run --seed 11 --trials 200 > "$tmp/camp11.txt"
grep -q '^violations: 0$' "$tmp/camp11.txt"

# Shrinker gate: the committed known-bad fixture plan must still
# violate (exit 3), and must shrink to exactly the committed minimal
# repro — the shrinker and the golden file move together.
set +e
cargo run --release -q -p chaos --bin gdrchaos -- fixture --repro-out "$tmp/repro.txt" > "$tmp/fixture.txt"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "gdrchaos fixture: expected exit 3 (violation found), got $rc" >&2
    exit 1
fi
cmp "$tmp/repro.txt" tests/golden/chaos_minimal_repro.txt
grep -q 'shrunk to' "$tmp/fixture.txt"

# ... and the minimal repro grammar replays byte-identically through
# chaos_trace --plan (the plan it ran under is echoed on stderr)
repro_grammar="$(grep -v '^#' "$tmp/repro.txt")"
run_twice_cmp replan.json cargo run --release -q -p omb --bin chaos_trace OUT --plan "$repro_grammar"
grep -q 'chaos_trace: plan: seed=1 cqe=450 retries=1' "$tmp/replan.json.stderr"
grep -q '"name":"partial-delivery"' "$tmp/replan.json"

# Crash-campaign gate: with the crash dimension armed the fuzzing
# campaign must stay violation-free (the survivor-bytes and
# view-convergence oracles hold), exercise the full fail-stop
# lifecycle (pe-dead -> evict -> view-change -> rejoin, plus the
# rejoin path's half-open probe and promote), and replay
# byte-identically under its seed.
run_twice_cmp crash_camp cargo run --release -q -p chaos --bin gdrchaos -- run --seed 11 --trials 200 --crash
grep -q '^violations: 0$' "$tmp/crash_camp.stdout"
grep -q 'survivor-bytes' "$tmp/crash_camp.stdout"
grep -q 'view-convergence' "$tmp/crash_camp.stdout"
for what in pe-dead evict view-change rejoin; do
    grep -Eq "  $what/membership: [1-9]" "$tmp/crash_camp.stdout"
done
grep -Eq '  probe/host-rdma: [1-9]' "$tmp/crash_camp.stdout"
grep -Eq '  promote/host-rdma: [1-9]' "$tmp/crash_camp.stdout"

# Crash-shrinker gate: the crash fixture plan must violate (a survivor
# that never checks membership trips the no-peer-dead oracle) and
# shrink to exactly the committed minimal `crash=` repro.
set +e
cargo run --release -q -p chaos --bin gdrchaos -- fixture --crash --repro-out "$tmp/crash_repro.txt" > "$tmp/crash_fixture.txt"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "gdrchaos fixture --crash: expected exit 3 (violation found), got $rc" >&2
    exit 1
fi
cmp "$tmp/crash_repro.txt" tests/golden/chaos_crash_minimal_repro.txt
grep -q 'shrunk to "seed=1 crash=1:20000:1200000"' "$tmp/crash_fixture.txt"
# ... and the minimal crash repro replays byte-identically through
# chaos_trace --plan, landing the fail-stop instant on the trace
crash_grammar="$(grep -v '^#' "$tmp/crash_repro.txt")"
run_twice_cmp crashplan.json cargo run --release -q -p omb --bin chaos_trace OUT --plan "$crash_grammar"
grep -q '"name":"pe-dead"' "$tmp/crashplan.json"

# Membership gate: the crash trace carries the full lifecycle as
# instants, gdrprof folds them into the membership section with the
# view-convergence-time metric at exactly the detection bound, and the
# trace replays byte-identically.
run_twice_cmp crash.json cargo run --release -q -p omb --bin chaos_trace OUT --crash
for name in pe-dead evict view-change rejoin probe promote; do
    grep -q "\"name\":\"$name\"" "$tmp/crash.json"
done
mout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/crash.json" --json "$tmp/crash_rep.json")"
grep -q 'membership:' <<<"$mout"
grep -Eq 'pe-dead 1 +evicts 1 +view-changes 1 +rejoins 1' <<<"$mout"
grep -q 'view-convergence 150.000us' <<<"$mout"
grep -q '"membership":{"pe_dead":1' "$tmp/crash_rep.json"
# a completed crash/rejoin lifecycle self-diffs clean
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/crash_rep.json" "$tmp/crash_rep.json" --threshold 5 >/dev/null

# Membership-regression gate: the fixture pair holds every latency and
# fault metric flat while the candidate converges its view slower and
# leaves an eviction without a rejoin — diff must trip with the
# membership-specific exit code 7.
set +e
cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_membership_base.json tests/golden/report_membership_regressed.json \
    --threshold 10 > "$tmp/member.txt"
rc=$?
set -e
if [ "$rc" -ne 7 ]; then
    echo "gdrprof diff membership gate: expected exit 7, got $rc" >&2
    exit 1
fi
grep -q 'membership (fail-stop view):' "$tmp/member.txt"
grep -q 'unrecovered' "$tmp/member.txt"
grep -q 'REGRESSED' "$tmp/member.txt"

# Partition-campaign gate: with the reachability dimension armed the
# campaign must stay violation-free (the split-brain, quorum-progress
# and heal-convergence oracles hold), exercise the quorum-fence
# lifecycle (partition -> fence -> heal), and replay byte-identically
# under its seed. A second seed guards against a dodging trajectory.
run_twice_cmp part7 cargo run --release -q -p chaos --bin gdrchaos -- run --seed 7 --trials 200 --partition
grep -q '^violations: 0$' "$tmp/part7.stdout"
run_twice_cmp part11 cargo run --release -q -p chaos --bin gdrchaos -- run --seed 11 --trials 200 --partition
grep -q '^violations: 0$' "$tmp/part11.stdout"
grep -q 'split-brain' "$tmp/part11.stdout"
grep -q 'quorum-progress' "$tmp/part11.stdout"
grep -q 'heal-convergence' "$tmp/part11.stdout"
for what in partition fence heal; do
    grep -Eq "  $what/membership: [1-9]" "$tmp/part11.stdout"
done

# Partition-shrinker gate: the partition fixture plan must violate (a
# strict trial that forbids typed Partitioned errors trips the
# no-partitioned oracle) and shrink to exactly the committed minimal
# `partition=` repro.
set +e
cargo run --release -q -p chaos --bin gdrchaos -- fixture --partition --repro-out "$tmp/part_repro.txt" > "$tmp/part_fixture.txt"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "gdrchaos fixture --partition: expected exit 3 (violation found), got $rc" >&2
    exit 1
fi
cmp "$tmp/part_repro.txt" tests/golden/chaos_partition_minimal_repro.txt
grep -q 'shrunk to "seed=1 partition=split:2:20000:1200000"' "$tmp/part_fixture.txt"
# ... and the minimal partition repro replays byte-identically through
# chaos_trace --plan, landing the partition + fence instants (the
# replay harness's ops end before the heal instant would land)
part_grammar="$(grep -v '^#' "$tmp/part_repro.txt")"
run_twice_cmp partplan.json cargo run --release -q -p omb --bin chaos_trace OUT --plan "$part_grammar"
grep -q '"name":"partition"' "$tmp/partplan.json"
grep -q '"name":"fence"' "$tmp/partplan.json"

# Partition gate: the --partition trace carries the quorum-fence
# lifecycle (partition -> fence -> heal) as instants plus the cut's
# reroute onto the proxy path, gdrprof folds them into the partitions
# section with the heal-convergence metric, and the trace replays
# byte-identically under its seed.
run_twice_cmp part.json cargo run --release -q -p omb --bin chaos_trace OUT --partition
for name in partition fence heal fallback proxy-request; do
    grep -q "\"name\":\"$name\"" "$tmp/part.json"
done
ptout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/part.json" --json "$tmp/part_rep.json")"
grep -q 'partitions:' <<<"$ptout"
grep -Eq 'partitions 2 +fences 1 +heals 1 +last-epoch 2' <<<"$ptout"
grep -q 'heal-convergence 280.000us' <<<"$ptout"
grep -q '"partitions":{"partitions":2,"fences":1,"heals":1,"last_epoch":2' "$tmp/part_rep.json"
# a healed split self-diffs clean
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/part_rep.json" "$tmp/part_rep.json" --threshold 5 >/dev/null

# Partition-regression gate: the fixture pair holds every other metric
# flat while the candidate heals its quorum-fenced view slower — diff
# must trip with the partition-specific exit code 8.
set +e
cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_partition_base.json tests/golden/report_partition_regressed.json \
    --threshold 10 > "$tmp/part_diff.txt"
rc=$?
set -e
if [ "$rc" -ne 8 ]; then
    echo "gdrprof diff partition gate: expected exit 8, got $rc" >&2
    exit 1
fi
grep -q 'partitions (quorum-fenced view):' "$tmp/part_diff.txt"
grep -q 'heal-convergence' "$tmp/part_diff.txt"
grep -q 'REGRESSED' "$tmp/part_diff.txt"

# Usage honesty: the CLIs advertise exactly the modes and exit codes
# the gates above rely on.
cargo run --release -q -p obs-analyze --bin gdrprof -- --help \
    | grep -q '8  diff found a partition (quorum-fenced view) regression'
cargo run --release -q -p omb --bin chaos_trace -- --help > "$tmp/ct_usage.txt"
grep -q -- '--partition  quorum fence/heal lifecycle + cut reroute' "$tmp/ct_usage.txt"
grep -q 'GDR_CHAOS_PART_SEED' "$tmp/ct_usage.txt"
gcu="$(cargo run --release -q -p chaos --bin gdrchaos -- --help 2>&1 || true)"
grep -q -- '\[--crash | --partition\]' <<<"$gcu"

# Seed-sweep gate: the 14 campaign seeds on which bench_wall's
# chaos_campaign once printed "correct":false (a lone survivor's
# broadcast from a dead root returned Ok; the rma-random byte oracle
# lacked the fence-severed sync-point exemption) stay violation-free
# in all three modes, and one of them replays byte-identically.
for seed in 4 19 23 43 51 79 129 152 178 212 238 250 264 276; do
    for mode in "" --crash --partition; do
        cargo run --release -q -p chaos --bin gdrchaos -- run --seed "$seed" --trials 160 $mode > "$tmp/sweep.txt"
        grep -q '^violations: 0$' "$tmp/sweep.txt"
    done
done
run_twice_cmp sweep4 cargo run --release -q -p chaos --bin gdrchaos -- run --seed 4 --trials 160 --partition
grep -q '^violations: 0$' "$tmp/sweep4.stdout"

# Two-clock benchmark (examples/bench_wall, its own package): the names,
# units and bounds it emits match BENCHMARK.json and every byte and
# determinism check holds at 1/50 size; then every workload once.
bash examples/bench_wall/run.sh --check
bash examples/bench_wall/run.sh --smoke > /dev/null

# Poll-in-place gate: on small_rma_mix three idle PEs poll a barrier
# flag the whole run; their polls are events but must not be task
# wake-ups (0.32 x with in-place probes; 0.88 x when every poll
# resumed its PE).
rma="$(bash examples/bench_wall/run.sh --workload small_rma_mix --seed 1 --seconds 1 --trace 1 | tail -n 1)"
metric() { sed -E "s/.*\"$1\":\{\"value\":([0-9.e+-]+).*/\1/" <<<"$rma"; }
wakeups="$(metric sim-core.wakeups_per_op)"
events="$(metric sim-core.events_per_op)"
if ! awk -v w="$wakeups" -v e="$events" 'BEGIN { exit !(e > 0 && w < 0.5 * e) }'; then
    echo "small_rma_mix: $wakeups wake-ups per op against $events events per op (gate: < 0.5 x)" >&2
    exit 1
fi
# Threadless-PE gate, from the same line's probes: a hand-off between
# 64 tasks is a register swap (0.2-0.3 us with its wake event; 2.2 us
# when it was a futex wake + wait between OS threads).
handoff="$(metric sim-core.handoff64_host_us)"
if ! awk -v h="$handoff" 'BEGIN { exit !(h > 0 && h < 1.0) }'; then
    echo "sim-core.handoff64_host_us = $handoff us (gate: < 1.0)" >&2
    exit 1
fi

echo "ci: OK"
