#!/usr/bin/env bash
# Repository CI: build, test, lint, bench report + trace-analysis smoke.
# A fact a committed golden or a test already checks is not re-checked here.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Format gate, for the crates kept rustfmt-clean so far (the rest of the
# workspace is not yet).
cargo fmt -p apps-sim -- --check
# Rustdoc gate: a doc link left pointing at a renamed or deleted item
# (or at a private one) fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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
cmp_sites="$(find crates src -path '*/src/*' -name '*.rs' | sort | while read -r f; do
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

# The two gates below read a file only up to its first `#[cfg(test)]`
# at column 0. So after that line every top-level item must be
# test-only, or the gates would skip production code.
late_items="$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { seen = 1; gated = 1; next }
         /^#/ { next }
         seen && /^[a-z]/ && !gated { print FILENAME ":" FNR ": " $0 }
         /^[a-z]/ { gated = 0 }' "$f"
done)"
if [ -n "$late_items" ]; then
    echo "production code after a file's first #[cfg(test)], unread by the gates below:" >&2
    echo "$late_items" >&2
    exit 1
fi

# Single-threaded gate: a simulation is one host thread, so outside
# `#[cfg(test)]` modules no crate holds a cross-thread primitive (the
# `Atomic*` pattern names std's atomics, not `ib_sim::AtomicOp`), and
# the lock stand-in under compat/ stays gone.
sync_sites="$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E 'Mutex|RwLock|Condvar|Atomic(Bool|[IU](8|16|32|64|size)|Ptr)\b|OnceLock|parking_lot' || true)"
if [ -n "$sync_sites" ] || [ -e compat ]; then
    echo "cross-thread primitive in a single-threaded crate (or compat/ is back):" >&2
    echo "$sync_sites" >&2
    exit 1
fi

# Hash-free gate: outside `#[cfg(test)]` modules no crate holds a std
# `HashMap` or `HashSet`. Their SipHash keys are random per process, and
# so is the order they iterate in: a first-match scan or a counter summed
# over one differs from process to process (ROADMAP item 3).
hash_sites="$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E '\bHash(Map|Set)\b' || true)"
if [ -n "$hash_sites" ]; then
    echo "HashMap or HashSet outside a test module (per-process random order):" >&2
    echo "$hash_sites" >&2
    exit 1
fi

# Shared-page gate: the long differential sweep of `pcie_sim::mem`
# against a flat eager model and a model of which pages each slot and
# hold shares (64 seeds x 10^5 ops; ~20 s in release). `cargo test`
# above ran the short one. Then the sparse-arena gate (the pages a
# machine commits follow what it touches, not what it maps) and the
# payload pins (a pipelined 4 MiB put or get copies no payload byte),
# in the optimised build too.
cargo test --release -q -p pcie-sim --test mem_differential -- --ignored
cargo test --release -q --test sparse_arenas
cargo test --release -q --test engine_counts
# Decoder fuzzing: the long seeded-mutation sweep of the trace and
# report decoders gdrprof reads (`cargo test` above ran the short one).
cargo test --release -q --test trace_fuzz -- --ignored
# Parity digest: every chaos_trace preset and committed repro, seeds
# 0..=120 at 40 trials, the 14 seed-sweep seeds (on which bench_wall's
# chaos_campaign once printed "correct":false) at 160 trials and seeds 7
# and 11 at 200 trials, in all three campaign modes, each violation-free
# and hashed against tests/golden/parity.txt; seed 11 must also walk the
# crash and partition lifecycles (`cargo test` above ran the quick
# digest).
cargo test --release -q --test parity -- --ignored

# Golden gate: every golden is compared and re-blessed through
# tests/common's `check` and its one switch, GDR_BLESS; a per-test bless
# or write-to-path switch stays gone.
if git grep -nE 'GDR_[A-Z_]+_(BLESS|WRITE)' -- tests ci.sh; then
    echo "a per-test golden switch is back (see the lines above); use GDR_BLESS through tests/common" >&2
    exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# expect_exit CODE [PATTERN] -- CMD [ARGS...] — the exit-code gate shared
# by every must-fail check below. Runs CMD once and requires exit code
# CODE and, with PATTERN, a line of its output (stdout or stderr)
# containing PATTERN.
expect_exit() {
    local want="$1" pattern="" rc=0
    shift
    [ "$1" = "--" ] || { pattern="$1"; shift; }
    shift
    "$@" > "$tmp/expect.out" 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ] || { [ -n "$pattern" ] && ! grep -qF -- "$pattern" "$tmp/expect.out"; }; then
        echo "expected exit $want${pattern:+ and a line containing '$pattern'}, got $rc: $*" >&2
        tail -n 5 "$tmp/expect.out" >&2
        exit 1
    fi
}

# Dispatch-matrix and diff-gates gates: the optimised build reproduces
# each golden (`cargo test` above compared the debug build's): the
# dispatch table cell by cell, and every fixture-pair diff at thresholds
# 0/10/50 (exit code, text, JSON).
cargo test --release -q --test dispatch_matrix
cargo test --release -q --test diff_gates
# ... and the diff exit codes live in one table, obs_analyze::diff::EXITS
if grep -nE 'fail\([4-8]' crates/obs-analyze/src/bin/gdrprof.rs; then
    echo "gdrprof.rs hand-writes a diff exit code; add it to obs_analyze::diff::EXITS" >&2
    exit 1
fi

# Protocol-name gate: the chunked chains name their protocol through
# `Protocol::name()` (each transfer's one `ChunkOp` carries it), never
# as a string literal, where a typo would silently split a fault tally.
if grep -nE '"(pipeline-gdr-write|host-pipeline-staged|proxy-pipeline|direct-gdr)"' \
    crates/core/src/{pipeline,pending,recovery,machine}.rs; then
    echo "a chunked chain spells a protocol name as a literal; use Protocol::name()" >&2
    exit 1
fi
# ... and the sixteen fault events are named once, by `obs::FaultEvent`,
# and recorded through `Recorder::fault_event`: a direct tally in the
# runtime and hardware layers may name only the four tally-only
# counters, so no event's counter is spelled a second time.
if grep -rnE 'fault_tally\(' crates/{core,ib-sim,gpu-sim}/src \
    | grep -vE 'fault_tally\("(exhausted|recovered|timeout|chunk-recovered)"'; then
    echo "a fault_tally names a fault event's counter; record the obs::FaultEvent through Recorder::fault_event" >&2
    exit 1
fi

# Bench report: run the OMB matrix + traced workload and compare the
# machine-readable report byte for byte with the committed
# BENCH_omb.json: virtual time is deterministic, so any difference is a
# moved latency or a changed analysis.
cargo run --release -q -p omb --bin bench_omb "$tmp/BENCH_omb.json" "$tmp/trace.json" "$tmp/sweep.json" 2> "$tmp/omb_report.txt"
if ! cmp BENCH_omb.json "$tmp/BENCH_omb.json"; then
    echo "BENCH_omb.json drifted; after an intended timing change, rewrite it with" \
        "\`cargo run --release -p omb --bin bench_omb\` and say why" >&2
    exit 1
fi

# gdrprof smoke: the traced workload must analyze to a nonzero critical
# path with the expected anchor lines.
cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/trace.json" --json "$tmp/report.json" > "$tmp/report.txt"
out="$(cat "$tmp/report.txt")"
grep -Eq 'ops-analyzed: [1-9]' <<<"$out"
grep -q 'critical path' <<<"$out"
# the v2 report carries latency quantile sketches
grep -q 'latency quantiles' <<<"$out"
grep -q '"quantiles"' "$tmp/report.json"
grep -q '"p999_us"' "$tmp/report.json"
# Trace-path parity: bench_omb analyzed its recorder in-process and
# printed the report on stderr (eprintln adds one newline); gdrprof
# decoded the trace file of the same run. The two must agree byte for
# byte.
echo >> "$tmp/report.txt"
cmp "$tmp/omb_report.txt" "$tmp/report.txt"
# a self-diff must report no regressions
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/report.json" "$tmp/report.json" --threshold 5 >/dev/null
# ... and --json writes the machine-readable diff document
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/report.json" "$tmp/report.json" --json "$tmp/diff.json" >/dev/null
grep -q '"schema":"gdrprof-diff-v1"' "$tmp/diff.json"

# Crossover profiler: the sweep trace must yield latency curves and at
# least one observed protocol switch per socket relation, each tagged
# with the governing threshold's provenance; the profile is
# deterministic (two runs write byte-identical profiles and print the
# same report, once each run's own path is normalised) and --suggest
# emits a loadable thresholds-v1 artifact.
for run in a b; do
    cargo run --release -q -p obs-analyze --bin gdrprof -- crossover "$tmp/sweep.json" \
        --json "$tmp/x.$run.json" --suggest "$tmp/suggest.json" |
        sed "s|$tmp/x.$run.json|OUT|g" > "$tmp/x.$run.stdout"
done
cmp "$tmp/x.a.json" "$tmp/x.b.json"
cmp "$tmp/x.a.stdout" "$tmp/x.b.stdout"
grep -q 'crossover .*/intra-socket:' "$tmp/x.a.stdout"
grep -q 'crossover .*/inter-socket:' "$tmp/x.a.stdout"
grep -q 'threshold gdr_put_limit=32768, builtin' "$tmp/x.a.stdout"
grep -q 'threshold proxy_get_min=524288, builtin' "$tmp/x.a.stdout"
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

# A malformed trace, a report whose section has the wrong type (a
# mistyped section must never read as an empty one), a plan value past
# its field's type (crash=4294967297 once crashed PE 1 by truncation) and
# a crash of a PE outside the pair (crash=70 once overflowed the 64-bit
# view mask, crash=64 aliased PE 0 and crash=2 was silently ignored) are
# each rejected with their exit code, the crashes before any machine is
# built.
printf '{"traceEvents":[' > "$tmp/bad.json"
expect_exit 2 -- cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/bad.json"
sed 's/"faults":{}/"faults":"oops"/' tests/golden/report_contention_base.json > "$tmp/bad_rep.json"
grep -q '"faults":"oops"' "$tmp/bad_rep.json"
expect_exit 2 '"faults" is not an object' -- cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_contention_base.json "$tmp/bad_rep.json"
expect_exit 101 'fits u32' -- cargo run --release -q -p omb --bin chaos_trace -- "$tmp/trunc.json" \
    --plan "crash=4294967297:1000"
expect_exit 1 'outside the 2-PE job' -- cargo run --release -q -p omb --bin chaos_trace -- "$tmp/oob.json" \
    --plan "crash=70:20000"
expect_exit 2 'outside the 2-PE job' -- cargo run --release -q -p chaos --bin gdrchaos -- replay \
    --plan "crash=2:20000" --workload rma-random --trial 0
# A malformed observability or watchdog setting fails loud, naming the
# variable (a "2ms" deadline once turned the watchdog off, and an unknown
# level once ran the trace at Off) ...
for knob in GDR_SHMEM_QUIESCE_NS=2ms GDR_SHMEM_OBS=verbose 'GDR_SHMEM_OBS_SLO=p98:put/*/*=1'; do
    expect_exit 101 "${knob%%=*}" -- env "$knob" cargo run --release -q -p omb --bin chaos_trace -- "$tmp/knob.json"
done
# ... and campaign trials build from the env-free RuntimeConfig::builtin:
# a threshold table or an SLO policy in the environment leaves what
# gdrchaos prints byte-identical (an SLO policy once made every trial a
# no-hang violation).
cargo run --release -q -p chaos --bin gdrchaos -- run --seed 7 --trials 16 > "$tmp/camp.txt"
for knob in GDR_SHMEM_THRESHOLDS=tests/golden/thresholds_degraded.json 'GDR_SHMEM_OBS_SLO=p99:put/*/*=1'; do
    env "$knob" cargo run --release -q -p chaos --bin gdrchaos -- run --seed 7 --trials 16 > "$tmp/camp_env.txt"
    cmp "$tmp/camp.txt" "$tmp/camp_env.txt"
done

# Chaos gate: the seeded fault-injection suite must hold on two fixed
# seed trajectories (each seed replays its faults deterministically).
GDR_CHAOS_SEED=7 cargo test --release -q --test chaos
GDR_CHAOS_SEED=11 cargo test --release -q --test chaos

# the bench report's analysis carries the timeline rollup, and the
# additive partitions rollup stays all-zero on an unfaulted run
grep -q '"timeline":{"windows":' BENCH_omb.json
grep -q '"partitions":{"partitions":0,"fences":0,"heals":0' BENCH_omb.json

# Shrinker gate: the committed known-bad fixture plan still violates
# (exit 3) and `--repro-out` writes exactly the committed minimal repro
# (tests/chaos_campaign.rs holds all three fixture rows to theirs).
expect_exit 3 'shrunk to' -- cargo run --release -q -p chaos --bin gdrchaos -- fixture --repro-out "$tmp/repro.txt"
cmp "$tmp/repro.txt" tests/golden/chaos_minimal_repro.txt

# Usage honesty: the CLIs advertise exactly the modes and exit codes
# the gates above rely on.
cargo run --release -q -p obs-analyze --bin gdrprof -- --help \
    | grep -q '8  diff found a partition (quorum-fenced view) regression'
cargo run --release -q -p omb --bin chaos_trace -- --help > "$tmp/ct_usage.txt"
grep -q -- '--partition  quorum fence/heal lifecycle + cut reroute' "$tmp/ct_usage.txt"
grep -q -- '--crash      fail-stop membership lifecycle + rejoin' "$tmp/ct_usage.txt"
gcu="$(cargo run --release -q -p chaos --bin gdrchaos -- --help 2>&1 || true)"
grep -q -- '\[--crash | --partition\]' <<<"$gcu"
# ... and a zero timeline window is a usage error (exit 1), not a trace
# without analyzable operations (exit 3)
expect_exit 1 '--window needs a positive microsecond count' -- \
    cargo run --release -q -p obs-analyze --bin gdrprof -- timeline "$tmp/trace.json" --window 0

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
