//! The parity digest: one line per command whose output a change must
//! leave byte-identical, holding the command's exit code, its oracle
//! violations and a 64-bit [`mem_hash`] of everything it prints (the
//! trial reports' `mem-hash=` function; its rustdoc states the format,
//! so a change of that format moves every line here).
//!
//! - `gdrchaos run --seed S --trials N [--crash | --partition]`: the
//!   exit code `gdrchaos` returns (0, or 3 on a violation), the
//!   violation count, and the hash of the rendered campaign summary and
//!   of every trial's report, in trial order (what `gdrchaos replay`
//!   prints of it). The summary sums fault counters and carries no
//!   virtual time; the reports carry each trial's final instant and
//!   memory hashes, so a timing-only change moves the line too.
//! - `chaos_trace [<preset flag>]` for each row of
//!   `omb::presets::PRESETS`, and `chaos_trace --plan "<grammar>"` for
//!   each committed minimal repro (`tests/golden/chaos_*minimal_repro.txt`,
//!   replayed under `plan_replay`). `chaos_trace` runs no oracle and
//!   exits 0. The hash covers the echoed plan, the final virtual
//!   picosecond, the Chrome trace, `gdrprof analyze` (text and JSON)
//!   and `gdrprof timeline --window 50` (text and JSON).
//!
//! Every campaign line must read `violations=0` before the file is
//! compared, so a re-bless cannot commit a violation. `parity_quick`
//! (tier-1) writes `tests/golden/parity_quick.txt`: the traces and four
//! seeds at 8 trials in each mode. `parity_full` (ignored; `ci.sh` runs
//! it in release) writes `tests/golden/parity.txt`: the traces, seeds
//! 0..=120 at 40 trials in each mode, the 14 seed-sweep seeds at 160
//! trials in each mode, and seeds 7 and 11 at 200 trials in each mode,
//! whose seed-11 crash and partition campaigns must each walk their
//! whole lifecycle.
//!
//! A change that moves a line names it and says why, exactly as for
//! any golden; re-bless with `GDR_BLESS=1 cargo test --release --test
//! parity -- --include-ignored`.

mod common;

use gdr_shmem::chaos::{mem_hash, run_campaign_with, CampaignMode};
use gdr_shmem::faults::FaultPlan;
use gdr_shmem::obs::ObsLevel;
use gdr_shmem::obs_analyze::{analyze, timeline, CampaignSummary, Trace};
use gdr_shmem::omb::presets::{plan_replay, Workload, PRESETS};
use gdr_shmem::shmem::{Design, RuntimeConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The campaign seeds on which bench_wall's `chaos_campaign` once
/// printed `"correct":false` (a lone survivor's broadcast from a dead
/// root returned `Ok`; the rma-random byte oracle lacked the
/// fence-severed sync-point exemption), run at 160 trials.
const SWEEP_SEEDS: [u64; 14] = [4, 19, 23, 43, 51, 79, 129, 152, 178, 212, 238, 250, 264, 276];

const MODES: [(&str, CampaignMode); 3] = [
    ("", CampaignMode::Base),
    (" --crash", CampaignMode::Crash),
    (" --partition", CampaignMode::Partition),
];

const REPROS: [&str; 3] = [
    "chaos_minimal_repro.txt",
    "chaos_crash_minimal_repro.txt",
    "chaos_partition_minimal_repro.txt",
];

fn line(out: &mut String, key: &str, exit: u8, violations: usize, parts: &[&[u8]]) {
    let _ = writeln!(out, "{key}: exit={exit} violations={violations} hash={:#018x}", mem_hash(parts));
}

/// What `chaos_trace OUT.json <mode>` prints and writes, then what
/// `gdrprof analyze` and `gdrprof timeline --window 50` print of it.
fn trace(out: &mut String, key: &str, grammar: &str, workload: Workload) {
    let plan = FaultPlan::parse(grammar);
    let echoed = format!("chaos_trace: plan: {plan}\n");
    let m = workload(
        RuntimeConfig::builtin(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Spans),
    );
    let end_ps = m.sim().now().as_ps().to_le_bytes();
    let tr = Trace::of(m.obs());
    let rep = analyze(&tr);
    let report = rep.text() + &rep.to_json();
    let tl = timeline(&tr, Some(50)).map_or_else(|e| e, |t| t.text() + &t.to_json());
    let chrome = m.obs().chrome_trace();
    let parts = [echoed.as_bytes(), &end_ps, chrome.as_bytes(), report.as_bytes(), tl.as_bytes()];
    line(out, key, 0, 0, &parts);
}

fn traces(out: &mut String) {
    for (flag, grammar, workload) in PRESETS {
        trace(out, format!("chaos_trace {flag}").trim_end(), grammar, workload);
    }
    for name in REPROS {
        let doc = std::fs::read_to_string(format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR")))
            .unwrap_or_else(|e| panic!("cannot read tests/golden/{name}: {e}"));
        let grammar = doc.lines().find(|l| !l.starts_with('#')).expect("a bare grammar line");
        trace(out, &format!("chaos_trace --plan \"{grammar}\""), grammar, plan_replay);
    }
}

/// What `gdrchaos run --seed <seed> --trials <trials> <mode>` prints,
/// for every mode, and the report of each of its trials. Returns each
/// command's summary, keyed by the command.
fn campaigns(
    out: &mut String,
    seeds: impl IntoIterator<Item = u64>,
    trials: u64,
) -> BTreeMap<String, CampaignSummary> {
    let mut summaries = BTreeMap::new();
    for seed in seeds {
        for (flag, mode) in MODES {
            let mut reports = String::new();
            let (summary, _) = run_campaign_with(seed, trials, mode, |r| reports += &r.report);
            let n = summary.violations.len();
            let key = format!("gdrchaos run --seed {seed} --trials {trials}{flag}");
            let text = summary.render();
            line(out, &key, if n == 0 { 0 } else { 3 }, n, &[text.as_bytes(), reports.as_bytes()]);
            assert_eq!(n, 0, "`{key}` found violations:\n{text}");
            summaries.insert(key, summary);
        }
    }
    summaries
}

/// Every `(event, protocol)` counter of `lifecycle` is at least one in
/// the summary of `key`.
fn walks(summaries: &BTreeMap<String, CampaignSummary>, key: &str, lifecycle: &[(&str, &str)]) {
    let counters = &summaries[key].fault_counters;
    for &(what, proto) in lifecycle {
        let n = counters.get(&(what.to_string(), proto.to_string())).copied().unwrap_or(0);
        assert!(n > 0, "`{key}` never reached {what}/{proto}");
    }
}

#[test]
fn parity_quick() {
    let mut out = String::new();
    traces(&mut out);
    campaigns(&mut out, 0..=3, 8);
    common::check("parity_quick.txt", &out);
}

#[test]
#[ignore = "about 3 s in release; ci.sh runs it"]
fn parity_full() {
    let mut out = String::new();
    traces(&mut out);
    campaigns(&mut out, 0..=120, 40);
    campaigns(&mut out, SWEEP_SEEDS, 160);
    let long = campaigns(&mut out, [7, 11], 200);
    // the crash campaign walks the whole fail-stop lifecycle, rejoin
    // included, and the rejoined peer's half-open probe and promote; the
    // partition campaign walks the quorum fence from split to heal
    let (m, h) = ("membership", "host-rdma");
    let crash = [("pe-dead", m), ("evict", m), ("view-change", m), ("rejoin", m), ("probe", h), ("promote", h)];
    walks(&long, "gdrchaos run --seed 11 --trials 200 --crash", &crash);
    walks(&long, "gdrchaos run --seed 11 --trials 200 --partition", &[("partition", m), ("fence", m), ("heal", m)]);
    common::check("parity.txt", &out);
}
