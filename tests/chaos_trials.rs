//! Characterisation golden for faulted chaos trials.
//!
//! Every other chaos test compares a run only to another run; this one
//! pins 48 faulted trials (campaign seed 7, trials 0..16 under each of
//! the three plan generators) to a committed reference: each trial's
//! deterministic report (op outcomes, `final-now-ns`, `mem-hash`, fault
//! counters) and its oracle violations. An engine refactor that moves
//! any virtual instant or byte shows up here as the first differing
//! line. After an *intended* change, `GDR_CHAOS_TRIALS_BLESS=1 cargo
//! test --test chaos_trials` rewrites the golden — read its diff first.

use gdr_shmem::chaos::{run_trial, TrialSpec, Workload};
use gdr_shmem::faults::FaultPlan;
use std::fmt::Write as _;

const SEED: u64 = 7;
const TRIALS: u64 = 16;

/// A campaign mode's plan generator: `(campaign seed, trial) -> plan`.
type Generate = fn(u64, u64) -> FaultPlan;

fn trials() -> String {
    let modes: [(&str, Generate); 3] = [
        ("base", FaultPlan::generate),
        ("crash", FaultPlan::generate_with_crashes),
        ("partition", FaultPlan::generate_with_partitions),
    ];
    let mut out = String::new();
    for (mode, generate) in modes {
        for trial in 0..TRIALS {
            let spec =
                TrialSpec::new(SEED, trial, Workload::pick(SEED, trial), generate(SEED, trial));
            let r = run_trial(&spec);
            let _ = write!(out, "[{mode}] {}", r.report);
            for (oracle, detail) in &r.violations {
                let _ = writeln!(out, "  VIOLATION {oracle}: {detail}");
            }
        }
    }
    out
}

#[test]
fn chaos_trials_match_golden() {
    let got = trials();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chaos_trials.txt");
    if std::env::var_os("GDR_CHAOS_TRIALS_BLESS").is_some() {
        std::fs::write(path, &got).expect("bless chaos trials");
    }
    let want = std::fs::read_to_string(path)
        .expect("missing golden file; regenerate with GDR_CHAOS_TRIALS_BLESS=1");
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("line {}:\n  got  {g}\n  want {w}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, want {}",
                    got.lines().count(),
                    want.lines().count()
                )
            });
        panic!("chaos trials drifted from tests/golden/chaos_trials.txt; first difference at {first}");
    }
}
