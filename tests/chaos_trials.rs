//! Characterisation golden for faulted chaos trials.
//!
//! Every other chaos test compares a run only to another run; this one
//! pins 48 faulted trials (campaign seed 7, trials 0..16 under each of
//! the three plan generators) to a committed reference: each trial's
//! deterministic report (op outcomes, `final-now-ns`, `mem-hash`, fault
//! counters) and its oracle violations. An engine refactor that moves
//! any virtual instant or byte shows up here as the first differing
//! line. `mem-hash` is `chaos::mem_hash` of the trial's snapshots, whose
//! rustdoc states the digest format; a trial whose hashed parts are all
//! empty hashes their lengths alone. After an *intended* change, `GDR_BLESS=1 cargo test --test
//! chaos_trials` rewrites the golden — read its diff first.

mod common;

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
    common::check("chaos_trials.txt", &trials());
}
