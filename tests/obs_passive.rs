//! The recorder never changes the run.
//!
//! docs/OBSERVABILITY.md promises that the recorder captures a run
//! without perturbing it: whatever the level or the window width, the
//! simulated machine takes the same path through virtual time. Every
//! `chaos_trace` preset (`omb::presets::PRESETS`) runs here at five
//! observability settings. Each must end on the same
//! virtual picosecond, and every setting that keeps fault counters
//! (`Counters` and up) must keep the same ones.
//!
//! The `--burst` preset arms its own 50 us window and SLO policy at
//! every setting that counts, so its SLO watchdog is live in all of its
//! counted runs.

use gdr_shmem::faults::FaultPlan;
use gdr_shmem::obs::ObsLevel;
use gdr_shmem::omb::presets::PRESETS;
use gdr_shmem::shmem::{Design, RuntimeConfig};

/// `(level, window_us)` — from nothing recorded to everything recorded
/// with the windowed plane armed.
const SETTINGS: [(ObsLevel, u32); 5] = [
    (ObsLevel::Off, 0),
    (ObsLevel::Counters, 0),
    (ObsLevel::Counters, 25),
    (ObsLevel::Spans, 0),
    (ObsLevel::Spans, 50),
];

#[test]
fn every_preset_ends_on_the_same_instant_at_every_obs_setting() {
    for (flag, grammar, workload) in PRESETS {
        let mut first = None;
        let mut counted = None;
        for (level, window_us) in SETTINGS {
            // every knob the environment could set is pinned
            let m = workload(
                RuntimeConfig::tuned(Design::EnhancedGdr)
                    .with_obs(level)
                    .with_obs_window(window_us)
                    .with_quiesce_ns(0)
                    .with_faults(FaultPlan::parse(grammar)),
            );
            let setting = format!("preset {flag:?} at {level:?} window {window_us} us");
            let now = m.sim().now();
            assert_eq!(
                *first.get_or_insert(now),
                now,
                "{setting}: the final virtual time moved"
            );
            if level.counters_on() {
                let faults = m.obs().fault_counters();
                let want = counted.get_or_insert_with(|| faults.clone());
                assert_eq!(*want, faults, "{setting}: the fault counters moved");
            }
        }
    }
}
