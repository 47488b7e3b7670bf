//! `chaos_trace` — CI driver for the fault-injection observability path.
//!
//! ```text
//! chaos_trace OUT_TRACE.json [--degraded | --pipeline | --burst | --crash | --partition]
//! chaos_trace OUT_TRACE.json --plan "<grammar>"
//! ```
//!
//! Runs one span-traced inter-node workload under a seeded fault plan
//! and writes the Chrome trace to `OUT_TRACE.json`. Each mode is a row
//! of [`PRESETS`] (`omb::presets`): a flag, a plan in the
//! `GDR_SHMEM_FAULTS` grammar, and the workload that drives the pair
//! under it.
//!
//! `--plan "<grammar>"` replays an **arbitrary** `GDR_SHMEM_FAULTS`
//! plan — typically a minimal repro shrunk by `gdrchaos` — under a
//! fixed mixed workload (pipelined D-D put plus a host-put/get tail).
//! The plan it ran under is echoed on stderr; the trace on stdout-path
//! is byte-identical across runs of the same grammar, which CI `cmp`s.

use faults::FaultPlan;
use obs::ObsLevel;
use omb::presets::{plan_replay, Workload, PRESETS};
use pcie_sim::ClusterSpec;
use shmem_gdr::{job_shape, Design, RuntimeConfig};
use std::process::ExitCode;

const USAGE: &str = "usage:
  chaos_trace OUT_TRACE.json              transient CQE faults + GDR-off fallback
  chaos_trace OUT_TRACE.json --degraded   near-certain CQE faults, retry budget 1
  chaos_trace OUT_TRACE.json --pipeline   chunk-retry + partial-delivery trace
  chaos_trace OUT_TRACE.json --burst      breaker demote/probe/promote lifecycle
  chaos_trace OUT_TRACE.json --crash      fail-stop membership lifecycle + rejoin
  chaos_trace OUT_TRACE.json --partition  quorum fence/heal lifecycle + cut reroute
  chaos_trace OUT_TRACE.json --plan \"<grammar>\"   replay a GDR_SHMEM_FAULTS plan

Each mode runs under a fixed fault seed (--plan \"seed=N ...\" replays any
other). Traces are byte-identical across runs of the same mode, so CI
can cmp two runs and grep the instants each mode guarantees.

exit codes:
  0  success
  1  usage error, or a plan that does not parse or that the pair cannot
     run (FaultPlan::check: a value out of range, an empty window, a PE,
     node, HCA or GPU outside the pair); the error names the token
  2  cannot write the output trace";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (mut out, mut mode): (Option<&str>, Option<(String, Workload)>) = (None, None);
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let picked = match a.as_str() {
            "--plan" => args.next().map(|g| (g.clone(), plan_replay as Workload)),
            flag if flag.starts_with("--") => PRESETS
                .iter()
                .find(|p| p.0 == flag)
                .map(|&(_, grammar, workload)| (grammar.to_string(), workload)),
            path if out.is_none() => {
                out = Some(path);
                continue;
            }
            _ => None,
        };
        // an unknown flag, a second mode or a second path is a usage error
        if picked.is_none() || mode.is_some() {
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
        mode = picked;
    }
    let Some(out) = out else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };
    let (grammar, workload) = mode.unwrap_or_else(|| (PRESETS[0].1.to_string(), PRESETS[0].2));
    let job = job_shape(&ClusterSpec::internode_pair());
    let plan = match grammar
        .parse::<FaultPlan>()
        .and_then(|p| p.check(&job).map(|()| p))
    {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("chaos_trace: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!("chaos_trace: plan: {plan}");
    let m = workload(
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Spans),
    );
    if let Err(e) = std::fs::write(out, m.obs().chrome_trace()) {
        eprintln!("chaos_trace: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
