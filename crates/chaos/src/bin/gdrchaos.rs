//! `gdrchaos` — CLI over the deterministic chaos-campaign engine.
//!
//! ```text
//! gdrchaos run --seed S --trials N [--out FILE] [--shrink] [--crash | --partition]
//! gdrchaos replay --plan "<grammar>" --workload W --trial N [--seed S]
//! gdrchaos fixture [--repro-out FILE] [--crash | --partition]
//! ```
//!
//! Exit codes:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | campaign/replay clean — no invariant violations |
//! | 2    | usage error, I/O failure, or a `replay` plan the chaos pair |
//! |      | cannot run (a `crash=` of a PE outside it) |
//! | 3    | invariant violations found (for `fixture` this is the
//! |      | expected outcome: the known-bad plan must violate) |
//!
//! `run` prints the `gdrchaos-campaign-v1` summary on stdout — two runs
//! of the same seed are byte-identical, which CI `cmp`s; `--crash` adds
//! the fail-stop crash dimension to the generated plans and
//! `--partition` the network-partition dimension (both ride salted
//! draws, so fault-free trials stay byte-identical to the base
//! campaign). `replay` re-executes a single (possibly shrunk) plan and
//! prints the trial report; the plan it ran under goes to stderr.
//! `fixture` runs one row of `chaos::FIXTURES` — the partial-delivery
//! plan, or with `--crash` the crashed-PE plan, or with `--partition`
//! the split-PE plan, each under its strict app-tier oracle — shrinks
//! the violation, and writes the minimal-repro file.

use chaos::{render_repro, run_campaign_mode, run_trial, shrink};
use chaos::{CampaignFailure, CampaignMode, Fixture, TrialSpec, Workload};
use faults::FaultPlan;
use pcie_sim::ClusterSpec;
use shmem_gdr::Membership;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gdrchaos run --seed S --trials N [--out FILE] [--shrink] [--crash | --partition]\n\
         \x20      gdrchaos replay --plan \"<grammar>\" --workload W --trial N [--seed S]\n\
         \x20      gdrchaos fixture [--repro-out FILE] [--crash | --partition]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("fixture") => cmd_fixture(&args[1..]),
        _ => usage(),
    }
}

/// Pull the value after a `--flag`.
fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// `--crash` or `--partition` (at most one): the plan stream of `run`,
/// the row of `fixture`.
fn mode(args: &[String]) -> Option<CampaignMode> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    match (has("--crash"), has("--partition")) {
        (false, false) => Some(CampaignMode::Base),
        (true, false) => Some(CampaignMode::Crash),
        (false, true) => Some(CampaignMode::Partition),
        (true, true) => None,
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(seed) = opt(args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    let Some(trials) = opt(args, "--trials").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    let Some(mode) = mode(args) else {
        return usage();
    };
    let do_shrink = args.iter().any(|a| a == "--shrink");
    let (summary, failures) = run_campaign_mode(seed, trials, mode);
    let mut out = summary.render();
    if do_shrink && !failures.is_empty() {
        // shrink the first few distinct failures to minimal repros
        out.push_str("minimal-repros:\n");
        for f in failures.iter().take(3) {
            let (minimal, probes) = shrink(f);
            out.push_str(&format!(
                "  trial {} [{}] ({} probes): {}\n",
                f.trial, f.oracle, probes, minimal
            ));
        }
    }
    print!("{out}");
    if let Some(path) = opt(args, "--out") {
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("gdrchaos: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if summary.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(grammar) = opt(args, "--plan") else {
        return usage();
    };
    let Some(workload) = opt(args, "--workload").and_then(|w| Workload::from_name(&w)) else {
        return usage();
    };
    let Some(trial) = opt(args, "--trial").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    let seed = opt(args, "--seed").and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let plan = FaultPlan::parse(&grammar);
    if let Err(e) = Membership::check(&plan, ClusterSpec::internode_pair().total_procs()) {
        eprintln!("gdrchaos: {e}");
        return ExitCode::from(2);
    }
    eprintln!("gdrchaos: replaying plan: {plan}");
    let spec = TrialSpec::new(seed, trial, workload, plan);
    let res = run_trial(&spec);
    print!("{}", res.report);
    for (oracle, detail) in &res.violations {
        println!("violation [{oracle}]: {detail}");
    }
    if res.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

fn cmd_fixture(args: &[String]) -> ExitCode {
    let Some(mode) = mode(args) else {
        return usage();
    };
    match Fixture::of(mode).run() {
        Some((failure, minimal, probes)) => {
            let CampaignFailure { oracle, detail, plan, .. } = &failure;
            println!("fixture: violation [{oracle}] under plan \"{plan}\": {detail}");
            println!("fixture: shrunk to \"{minimal}\" in {probes} probes");
            if let Some(path) = opt(args, "--repro-out") {
                let doc = render_repro(&failure, &minimal, probes);
                if let Err(e) = std::fs::write(&path, doc) {
                    eprintln!("gdrchaos: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            ExitCode::from(3)
        }
        None => {
            // the known-bad plan no longer violates: the fixture itself
            // regressed, which CI must notice (it asserts exit code 3)
            eprintln!("gdrchaos: fixture plan produced no violation — fixture is broken");
            ExitCode::SUCCESS
        }
    }
}
