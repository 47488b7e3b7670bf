//! Characterisation of `gdrprof diff`: every ordered pair of the
//! committed `tests/golden/report_*.json` fixtures at thresholds
//! {0, 10, 50}, one cell per (baseline, candidate, threshold) recording
//! the exit code `gdrprof diff` would return, the text rendering and the
//! `gdrprof-diff-v1` JSON, compared byte for byte against
//! `tests/golden/diff_gates.txt`. Beside the golden, each gate's own
//! fixture pair must trip that gate's exit.
//!
//! Regenerate with `GDR_BLESS=1 cargo test --test diff_gates` after an
//! *intended* change — read its diff first.

mod common;

use gdr_shmem::obs_analyze::diff::GATES;
use gdr_shmem::obs_analyze::{diff, Report, EXITS};
use std::fmt::Write as _;

const THRESHOLDS: [f64; 3] = [0.0, 10.0, 50.0];

fn fixtures() -> Vec<(String, Report)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("tests/golden must be readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("report_") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(
        names.len(),
        14,
        "seven gates, one fixture pair each: {names:?}"
    );
    names
        .into_iter()
        .map(|n| {
            let doc = std::fs::read_to_string(format!("{dir}/{n}"))
                .unwrap_or_else(|e| panic!("cannot read {n}: {e}"));
            let rep = Report::from_json_str(&doc).unwrap_or_else(|e| panic!("{n}: {e}"));
            (n.trim_end_matches(".json").to_string(), rep)
        })
        .collect()
}

fn cells() -> String {
    let reps = fixtures();
    let mut out = String::new();
    let mut exits = [0usize; 9];
    for (an, a) in &reps {
        for (bn, b) in &reps {
            for t in THRESHOLDS {
                let d = diff(a, b, t);
                let code = d.exit().map_or(0, |e| e.code);
                exits[code as usize] += 1;
                let _ = writeln!(out, "=== {an} -> {bn} @ {t}: exit {code}");
                out.push_str(&d.text());
                out.push_str(&d.to_json());
                out.push('\n');
            }
        }
    }
    let tally: Vec<String> = exits
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(code, n)| format!("{code}:{n}"))
        .collect();
    let _ = writeln!(out, "=== exit codes {}", tally.join(" "));
    out
}

#[test]
fn diff_gates_match_golden() {
    common::check("diff_gates.txt", &cells());
}

/// Each [`GATES`] row's fixture pair, `report_<gate>_base` ->
/// `report_<gate>_regressed` at 10 %, exits with the gate's code, through
/// the [`EXITS`] entry whose JSON counter names the gate (or through the
/// latency exit, the first entry, which the recovery, partial and health
/// gates share). Its text prints the gate's section and a `REGRESSED`
/// row. The health pair also regresses a mean, which the diff attributes
/// to the rdma stage.
#[test]
fn each_gate_trips_its_exit_on_its_fixture_pair() {
    let reps: std::collections::BTreeMap<String, Report> = fixtures().into_iter().collect();
    for gate in &GATES {
        let name = gate.name;
        let d = diff(&reps[&format!("report_{name}_base")], &reps[&format!("report_{name}_regressed")], 10.0);
        let exit = d.exit().unwrap_or_else(|| panic!("{name} gate: its fixture pair diffs clean"));
        assert_eq!(exit.code, gate.exit, "{name} gate: exit code");
        assert!(
            exit.counter == format!("{name}_regressions") || exit.counter == EXITS[0].counter,
            "{name} gate: exit {} counts `{}`, not this gate's regressions",
            exit.code,
            exit.counter
        );
        let text = d.text();
        assert!(text.lines().any(|l| l == gate.title), "{name} gate: no `{}` section:\n{text}", gate.title);
        assert!(text.contains("REGRESSED"), "{name} gate: no REGRESSED row:\n{text}");
        if name == "health" {
            assert!(text.contains("stage rdma"), "health gate: the mean is not attributed to rdma:\n{text}");
        }
    }
}

/// The exit-code table `gdrprof --help` prints from `EXITS` is the one
/// docs/OBSERVABILITY.md documents.
#[test]
fn every_diff_exit_code_is_documented() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/OBSERVABILITY.md"
    ))
    .expect("docs/OBSERVABILITY.md must be readable");
    for e in &EXITS {
        let line = format!("{}  {}", e.code, e.usage);
        assert!(doc.contains(&line), "docs/OBSERVABILITY.md lacks `{line}`");
    }
}
