//! Characterisation of `gdrprof diff`: every ordered pair of the
//! committed `tests/golden/report_*.json` fixtures at thresholds
//! {0, 10, 50}, one cell per (baseline, candidate, threshold) recording
//! the exit code `gdrprof diff` would return, the text rendering and the
//! `gdrprof-diff-v1` JSON, compared byte for byte against
//! `tests/golden/diff_gates.txt`.
//!
//! Regenerate with `GDR_BLESS=1 cargo test --test diff_gates` after an
//! *intended* change — read its diff first.

mod common;

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
