//! Characterisation of `gdrprof diff`: every ordered pair of the
//! committed `tests/golden/report_*.json` fixtures at thresholds
//! {0, 10, 50}, one cell per (baseline, candidate, threshold) recording
//! the exit code `gdrprof diff` would return, the text rendering and the
//! `gdrprof-diff-v1` JSON, compared byte for byte against
//! `tests/golden/diff_gates.txt`.
//!
//! Regenerate with `GDR_DIFF_GATES_BLESS=1 cargo test --test diff_gates`;
//! `GDR_DIFF_GATES_WRITE=<path>` writes the cells to `<path>` instead of
//! comparing (the `ci.sh` determinism gate).

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
    let got = cells();
    if let Some(path) = std::env::var_os("GDR_DIFF_GATES_WRITE") {
        std::fs::write(&path, &got).expect("write diff gates");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/diff_gates.txt");
    if std::env::var_os("GDR_DIFF_GATES_BLESS").is_some() {
        std::fs::write(path, &got).expect("bless diff gates");
    }
    let want = std::fs::read_to_string(path)
        .expect("missing golden file; regenerate with GDR_DIFF_GATES_BLESS=1");
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
        panic!(
            "gdrprof diff drifted from tests/golden/diff_gates.txt; first difference at {first}"
        );
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
