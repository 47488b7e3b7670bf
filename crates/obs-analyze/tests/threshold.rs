//! `gdrprof diff --threshold` through the binary: a threshold that is
//! not a finite, non-negative percentage is a usage error. `nan` and
//! `inf` parse as `f64` and would switch every threshold gate off (and
//! write non-JSON), a negative one would flag identical rows.

use std::process::Command;

fn fixture(name: &str) -> String {
    format!(
        "{}/../../tests/golden/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// `gdrprof diff` of the recovery fixture pair: exit code and stderr.
fn diff_recovery(threshold: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gdrprof"))
        .args([
            "diff",
            &fixture("report_recovery_base"),
            &fixture("report_recovery_regressed"),
        ])
        .args(["--threshold", threshold])
        .output()
        .expect("gdrprof must run");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn non_finite_or_negative_thresholds_are_usage_errors() {
    for bad in ["nan", "inf", "-1"] {
        let (code, stderr) = diff_recovery(bad);
        assert_eq!(code, Some(1), "--threshold {bad}: {stderr}");
        assert_eq!(
            stderr, "gdrprof: --threshold needs a percentage\n",
            "--threshold {bad}"
        );
    }
}

#[test]
fn zero_threshold_is_accepted() {
    // the recovery rate fell: at 0 percentage points that is the
    // latency/recovery regression, exit 4
    let (code, stderr) = diff_recovery("0");
    assert_eq!(code, Some(4), "{stderr}");
    assert_eq!(stderr, "gdrprof: regression over threshold\n");
}
