//! A document nested 50 000 levels deep (100 KB): the JSON parser used
//! to recurse once per level and overflow the stack, aborting the
//! process. `gdrprof analyze` must exit 2 with the parser's depth error
//! instead, and a `thresholds-v1` table that deep must fail to load.

use std::process::Command;

fn deep(levels: usize) -> String {
    format!(
        "{{\"traceEvents\":{}{}}}",
        "[".repeat(levels),
        "]".repeat(levels)
    )
}

#[test]
fn gdrprof_rejects_deep_nesting_with_the_depth_error() {
    let path = format!("{}/deep_nesting.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, deep(50_000)).expect("write the deep document");
    let out = Command::new(env!("CARGO_BIN_EXE_gdrprof"))
        .args(["analyze", &path])
        .output()
        .expect("gdrprof must run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    // the root object and 127 arrays open; the 128th array, at byte
    // 15 + 127, is one level too many
    assert_eq!(
        stderr,
        format!("gdrprof: {path}: nesting deeper than 128 levels at byte 142\n")
    );
}

#[test]
fn threshold_table_rejects_deep_nesting() {
    let err = obs::ThresholdTable::from_json_str(&deep(50_000)).expect_err("too deep to load");
    assert!(err.contains("nesting deeper than 128 levels"), "{err}");
}
