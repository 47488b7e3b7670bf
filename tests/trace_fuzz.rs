//! The two file decoders `gdrprof` reads — a Chrome trace
//! (`Trace::decode`) and a report (`Report::from_json`) — under seeded
//! mutation of the committed goldens: bit flips, truncation, deleted
//! fields and number/string swaps. Every mutant decodes or fails with a
//! typed error; none panics. `cargo test` runs a short sweep, `ci.sh`
//! the long one (`--ignored`) in release.

use gdr_shmem::faults::mix;
use gdr_shmem::obs::json;
use gdr_shmem::obs_analyze::{Report, Trace};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The fourteen `report_<gate>_{base,regressed}.json` fixtures.
fn reports() -> Vec<String> {
    [
        "recovery",
        "partial",
        "health",
        "contention",
        "slo",
        "membership",
        "partition",
    ]
    .iter()
    .flat_map(|gate| {
        ["base", "regressed"].map(|side| golden(&format!("report_{gate}_{side}.json")))
    })
    .collect()
}

/// Where the scalar value after the `"key":` ending at `colon` ends.
fn value_end(doc: &str, colon: usize) -> usize {
    doc[colon..]
        .find([',', '}', ']'])
        .map_or(doc.len(), |i| colon + i)
}

/// Mutant `n` of `doc` under `seed`.
fn mutate(doc: &str, seed: u64, n: u64) -> String {
    let r = |k: u64| mix(seed, n, k);
    let pick = |k: u64, len: usize| (r(k) % len.max(1) as u64) as usize;
    // the byte after each `":`, where an object's value starts
    let values: Vec<usize> = doc.match_indices("\":").map(|(i, _)| i + 2).collect();
    let mut b = doc.as_bytes().to_vec();
    match r(0) % 4 {
        0 => {
            for k in 0..1 + r(1) % 4 {
                let i = pick(2 + k, b.len());
                b[i] ^= 1 << (r(8 + k) % 8);
            }
        }
        1 => b.truncate(pick(1, b.len())),
        // delete one field, key and value, with one of its commas
        2 if !values.is_empty() => {
            let v = values[pick(1, values.len())];
            let mut start = doc[..v - 2].rfind('"').unwrap_or(0);
            let mut end = value_end(doc, v);
            if doc.as_bytes().get(end) == Some(&b',') {
                end += 1;
            } else if start > 0 && doc.as_bytes()[start - 1] == b',' {
                start -= 1;
            }
            b.drain(start..end);
        }
        // a string value becomes a number, any other value a string
        _ if !values.is_empty() => {
            let v = values[pick(1, values.len())];
            let end = value_end(doc, v);
            let swapped = if doc[v..].starts_with('"') {
                "0".to_string()
            } else {
                format!("\"{}\"", &doc[v..end])
            };
            b.splice(v..end, swapped.bytes());
        }
        _ => {}
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Decode `mutants` mutants of the trace golden and of every report
/// fixture; a panic anywhere fails the test.
fn sweep(mutants: u64) {
    let trace = golden("obs_trace.json");
    let reports = reports();
    let mut decoded = 0;
    for n in 0..mutants {
        let doc = mutate(&trace, 1, n);
        if let Ok(v) = json::parse(&doc) {
            decoded += Trace::decode(&v).is_ok() as u64;
        }
        for (i, report) in reports.iter().enumerate() {
            let _ = Report::from_json_str(&mutate(report, 2 + i as u64, n));
        }
    }
    // a sweep in which nothing decodes would only test the parser
    assert!(
        decoded * 10 > mutants,
        "{decoded} of {mutants} trace mutants decoded"
    );
}

#[test]
fn decoders_return_typed_errors_on_mutants() {
    sweep(300);
}

#[test]
#[ignore = "long sweep: ci.sh runs it in release"]
fn decoders_return_typed_errors_on_mutants_long() {
    sweep(40_000);
}
