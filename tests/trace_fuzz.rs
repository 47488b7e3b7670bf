//! The two file decoders `gdrprof` reads — a Chrome trace
//! (`Trace::decode`) and a report (`Report::from_json`) — under seeded
//! mutation of the committed goldens: bit flips, truncation, deleted
//! fields and number/string swaps. Every mutant decodes or fails with a
//! typed error; none panics. The third decoder is the fault-plan
//! grammar, under token-level mutation of the plans the repo runs: a
//! mutant fails to parse, fails `FaultPlan::check` for the pair, or
//! builds the pair's machine; none panics. `cargo test` runs a short
//! sweep, `ci.sh` the long one (`--ignored`) in release.

use gdr_shmem::chaos::FIXTURES;
use gdr_shmem::faults::{mix, FaultPlan};
use gdr_shmem::obs::json;
use gdr_shmem::obs_analyze::{Report, Trace};
use gdr_shmem::omb::presets::PRESETS;
use gdr_shmem::shmem::{job_shape, ClusterSpec, Design, RuntimeConfig, ShmemMachine};

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

/// The fault plans the repo runs, in the grammar: the `chaos_trace`
/// presets, the shrinker fixtures and generated campaign plans of all
/// three modes at a few seeds.
fn plans() -> Vec<String> {
    let presets = PRESETS.iter().map(|p| p.1.to_string());
    let fixtures = FIXTURES.iter().map(|f| f.grammar.to_string());
    let generators = [
        FaultPlan::generate,
        FaultPlan::generate_with_crashes,
        FaultPlan::generate_with_partitions,
    ];
    let generated = generators
        .into_iter()
        .flat_map(|g| {
            [1, 7, 11]
                .into_iter()
                .flat_map(move |seed| (0..4).map(move |t| g(seed, t)))
        })
        .map(|p| p.to_string());
    presets.chain(fixtures).chain(generated).collect()
}

/// Mutant `n` of the plan `doc` under `seed`: one token edit, or three,
/// each a field set to an edge value, a dropped, duplicated,
/// bit-flipped or truncated token, or a field dropped or added.
fn mutate_plan(doc: &str, seed: u64, n: u64) -> String {
    let edges: Vec<&str> = "0 1 2 3 4 7 63 64 999 1000 1001 4096 4294967296 *"
        .split(' ')
        .collect();
    let r = |k: u64| mix(seed, n, k);
    let mut toks: Vec<String> = doc.split_whitespace().map(String::from).collect();
    let edits = if r(0) % 4 == 0 { 3 } else { 1 };
    for k in 0..edits {
        let salt = 8 * (k + 1);
        let i = (r(salt + 1) % toks.len().max(1) as u64) as usize;
        let Some(tok) = toks.get(i).cloned() else {
            break;
        };
        let (key, value) = tok.split_once('=').unwrap_or((&tok, ""));
        let mut fields: Vec<String> = value.split(':').map(String::from).collect();
        let j = (r(salt + 2) % fields.len() as u64) as usize;
        let mut edited = |fields: &[String]| toks[i] = format!("{key}={}", fields.join(":"));
        match r(salt) % 8 {
            0..=2 => {
                fields[j] = match r(salt + 3) % 4 {
                    0 => (r(salt + 4) % 10_000_000).to_string(),
                    _ => edges[(r(salt + 4) % edges.len() as u64) as usize].to_string(),
                };
                edited(&fields);
            }
            3 => drop(toks.remove(i)),
            4 => toks.insert(i, tok),
            5 if r(salt + 3) & 1 == 0 => {
                let mut b = tok.into_bytes();
                let at = (r(salt + 4) % b.len().max(1) as u64) as usize;
                if let Some(c) = b.get_mut(at) {
                    *c ^= 1 << (r(salt + 5) % 7);
                }
                toks[i] = String::from_utf8_lossy(&b).into_owned();
            }
            5 => toks[i].truncate((r(salt + 4) % (tok.len() as u64 + 1)) as usize),
            6 => {
                // e.g. a window's start and end trade places
                let next = (j + 1) % fields.len();
                fields.swap(j, next);
                edited(&fields);
            }
            _ => {
                if r(salt + 3) & 1 == 0 {
                    fields.remove(j);
                } else {
                    fields.insert(j, "0".into());
                }
                edited(&fields);
            }
        }
    }
    toks.join(" ")
}

/// Decode `mutants` mutants of the trace golden, of every report
/// fixture and of every plan in [`plans`]; a panic anywhere fails the
/// test.
fn sweep(mutants: u64) {
    let trace = golden("obs_trace.json");
    let reports = reports();
    let plans = plans();
    let pair = ClusterSpec::internode_pair();
    let mut decoded = 0;
    let mut outcomes = [0u64; 3]; // parse error, check error, built
    for n in 0..mutants {
        let doc = mutate(&trace, 1, n);
        if let Ok(v) = json::parse(&doc) {
            decoded += Trace::decode(&v).is_ok() as u64;
        }
        for (i, report) in reports.iter().enumerate() {
            let _ = Report::from_json_str(&mutate(report, 2 + i as u64, n));
        }
        let plan = mutate_plan(&plans[n as usize % plans.len()], 100, n);
        match plan.parse::<FaultPlan>() {
            Err(_) => outcomes[0] += 1,
            Ok(p) if p.check(&job_shape(&pair)).is_err() => outcomes[1] += 1,
            Ok(p) => {
                // a plan that passes runs, and prints back to itself
                assert_eq!(FaultPlan::parse(&p.to_string()), p, "{plan}");
                ShmemMachine::build(
                    pair,
                    RuntimeConfig::builtin(Design::EnhancedGdr).with_faults(p),
                );
                outcomes[2] += 1;
            }
        }
    }
    // a sweep in which nothing decodes would only test the parser
    assert!(
        decoded * 10 > mutants,
        "{decoded} of {mutants} trace mutants decoded"
    );
    // ... and one that never reaches a check or a build only the grammar
    assert!(
        outcomes.iter().all(|&k| k * 20 > mutants),
        "plan mutants (parse error, check error, built): {outcomes:?} of {mutants}"
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
