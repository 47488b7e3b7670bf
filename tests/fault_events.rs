//! Characterisation of the fault-event vocabulary: every lifecycle event
//! that is both a trace instant and a fault counter.
//!
//! The six `chaos_trace` presets (`omb::presets::PRESETS`) plus a proxy
//! get under an agent stall run on the inter-node pair at `Spans`, which
//! records every op. Together they reach all sixteen events of
//! [`EVENTS`]. Each run prints every fault-event instant (track, name,
//! timestamp, payload) and the machine's fault counters, and the whole
//! is compared byte for byte against `tests/golden/fault_events.txt`.
//! Beside the golden, each run checks three things:
//!
//! - for every (event, protocol) pair, the number of instants equals the
//!   counter the event bumps;
//! - every count in the `gdrprof` report's count map equals that
//!   counter, for each event a report field counts;
//! - the report's recovered sync-area posts (`sync-flag`, `sync-data`)
//!   equal the `recovered` counter, and its faulted ones `recovered`
//!   plus `exhausted`;
//! - across the runs, every event of [`EVENTS`] occurs at least once.
//!
//! The presets' reports are also diffed the way `gdrprof diff` would:
//! each against itself exits 0, the default run against the degraded one
//! trips the recovery gate and against the pipeline one the
//! partial-delivery gate. The crash run converges its view at exactly
//! the detection bound, and the partition run heals at exactly the
//! distance from fence to heal. The burst run's `gdrprof timeline`
//! aligns its fault burst with a change-point and holds the breaker's
//! demotion and the one SLO violation to the burst window, and at
//! 100 us windows puts the violation in the burst's window too.
//!
//! Each run's `gdrprof` report (text and JSON) also goes to
//! `tests/golden/fault_reports.txt`, followed by every
//! `tests/golden/report_*.json` fixture read with `Report::from_json`
//! and written back with `Report::to_json`.
//!
//! Regenerate both with `GDR_BLESS=1 cargo test --test fault_events`
//! after an *intended* change — read its diff first.

mod common;

use gdr_shmem::faults::FaultPlan;
use gdr_shmem::obs::{FaultEvent, ObsLevel};
use gdr_shmem::obs_analyze::diff::GATES;
use gdr_shmem::obs_analyze::{analyze, check_paths, diff, report_field, timeline, Report, Trace};
use gdr_shmem::omb::presets::{Workload, PRESETS};
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, Domain, RuntimeConfig, ShmemMachine, DETECT_BOUND_NS, HEAL_BOUND_NS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// The sixteen fault events, written out independently of the runtime:
/// the instant's name and the counter it bumps.
const EVENTS: [(&str, &str); 16] = [
    ("fault", "injected"),
    ("proxy-restart", "proxy-restart"),
    ("retry", "retried"),
    ("fallback", "fallback"),
    ("chunk-retry", "chunk-retried"),
    ("partial-delivery", "partial"),
    ("demote", "demote"),
    ("probe", "probe"),
    ("promote", "promote"),
    ("pe-dead", "pe-dead"),
    ("evict", "evict"),
    ("view-change", "view-change"),
    ("rejoin", "rejoin"),
    ("partition", "partition"),
    ("fence", "fence"),
    ("heal", "heal"),
];

/// Node 1's agent stalls 50 ms from virtual time 0 until 1.2 ms, so the
/// proxy get's chunks are served once the agent restarts.
const STALL: &str = "seed=1 timeout=60000000000 stall=1:0:1200000:50000000";

/// A 4 MiB device-to-device get from PE 1: the proxy pipeline serves it
/// on node 1, whose agent the [`STALL`] plan stalls.
fn proxy_get(cfg: RuntimeConfig) -> Rc<ShmemMachine> {
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    m.run(|pe| {
        let len = 4u64 << 20;
        let sym = pe.shmalloc(len, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let local = pe.malloc_dev(len);
            let _ = pe.try_getmem(local, sym, len, 1);
            pe.quiet();
        }
        pe.barrier_all();
    });
    m
}

/// What the runs print: the fault-event instants and counters, and the
/// reports.
#[derive(Default)]
struct Goldens {
    events: String,
    reports: String,
}

/// Run one plan under `workload`, print its fault-event instants and
/// counters and its report into `out`, check them against each other,
/// mark the events it reached in `seen`, and return the report and the
/// checked trace.
fn run(
    label: &str,
    grammar: &str,
    workload: Workload,
    out: &mut Goldens,
    seen: &mut [bool; 16],
) -> (Report, Trace<'static>) {
    let m = workload(
        RuntimeConfig::builtin(Design::EnhancedGdr)
            .with_obs(ObsLevel::Spans)
            .with_faults(FaultPlan::parse(grammar)),
    );
    let head = format!("{label} [{grammar}]");
    let mut instants: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for (track, events) in m.obs().ordered_tracks() {
        for e in &events {
            let Some(i) = EVENTS.iter().position(|&(name, _)| name == e.name) else {
                continue;
            };
            seen[i] = true;
            let key = e.payload.fault_key().expect("a fault-event payload");
            *instants.entry((EVENTS[i].1, key)).or_insert(0) += 1;
            let _ = writeln!(out.events, "{head} {track} {} ts={} {:?}", e.name, e.ts.0, e.payload);
        }
    }
    let counters = m.obs().fault_counters();
    let listed: Vec<_> = counters
        .iter()
        .map(|((what, proto), n)| format!("{what}/{proto}={n}"))
        .collect();
    let _ = writeln!(out.events, "{head} counters=[{}]", listed.join(","));

    let tallied: BTreeMap<(&str, &str), u64> = counters
        .iter()
        .filter(|((what, _), _)| EVENTS.iter().any(|&(_, c)| c == *what))
        .map(|(&k, &n)| (k, n))
        .collect();
    assert_eq!(instants, tallied, "{head}: instant counts differ from the counters");

    // every event a report field counts, read off the report's count map
    let want: BTreeMap<(&str, String), u64> = tallied
        .iter()
        .filter(|((what, _), _)| FaultEvent::of_tally(what).and_then(report_field).is_some())
        .map(|(&(what, proto), &n)| ((what, proto.to_string()), n))
        .collect();
    let tr = check_paths(m.obs()).expect("trace paths agree");
    let report = analyze(&tr);
    let got: BTreeMap<_, _> = report
        .counts
        .iter()
        .map(|((event, key), &n)| ((event.tally(), key.clone()), n))
        .collect();
    assert_eq!(got, want, "{head}: report fields differ from the counters");

    // a sync-area post has an op token but no op span: the report counts
    // it recovered exactly when the runtime does
    for proto in ["sync-flag", "sync-data"] {
        let counter = |what| counters.get(&(what, proto)).copied().unwrap_or(0);
        let recovered = report.recovered_ops.get(proto).copied().unwrap_or(0);
        let faulted = report.faulted_ops.get(proto).copied().unwrap_or(0);
        assert_eq!(recovered, counter("recovered"), "{head}: {proto} recovered ops");
        assert_eq!(faulted, counter("recovered") + counter("exhausted"), "{head}: {proto} faulted ops");
    }
    let _ = writeln!(out.reports, "=== {head}\n{}{}", report.text(), report.to_json());
    (report, tr)
}

/// The burst preset's `gdrprof timeline`: the fault burst aligned with
/// a change-point, the breaker's demotion and the single SLO violation
/// (the burst window's collapsed recovery rate) in the burst window and
/// nowhere else. At 100 us windows the burst moves to w1 and the
/// violation, placed by its instant, with it.
fn check_burst_timeline(tr: &Trace) {
    let expect = |width, lines: &[&str]| {
        let text = timeline(tr, width).expect("the burst preset arms the plane").text();
        for line in lines {
            assert!(text.contains(line), "timeline at {width:?} lacks {line:?}:\n{text}");
        }
    };
    expect(
        None,
        &[
            "CHANGE-POINT",
            "fault burst: windows 3..3, aligned with a p99/contention change-point",
            "lifecycle direct-gdr: demote @w3",
            "slo-violations: 1 in 1 windows (first w3, last w3)",
        ],
    );
    expect(
        Some(100),
        &["fault burst: windows 1..1", "slo-violations: 1 in 1 windows (first w1, last w1)"],
    );
}

/// The exit code of the [`GATES`] row named `name`.
fn gate_exit(name: &str) -> u8 {
    GATES.iter().find(|g| g.name == name).expect("a GATES row").exit
}

/// What `gdrprof diff` says of the presets' reports, keyed by label, and
/// the two convergence bounds their lifecycles pin.
fn check_preset_reports(reps: &BTreeMap<&str, Report>) {
    let exit = |a: &str, b: &str| diff(&reps[a], &reps[b], 10.0).exit().map(|e| e.code);
    for (label, rep) in reps {
        let code = diff(rep, rep, 5.0).exit().map(|e| e.code);
        assert_eq!(code, None, "{label}: its report against itself");
    }
    assert_eq!(exit("default", "degraded"), Some(gate_exit("recovery")), "default -> degraded");
    assert_eq!(exit("default", "pipeline"), Some(gate_exit("partial")), "default -> pipeline");

    assert_eq!(reps["crash"].view_convergence_us, DETECT_BOUND_NS as f64 / 1000.0);
    // the split fences once the detection bound passes its start and
    // heals once the heal bound passes its end
    let (_, grammar, _) = PRESETS.iter().find(|p| p.0 == "--partition").expect("the partition preset");
    let split = FaultPlan::parse(grammar).partitions[0];
    let want_us = (split.end_ns + HEAL_BOUND_NS - split.start_ns - DETECT_BOUND_NS) as f64 / 1000.0;
    assert_eq!(reps["partition"].heal_convergence_us, want_us);
}

/// Every `tests/golden/report_*.json` fixture, rehydrated and rendered
/// again, in name order.
fn fixture_reports(out: &mut String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("tests/golden must be readable")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("report_") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 14, "seven diff gates, one fixture pair each: {names:?}");
    for n in names {
        let doc = std::fs::read_to_string(format!("{dir}/{n}")).unwrap_or_else(|e| panic!("cannot read {n}: {e}"));
        let rep = Report::from_json_str(&doc).unwrap_or_else(|e| panic!("{n}: {e}"));
        let _ = writeln!(out, "=== {n}\n{}", rep.to_json());
    }
}

fn goldens() -> Goldens {
    let mut out = Goldens::default();
    let mut seen = [false; 16];
    let mut reps = BTreeMap::new();
    for (flag, grammar, workload) in PRESETS {
        let label = if flag.is_empty() { "default" } else { flag.trim_start_matches("--") };
        let (report, tr) = run(label, grammar, workload, &mut out, &mut seen);
        if label == "burst" {
            check_burst_timeline(&tr);
        }
        reps.insert(label, report);
    }
    check_preset_reports(&reps);
    run("proxy-stall", STALL, proxy_get, &mut out, &mut seen);
    for (i, &(name, _)) in EVENTS.iter().enumerate() {
        assert!(seen[i], "no run reached the `{name}` instant");
    }
    fixture_reports(&mut out.reports);
    out
}

/// The runtime's one table ([`FaultEvent`]) says what [`EVENTS`] says,
/// row for row, and looks each name and counter back up.
#[test]
fn runtime_table_matches_the_events() {
    let table: Vec<_> = FaultEvent::ALL.iter().map(|e| (e.name(), e.tally())).collect();
    assert_eq!(table, EVENTS);
    for e in FaultEvent::ALL {
        assert_eq!(FaultEvent::of(e.name()), Some(e));
        assert_eq!(FaultEvent::of_tally(e.tally()), Some(e));
    }
    for tally_only in ["exhausted", "recovered", "timeout", "chunk-recovered"] {
        assert_eq!(FaultEvent::of_tally(tally_only), None);
    }
}

/// `docs/OBSERVABILITY.md`'s fault-event table (instant | payload |
/// counter | report field) says what [`FaultEvent`] and
/// [`report_field`] say, row for row.
#[test]
fn observability_doc_lists_each_event_with_its_report_field() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(path).expect("read docs/OBSERVABILITY.md");
    let header = "| instant | payload | counter | `gdrprof` report field |";
    let rows: Vec<Vec<&str>> = doc
        .lines()
        .skip_while(|l| *l != header)
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split(" | ").map(str::trim).collect())
        .collect();
    assert_eq!(rows.len(), FaultEvent::ALL.len(), "one table row per fault event");
    /// A cell's first `code` span.
    fn code(cell: &str) -> &str {
        cell.split('`').nth(1).unwrap_or("")
    }
    for (row, event) in rows.iter().zip(FaultEvent::ALL) {
        assert_eq!(code(row[0]), event.name(), "{row:?}");
        assert_eq!(code(row[2]), event.tally(), "{row:?}");
        // `section.<key>.field` for a per-protocol section,
        // `section.field` otherwise, `—` for no field
        let field = match code(row[3]) {
            "" => {
                assert_eq!(row[3], "—", "{row:?}");
                None
            }
            path => {
                let (section, field) = path.split_once('.').expect("a section.field path");
                match field.split_once(">.") {
                    Some((key, field)) if key.starts_with('<') => Some((section, true, field)),
                    _ => Some((section, false, field)),
                }
            }
        };
        let want = report_field(event).map(|f| (f.section.name(), f.section.per_protocol(), f.field));
        assert_eq!(field, want, "{row:?}");
    }
}

#[test]
fn fault_events_match_golden() {
    let got = goldens();
    common::check("fault_events.txt", &got.events);
    common::check("fault_reports.txt", &got.reports);
}
