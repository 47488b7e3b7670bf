//! Characterisation of the fault-event vocabulary: every lifecycle event
//! that is both a trace instant and a fault counter.
//!
//! The six `chaos_trace` presets (`omb::presets::PRESETS`) plus a proxy
//! get under an agent stall run on the inter-node pair at `Spans` with
//! every op sampled. Together they reach all sixteen events of
//! [`EVENTS`]. Each run prints every fault-event instant (track, name,
//! timestamp, payload) and the machine's fault counters, and the whole
//! is compared byte for byte against `tests/golden/fault_events.txt`.
//! Beside the golden, each run checks three things:
//!
//! - for every (event, protocol) pair, the number of instants equals the
//!   counter the event bumps;
//! - every `gdrprof` report field that counts an event (`faults`,
//!   `health`, `membership`, `partitions`) equals that counter;
//! - across the runs, every event of [`EVENTS`] occurs at least once.
//!
//! Regenerate with `GDR_FAULT_EVENTS_BLESS=1 cargo test --test
//! fault_events` after an *intended* change — read its diff first.

use gdr_shmem::faults::FaultPlan;
use gdr_shmem::obs::{FaultEvent, ObsLevel, Payload};
use gdr_shmem::obs_analyze::{analyze, Report};
use gdr_shmem::omb::presets::{Workload, PRESETS};
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, Domain, RuntimeConfig, ShmemMachine};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// The sixteen fault events, written out independently of the runtime:
/// the instant's name and the counter it bumps.
const EVENTS: [(&str, &str); 16] = [
    ("fault", "injected"),
    ("proxy-restart", "proxy-restart"),
    ("retry", "retried"),
    ("chunk-retry", "chunk-retried"),
    ("partial-delivery", "partial"),
    ("fallback", "fallback"),
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

/// The counter key an instant's payload attributes it to.
fn protocol_of(p: &Payload<'static>) -> &'static str {
    match *p {
        Payload::Fault { protocol, .. }
        | Payload::Retry { protocol, .. }
        | Payload::PartialDelivery { protocol, .. }
        | Payload::Health { protocol, .. } => protocol,
        Payload::Fallback { from, .. } => from,
        Payload::Member { .. } => "membership",
        other => panic!("not a fault-event payload: {other:?}"),
    }
}

/// Every report field that counts one fault event, as
/// `(counter, protocol) -> count`, zeros included.
fn report_counts(r: &Report) -> BTreeMap<(&'static str, String), u64> {
    let mut out = BTreeMap::new();
    for (proto, f) in &r.faults {
        for (what, n) in [
            ("injected", f.injected),
            ("retried", f.retried),
            ("chunk-retried", f.chunk_retried),
            ("partial", f.partials),
            ("fallback", f.fallbacks),
        ] {
            out.insert((what, proto.clone()), n);
        }
    }
    for (proto, h) in &r.health {
        for (what, n) in [("demote", h.demotes), ("probe", h.probes), ("promote", h.promotes)] {
            out.insert((what, proto.clone()), n);
        }
    }
    let (m, p) = (&r.membership, &r.partitions);
    for (what, n) in [
        ("pe-dead", m.pe_dead),
        ("evict", m.evicts),
        ("view-change", m.view_changes),
        ("rejoin", m.rejoins),
        ("partition", p.partitions),
        ("fence", p.fences),
        ("heal", p.heals),
    ] {
        out.insert((what, "membership".to_string()), n);
    }
    out
}

/// Run one plan under `workload`, print its fault-event instants and
/// counters into `out`, check them against each other and against the
/// report, and mark the events it reached in `seen`.
fn run(label: &str, grammar: &str, workload: Workload, out: &mut String, seen: &mut [bool; 16]) {
    // the env-driven observability knobs pinned: the golden must not
    // depend on the caller's GDR_SHMEM_OBS* settings (a preset that
    // needs a window or a quiesce deadline sets its own)
    let m = workload(
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_obs(ObsLevel::Spans)
            .with_obs_sample(1)
            .with_obs_window(0)
            .with_slo_demote(false)
            .with_quiesce_ns(0)
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
            *instants.entry((EVENTS[i].1, protocol_of(&e.payload))).or_insert(0) += 1;
            let _ = writeln!(out, "{head} {track} {} ts={} {:?}", e.name, e.ts.0, e.payload);
        }
    }
    let counters = m.obs().fault_counters();
    let listed: Vec<_> = counters
        .iter()
        .map(|((what, proto), n)| format!("{what}/{proto}={n}"))
        .collect();
    let _ = writeln!(out, "{head} counters=[{}]", listed.join(","));

    let tallied: BTreeMap<(&str, &str), u64> = counters
        .into_iter()
        .filter(|((what, _), _)| EVENTS.iter().any(|&(_, c)| c == *what))
        .collect();
    assert_eq!(instants, tallied, "{head}: instant counts differ from the counters");

    // proxy restarts are the one event no report field counts
    let want: BTreeMap<(&str, String), u64> = tallied
        .iter()
        .filter(|((what, _), _)| *what != "proxy-restart")
        .map(|(&(what, proto), &n)| ((what, proto.to_string()), n))
        .collect();
    let report = analyze(&gdr_shmem::obs_analyze::check_paths(m.obs()).expect("trace paths agree"));
    let got: BTreeMap<_, _> = report_counts(&report).into_iter().filter(|&(_, n)| n > 0).collect();
    assert_eq!(got, want, "{head}: report fields differ from the counters");
}

fn events() -> String {
    let mut out = String::new();
    let mut seen = [false; 16];
    for (flag, grammar, workload) in PRESETS {
        let label = if flag.is_empty() { "default" } else { flag.trim_start_matches("--") };
        run(label, grammar, workload, &mut out, &mut seen);
    }
    run("proxy-stall", STALL, proxy_get, &mut out, &mut seen);
    for (i, &(name, _)) in EVENTS.iter().enumerate() {
        assert!(seen[i], "no run reached the `{name}` instant");
    }
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
    for tally_only in ["exhausted", "recovered", "timeout", "chunk-recovered", "slo-demote"] {
        assert_eq!(FaultEvent::of_tally(tally_only), None);
    }
}

#[test]
fn fault_events_match_golden() {
    let got = events();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fault_events.txt");
    if std::env::var_os("GDR_FAULT_EVENTS_BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("read golden (bless with GDR_FAULT_EVENTS_BLESS=1)");
    if got != want {
        let (n, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("<end>", "<end>")));
        panic!("fault events differ from the golden at line {}:\n  got:  {g}\n  want: {w}", n + 1);
    }
}
