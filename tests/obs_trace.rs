//! Observability integration tests: determinism of span recording on a
//! real 2-PE inter-node D-D run, level gating, and a golden-file check
//! of the Chrome-trace wire format.

mod common;

use gdr_shmem::obs::{self, Decision, ObsLevel, Payload, Recorder, TrackKind};
use gdr_shmem::obs_analyze;
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, Domain, RuntimeConfig, ShmemMachine};
use gdr_shmem::sim::{SimDuration, SimTime};

/// Two inter-node PEs, GPU-resident symmetric heap: one small put
/// (direct GDR), one large put (pipelined GDR write), one large get
/// (proxy pipeline), plus the surrounding barriers.
fn traced_machine(level: ObsLevel) -> std::rc::Rc<ShmemMachine> {
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr).with_obs(level);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    m.run(|pe| {
        let dest = pe.shmalloc(4 << 20, Domain::Gpu);
        let src = pe.malloc_dev(4 << 20);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            pe.putmem(dest, src, 64, 1);
            pe.putmem(dest, src, 2 << 20, 1);
            pe.quiet();
            pe.getmem(src, dest, 2 << 20, 1);
        }
        pe.barrier_all();
    });
    obs_analyze::check_paths(m.obs()).expect("trace paths agree");
    m
}

#[test]
fn span_trace_is_deterministic_across_runs() {
    let a = traced_machine(ObsLevel::Spans);
    let b = traced_machine(ObsLevel::Spans);
    let ta = a.obs().chrome_trace();
    let tb = b.obs().chrome_trace();
    assert_eq!(ta, tb, "two identical runs must serialize identical traces");

    assert!(a.obs().decision_count() >= 1, "no protocol-decision records");
    let doc = obs::json::parse(&ta).expect("trace must be valid JSON");
    let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(evs.len() > 10, "suspiciously small trace: {} events", evs.len());
    for e in evs {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        if ph != "M" {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= 0.0 && ts.is_finite());
        }
    }
}

#[test]
fn windowed_trace_is_deterministic_and_gated() {
    // the same workload with the 50us metrics plane armed: replays must
    // stay byte-identical, and the metrics track must carry snapshots
    let windowed = || {
        let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_obs(ObsLevel::Spans)
            .with_obs_window(50);
        let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
        m.run(|pe| {
            let dest = pe.shmalloc(4 << 20, Domain::Gpu);
            let src = pe.malloc_dev(4 << 20);
            pe.barrier_all();
            if pe.my_pe() == 0 {
                pe.putmem(dest, src, 64, 1);
                pe.putmem(dest, src, 2 << 20, 1);
                pe.quiet();
                pe.getmem(src, dest, 2 << 20, 1);
            }
            pe.barrier_all();
        });
        obs_analyze::check_paths(m.obs()).expect("trace paths agree");
        m
    };
    let a = windowed();
    let b = windowed();
    let ta = a.obs().chrome_trace();
    assert_eq!(
        ta,
        b.obs().chrome_trace(),
        "windowed replays must serialize identical traces"
    );
    assert!(ta.contains("\"window-snapshot\""), "missing snapshot instants");
    assert!(ta.contains("\"metrics\""), "missing metrics track metadata");
    // windowless runs must not grow a metrics track: the golden wire
    // format stays untouched by the plane
    let plain = traced_machine(ObsLevel::Spans).obs().chrome_trace();
    assert!(!plain.contains("\"window-snapshot\""));
    assert!(!plain.contains("\"metrics\""));
    // window boundaries land on exact multiples of the width: every
    // snapshot's end_us - start_us equals the configured 50us
    let doc = obs::json::parse(&ta).expect("windowed trace must be valid JSON");
    let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let mut snaps = 0;
    for e in evs {
        if e.get("name").and_then(|n| n.as_str()) == Some("window-snapshot") {
            snaps += 1;
            let args = e.get("args").unwrap();
            let s = args.get("start_us").unwrap().as_f64().unwrap();
            let en = args.get("end_us").unwrap().as_f64().unwrap();
            assert_eq!(en - s, 50.0, "window width drifted");
            assert_eq!(s % 50.0, 0.0, "window start not aligned to the width");
        }
    }
    assert!(snaps >= 1, "expected at least one window snapshot");
}

#[test]
fn pipeline_chunk_spans_are_monotone() {
    let m = traced_machine(ObsLevel::Spans);
    // (stage -> [(chunk index, start ps)]) for the pipelined-write path
    let mut stages: std::collections::BTreeMap<&'static str, Vec<(u32, u64)>> =
        std::collections::BTreeMap::new();
    for e in m.obs().ordered_tracks().iter().flat_map(|(_, events)| events) {
        if let Payload::Chunk { protocol, stage, index, .. } = e.payload {
            if protocol == "pipeline-gdr-write" {
                stages.entry(stage).or_default().push((index, e.ts.as_ps()));
            }
        }
    }
    assert!(stages.contains_key("d2h"), "missing d2h chunk spans: {stages:?}");
    assert!(stages.contains_key("rdma"), "missing rdma chunk spans: {stages:?}");
    for (stage, mut v) in stages {
        assert!(v.len() >= 2, "{stage}: expected multiple chunks, got {v:?}");
        v.sort_unstable();
        for w in v.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "{stage}: chunk {} (ts {}) starts before chunk {} (ts {})",
                w[1].0, w[1].1, w[0].0, w[0].1
            );
        }
    }
}

#[test]
fn off_level_records_nothing() {
    let m = traced_machine(ObsLevel::Off);
    assert_eq!(m.obs().event_count(), 0);
    assert_eq!(m.obs().decision_count(), 0);
    assert!(m.obs().quantile_sketches().is_empty());
    assert!(m.obs().agent_counters().is_empty());
}

#[test]
fn counters_level_fills_histograms_without_spans() {
    let m = traced_machine(ObsLevel::Counters);
    assert_eq!(m.obs().event_count(), 0, "counters level must not buffer events");
    assert!(!m.obs().quantile_sketches().is_empty());
    assert!(!m.obs().agent_counters().is_empty());
}

/// The exporter's exact wire format, pinned against a committed file.
/// Regenerate after an intentional format change with
/// `GDR_BLESS=1 cargo test --test obs_trace`.
#[test]
fn chrome_trace_matches_golden_file() {
    let r = Recorder::new(ObsLevel::Spans);
    let pe0 = r.track(TrackKind::Pe, 0);
    let t = |us: u64| SimTime(us * 1_000_000);

    let mut d = Decision {
        op: "put",
        size: 64,
        src_pe: 0,
        dst_pe: 1,
        src_dev: true,
        dst_dev: true,
        same_node: false,
        chosen: "direct-gdr",
        ..Default::default()
    };
    d.candidates.push("direct-gdr");
    d.candidates.push("pipeline-gdr-write");
    d.thresholds.push("gdr_put_limit", 32768);
    r.decision(pe0, t(1), d);
    r.span(
        pe0,
        "put",
        t(1),
        t(5),
        Payload::Op {
            op: "put",
            protocol: "direct-gdr",
            size: 64,
            src_pe: 0,
            dst_pe: 1,
            src_dev: true,
            dst_dev: true,
            same_node: false,
            op_id: 7,
        },
    );
    r.span(
        pe0,
        "chunk-d2h",
        t(6),
        t(7),
        Payload::Chunk {
            protocol: "pipeline-gdr-write",
            stage: "d2h",
            index: 0,
            size: 1024,
            op_id: 7,
        },
    );
    r.instant(
        r.track(TrackKind::Proxy, 0),
        "proxy-request",
        t(8),
        Payload::Proxy { kind: "put", size: 4096, origin_pe: 0 },
    );
    r.agent_bytes(TrackKind::Hca, 0, t(9), 4096, SimDuration::from_us(2));

    let got = r.chrome_trace();
    common::check("obs_trace.json", &got);
    // the golden decodes to exactly what was recorded and re-exports
    // byte for byte
    obs_analyze::check_paths(&r).expect("trace paths agree");

    // and the golden trace round-trips through the parser
    let doc = obs::json::parse(&got).unwrap();
    let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let decision = evs
        .iter()
        .find(|e| e.get("name").map(|n| n.as_str()) == Some(Some("protocol-decision")))
        .expect("decision record in golden trace");
    assert_eq!(
        decision.get("args").unwrap().get("chosen").unwrap().as_str().unwrap(),
        "direct-gdr"
    );
}
