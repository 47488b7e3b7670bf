//! End-to-end: record a real 2-PE inter-node D-D workload, export the
//! Chrome trace, and run the `obs-analyze` critical-path analyzer over
//! it — the same path `gdrprof` and `bench_omb` take.

use gdr_shmem::obs::ObsLevel;
use gdr_shmem::obs_analyze;
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, Domain, RuntimeConfig, ShmemMachine};

/// Small put (direct GDR), large put (pipelined GDR write), quiet,
/// large get (proxy pipeline).
fn traced_machine() -> std::rc::Rc<ShmemMachine> {
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr).with_obs(ObsLevel::Spans);
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
    m
}

#[test]
fn analyzer_reconstructs_critical_paths_from_live_trace() {
    let m = traced_machine();
    let rep = obs_analyze::analyze_str(&m.obs().chrome_trace()).unwrap();

    assert_eq!(rep.ops_analyzed, 3, "put + put + get");
    assert!(
        rep.flow_linkage() >= 0.95,
        "flow events must link ops to their completions: {:.2} ({}/{})",
        rep.flow_linkage(),
        rep.flow_matched,
        rep.ops_analyzed
    );

    // the small put goes direct over GDR: single-leg critical path
    let direct = &rep.protocols["put/direct-gdr"];
    assert_eq!(direct.count, 1);
    assert!(direct.stages.contains_key("direct"), "{:?}", direct.stages);

    // the large put pipelines: its critical path decomposes into the
    // d2h staging and rdma legs the paper's §III-C pipeline describes
    let pipe = &rep.protocols["put/pipeline-gdr-write"];
    assert!(pipe.stages.contains_key("d2h"), "{:?}", pipe.stages);
    assert!(pipe.stages.contains_key("rdma"), "{:?}", pipe.stages);
    assert!(pipe.stages["d2h"] > 0.0 && pipe.stages["rdma"] > 0.0);
    // and the stage breakdown is consistent: no stage exceeds the path
    let total = pipe.mean_us();
    for (stage, us) in &pipe.stages {
        assert!(us <= &total, "stage {stage} ({us}us) > critical path ({total}us)");
    }

    // stage breakdown matches what the runtime said it decided
    assert_eq!(rep.decisions["put/direct-gdr"], 1);
    assert_eq!(rep.decisions["put/pipeline-gdr-write"], 1);
    assert_eq!(rep.decisions["get/proxy-pipeline"], 1);

    // link tracks carry real utilization: the d2h staging link and the
    // HCA tx link were both busy moving the 2 MiB payloads
    let d2h = rep
        .links
        .iter()
        .find(|(k, _)| k.contains("/d2h"))
        .map(|(_, v)| v)
        .expect("d2h link track missing");
    assert!(d2h.bytes >= (2 << 20) && d2h.busy_us > 0.0);
    let hca = rep
        .links
        .iter()
        .find(|(k, _)| k.starts_with("ib/"))
        .map(|(_, v)| v)
        .expect("ib link track missing");
    assert!(hca.bytes >= (2 << 20) && hca.busy_us > 0.0);
}

#[test]
fn report_json_is_deterministic_for_identical_runs() {
    let a = obs_analyze::analyze_str(&traced_machine().obs().chrome_trace())
        .unwrap()
        .to_json();
    let b = obs_analyze::analyze_str(&traced_machine().obs().chrome_trace())
        .unwrap()
        .to_json();
    assert_eq!(a, b);
}

/// The configuration of `crates/bench/benches/ablation_proxy.rs`: large
/// inter-node D-D gets with the proxy floor at zero, proxy on and off.
/// Decision records and the choice come from one plan, so replaying a
/// trace against its own table re-decides every op the way the runtime
/// did — with the proxy off the records do not even list it.
#[test]
fn whatif_replays_the_proxy_ablation_without_mismatch() {
    for proxy_enabled in [true, false] {
        let mut cfg = RuntimeConfig::tuned(Design::EnhancedGdr).with_obs(ObsLevel::Spans);
        cfg.limits.proxy_get_min = 0;
        cfg.proxy_enabled = proxy_enabled;
        let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
        m.run(|pe| {
            let source = pe.shmalloc(4 << 20, Domain::Gpu);
            let dst = pe.malloc_dev(4 << 20);
            pe.barrier_all();
            if pe.my_pe() == 0 {
                for len in [64u64 << 10, 256 << 10, 1 << 20, 4 << 20] {
                    pe.getmem(dst, source, len, 1);
                }
            }
            pe.barrier_all();
        });
        let tr = obs_analyze::Trace::parse(&m.obs().chrome_trace()).unwrap();
        let gets: Vec<_> = tr.decisions.iter().filter(|d| d.op == "get").collect();
        assert_eq!(gets.len(), 4);
        for d in &gets {
            assert_eq!(d.candidates.iter().any(|c| c == "proxy-pipeline"), proxy_enabled, "{d:?}");
            assert_eq!(d.thresholds.iter().any(|(n, _)| n == "proxy_get_min"), proxy_enabled, "{d:?}");
            assert_eq!(d.chosen, if proxy_enabled { "proxy-pipeline" } else { "direct-gdr" });
        }
        let rep = obs_analyze::whatif(&tr, &gdr_shmem::obs::ThresholdTable::new());
        assert_eq!(rep.replayed, if proxy_enabled { 4 } else { 0 }, "proxy {proxy_enabled}");
        assert_eq!(rep.model_mismatch, 0, "proxy {proxy_enabled}");
        assert_eq!(rep.changed, 0, "proxy {proxy_enabled}");
        assert!(rep.text().contains("predicted-delta-us: +0.000"), "{}", rep.text());
    }
}
