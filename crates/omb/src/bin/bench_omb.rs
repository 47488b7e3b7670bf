//! `bench_omb` — the CI bench driver: runs the OMB-GPU latency matrix,
//! records one span-traced inter-node D-D workload, profiles it with
//! the `obs-analyze` critical-path analyzer, and writes everything as
//! one machine-readable `BENCH_omb.json` document.
//!
//! ```text
//! bench_omb [OUT_JSON] [TRACE_OUT] [SWEEP_TRACE]
//! ```
//!
//! `OUT_JSON` defaults to `BENCH_omb.json`; when `TRACE_OUT` is given,
//! the traced workload's Chrome trace is also written there (CI feeds
//! it to `gdrprof analyze`). When `SWEEP_TRACE` is given, a second
//! traced workload runs: a message-size sweep against one intra-socket
//! and one inter-socket peer GPU, crossing every protocol threshold —
//! the input `gdrprof crossover` and `gdrprof whatif` profile. The
//! simulation runs in virtual time and every serializer iterates
//! sorted maps, so two runs of this binary produce byte-identical
//! output — CI `cmp`s them.

use obs::json::ObjWriter;
use obs::ObsLevel;
use omb::{get_latency, put_latency, Config, LatencyPoint};
use pcie_sim::{ClusterSpec, PlacementPolicy};
use shmem_gdr::{Design, Domain, RuntimeConfig, ShmemMachine};
use std::process::ExitCode;

fn rc() -> RuntimeConfig {
    RuntimeConfig::tuned(Design::EnhancedGdr)
}

/// The span-traced workload: two inter-node PEs, GPU symmetric heap;
/// a small put (direct GDR), a large put (pipelined GDR write), a
/// quiet, and a large get (proxy pipeline), bracketed by barriers —
/// the same shape the paper's Fig. 7/8 latency discussion walks
/// through.
fn traced_workload() -> std::rc::Rc<ShmemMachine> {
    // 50us windows arm the metrics plane: the trace (and the report's
    // timeline section) carries deterministic window snapshots
    let cfg = rc().with_obs(ObsLevel::Spans).with_obs_window(50);
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

/// The crossover-sweep workload: two nodes, two PEs and two GPUs per
/// node, one HCA on socket 0 — so PE 2's GPU is intra-socket to its
/// HCA and PE 3's is inter-socket (paper Table III's two relations).
/// PE 0 sweeps D-D puts and gets against both peers across every
/// protocol tier: direct GDR, pipelined GDR write, proxy pipeline.
/// Three repetitions per size give the crossover profiler stable
/// means.
fn sweep_workload() -> std::rc::Rc<ShmemMachine> {
    let spec = ClusterSpec {
        nodes: 2,
        procs_per_node: 2,
        gpus_per_node: 2,
        hcas_per_node: 1,
        sockets_per_node: 2,
        placement: PlacementPolicy::Affinity,
    };
    let cfg = rc().with_obs(ObsLevel::Spans);
    let m = ShmemMachine::build(spec, cfg);
    m.run(|pe| {
        let dest = pe.shmalloc(2 << 20, Domain::Gpu);
        let src = pe.malloc_dev(2 << 20);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            for target in [2usize, 3] {
                for b in [4096u64, 16384, 32768, 65536, 262144, 1 << 20] {
                    for _ in 0..3 {
                        pe.putmem(dest, src, b, target);
                        pe.quiet();
                        pe.getmem(src, dest, b, target);
                    }
                }
            }
        }
        pe.barrier_all();
    });
    m
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let out_json = args.next().unwrap_or_else(|| "BENCH_omb.json".into());
    let trace_out = args.next();
    let sweep_out = args.next();

    // OMB latency matrix: inter-node D-D put/get across the size range
    // that exercises every protocol tier (direct GDR, pipelined write,
    // proxy pipeline).
    let sizes: [u64; 5] = [8, 64, 4096, 65536, 1 << 20];
    let mut results: Vec<(String, LatencyPoint)> = Vec::new();
    for &b in &sizes {
        let p = put_latency(Design::EnhancedGdr, rc(), false, Config::DD, b);
        results.push((format!("put/D-D/inter/{b}"), p));
    }
    for &b in &sizes {
        let p = get_latency(Design::EnhancedGdr, rc(), false, Config::DD, b);
        results.push((format!("get/D-D/inter/{b}"), p));
    }

    // traced workload -> critical-path analysis
    let m = traced_workload();
    let trace = m.obs().chrome_trace();
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, &trace) {
            eprintln!("bench_omb: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let report = match obs_analyze::analyze_str(&trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_omb: trace analysis failed: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("{}", report.text());

    // optional crossover sweep (CI feeds it to `gdrprof crossover` /
    // `gdrprof whatif`)
    if let Some(path) = &sweep_out {
        let sm = sweep_workload();
        if let Err(e) = std::fs::write(path, sm.obs().chrome_trace()) {
            eprintln!("bench_omb: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let mut doc = String::with_capacity(4096);
    {
        let mut o = ObjWriter::new(&mut doc);
        o.str_field("schema", "BENCH-omb-v1");
        o.str_field("design", "enhanced-gdr");
        {
            let buf = o.raw_field("results");
            buf.push('[');
            for (i, (name, p)) in results.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut e = ObjWriter::new(buf);
                e.str_field("name", name)
                    .u64_field("bytes", p.bytes)
                    .num_field("usec", p.usec);
                e.finish();
            }
            buf.push(']');
        }
        // the full gdrprof report of the traced workload, inline
        o.raw_field("analysis").push_str(&report.to_json());
        o.finish();
    }
    doc.push('\n');
    if let Err(e) = std::fs::write(&out_json, &doc) {
        eprintln!("bench_omb: cannot write {out_json}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "bench_omb: {} results, {} ops analyzed, flow linkage {:.1}% -> {out_json}",
        results.len(),
        report.ops_analyzed,
        report.flow_linkage() * 100.0
    );
    ExitCode::SUCCESS
}
