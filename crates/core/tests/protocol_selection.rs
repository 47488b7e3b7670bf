//! Protocol-selection assertions: the hybrid design tables of §III must
//! route each operation to the protocol the paper describes.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, PlacementPolicy, Protocol, RuntimeConfig, ShmemMachine};

/// Run a single put (src domain -> dst domain) and return pe0's protocol
/// counter snapshot.
fn run_put(
    spec: ClusterSpec,
    cfg: RuntimeConfig,
    src_gpu: bool,
    dst_domain: Domain,
    len: u64,
) -> shmem_gdr::PeStats {
    let m = ShmemMachine::build(spec, cfg);
    let out = m.run(move |pe| {
        let dest = pe.shmalloc(len + 64, dst_domain);
        if pe.my_pe() == 0 {
            let src = if src_gpu {
                pe.malloc_dev(len + 64)
            } else {
                pe.malloc_host(len + 64)
            };
            pe.putmem(dest, src, len, 1);
            pe.quiet();
        }
        pe.barrier_all();
        pe.stats()
    });
    out[0].clone()
}

fn run_get(
    spec: ClusterSpec,
    cfg: RuntimeConfig,
    src_domain: Domain,
    dst_gpu: bool,
    len: u64,
) -> shmem_gdr::PeStats {
    let m = ShmemMachine::build(spec, cfg);
    let out = m.run(move |pe| {
        let source = pe.shmalloc(len + 64, src_domain);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dst = if dst_gpu {
                pe.malloc_dev(len + 64)
            } else {
                pe.malloc_host(len + 64)
            };
            pe.getmem(dst, source, len, 1);
        }
        pe.barrier_all();
        pe.stats()
    });
    out[0].clone()
}

fn enhanced() -> RuntimeConfig {
    RuntimeConfig::tuned(Design::EnhancedGdr)
}

#[test]
fn intranode_small_puts_use_loopback_gdr() {
    let cfg = enhanced();
    // H-D and D-H loopback up to 4K; D-D uses the least threshold (2K)
    for (src_gpu, dst, len) in [
        (false, Domain::Gpu, 4096),
        (true, Domain::Gpu, 1024),
        (true, Domain::Host, 4096),
    ] {
        let st = run_put(ClusterSpec::intranode_pair(), cfg, src_gpu, dst, len);
        assert_eq!(st.of(Protocol::LoopbackGdr), 1, "src_gpu={src_gpu} dst={dst}");
    }
    // D-D above the least threshold falls back to IPC
    let st = run_put(ClusterSpec::intranode_pair(), cfg, true, Domain::Gpu, 4096);
    assert_eq!(st.of(Protocol::IpcCopy), 1);
}

#[test]
fn intranode_large_puts_switch_to_ipc() {
    let cfg = enhanced();
    // beyond loopback_put_limit (4K): CUDA copy paths
    let st = run_put(ClusterSpec::intranode_pair(), cfg, true, Domain::Gpu, 64 << 10);
    assert_eq!(st.of(Protocol::IpcCopy), 1);
    assert_eq!(st.of(Protocol::LoopbackGdr), 0);
}

#[test]
fn intranode_threshold_boundary_is_inclusive() {
    let cfg = enhanced();
    // H-D boundary: loopback_put_limit
    let at = run_put(
        ClusterSpec::intranode_pair(),
        cfg,
        false,
        Domain::Gpu,
        cfg.limits.loopback_put_limit,
    );
    assert_eq!(at.of(Protocol::LoopbackGdr), 1);
    let above = run_put(
        ClusterSpec::intranode_pair(),
        cfg,
        false,
        Domain::Gpu,
        cfg.limits.loopback_put_limit + 1,
    );
    assert_eq!(above.of(Protocol::IpcCopy), 1);
    // D-D boundary: the least threshold
    let at = run_put(
        ClusterSpec::intranode_pair(),
        cfg,
        true,
        Domain::Gpu,
        cfg.limits.loopback_dd_limit,
    );
    assert_eq!(at.of(Protocol::LoopbackGdr), 1);
    let above = run_put(
        ClusterSpec::intranode_pair(),
        cfg,
        true,
        Domain::Gpu,
        cfg.limits.loopback_dd_limit + 1,
    );
    assert_eq!(above.of(Protocol::IpcCopy), 1);
}

#[test]
fn internode_small_puts_use_direct_gdr() {
    let cfg = enhanced();
    for (src_gpu, dst) in [(false, Domain::Gpu), (true, Domain::Gpu), (true, Domain::Host)] {
        let st = run_put(ClusterSpec::internode_pair(), cfg, src_gpu, dst, 2048);
        assert_eq!(st.of(Protocol::DirectGdr), 1, "src_gpu={src_gpu} dst={dst}");
    }
}

#[test]
fn internode_large_gpu_source_puts_use_pipeline_gdr_write() {
    let cfg = enhanced();
    for dst in [Domain::Gpu, Domain::Host] {
        let st = run_put(ClusterSpec::internode_pair(), cfg, true, dst, 2 << 20);
        assert_eq!(st.of(Protocol::PipelineGdrWrite), 1, "dst={dst}");
    }
}

#[test]
fn internode_large_host_to_gpu_put_stays_direct_when_intra_socket() {
    // H-D put: gather at wire speed, scatter at full intra-socket P2P
    // write speed -> direct GDR for every size.
    let cfg = enhanced();
    let st = run_put(ClusterSpec::internode_pair(), cfg, false, Domain::Gpu, 2 << 20);
    assert_eq!(st.of(Protocol::DirectGdr), 1);
}

#[test]
fn cross_socket_large_puts_divert_to_proxy() {
    let cfg = enhanced();
    let spec = ClusterSpec::internode_pair().with_placement(PlacementPolicy::CrossSocket);
    let st = run_put(spec, cfg, true, Domain::Gpu, 2 << 20);
    assert_eq!(st.of(Protocol::ProxyPipeline), 1);
}

#[test]
fn internode_h_h_uses_plain_host_rdma() {
    let cfg = enhanced();
    let st = run_put(ClusterSpec::internode_pair(), cfg, false, Domain::Host, 2 << 20);
    assert_eq!(st.of(Protocol::HostRdma), 1);
}

#[test]
fn internode_small_gets_use_direct_gdr() {
    let cfg = enhanced();
    let st = run_get(ClusterSpec::internode_pair(), cfg, Domain::Gpu, true, 4096);
    assert_eq!(st.of(Protocol::DirectGdr), 1);
}

#[test]
fn internode_large_gets_from_gpu_use_proxy() {
    let cfg = enhanced();
    let st = run_get(ClusterSpec::internode_pair(), cfg, Domain::Gpu, true, 2 << 20);
    assert_eq!(st.of(Protocol::ProxyPipeline), 1);
}

#[test]
fn proxy_disable_falls_back_to_chunked_direct_reads() {
    let mut cfg = enhanced();
    cfg.proxy_enabled = false;
    let st = run_get(ClusterSpec::internode_pair(), cfg, Domain::Gpu, true, 2 << 20);
    assert_eq!(st.of(Protocol::ProxyPipeline), 0);
    assert_eq!(st.of(Protocol::DirectGdr), 1);
}

#[test]
fn internode_gets_from_host_are_direct_any_size() {
    let cfg = enhanced();
    let st = run_get(ClusterSpec::internode_pair(), cfg, Domain::Host, true, 4 << 20);
    assert_eq!(st.of(Protocol::DirectGdr), 1);
}

#[test]
fn proxy_counters_account_served_traffic() {
    let cfg = enhanced();
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    let m2 = m.clone();
    m.run(move |pe| {
        let source = pe.shmalloc(2 << 20, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dst = pe.malloc_dev(2 << 20);
            pe.getmem(dst, source, 2 << 20, 1);
        }
        pe.barrier_all();
    });
    let node1 = pcie_sim::NodeId(1);
    assert_eq!(m2.proxy(node1).gets_served.get(), 1);
    assert_eq!(m2.proxy(node1).bytes.get(), 2 << 20);
}

#[test]
fn baseline_intranode_uses_ipc_and_two_copy_paths() {
    let cfg = RuntimeConfig::tuned(Design::HostPipeline);
    // H-D put: single IPC copy
    let st = run_put(ClusterSpec::intranode_pair(), cfg, false, Domain::Gpu, 4096);
    assert_eq!(st.of(Protocol::IpcCopy), 1);
    // D-H put: the unoptimized two-copy staged path
    let st = run_put(ClusterSpec::intranode_pair(), cfg, true, Domain::Host, 4096);
    assert_eq!(st.of(Protocol::TwoCopyStaged), 1);
    // H-D get (remote device -> local host): two-copy
    let st = run_get(ClusterSpec::intranode_pair(), cfg, Domain::Gpu, false, 4096);
    assert_eq!(st.of(Protocol::TwoCopyStaged), 1);
}

#[test]
fn baseline_internode_dd_uses_host_pipeline() {
    let cfg = RuntimeConfig::tuned(Design::HostPipeline);
    let st = run_put(ClusterSpec::internode_pair(), cfg, true, Domain::Gpu, 4096);
    assert_eq!(st.of(Protocol::HostPipelineStaged), 1);
}

#[test]
fn registration_cache_makes_second_private_put_cheaper() {
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    let out = m.run(|pe| {
        let dest = pe.shmalloc(8192, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_host(8192); // never used before: cold
            let t0 = pe.now();
            pe.putmem(dest, src, 4096, 1);
            pe.quiet();
            let cold = pe.now() - t0;
            let t1 = pe.now();
            pe.putmem(dest, src, 4096, 1);
            pe.quiet();
            let warm = pe.now() - t1;
            pe.barrier_all();
            (cold.as_us_f64(), warm.as_us_f64())
        } else {
            pe.barrier_all();
            (0.0, 0.0)
        }
    });
    let (cold, warm) = out[0];
    assert!(
        cold > warm + 20.0,
        "registration cache: cold {cold:.2}us should exceed warm {warm:.2}us by the reg cost"
    );
}

#[test]
fn nbi_and_signal_routing_matches_blocking_dispatch() {
    // the regression this guards: do_put_nbi / do_put_signal previously
    // carried private copies of the routing table and drifted (D-D
    // intranode used the wrong threshold). Protocol counters of the nbi
    // and fused forms must match the blocking put's choice everywhere.
    let cfg = enhanced();
    // D-D intranode just above the least threshold: blocking picks IPC
    let st = run_put(
        ClusterSpec::intranode_pair(),
        cfg,
        true,
        Domain::Gpu,
        cfg.limits.loopback_dd_limit + 64,
    );
    assert_eq!(st.of(Protocol::IpcCopy), 1);
    // nbi form of the same transfer must not take the loopback fast path
    let m = ShmemMachine::build(ClusterSpec::intranode_pair(), cfg);
    let out = m.run(move |pe| {
        let dest = pe.shmalloc(64 << 10, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(64 << 10);
            pe.putmem_nbi(dest, src, cfg.limits.loopback_dd_limit + 64, 1);
            pe.quiet();
        }
        pe.barrier_all();
        pe.stats()
    });
    assert_eq!(out[0].of(Protocol::LoopbackGdr), 0, "nbi drifted from put");
    assert_eq!(out[0].of(Protocol::IpcCopy), 1);

    // same-node get above loopback_get_limit must not use loopback read
    let m = ShmemMachine::build(ClusterSpec::intranode_pair(), cfg);
    let out = m.run(move |pe| {
        let source = pe.shmalloc(64 << 10, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dst = pe.malloc_host(64 << 10);
            pe.getmem_nbi(dst, source, cfg.limits.loopback_get_limit + 64, 1);
            pe.quiet();
        }
        pe.barrier_all();
        pe.stats()
    });
    assert_eq!(out[0].of(Protocol::LoopbackGdr), 0, "get_nbi drifted from get");

    // the fused and posted fast paths count the table's label, not a
    // hard-coded direct-gdr: an intra-node 1 KiB H->D put_signal is a
    // loopback write ...
    let m = ShmemMachine::build(ClusterSpec::intranode_pair(), cfg);
    let out = m.run(|pe| {
        let dest = pe.shmalloc(1024, Domain::Gpu);
        let sig = pe.shmalloc(8, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_host(1024);
            pe.put_signal(dest, src, 1024, sig, 1, 1);
            pe.quiet();
        }
        pe.barrier_all();
        pe.stats()
    });
    assert_eq!(out[0].of(Protocol::LoopbackGdr), 1, "put_signal mislabelled");
    assert_eq!(out[0].of(Protocol::DirectGdr), 0, "put_signal mislabelled");
    // ... and an inter-node H->H getmem_nbi is the same plain host RDMA
    // read its blocking form counts
    let st = run_get(ClusterSpec::internode_pair(), cfg, Domain::Host, false, 1024);
    assert_eq!(st.of(Protocol::HostRdma), 1);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    let out = m.run(|pe| {
        let source = pe.shmalloc(1024, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dst = pe.malloc_host(1024);
            pe.getmem_nbi(dst, source, 1024, 1);
            pe.quiet();
        }
        pe.barrier_all();
        pe.stats()
    });
    assert_eq!(out[0].of(Protocol::HostRdma), 1, "getmem_nbi mislabelled");
    assert_eq!(out[0].of(Protocol::DirectGdr), 0, "getmem_nbi mislabelled");
}
