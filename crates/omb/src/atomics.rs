//! Atomic-operation and synchronization latency benchmarks
//! (`osu_oshm_atomics` / barrier companions).

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, RuntimeConfig, ShmemMachine};

/// Average fetch-add latency on a remote symmetric counter (us).
pub fn fetch_add_latency(design: Design, intra: bool, gpu_domain: bool) -> f64 {
    let spec = if intra {
        ClusterSpec::intranode_pair()
    } else {
        ClusterSpec::internode_pair()
    };
    let m = ShmemMachine::build(spec, RuntimeConfig::tuned(design));
    let domain = if gpu_domain {
        Domain::Gpu
    } else {
        Domain::Host
    };
    let out = m.run(move |pe| {
        let ctr = pe.shmalloc(8, domain);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            for _ in 0..5 {
                pe.atomic_fetch_add(ctr, 1, 1);
            }
            let iters = 50;
            let t0 = pe.now();
            for _ in 0..iters {
                pe.atomic_fetch_add(ctr, 1, 1);
            }
            let dt = (pe.now() - t0).as_us_f64() / iters as f64;
            pe.barrier_all();
            dt
        } else {
            pe.barrier_all();
            0.0
        }
    });
    crate::obs_finish(
        &m,
        &format!("fetch_add_{}", if gpu_domain { "gpu" } else { "host" }),
    );
    out[0]
}

/// Average compare-swap latency (us).
pub fn cswap_latency(design: Design, intra: bool, gpu_domain: bool) -> f64 {
    let spec = if intra {
        ClusterSpec::intranode_pair()
    } else {
        ClusterSpec::internode_pair()
    };
    let m = ShmemMachine::build(spec, RuntimeConfig::tuned(design));
    let domain = if gpu_domain {
        Domain::Gpu
    } else {
        Domain::Host
    };
    let out = m.run(move |pe| {
        let cell = pe.shmalloc(8, domain);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let iters = 50;
            let t0 = pe.now();
            for i in 0..iters {
                pe.atomic_compare_swap(cell, i, i + 1, 1);
            }
            let dt = (pe.now() - t0).as_us_f64() / iters as f64;
            pe.barrier_all();
            dt
        } else {
            pe.barrier_all();
            0.0
        }
    });
    crate::obs_finish(
        &m,
        &format!("cswap_{}", if gpu_domain { "gpu" } else { "host" }),
    );
    out[0]
}

/// Average `shmem_barrier_all` latency at a given job size (us).
pub fn barrier_latency(nodes: usize, ppn: usize) -> f64 {
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(nodes, ppn),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    let out = m.run(|pe| {
        for _ in 0..3 {
            pe.barrier_all();
        }
        let iters = 20;
        let t0 = pe.now();
        for _ in 0..iters {
            pe.barrier_all();
        }
        (pe.now() - t0).as_us_f64() / iters as f64
    });
    crate::obs_finish(&m, &format!("barrier_{nodes}x{ppn}"));
    out.iter().cloned().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_atomics_cost_more_than_host_but_same_magnitude() {
        let host = fetch_add_latency(Design::EnhancedGdr, false, false);
        let gpu = fetch_add_latency(Design::EnhancedGdr, false, true);
        assert!(gpu > host, "GDR atomic {gpu} should exceed host {host}");
        assert!(
            gpu < host * 2.0,
            "but stay the same magnitude ({gpu} vs {host})"
        );
    }

    #[test]
    fn loopback_atomics_beat_internode() {
        let near = fetch_add_latency(Design::EnhancedGdr, true, true);
        let far = fetch_add_latency(Design::EnhancedGdr, false, true);
        assert!(near < far, "{near} vs {far}");
    }

    #[test]
    fn cswap_and_fadd_cost_the_same() {
        let f = fetch_add_latency(Design::EnhancedGdr, false, false);
        let c = cswap_latency(Design::EnhancedGdr, false, false);
        assert!((f - c).abs() < 0.2, "{f} vs {c}");
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let b2 = barrier_latency(2, 1);
        let b16 = barrier_latency(8, 2);
        // 16 PEs = 4 rounds vs 1 round: ~4x, far below the 8x of linear
        assert!(b16 > b2 * 2.0, "{b2} -> {b16}");
        assert!(b16 < b2 * 8.0, "{b2} -> {b16}");
    }
}
