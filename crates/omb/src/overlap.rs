//! The overlap / one-sidedness benchmark (paper Fig. 10).
//!
//! Two PEs: the origin issues a put + quiet while the target is busy
//! computing for a configurable time. A truly one-sided runtime keeps
//! the origin's communication time flat as target compute grows; the
//! host-based pipeline's communication time tracks it.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, RuntimeConfig, ShmemMachine, SimDuration};

/// One measured point: target compute time vs origin comm time (us).
#[derive(Clone, Copy, Debug)]
pub struct OverlapPoint {
    pub target_compute_us: f64,
    pub comm_time_us: f64,
}

/// Inter-node D-D put of `bytes` while the target computes.
pub fn overlap_put(
    design: Design,
    cfg: RuntimeConfig,
    bytes: u64,
    target_compute_us: u64,
) -> OverlapPoint {
    let mut rc = cfg;
    rc.design = design;
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), rc);
    let out = m.run(move |pe| {
        let dest = pe.shmalloc(bytes + 4096, shmem_gdr::Domain::Gpu);
        let src = pe.malloc_dev(bytes + 4096);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            // warm the path (registration, staging)
            pe.putmem(dest, src, bytes, 1);
            pe.quiet();
            pe.barrier_all();
            let t0 = pe.now();
            pe.putmem(dest, src, bytes, 1);
            pe.quiet();
            let dt = (pe.now() - t0).as_us_f64();
            pe.barrier_all();
            dt
        } else {
            pe.barrier_all();
            pe.compute(SimDuration::from_us(target_compute_us));
            pe.barrier_all();
            0.0
        }
    });
    crate::obs_finish(&m, &format!("overlap_put_{bytes}_{target_compute_us}us"));
    OverlapPoint {
        target_compute_us: target_compute_us as f64,
        comm_time_us: out[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enhanced_stays_flat_baseline_grows() {
        let cfg = RuntimeConfig::tuned(Design::EnhancedGdr);
        let e0 = overlap_put(Design::EnhancedGdr, cfg, 8 << 10, 0);
        let e1 = overlap_put(Design::EnhancedGdr, cfg, 8 << 10, 200);
        assert!(e1.comm_time_us < e0.comm_time_us * 1.1);

        let b0 = overlap_put(Design::HostPipeline, cfg, 8 << 10, 0);
        let b1 = overlap_put(Design::HostPipeline, cfg, 8 << 10, 200);
        assert!(
            b1.comm_time_us > b0.comm_time_us + 100.0,
            "{} -> {}",
            b0.comm_time_us,
            b1.comm_time_us
        );
    }
}
