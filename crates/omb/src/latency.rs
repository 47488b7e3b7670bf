//! Point-to-point latency benchmarks (`osu_oshm_put` / `osu_oshm_get`
//! with OMB-GPU buffer placement).

use crate::sweep::iters_for;
use crate::{Config, Loc};
use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, RuntimeConfig, ShmemMachine};

/// One measured point of a latency sweep.
#[derive(Clone, Copy, Debug)]
pub struct LatencyPoint {
    pub bytes: u64,
    pub usec: f64,
}

const WARMUP: u64 = 5;

/// `shmem_putmem` latency: time per put + quiet at the origin, averaged
/// over OMB-style iterations. Builds a fresh pair machine per call.
pub fn put_latency(
    design: Design,
    cfg: RuntimeConfig,
    intra: bool,
    config: Config,
    bytes: u64,
) -> LatencyPoint {
    let spec = if intra {
        ClusterSpec::intranode_pair()
    } else {
        ClusterSpec::internode_pair()
    };
    let mut rc = cfg;
    rc.design = design;
    let m = ShmemMachine::build(spec, rc);
    let local = config.local;
    let domain = config.remote_domain();
    let out = m.run(move |pe| {
        let dest = pe.shmalloc(bytes + 4096, domain);
        let src = match local {
            Loc::Host => pe.malloc_host(bytes + 4096),
            Loc::Dev => pe.malloc_dev(bytes + 4096),
        };
        pe.barrier_all();
        if pe.my_pe() == 0 {
            for _ in 0..WARMUP {
                pe.putmem(dest, src, bytes, 1);
                pe.quiet();
            }
            let iters = iters_for(bytes);
            let t0 = pe.now();
            for _ in 0..iters {
                pe.putmem(dest, src, bytes, 1);
                pe.quiet();
            }
            let dt = (pe.now() - t0).as_us_f64() / iters as f64;
            pe.barrier_all();
            dt
        } else {
            pe.barrier_all();
            0.0
        }
    });
    crate::obs_finish(&m, &format!("put_latency_{config}_{bytes}"));
    LatencyPoint {
        bytes,
        usec: out[0],
    }
}

/// `shmem_getmem` latency at the origin.
pub fn get_latency(
    design: Design,
    cfg: RuntimeConfig,
    intra: bool,
    config: Config,
    bytes: u64,
) -> LatencyPoint {
    let spec = if intra {
        ClusterSpec::intranode_pair()
    } else {
        ClusterSpec::internode_pair()
    };
    let mut rc = cfg;
    rc.design = design;
    let m = ShmemMachine::build(spec, rc);
    let local = config.local;
    let domain = config.remote_domain();
    let out = m.run(move |pe| {
        let source = pe.shmalloc(bytes + 4096, domain);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dst = match local {
                Loc::Host => pe.malloc_host(bytes + 4096),
                Loc::Dev => pe.malloc_dev(bytes + 4096),
            };
            for _ in 0..WARMUP {
                pe.getmem(dst, source, bytes, 1);
            }
            let iters = iters_for(bytes);
            let t0 = pe.now();
            for _ in 0..iters {
                pe.getmem(dst, source, bytes, 1);
            }
            let dt = (pe.now() - t0).as_us_f64() / iters as f64;
            pe.barrier_all();
            dt
        } else {
            pe.barrier_all();
            0.0
        }
    });
    crate::obs_finish(&m, &format!("get_latency_{config}_{bytes}"));
    LatencyPoint {
        bytes,
        usec: out[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> RuntimeConfig {
        RuntimeConfig::tuned(Design::EnhancedGdr)
    }

    #[test]
    fn latency_grows_with_size() {
        let small = put_latency(Design::EnhancedGdr, rc(), false, Config::DD, 8);
        let big = put_latency(Design::EnhancedGdr, rc(), false, Config::DD, 1 << 20);
        assert!(big.usec > small.usec * 10.0);
    }

    #[test]
    fn gdr_beats_baseline_for_small_messages() {
        let base = put_latency(Design::HostPipeline, rc(), false, Config::DD, 8);
        let gdr = put_latency(Design::EnhancedGdr, rc(), false, Config::DD, 8);
        assert!(gdr.usec * 3.0 < base.usec, "{} vs {}", gdr.usec, base.usec);
    }

    #[test]
    fn get_latency_reasonable() {
        let p = get_latency(Design::EnhancedGdr, rc(), true, Config::HD, 4);
        assert!(p.usec > 0.5 && p.usec < 10.0, "{}", p.usec);
    }
}
