//! Bandwidth and message-rate benchmarks (`osu_oshm_put_bw`-style):
//! a window of back-to-back non-blocking puts followed by one quiet.

use crate::sweep::iters_for;
use crate::{Config, Loc};
use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, RuntimeConfig, ShmemMachine};

/// One measured bandwidth point.
#[derive(Clone, Copy, Debug)]
pub struct BwPoint {
    pub bytes: u64,
    /// MB/s (1 MB = 1e6 bytes, Mellanox convention).
    pub mbps: f64,
}

/// Uni-directional put bandwidth with a window of `window` nbi puts per
/// quiet, inter- or intra-node.
pub fn put_bandwidth(
    design: Design,
    cfg: RuntimeConfig,
    intra: bool,
    config: Config,
    bytes: u64,
    window: u64,
) -> BwPoint {
    let spec = if intra {
        ClusterSpec::intranode_pair()
    } else {
        ClusterSpec::internode_pair()
    };
    let mut rc = cfg;
    rc.design = design;
    // bandwidth windows need heap + staging headroom
    rc.staging = (bytes * window * 2).max(rc.staging);
    rc.gpu_heap = rc.gpu_heap.max(bytes * (window + 2) + (1 << 20));
    rc.dev_mem = rc
        .dev_mem
        .max(2 * rc.gpu_heap + bytes * (window + 2) + (1 << 20));
    rc.private_host = rc.private_host.max(bytes * (window + 2) + (1 << 20));
    let m = ShmemMachine::build(spec, rc);
    let local = config.local;
    let domain = config.remote_domain();
    let out = m.run(move |pe| {
        let dest = pe.shmalloc(bytes * window + 4096, domain);
        let src = match local {
            Loc::Host => pe.malloc_host(bytes * window + 4096),
            Loc::Dev => pe.malloc_dev(bytes * window + 4096),
        };
        pe.barrier_all();
        if pe.my_pe() == 0 {
            // warm
            pe.putmem(dest, src, bytes, 1);
            pe.quiet();
            let iters = (iters_for(bytes) / 5).max(3);
            let t0 = pe.now();
            for _ in 0..iters {
                for w in 0..window {
                    pe.putmem_nbi(dest.add(w * bytes), src.add(w * bytes), bytes, 1);
                }
                pe.quiet();
            }
            let secs = (pe.now() - t0).as_secs_f64();
            let total = (bytes * window * iters) as f64;
            pe.barrier_all();
            total / 1e6 / secs
        } else {
            pe.barrier_all();
            0.0
        }
    });
    crate::obs_finish(&m, &format!("put_bw_{config}_{bytes}x{window}"));
    BwPoint {
        bytes,
        mbps: out[0],
    }
}

/// Small-message rate (million ops/s): 8-byte nbi puts in large windows.
pub fn message_rate(design: Design, cfg: RuntimeConfig, intra: bool) -> f64 {
    let p = put_bandwidth(design, cfg, intra, Config::DD, 8, 64);
    p.mbps * 1e6 / 8.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_put_bandwidth_approaches_wire_or_staging_limit() {
        let cfg = RuntimeConfig::tuned(Design::EnhancedGdr);
        let p = put_bandwidth(Design::EnhancedGdr, cfg, false, Config::HD, 1 << 20, 4);
        // H-D put: direct GDR at wire speed minus overheads
        assert!(p.mbps > 4000.0, "H-D bw {} MB/s", p.mbps);
        assert!(p.mbps <= 6400.0, "exceeds wire: {}", p.mbps);
    }

    #[test]
    fn window_amortizes_latency() {
        let cfg = RuntimeConfig::tuned(Design::EnhancedGdr);
        let w1 = put_bandwidth(Design::EnhancedGdr, cfg, false, Config::DD, 4096, 1);
        let w16 = put_bandwidth(Design::EnhancedGdr, cfg, false, Config::DD, 4096, 16);
        assert!(w16.mbps > w1.mbps * 2.0, "{} vs {}", w1.mbps, w16.mbps);
    }

    #[test]
    fn gdr_message_rate_beats_baseline() {
        let cfg = RuntimeConfig::tuned(Design::EnhancedGdr);
        let gdr = message_rate(Design::EnhancedGdr, cfg, false);
        let base = message_rate(Design::HostPipeline, cfg, false);
        assert!(gdr > 2.0 * base, "gdr {gdr} vs baseline {base} Mops");
    }
}
