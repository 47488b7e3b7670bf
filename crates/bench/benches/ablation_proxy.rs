//! Ablation: the proxy protocol for large inter-node gets from GPU
//! memory (§III-C) vs chunked direct GDR reads that pay the P2P read cap.

use omb::{latency, Config};
use shmem_gdr::{Design, RuntimeConfig};

fn main() {
    bench_gdr::banner(
        "Ablation: proxy for large gets",
        "inter-node D-D get latency, proxy on vs off (usec)",
    );
    let sizes = [64u64 << 10, 256 << 10, 1 << 20, 4 << 20];
    println!(
        "{:>10} {:>14} {:>16} {:>9}",
        "bytes", "proxy(us)", "direct-read(us)", "gain"
    );
    for &b in &sizes {
        let mut on = RuntimeConfig::tuned(Design::EnhancedGdr);
        on.limits.proxy_get_min = 0; // force the proxy to expose the crossover
        let mut off = on;
        off.proxy_enabled = false;
        let p_on = latency::get_latency(Design::EnhancedGdr, on, false, Config::DD, b).usec;
        let p_off = latency::get_latency(Design::EnhancedGdr, off, false, Config::DD, b).usec;
        println!("{b:>10} {:>14.1} {:>16.1} {:>8.2}x", p_on, p_off, p_off / p_on);
    }
}
