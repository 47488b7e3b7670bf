//! Ablation: the hybrid-protocol thresholds of §III. Sweeps the
//! loopback / direct-GDR switch points and shows the crossover the
//! tuned defaults sit on.

use omb::{latency, Config};
use shmem_gdr::{Design, RuntimeConfig};

fn main() {
    bench_gdr::banner(
        "Ablation: GDR thresholds",
        "intra-node D-D put latency vs loopback_put_limit (usec)",
    );
    let sizes = [512u64, 2 << 10, 8 << 10, 64 << 10, 256 << 10];
    let limits = [0u64, 2 << 10, 1 << 30];
    println!(
        "{:>10} {:>14} {:>16} {:>14}",
        "bytes", "ipc-only(us)", "tuned-2K(us)", "gdr-only(us)"
    );
    for &b in &sizes {
        let mut row = Vec::new();
        for &lim in &limits {
            let mut rc = RuntimeConfig::tuned(Design::EnhancedGdr);
            rc.limits.loopback_put_limit = lim;
            rc.limits.loopback_dd_limit = lim;
            row.push(latency::put_latency(Design::EnhancedGdr, rc, true, Config::DD, b).usec);
        }
        println!("{b:>10} {:>14.2} {:>16.2} {:>14.2}", row[0], row[1], row[2]);
    }

    bench_gdr::banner(
        "Ablation: pipeline chunk size",
        "inter-node D-D 4MiB put latency vs chunk (usec)",
    );
    println!("{:>12} {:>14}", "chunk(KiB)", "latency(us)");
    for chunk_kib in [64u64, 128, 256, 512, 1024, 2048] {
        let mut rc = RuntimeConfig::tuned(Design::EnhancedGdr);
        rc.pipeline_chunk = chunk_kib << 10;
        let p = latency::put_latency(Design::EnhancedGdr, rc, false, Config::DD, 4 << 20);
        println!("{chunk_kib:>12} {:>14.1}", p.usec);
    }
}
