//! A machine costs the arena pages it touches, not the memory it maps
//! (`pcie_sim::mem`): `MemStats::pages_committed` after building a
//! machine, and after one barrier on it, is a deterministic count that
//! must not depend on how much device memory each GPU maps, and stays
//! under a pinned bound. A count, not a timing.

use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, RuntimeConfig, ShmemMachine};

/// Building a machine writes no arena byte.
const BUILD_PAGES: u64 = 0;
/// One barrier writes each PE's flag cells: two pages per PE.
const BARRIER_PAGES_PER_PE: u64 = 2;

/// Pages committed after `build`, then after one `barrier_all`.
fn committed(spec: ClusterSpec, dev_mem: u64) -> (u64, u64) {
    let mut cfg = RuntimeConfig::tuned(Design::EnhancedGdr);
    cfg.dev_mem = dev_mem;
    let m = ShmemMachine::build(spec, cfg);
    let mem = m.cluster().mem();
    let built = mem.stats().pages_committed;
    m.run(|pe| pe.barrier_all());
    (built, mem.stats().pages_committed)
}

#[test]
fn committed_pages_follow_what_a_machine_touches_not_what_it_maps() {
    let cases = [
        ("internode_pair", ClusterSpec::internode_pair as fn() -> ClusterSpec, 2),
        ("wilkes(64,1)", || ClusterSpec::wilkes(64, 1), 64),
    ];
    for (name, spec, npes) in cases {
        let small = committed(spec(), 64 << 20);
        let large = committed(spec(), 256 << 20);
        assert_eq!(small, large, "{name}: committed pages depend on dev_mem");
        let (built, after_barrier) = small;
        assert_eq!(built, BUILD_PAGES, "{name}: pages committed by the build");
        let bound = BUILD_PAGES + BARRIER_PAGES_PER_PE * npes;
        assert!(
            after_barrier <= bound,
            "{name}: {after_barrier} pages committed after one barrier (bound {bound})"
        );
    }
}
