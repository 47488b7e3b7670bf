//! Engine-count pin for the idle-target case (paper Fig 10: the target of
//! a one-sided transfer does nothing). PE 0 streams small D-D puts while
//! PEs 1-3 sit in a barrier; their flag polls are events, but must not
//! be task wake-ups — each of those switches to the poller's stack and
//! back for nothing. And the pin that PEs are tasks of the calling
//! thread: a run creates no host thread.

use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, Domain, RuntimeConfig, ShmemMachine};
use std::collections::BTreeSet;

#[test]
fn idle_pes_in_a_barrier_cost_events_not_wakeups() {
    const OPS: u64 = 200;
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(2, 2),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    m.run(|pe| {
        let dst = pe.shmalloc(8, Domain::Gpu);
        let src = pe.malloc_dev(8);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            for _ in 0..OPS {
                pe.putmem(dst, src, 8, 2);
                pe.quiet();
            }
        }
        pe.barrier_all();
    });
    let st = m.sim().stats();
    // Values of the engine that resumed the poller at every grid instant
    // (the parent of the poll-in-place change): probing in event context
    // moves no event and no timestamp.
    assert_eq!(m.sim().now().0, 721_807_506, "final virtual time (ps)");
    assert_eq!(st.events_executed, 1_993);
    // ... it only stops waking the idle PEs: 1 757 wake-ups (8.8 per op)
    // before, PE 0's own ~3.3 per op now
    let per_op = st.wakeups as f64 / OPS as f64;
    assert!(per_op <= 3.5, "{per_op} wake-ups per op: idle pollers are being resumed again");
}

/// The kernel's names of this process's threads.
fn host_threads() -> BTreeSet<std::ffi::OsString> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("Linux procfs");
    tasks.map(|t| t.expect("task entry").file_name()).collect()
}

#[test]
fn a_64_pe_run_creates_no_host_thread() {
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(64, 1),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    // Thread ids rather than a count: the harness thread of the other
    // test in this file may exit meanwhile, but none can appear.
    let before = host_threads();
    let inside = m.run(|pe| {
        pe.barrier_all();
        let seen = host_threads();
        pe.barrier_all();
        seen
    });
    assert_eq!(inside.len(), 64);
    for (pe, seen) in inside.iter().enumerate() {
        let new: Vec<_> = seen.difference(&before).collect();
        assert!(
            new.is_empty(),
            "PE {pe} saw host threads {new:?} created since the run began"
        );
    }
}
