//! Engine-count pin for the idle-target case (paper Fig 10: the target of
//! a one-sided transfer does nothing). PE 0 streams small D-D puts while
//! PEs 1-3 sit in a barrier; their flag polls are events, but must not
//! be task wake-ups — each of those is a cross-thread hand-off.

use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, Domain, RuntimeConfig, ShmemMachine};

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
