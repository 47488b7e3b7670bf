//! Engine-count pin for the idle-target case (paper Fig 10: the target of
//! a one-sided transfer does nothing). PE 0 streams small D-D puts while
//! PEs 1-3 sit in a barrier; their flag polls are events, but must not
//! be task wake-ups — each of those switches to the poller's stack and
//! back for nothing. And the pin that PEs are tasks of the calling
//! thread: a run creates no host thread. And the memory layer's pins: a
//! pipelined 4 MiB transfer moves its payload once, source arena to
//! destination arena, through two staging hops that never move; and a
//! machine's arenas die with it.

use gdr_shmem::pcie::{ClusterSpec, MemRef, MemSpace, MemStats};
use gdr_shmem::shmem::{Design, Domain, Pe, RuntimeConfig, ShmemMachine, SymAddr};
use gdr_shmem::sim::SimDuration;
use std::collections::BTreeSet;
use std::sync::Arc;

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

const LARGE: u64 = 4 << 20;
// Virtual time (ps) and events of the two programs below, measured on
// the parent of the lazy memory layer (eager copies, an RDMA payload
// snapshotted into a `Vec`): how bytes move changes no event, no time.
const PUT_PS: u64 = 740_429_548;
const PUT_EVENTS: u64 = 2_226;
// (the first get into a fresh buffer registers it: 1.13 ms, not 0.74)
const GET_PS: u64 = 1_129_829_548;
const GET_EVENTS: u64 = 2_042;

fn large_pair() -> Arc<ShmemMachine> {
    ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr).with_heaps(1 << 20, 8 << 20),
    )
}

fn payload(tag: u8) -> Vec<u8> {
    (0..LARGE).map(|i| tag ^ (i / 4096) as u8 ^ (i % 251) as u8).collect()
}

/// PE 0 runs `transfer` between a device buffer of its own (`tag` 1)
/// and PE 1's symmetric GPU region (`tag` 2) while PE 1 computes, so the
/// memory layer sees nothing else — and must move the payload once:
/// eight 512 KiB chunks, each staging hop deferred, each chunk's RDMA
/// delivering source device -> destination device. Returns the
/// transfer's virtual time (ps) and the run's event count.
fn one_large_transfer(
    transfer: impl Fn(&Pe, SymAddr, MemRef) + Send + Sync,
    landed: impl Fn(&Pe, SymAddr, MemRef) -> bool + Send + Sync,
) -> (u64, u64) {
    let m = large_pair();
    let outs = m.run(|pe| {
        let region = pe.shmalloc(LARGE, Domain::Gpu);
        let local = pe.malloc_dev(LARGE);
        pe.write_raw(local, &payload(1));
        pe.write_raw(pe.addr_of(region, pe.my_pe()), &payload(2));
        pe.barrier_all();
        let mem = pe.machine().cluster().mem();
        let mut took_ps = 0;
        if pe.my_pe() == 0 {
            let (before, t0) = (mem.stats(), pe.now());
            transfer(pe, region, local);
            took_ps = (pe.now() - t0).0;
            // nothing dropped, nothing moved in, nothing saved aside
            let once = MemStats {
                bytes_moved: before.bytes_moved + LARGE,
                ranges_deferred: before.ranges_deferred + 8,
                ..before
            };
            assert_eq!(mem.stats(), once);
        } else {
            pe.compute(SimDuration::from_ms(5));
        }
        pe.barrier_all();
        assert!(landed(pe, region, local), "PE {}: wrong bytes", pe.my_pe());
        took_ps
    });
    (outs[0], m.sim().stats().events_executed)
}

#[test]
fn a_pipelined_4mib_put_moves_its_payload_once() {
    let pin = one_large_transfer(
        |pe, region, local| {
            pe.putmem(region, local, LARGE, 1);
            pe.quiet();
        },
        |pe, region, _| pe.my_pe() == 0 || pe.read_raw(pe.addr_of(region, 1), LARGE) == payload(1),
    );
    assert_eq!(pin, (PUT_PS, PUT_EVENTS));
}

#[test]
fn a_proxy_4mib_get_moves_its_payload_once() {
    let pin = one_large_transfer(
        |pe, region, local| pe.getmem(local, region, LARGE, 1),
        |pe, _, local| pe.my_pe() == 1 || pe.read_raw(local, LARGE) == payload(2),
    );
    assert_eq!(pin, (GET_PS, GET_EVENTS));
}

#[test]
fn a_dropped_machine_frees_every_arena() {
    let m = large_pair();
    m.run(|pe| {
        let region = pe.shmalloc(LARGE, Domain::Gpu);
        let local = pe.malloc_dev(LARGE);
        pe.write_raw(local, &payload(pe.my_pe() as u8));
        pe.barrier_all();
        // both directions at once: each node's staging ends the run with
        // ranges pending on its own GPU, each GPU with claims on it
        let peer = 1 - pe.my_pe();
        pe.putmem(region, local, LARGE, peer);
        pe.quiet();
        pe.getmem(local, region, LARGE, peer);
        pe.barrier_all();
    });
    let topo = m.cluster().topo().clone();
    let mut spaces = Vec::new();
    for p in topo.all_procs() {
        spaces.push(MemSpace::Host(p));
        spaces.push(MemSpace::Device(topo.gpu_of(p)));
        spaces.push(MemSpace::Shared(topo.seg_of_node(topo.node_of(p))));
    }
    let mem = m.cluster().mem();
    assert!(mem.stats().ranges_deferred >= 32, "the puts and gets were pipelined");
    let arenas: Vec<_> = spaces
        .iter()
        .filter_map(|sp| mem.get(*sp).ok())
        .map(|a| Arc::downgrade(&a))
        .collect();
    assert!(arenas.len() >= 4, "two segments and two GPUs at least");
    drop(m);
    let alive = arenas.iter().filter(|w| w.upgrade().is_some()).count();
    assert_eq!(alive, 0, "arenas outlived their machine");
}
