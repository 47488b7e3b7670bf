//! Engine-count pin for the idle-target case (paper Fig 10: the target of
//! a one-sided transfer does nothing). PE 0 streams small D-D puts while
//! PEs 1-3 sit in a barrier; their flag polls are events, but must not
//! be task wake-ups — each of those switches to the poller's stack and
//! back for nothing. A poll that no event can answer costs no heap entry
//! either. And the pin that PEs are tasks of the calling thread: a run
//! creates no host thread. And the memory layer's pins: a pipelined
//! 4 MiB transfer copies no payload byte — both of its hops, device to
//! staging and staging to the remote device, share whole pages instead —
//! and a machine's arenas die with it.

use gdr_shmem::pcie::mem::PAGE;
use gdr_shmem::pcie::{ClusterSpec, MemRef, MemSpace, MemStats};
use gdr_shmem::shmem::{Design, Domain, Pe, RuntimeConfig, ShmemMachine, SymAddr};
use gdr_shmem::sim::SimDuration;
use std::collections::BTreeSet;
use std::rc::Rc;

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
    // ... but each of their polls is still a heap entry: PE 0's stream
    // puts an event ahead of almost every grid instant, and the three
    // pollers, on grids of their own, are each other's next event
    assert_eq!(m.sim().polls_elided(), 1);
}

/// A PE alone in a barrier while its peer computes for 10 ms of virtual
/// time polls 5 000 times, every 2 us. Nothing else is on the heap, so
/// every poll after the first is answered in place: an event and a stall
/// in the counters, but no heap entry of its own.
#[test]
fn a_pe_alone_in_a_barrier_costs_no_heap_entry_per_poll() {
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(2, 1),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    m.run(|pe| {
        pe.barrier_all();
        if pe.my_pe() == 0 {
            pe.compute(SimDuration::from_ms(10));
        }
        pe.barrier_all();
    });
    let st = m.sim().stats();
    assert_eq!(m.sim().now().0, 10_004_602_502, "final virtual time (ps)");
    assert_eq!((st.events_executed, st.wakeups), (5_026, 12));
    assert_eq!(m.sim().polls_elided(), 4_999);
}

/// The kernel's names of this process's threads.
fn host_threads() -> BTreeSet<std::ffi::OsString> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("Linux procfs");
    tasks.map(|t| t.expect("task entry").file_name()).collect()
}

/// Set in the child process that [`a_64_pe_run_creates_no_host_thread`]
/// runs itself in.
const ALONE: &str = "ENGINE_COUNTS_ALONE";

#[test]
fn a_64_pe_run_creates_no_host_thread() {
    // The harness starts a thread for each test as another finishes, so
    // next to the other tests of this file a harness thread can appear
    // during the run. The check runs in a process of its own, as the only
    // test of this binary.
    if std::env::var_os(ALONE).is_none() {
        let name = "a_64_pe_run_creates_no_host_thread";
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([name, "--exact", "--test-threads=1"])
            .env(ALONE, "1")
            .output()
            .expect("run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("test result: ok. 1 passed"),
            "alone, {name} did not pass:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(64, 1),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    // Thread ids rather than a count: a thread may exit meanwhile, but
    // none can appear.
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
// Of those events, the polls the engine answered in place, without a heap
// entry: PE 0's, in the closing barrier while PE 1 computes, all but the
// few next to one of PE 1's events.
const PUT_ELIDED: u64 = 2_129;
const GET_ELIDED: u64 = 1_935;

fn large_pair() -> Rc<ShmemMachine> {
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
/// memory layer sees nothing else — and must copy no payload byte: eight
/// 512 KiB chunks, each a device -> staging copy and an RDMA delivery
/// staging -> device, every one page-aligned on both sides, so each of
/// the 2 x 1 024 pages it lands is shared. Returns the transfer's virtual
/// time (ps), the run's event count and how many of them were polls
/// answered in place.
fn one_large_transfer(
    transfer: impl Fn(&Pe, SymAddr, MemRef),
    landed: impl Fn(&Pe, SymAddr, MemRef) -> bool,
) -> (u64, u64, u64) {
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
            // no byte copied, no page copied on write, and no page
            // committed: the staging slots only take references, both
            // payload buffers were written whole before the barrier, and
            // the barrier already touched every sync cell
            let once = MemStats {
                pages_shared: before.pages_shared + 2 * LARGE / PAGE as u64,
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
    (outs[0], m.sim().stats().events_executed, m.sim().polls_elided())
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
    assert_eq!(pin, (PUT_PS, PUT_EVENTS, PUT_ELIDED));
}

#[test]
fn a_proxy_4mib_get_moves_its_payload_once() {
    let pin = one_large_transfer(
        |pe, region, local| pe.getmem(local, region, LARGE, 1),
        |pe, _, local| pe.my_pe() == 1 || pe.read_raw(local, LARGE) == payload(2),
    );
    assert_eq!(pin, (GET_PS, GET_EVENTS, GET_ELIDED));
}

#[test]
fn a_dropped_machine_frees_every_arena() {
    let m = large_pair();
    m.run(|pe| {
        let region = pe.shmalloc(LARGE, Domain::Gpu);
        let local = pe.malloc_dev(LARGE);
        pe.write_raw(local, &payload(pe.my_pe() as u8));
        pe.barrier_all();
        // both directions at once: each node's staging ends the run
        // sharing pages with both GPUs, and each GPU with the other
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
    // two puts and two gets, each sharing its pages on both hops
    let shared = 4 * 2 * LARGE / PAGE as u64;
    assert_eq!(mem.stats().pages_shared, shared, "the puts and gets were pipelined");
    let arenas: Vec<_> = spaces
        .iter()
        .filter_map(|sp| mem.get(*sp).ok())
        .map(|a| Rc::downgrade(&a))
        .collect();
    assert!(arenas.len() >= 4, "two segments and two GPUs at least");
    drop(m);
    let alive = arenas.iter().filter(|w| w.upgrade().is_some()).count();
    assert_eq!(alive, 0, "arenas outlived their machine");
}
