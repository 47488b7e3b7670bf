//! Chaos suite: randomized RMA programs under seeded fault plans.
//!
//! Every scenario is driven by a deterministic [`FaultPlan`], so a
//! failure names the seed and replays exactly. The properties under
//! test are the robustness acceptance criteria: byte-correct symmetric
//! heaps, no hangs, typed errors instead of panics when a fault defeats
//! every retry, fallbacks when a capability is gone, and bit-identical
//! traces for identical (workload seed, fault seed) pairs.
//!
//! `GDR_CHAOS_SEED` shifts the randomized scenarios onto a different
//! deterministic trajectory (the CI gate runs two fixed seeds).

use gdr_shmem::faults::{FaultPlan, LinkScope, LinkWindow, ProxyStall, ALL};
use gdr_shmem::obs::{ObsLevel, Payload};
use gdr_shmem::obs_analyze;
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Cmp, Design, Domain, RedOp, RuntimeConfig, ShmemMachine, TransferError};
use gdr_shmem::sim::SimDuration;

/// xorshift64* — same generator as the randomized-RMA suite.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next() % (hi - lo)
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Base seed for the randomized scenarios; `GDR_CHAOS_SEED` moves the
/// whole suite onto a different deterministic trajectory.
fn chaos_seed() -> u64 {
    std::env::var("GDR_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

#[derive(Clone, Debug)]
enum ChaosOp {
    Put {
        target: usize,
        domain: bool,
        off: u64,
        len: u64,
        seed: u8,
    },
    Get {
        from: usize,
        domain: bool,
        off: u64,
        len: u64,
    },
    FetchAdd {
        target: usize,
        cell: u64,
        val: u64,
    },
}

const REGION: u64 = 64 << 10;
const CELLS: u64 = 8;

fn random_op(rng: &mut Rng, npes: usize) -> ChaosOp {
    match rng.range(0, 3) {
        0 => ChaosOp::Put {
            target: rng.range(0, npes as u64) as usize,
            domain: rng.flip(),
            off: rng.range(0, REGION - 4096),
            len: rng.range(1, 4096),
            seed: rng.range(0, 256) as u8,
        },
        1 => ChaosOp::Get {
            from: rng.range(0, npes as u64) as usize,
            domain: rng.flip(),
            off: rng.range(0, REGION - 4096),
            len: rng.range(1, 4096),
        },
        _ => ChaosOp::FetchAdd {
            target: rng.range(0, npes as u64) as usize,
            cell: rng.range(0, CELLS),
            val: rng.range(1, 100),
        },
    }
}

fn payload(len: u64, seed: u8) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
}

/// Randomized programs under 10% transient CQE errors plus occasional
/// late completions: every op either succeeds (possibly after retries)
/// or surfaces a typed error, nothing panics, nothing hangs, and the
/// final heaps match a reference model that applies exactly the ops
/// that reported success.
#[test]
fn transient_cqe_errors_recover_byte_correct() {
    let base = chaos_seed();
    for case in 0..6u64 {
        let mut rng = Rng::new(0xC4A05 ^ (base.wrapping_mul(0x1_0001) + case));
        let design = if rng.flip() {
            Design::EnhancedGdr
        } else {
            Design::HostPipeline
        };
        let nops = rng.range(4, 28) as usize;
        // the baseline does not support inter-node H-D/D-H (paper
        // Table I): under it, force every op onto the host domain
        let ops: Vec<ChaosOp> = (0..nops)
            .map(|_| {
                let op = random_op(&mut rng, 4);
                match (design, op) {
                    (Design::HostPipeline, ChaosOp::Put { target, off, len, seed, .. }) => {
                        ChaosOp::Put { target, domain: false, off, len, seed }
                    }
                    (Design::HostPipeline, ChaosOp::Get { from, off, len, .. }) => {
                        ChaosOp::Get { from, domain: false, off, len }
                    }
                    (_, op) => op,
                }
            })
            .collect();
        let plan = FaultPlan::default()
            .with_seed(base.wrapping_mul(31).wrapping_add(case))
            .with_cqe_errors(100)
            .with_late_completions(100, 10_000);
        let m = ShmemMachine::build(
            ClusterSpec::wilkes(2, 2),
            RuntimeConfig::tuned(design).with_faults(plan),
        );
        let ops2 = ops.clone();
        let results = m.run(move |pe| {
            let host = pe.shmalloc(REGION, Domain::Host);
            let gpu = pe.shmalloc(REGION, Domain::Gpu);
            let cells = pe.shmalloc(8 * CELLS, Domain::Host);
            pe.barrier_all();
            let mut ok = Vec::new();
            if pe.my_pe() == 0 {
                let scratch = pe.malloc_host(8192);
                for op in &ops2 {
                    match *op {
                        ChaosOp::Put { target, domain, off, len, seed } => {
                            let sym = if domain { gpu } else { host };
                            pe.write_raw(scratch, &payload(len, seed));
                            ok.push(pe.try_putmem(sym.add(off), scratch, len, target).is_ok());
                            pe.fence();
                        }
                        ChaosOp::Get { from, domain, off, len } => {
                            let sym = if domain { gpu } else { host };
                            ok.push(pe.try_getmem(scratch, sym.add(off), len, from).is_ok());
                        }
                        ChaosOp::FetchAdd { target, cell, val } => {
                            ok.push(
                                pe.try_atomic_fetch_add(cells.add(8 * cell), val, target)
                                    .is_ok(),
                            );
                        }
                    }
                }
                pe.quiet();
            }
            pe.barrier_all();
            let me = pe.my_pe();
            let h = pe.read_raw(pe.addr_of(host, me), REGION);
            let g = pe.read_raw(pe.addr_of(gpu, me), REGION);
            let mut c = Vec::new();
            for k in 0..CELLS {
                c.push(pe.local_u64(cells.add(8 * k)));
            }
            (ok, h, g, c)
        });
        // reference model: apply exactly the ops that reported success
        let succeeded = &results[0].0;
        assert_eq!(succeeded.len(), ops.len(), "case {case}: one verdict per op");
        let mut ref_mem = vec![vec![vec![0u8; REGION as usize]; 2]; 4];
        let mut ref_cells = vec![vec![0u64; CELLS as usize]; 4];
        for (op, &ok) in ops.iter().zip(succeeded) {
            if !ok {
                continue;
            }
            match *op {
                ChaosOp::Put { target, domain, off, len, seed } => {
                    let d = domain as usize;
                    ref_mem[target][d][off as usize..(off + len) as usize]
                        .copy_from_slice(&payload(len, seed));
                }
                ChaosOp::Get { .. } => {}
                ChaosOp::FetchAdd { target, cell, val } => {
                    ref_cells[target][cell as usize] =
                        ref_cells[target][cell as usize].wrapping_add(val);
                }
            }
        }
        for (peid, (_, h, g, c)) in results.iter().enumerate() {
            assert_eq!(&ref_mem[peid][0], h, "case {case}: host mem of pe{peid}");
            assert_eq!(&ref_mem[peid][1], g, "case {case}: gpu mem of pe{peid}");
            assert_eq!(&ref_cells[peid], c, "case {case}: cells of pe{peid}");
        }
    }
}

/// A CQE stream that fails every post defeats the bounded retry budget:
/// the op surfaces `RetriesExhausted` as a value — no panic, no hang —
/// and the counters record the exhaustion. Single node so the barrier
/// flags ride same-node CPU stores (never faulted) while the loopback
/// D-D put still posts RDMA and draws every fault.
#[test]
fn exhausted_retries_surface_typed_error() {
    let plan = FaultPlan::default()
        .with_cqe_errors(1000)
        .with_retry(2, 2_000, 64_000);
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(1, 2),
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Counters),
    );
    let errs = m.run(|pe| {
        let dest = pe.shmalloc(2048, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(2048);
            Some(pe.try_putmem(dest, src, 2048, 1))
        } else {
            None
        }
    });
    match errs[0] {
        Some(Err(TransferError::RetriesExhausted { attempts, .. })) => {
            assert_eq!(attempts, 3, "initial attempt + 2 retries");
        }
        ref other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    let counters = m.obs().fault_counters();
    assert!(
        counters.iter().any(|((what, _), n)| *what == "exhausted" && *n > 0),
        "exhaustion must be tallied: {counters:?}"
    );
}

/// With GDR disabled on the target node, a device-destination put must
/// re-route through a GDR-free protocol, record the decision as a
/// first-class `fallback` event, and still deliver correct bytes.
#[test]
fn gdr_capability_fault_triggers_fallback() {
    let plan = FaultPlan::default().with_gdr_disabled(1);
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_faults(plan)
        .with_obs(ObsLevel::Spans);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    let len = 256u64 << 10;
    let results = m.run(move |pe| {
        let dest = pe.shmalloc(len, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(len);
            pe.write_raw(src, &payload(len, 0x5A));
            pe.putmem(dest, src, len, 1);
            pe.quiet();
        }
        pe.barrier_all();
        pe.read_raw(pe.addr_of(dest, pe.my_pe()), len)
    });
    assert_eq!(results[1], payload(len, 0x5A), "fallback path must stay byte-correct");
    let tr = obs_analyze::check_paths(m.obs()).unwrap();
    let targets: Vec<&str> = tr
        .events()
        .filter_map(|(_, e)| match e.payload {
            Payload::Fallback { to, .. } if e.name == "fallback" => Some(to),
            _ => None,
        })
        .collect();
    assert!(!targets.is_empty(), "capability fault must record a fallback event");
    assert!(
        targets.iter().all(|to| !to.contains("gdr")),
        "fallback target must be GDR-free: {targets:?}"
    );
    let counters = m.obs().fault_counters();
    assert!(
        counters.iter().any(|((what, _), n)| *what == "fallback" && *n > 0),
        "fallback must be tallied: {counters:?}"
    );
}

/// Atomics have no GDR-free fallback that preserves atomicity: with GDR
/// disabled at the target, an atomic on GPU symmetric memory is a typed
/// capability error, not a silent rerouting.
#[test]
fn atomic_on_gdr_disabled_gpu_heap_is_capability_error() {
    let plan = FaultPlan::default().with_gdr_disabled(1);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr).with_faults(plan),
    );
    let errs = m.run(|pe| {
        let cell = pe.shmalloc(8, Domain::Gpu);
        pe.barrier_all();
        let r = if pe.my_pe() == 0 {
            Some(pe.try_atomic_fetch_add(cell, 7, 1))
        } else {
            None
        };
        pe.barrier_all();
        r
    });
    match errs[0] {
        Some(Err(TransferError::CapabilityDisabled { node, .. })) => assert_eq!(node, 1),
        ref other => panic!("expected CapabilityDisabled, got {other:?}"),
    }
}

/// A full HCA blackout window delays transfers that try to start inside
/// it; the program still completes with correct bytes, after the window.
#[test]
fn link_blackout_delays_but_completes() {
    let plan = FaultPlan::default().with_link_window(LinkWindow {
        scope: LinkScope::HcaTx,
        index: ALL,
        start_ns: 0,
        end_ns: 200_000,
        bw_permille: 0,
    });
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr).with_faults(plan),
    );
    let len = 64u64 << 10;
    let results = m.run(move |pe| {
        let dest = pe.shmalloc(len, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_host(len);
            pe.write_raw(src, &payload(len, 0x33));
            pe.putmem(dest, src, len, 1);
            pe.quiet();
        }
        pe.barrier_all();
        (
            pe.read_raw(pe.addr_of(dest, pe.my_pe()), len),
            pe.now().as_us_f64(),
        )
    });
    assert_eq!(results[1].0, payload(len, 0x33));
    for (_, t) in &results {
        assert!(
            *t >= 200.0,
            "nothing can finish before the 200us blackout lifts: ended at {t}us"
        );
    }
}

/// When every completion is delivered later than the per-op timeout,
/// the op surfaces `Timeout` as a value instead of hanging.
#[test]
fn late_completion_past_timeout_is_typed_error() {
    let plan = FaultPlan::default()
        .with_late_completions(1000, 2_000_000)
        .with_op_timeout_ns(100_000);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr).with_faults(plan),
    );
    let errs = m.run(|pe| {
        let dest = pe.shmalloc(64 << 10, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_host(64 << 10);
            Some(pe.try_putmem(dest, src, 64 << 10, 1))
        } else {
            None
        }
    });
    match errs[0] {
        Some(Err(TransferError::Timeout { after_ns, .. })) => assert_eq!(after_ns, 100_000),
        ref other => panic!("expected Timeout, got {other:?}"),
    }
}

/// The quiesce watchdog: a deliberately-lost completion (every local
/// completion delayed far past the deadline, retries disabled so
/// nothing re-posts) must surface as a typed `Timeout` whose diagnostic
/// names the stuck op's token — never a hang or a deadlock panic. The
/// plan sets no per-op timeout; the config-level watchdog is the only
/// bound.
#[test]
fn quiesce_watchdog_converts_lost_completion_into_typed_timeout() {
    let plan = FaultPlan::default()
        .with_late_completions(1000, 50_000_000)
        .with_retry(0, 2_000, 64_000);
    assert_eq!(plan.op_timeout_ns, 0, "watchdog test must rely on quiesce_ns alone");
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_quiesce_ns(100_000),
    );
    let errs = m.run(|pe| {
        let dest = pe.shmalloc(64 << 10, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_host(64 << 10);
            Some(pe.try_putmem(dest, src, 64 << 10, 1))
        } else {
            None
        }
    });
    match errs[0] {
        Some(Err(TransferError::Timeout { after_ns, ref diag })) => {
            assert_eq!(after_ns, 100_000);
            // PE0's tokens are ((0+1)<<32)|seq: the diagnostic must name
            // the stuck op and carry the engine's blocked-task dump
            assert!(diag.contains("op 0x1"), "diag must name the token: {diag}");
            assert!(diag.contains("stuck at completion>=1"), "diag: {diag}");
            assert!(diag.contains("events pending"), "diag must embed the dump: {diag}");
        }
        ref other => panic!("expected Timeout with diagnostic, got {other:?}"),
    }
}

/// `wait_until` on a flag nobody writes: each poll is an event, so the
/// heap never empties and the engine's deadlock detector never fires —
/// unbounded, this wait runs forever. Under an active plan it shares the
/// sync-wait deadline and ends typed, at the first poll instant at or
/// past it (200 ns grid: 100.1 us rounds up to 100.2 us).
#[test]
fn wait_until_on_a_flag_never_written_times_out_typed() {
    let plan = FaultPlan::default().with_op_timeout_ns(100_100);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr).with_faults(plan),
    );
    let out = m.run(|pe| {
        let flag = pe.shmalloc(8, Domain::Host);
        if pe.my_pe() == 1 {
            return None;
        }
        let t0 = pe.now();
        let r = pe.try_wait_until(flag, Cmp::Ge, 1);
        Some((r, pe.now().since(t0)))
    });
    match out[0] {
        Some((Err(TransferError::Timeout { after_ns, .. }), waited)) => {
            assert_eq!(after_ns, 100_100);
            assert_eq!(waited, SimDuration::from_ns(100_200));
        }
        ref other => panic!("expected Timeout, got {other:?}"),
    }
}

/// ... and the infallible wrapper fails loud, naming the cell and the
/// typed error.
#[test]
#[should_panic(expected = "Ge 1) failed: ")]
fn wait_until_wrapper_panics_with_the_typed_error() {
    let plan = FaultPlan::default().with_op_timeout_ns(10_000);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr).with_faults(plan),
    );
    m.run(|pe| {
        let flag = pe.shmalloc(8, Domain::Host);
        if pe.my_pe() == 0 {
            pe.wait_until(flag, Cmp::Ge, 1);
        }
    });
}

/// A stalled target-side progress agent (crash + restart modeled as a
/// long stall) delays the baseline's delivery work without corrupting
/// it: bytes land intact, and nothing finishes before the stall is paid.
#[test]
fn proxy_stall_delays_baseline_delivery_but_stays_correct() {
    let plan = FaultPlan::default().with_proxy_stall(ProxyStall {
        node: 1,
        start_ns: 0,
        end_ns: 5_000_000,
        extra_ns: 300_000,
    });
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::HostPipeline).with_faults(plan),
    );
    let len = 256u64 << 10;
    let results = m.run(move |pe| {
        let dest = pe.shmalloc(len, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            // the baseline supports D-D inter-node (host-staged); the
            // final H2D delivery is the stalled target-side work
            let src = pe.malloc_dev(len);
            pe.write_raw(src, &payload(len, 0x77));
            pe.putmem(dest, src, len, 1);
            pe.quiet();
        }
        pe.barrier_all();
        (
            pe.read_raw(pe.addr_of(dest, pe.my_pe()), len),
            pe.now().as_us_f64(),
        )
    });
    assert_eq!(results[1].0, payload(len, 0x77));
    for (_, t) in &results {
        assert!(*t >= 300.0, "the 300us stall must be paid: ended at {t}us");
    }
}

/// A large D-D put whose pipeline chunk posts draw from a seeded CQE
/// stream: the default retry budget absorbs every chunk fault, the
/// delivered bytes are correct, and the trace records the chunk replays
/// as first-class `chunk-retry` events.
#[test]
fn pipeline_chunk_faults_recover_byte_correct() {
    let len = 4u64 << 20; // 8 chunks at the tuned 512 KiB chunk size
    let plan = FaultPlan::default().with_seed(4).with_cqe_errors(150);
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_faults(plan)
        .with_obs(ObsLevel::Spans);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    let results = m.run(move |pe| {
        let dest = pe.shmalloc(len, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(len);
            pe.write_raw(src, &payload(len, 0xAB));
            pe.try_putmem(dest, src, len, 1)
                .expect("the default retry budget must absorb 15% chunk CQE errors");
            pe.quiet();
        }
        pe.barrier_all();
        pe.read_raw(pe.addr_of(dest, pe.my_pe()), len)
    });
    assert_eq!(results[1], payload(len, 0xAB), "replayed chunks must land correct bytes");
    let counters = m.obs().fault_counters();
    let chunk_retried: u64 = counters
        .iter()
        .filter(|((what, _), _)| *what == "chunk-retried")
        .map(|(_, n)| n)
        .sum();
    assert!(chunk_retried > 0, "seed 4 must exercise chunk replays: {counters:?}");
    let tr = obs_analyze::check_paths(m.obs()).unwrap();
    let replays: Vec<&str> = tr
        .events()
        .filter_map(|(_, e)| match e.payload {
            Payload::Retry { protocol, .. } if e.name == "chunk-retry" => Some(protocol),
            _ => None,
        })
        .collect();
    assert!(!replays.is_empty(), "chunk replays must be traced");
    assert!(
        replays.iter().all(|p| *p == "pipeline-gdr-write"),
        "replays belong to the pipeline protocol: {replays:?}"
    );
}

/// With the chunk retry budget capped at zero, a heavy CQE stream
/// defeats some chunks mid-transfer: the op returns a typed
/// `PartialDelivery` naming the delivered byte count — no panic, no
/// hang — and every staging credit is back (no leak from the failed
/// chunks, no credit deadlock from the replayed ones).
#[test]
fn partial_delivery_is_typed_and_leaks_no_staging() {
    let len = 4u64 << 20;
    let plan = FaultPlan::default()
        .with_seed(4)
        .with_cqe_errors(400)
        .with_retry(0, 2_000, 64_000);
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_faults(plan)
        .with_obs(ObsLevel::Spans);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    let results = m.run(move |pe| {
        let dest = pe.shmalloc(len, Domain::Gpu);
        pe.barrier_all();
        let r = if pe.my_pe() == 0 {
            let src = pe.malloc_dev(len);
            let r = pe.try_putmem(dest, src, len, 1);
            pe.quiet(); // poisoned completions keep quiet from hanging
            Some(r)
        } else {
            None
        };
        pe.barrier_all();
        r
    });
    match results[0] {
        Some(Err(TransferError::PartialDelivery { delivered, total })) => {
            assert_eq!(total, len);
            assert!(delivered < total, "a partial delivery must miss bytes");
            assert_eq!(delivered % (512 << 10), 0, "delivery is whole-chunk");
        }
        ref other => panic!("expected PartialDelivery, got {other:?}"),
    }
    for pe in [0u32, 1] {
        assert_eq!(
            m.staging_in_use(gdr_shmem::shmem::ProcId(pe)),
            0,
            "pe{pe} staging must be fully released after the partial failure"
        );
    }
    let counters = m.obs().fault_counters();
    assert!(
        counters.iter().any(|((what, _), n)| *what == "partial" && *n > 0),
        "partial delivery must be tallied: {counters:?}"
    );
    let tr = obs_analyze::check_paths(m.obs()).unwrap();
    let partials: Vec<u64> = tr
        .events()
        .filter_map(|(_, e)| match e.payload {
            Payload::PartialDelivery { total, .. } if e.name == "partial-delivery" => Some(total),
            _ => None,
        })
        .collect();
    assert_eq!(partials, [len], "one op, one partial-delivery instant");
}

/// The serve-get reply path (baseline host-pipeline get) draws from the
/// *serving* side's fault stream: with no retry budget the requester
/// sees the typed partial delivery, and both PEs' staging areas drain.
#[test]
fn serve_get_chunk_faults_surface_partial_delivery_to_requester() {
    let len = 2u64 << 20;
    let plan = FaultPlan::default()
        .with_seed(3)
        .with_cqe_errors(350)
        .with_retry(0, 2_000, 64_000);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::HostPipeline).with_faults(plan),
    );
    let results = m.run(move |pe| {
        let src_sym = pe.shmalloc(len, Domain::Gpu);
        pe.barrier_all();
        let r = if pe.my_pe() == 0 {
            let dst = pe.malloc_dev(len);
            Some(pe.try_getmem(dst, src_sym, len, 1))
        } else {
            None
        };
        pe.barrier_all();
        r
    });
    match results[0] {
        Some(Err(TransferError::PartialDelivery { delivered, total })) => {
            assert_eq!(total, len);
            assert!(delivered > 0 && delivered < total, "mid-transfer failure");
        }
        ref other => panic!("expected PartialDelivery, got {other:?}"),
    }
    for pe in [0u32, 1] {
        assert_eq!(
            m.staging_in_use(gdr_shmem::shmem::ProcId(pe)),
            0,
            "pe{pe} staging must drain after the partial serve-get"
        );
    }
}

/// One traced faulted run: mixed D/H traffic with enough RDMA posts to
/// draw several transient faults. Returns the artifacts the determinism
/// contract covers.
fn traced_faulted_run(
    fault_seed: u64,
) -> (
    String,
    std::collections::BTreeMap<(&'static str, &'static str), u64>,
    String,
) {
    let plan = FaultPlan::default()
        .with_seed(fault_seed)
        .with_cqe_errors(150)
        .with_late_completions(100, 10_000);
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_faults(plan)
        .with_obs(ObsLevel::Spans);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    m.run(|pe| {
        let dest = pe.shmalloc(4 << 20, Domain::Gpu);
        let hdest = pe.shmalloc(64 << 10, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(4 << 20);
            let hsrc = pe.malloc_host(64 << 10);
            for i in 0..12u64 {
                let _ = pe.try_putmem(hdest.add(512 * i), hsrc, 512, 1);
                let _ = pe.try_putmem(dest.add(4096 * i), src, 4096, 1);
            }
            pe.quiet();
            let _ = pe.try_getmem(hsrc, hdest, 4096, 1);
        }
        pe.barrier_all();
    });
    let report = obs_analyze::analyze(&obs_analyze::check_paths(m.obs()).unwrap()).to_json();
    (m.obs().chrome_trace(), m.obs().fault_counters(), report)
}

/// Determinism contract (and retry/backoff determinism): identical
/// (workload, fault seed) pairs replay the same faults, the same retry
/// counts, byte-identical Chrome traces, and identical analyzer output.
#[test]
fn identical_fault_seeds_replay_identical_traces_and_retries() {
    let (tr_a, cnt_a, rep_a) = traced_faulted_run(42);
    let (tr_b, cnt_b, rep_b) = traced_faulted_run(42);
    assert_eq!(tr_a, tr_b, "same seeds must produce byte-identical traces");
    assert_eq!(cnt_a, cnt_b, "same seeds must produce identical fault counters");
    assert_eq!(rep_a, rep_b, "same seeds must produce identical gdrprof reports");
    let retried = cnt_a
        .iter()
        .filter(|((what, _), _)| *what == "retried")
        .map(|(_, n)| n)
        .sum::<u64>();
    assert!(retried > 0, "the 15% CQE plan must exercise retries: {cnt_a:?}");
    // a different fault seed must visibly change the fault trajectory
    let (_, cnt_c, _) = traced_faulted_run(43);
    assert_ne!(cnt_a, cnt_c, "different fault seeds should diverge");
}

/// One traced chunk-faulted pipeline run (retry budget 1, heavy CQE
/// stream): chunk replays, an exhausted chunk, and a partial delivery.
fn traced_pipeline_run(
    fault_seed: u64,
) -> (
    String,
    std::collections::BTreeMap<(&'static str, &'static str), u64>,
    String,
) {
    let plan = FaultPlan::default()
        .with_seed(fault_seed)
        .with_cqe_errors(450)
        .with_retry(1, 2_000, 64_000);
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_faults(plan)
        .with_obs(ObsLevel::Spans);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    m.run(|pe| {
        let dest = pe.shmalloc(4 << 20, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(4 << 20);
            let _ = pe.try_putmem(dest, src, 4 << 20, 1);
            pe.quiet();
        }
        pe.barrier_all();
    });
    let report = obs_analyze::analyze(&obs_analyze::check_paths(m.obs()).unwrap()).to_json();
    (m.obs().chrome_trace(), m.obs().fault_counters(), report)
}

/// Chunk-level determinism: the same fault seed replays identical chunk
/// retry counts, identical partial-delivery outcomes, byte-identical
/// traces, and identical gdrprof reports.
#[test]
fn identical_seeds_replay_identical_chunk_retries_and_partials() {
    let (tr_a, cnt_a, rep_a) = traced_pipeline_run(7);
    let (tr_b, cnt_b, rep_b) = traced_pipeline_run(7);
    assert_eq!(tr_a, tr_b, "same seed must replay a byte-identical chunk-fault trace");
    assert_eq!(cnt_a, cnt_b, "same seed must replay identical chunk retry counts");
    assert_eq!(rep_a, rep_b, "same seed must produce identical gdrprof reports");
    let chunk_retried: u64 = cnt_a
        .iter()
        .filter(|((what, _), _)| *what == "chunk-retried")
        .map(|(_, n)| n)
        .sum();
    assert!(chunk_retried > 0, "the heavy plan must exercise chunk replays: {cnt_a:?}");
}

/// Collectives under a lossy cross-node sync-flag stream: barrier,
/// reduce, and fcollect replay their lost flag/data writes (idempotent
/// generation flags) and complete byte-correct — typed errors never
/// escape while the replay budget holds, and no staging leaks.
#[test]
fn collectives_recover_from_sync_flag_faults_byte_correct() {
    let plan = FaultPlan::default()
        .with_seed(9)
        .with_cqe_errors(200)
        .with_retry(2, 2_000, 16_000);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Counters),
    );
    let results = m.run(|pe| {
        let n = pe.n_pes();
        let me = pe.my_pe() as u64;
        let red_src = pe.shmalloc_slice::<u64>(4, Domain::Host);
        let red_dst = pe.shmalloc_slice::<u64>(4, Domain::Host);
        let fc_src = pe.shmalloc_slice::<u64>(2, Domain::Host);
        let fc_dst = pe.shmalloc_slice::<u64>(2 * n, Domain::Host);
        pe.try_barrier_all()?;
        for round in 0..8u64 {
            pe.write_sym(&red_src, &[me + 1, round, me * 10, 7]);
            pe.try_reduce(&red_src, &red_dst, RedOp::Sum, 0)?;
            pe.write_sym(&fc_src, &[me * 100 + round, me]);
            pe.try_fcollect(&fc_dst, &fc_src)?;
            pe.try_barrier_all()?;
        }
        Ok::<_, TransferError>((pe.read_sym(&red_dst), pe.read_sym(&fc_dst)))
    });
    for (peid, r) in results.iter().enumerate() {
        let (red, fc) = r.as_ref().unwrap_or_else(|e| {
            panic!("pe{peid}: collective surfaced an error under flag faults: {e}")
        });
        // sum over me in {0,1} of [me+1, 7, me*10, 7] at the last round
        assert_eq!(red, &[3, 14, 10, 14], "pe{peid}: reduce result");
        assert_eq!(fc, &[7, 0, 107, 1], "pe{peid}: fcollect result");
    }
    let counters = m.obs().fault_counters();
    assert!(
        counters
            .iter()
            .any(|((_, label), n)| *label == "sync-flag" && *n > 0),
        "the sync-flag stream must draw faults: {counters:?}"
    );
    assert!(
        counters
            .iter()
            .any(|((what, label), n)| *what == "recovered" && *label == "sync-flag" && *n > 0),
        "lost flag writes must be retried to success: {counters:?}"
    );
    for pe in [0u32, 1] {
        assert_eq!(
            m.staging_in_use(gdr_shmem::shmem::ProcId(pe)),
            0,
            "pe{pe}: collectives must not leak staging"
        );
    }
}

/// A correlated burst window knocks out every in-flight post: the
/// health monitor demotes the direct-GDR path (`demote`), routes
/// traffic through the host-staged fallback during the cooldown,
/// re-admits a trial op after it (`probe`), and re-promotes on its
/// success (`promote`). Ops the burst defeated outright are re-issued
/// after it and the full region ends byte-correct.
#[test]
fn burst_window_drives_demote_probe_promote_lifecycle() {
    let plan = FaultPlan::default()
        .with_seed(5)
        .with_burst_window(150_000, 200_000)
        .with_retry(2, 2_000, 16_000)
        .with_health(50_000, 3, 150_000);
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_faults(plan)
        .with_obs(ObsLevel::Spans);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    let len = 8u64 << 10;
    let iters = 48u64;
    let results = m.run(move |pe| {
        let dest = pe.shmalloc(len * iters, Domain::Gpu);
        pe.barrier_all();
        let mut failed = Vec::new();
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(len);
            pe.write_raw(src, &payload(len, 0x3C));
            for i in 0..iters {
                if pe.try_putmem(dest.add(len * i), src, len, 1).is_err() {
                    failed.push(i);
                }
                pe.quiet();
                pe.compute(SimDuration::from_us(5));
            }
            // burst-defeated ops re-issue clean once the window is over
            for &i in &failed {
                pe.try_putmem(dest.add(len * i), src, len, 1)
                    .expect("post-burst re-issue must succeed");
            }
            pe.quiet();
        }
        pe.barrier_all();
        (failed, pe.read_raw(pe.addr_of(dest, pe.my_pe()), len * iters))
    });
    let want: Vec<u8> = (0..iters).flat_map(|_| payload(len, 0x3C)).collect();
    assert_eq!(results[1].1, want, "every region must end byte-correct");
    assert!(
        !results[0].0.is_empty(),
        "the burst must defeat at least one op outright"
    );
    let counters = m.obs().fault_counters();
    for event in ["demote", "probe", "promote"] {
        assert!(
            counters
                .iter()
                .any(|((what, proto), n)| *what == event && *proto == "direct-gdr" && *n > 0),
            "breaker lifecycle must tally a direct-gdr {event}: {counters:?}"
        );
    }
    let tr = obs_analyze::check_paths(m.obs()).unwrap();
    assert!(
        tr.events()
            .any(|(_, e)| e.name == "fault" && matches!(e.payload, Payload::Fault { kind: "cqe-burst", .. })),
        "burst faults must carry their own kind in the trace"
    );
    for pe in [0u32, 1] {
        assert_eq!(m.staging_in_use(gdr_shmem::shmem::ProcId(pe)), 0);
    }
}

/// One traced burst run for the replay contract below.
fn traced_burst_run(
    fault_seed: u64,
) -> (
    String,
    std::collections::BTreeMap<(&'static str, &'static str), u64>,
) {
    let plan = FaultPlan::default()
        .with_seed(fault_seed)
        .with_burst_window(150_000, 200_000)
        .with_retry(2, 2_000, 16_000)
        .with_health(50_000, 3, 150_000);
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_faults(plan)
        .with_obs(ObsLevel::Spans);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    let len = 8u64 << 10;
    m.run(move |pe| {
        let dest = pe.shmalloc(len * 32, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(len);
            for i in 0..32u64 {
                let _ = pe.try_putmem(dest.add(len * i), src, len, 1);
                pe.quiet();
                pe.compute(SimDuration::from_us(5));
            }
        }
        pe.barrier_all();
    });
    obs_analyze::check_paths(m.obs()).unwrap();
    (m.obs().chrome_trace(), m.obs().fault_counters())
}

/// Burst determinism: the same fault seed replays identical retry and
/// demotion/promotion counters and a byte-identical trace.
#[test]
fn identical_burst_seeds_replay_identical_health_transitions() {
    let (tr_a, cnt_a) = traced_burst_run(5);
    let (tr_b, cnt_b) = traced_burst_run(5);
    assert_eq!(tr_a, tr_b, "same seed must replay a byte-identical burst trace");
    assert_eq!(cnt_a, cnt_b, "same seed must replay identical health counters");
    let demotes: u64 = cnt_a
        .iter()
        .filter(|((what, _), _)| *what == "demote")
        .map(|(_, n)| n)
        .sum();
    assert!(demotes > 0, "the burst must trip the breaker: {cnt_a:?}");
}
