//! The fault-plan presets `chaos_trace` runs: each row pairs a flag
//! with a plan in the `GDR_SHMEM_FAULTS` grammar and the workload that
//! drives the inter-node pair under it, so a preset's trace
//! deterministically carries the instants CI greps for and `gdrprof`
//! folds into its report sections. [`plan_replay`] is the fixed mixed
//! workload `chaos_trace --plan` replays an arbitrary plan under.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Domain, RuntimeConfig, ShmemMachine, SimDuration};
use std::rc::Rc;

/// A preset: its flag (empty for the default mode), its plan and the
/// workload that runs the pair under it.
pub type Preset = (&'static str, &'static str, Workload);

/// Builds the traced pair from the preset's config, drives it, and
/// hands it back for the trace export.
pub type Workload = fn(RuntimeConfig) -> Rc<ShmemMachine>;

pub const PRESETS: [Preset; 6] = [
    // transient CQE errors on the host-RDMA posts plus a "GDR disabled
    // on node 1" capability fault: `fault`, `retry` and `fallback`
    (
        "",
        "seed=42 cqe=150 gdr-off=2 late=100 late-extra=10000",
        cqe_cadence,
    ),
    // near-certain CQE errors with a retry budget of one: almost every
    // faulted op exhausts its retries (a few survive — chunk posts draw
    // too, and a total wipeout would leave no analyzable ops), so the
    // recovery rate collapses — the live regression the `gdrprof diff`
    // recovery gate must catch
    (
        "--degraded",
        "seed=42 cqe=850 retries=1 gdr-off=2 late=100 late-extra=10000",
        cqe_cadence,
    ),
    // a heavy chunk-post CQE stream with a retry budget of one:
    // `chunk-retry` and `partial-delivery`
    ("--pipeline", "seed=1 cqe=450 retries=1", pipeline_put),
    // a correlated burst window with the health breaker armed:
    // `demote`, `probe` and `promote`, plus the windowed metrics plane
    (
        "--burst",
        "seed=5 retries=2 backoff-cap=16000 burst=150000:200000 health=50000:3:150000",
        burst_cadence,
    ),
    // PE 1 fail-stops at 120 us and rejoins at 500 us: `pe-dead`,
    // `evict`, `view-change`, `rejoin` and the breaker's probe/promote
    ("--crash", "seed=5 crash=1:120000:500000", crash_cadence),
    // PE 1 split off from 120 us to 500 us, then a cut of the direct
    // path 0 -> 1: `partition`, `fence`, `heal` and the cut's reroute
    (
        "--partition",
        "seed=5 partition=split:2:120000:500000 partition=cut:0:1:600000:2000000",
        partition_cadence,
    ),
];

/// The inter-node pair every workload runs on.
fn pair(cfg: RuntimeConfig) -> Rc<ShmemMachine> {
    ShmemMachine::build(ClusterSpec::internode_pair(), cfg)
}

/// Host puts and a fallback: 12 small host-RDMA puts draw several
/// transient faults, then a device-destination put must fall back off
/// GDR (disabled on node 1), then a get.
fn cqe_cadence(cfg: RuntimeConfig) -> Rc<ShmemMachine> {
    let m = pair(cfg);
    m.run(|pe| {
        let hdest = pe.shmalloc(64 << 10, Domain::Host);
        let ddest = pe.shmalloc(1 << 20, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let hsrc = pe.malloc_host(64 << 10);
            let dsrc = pe.malloc_dev(1 << 20);
            // enough host-RDMA posts to draw several transient faults
            for i in 0..12u64 {
                let _ = pe.try_putmem(hdest.add(512 * i), hsrc, 512, 1);
            }
            pe.quiet();
            // device-destination put: GDR is disabled on node 1, so the
            // dispatcher must record a fallback onto a GDR-free path
            let _ = pe.try_putmem(ddest, dsrc, 256 << 10, 1);
            pe.quiet();
            let _ = pe.try_getmem(hsrc, hdest, 4096, 1);
        }
        pe.barrier_all();
    });
    m
}

/// A steady 4 KiB put cadence from PE 0 at PE 1. Under the `--crash`
/// plan the puts land until the crash, fail typed `PeerDead` from the
/// detection instant (crash + the 150 us detection bound), and land
/// again once the rejoin has re-registered the heap and walked the
/// breaker's half-open probe.
fn crash_cadence(cfg: RuntimeConfig) -> Rc<ShmemMachine> {
    let m = pair(cfg);
    m.run(|pe| {
        let dst = pe.shmalloc(4096, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_host(4096);
            for _ in 0..40 {
                // typed PeerDead is expected across the dead window; the
                // cadence itself must never panic or hang
                let _ = pe.try_putmem(dst, src, 4096, 1);
                pe.compute(SimDuration::from_us(20));
            }
        }
    });
    m
}

/// The same cadence, then device-destination puts. Under the
/// `--partition` plan the host puts land until the quorum fence (270 us,
/// once the detection bound elapses), fail typed `Partitioned` across
/// it, and land again after the heal (550 us); by the closing D-D puts
/// the cut covers the direct GDR path, so they must reroute through the
/// fallback matrix, stamping the cut's `partition` instant.
fn partition_cadence(cfg: RuntimeConfig) -> Rc<ShmemMachine> {
    let m = pair(cfg);
    m.run(|pe| {
        let dst = pe.shmalloc(4096, Domain::Host);
        let ddst = pe.shmalloc(64 << 10, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_host(4096);
            let dsrc = pe.malloc_dev(16 << 10);
            for _ in 0..40 {
                // typed Partitioned is expected between fence and heal;
                // the cadence itself must never panic or hang
                let _ = pe.try_putmem(dst, src, 4096, 1);
                pe.compute(SimDuration::from_us(20));
            }
            // by now the cut window is active: these D-D puts must ride
            // a GDR-free path instead of the severed direct one
            for i in 0..4u64 {
                let _ = pe.try_putmem(ddst.add(i * (16 << 10)), dsrc, 16 << 10, 1);
                pe.quiet();
                pe.compute(SimDuration::from_us(20));
            }
        }
    });
    m
}

/// A 4 MB D-D put (8 pipeline chunks at the tuned 512 KiB chunk size),
/// then a 1 MB one. Under the `--pipeline` plan the run records both
/// successful chunk replays and at least one exhausted chunk that
/// resolves as a typed partial delivery.
fn pipeline_put(cfg: RuntimeConfig) -> Rc<ShmemMachine> {
    let m = pair(cfg);
    m.run(|pe| {
        let len = 4u64 << 20;
        let ddest = pe.shmalloc(len, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dsrc = pe.malloc_dev(len);
            // large D-D put -> pipeline-gdr-write; under this plan some
            // chunks replay, and with a budget of one at this rate at
            // least one chunk exhausts -> PartialDelivery
            match pe.try_putmem(ddest, dsrc, len, 1) {
                Ok(()) => {}
                Err(shmem_gdr::TransferError::PartialDelivery { .. }) => {}
                Err(e) => panic!("pipeline fault plan: unexpected error {e}"),
            }
            pe.quiet();
            // a second, smaller put that (at the CI seed) recovers and
            // completes: the trace needs at least one finished op for
            // gdrprof to analyze alongside the partial one
            match pe.try_putmem(ddest, dsrc, 1 << 20, 1) {
                Ok(()) => {}
                Err(shmem_gdr::TransferError::PartialDelivery { .. }) => {}
                Err(e) => panic!("pipeline fault plan: unexpected error {e}"),
            }
            pe.quiet();
        }
        pe.barrier_all();
    });
    m
}

/// The `--plan` workload: replay an arbitrary `GDR_SHMEM_FAULTS`
/// grammar string (typically a `gdrchaos` minimal repro) under a fixed
/// mixed workload. The workload covers the fault surfaces every plan
/// dimension can reach — a pipelined D-D put (chunk retries, partial
/// delivery, proxy stalls), a run of host-RDMA puts (CQE retry path,
/// link windows, bursts) and a get tail — while tolerating every typed
/// error, so any plan replays to a deterministic trace rather than an
/// abort.
pub fn plan_replay(cfg: RuntimeConfig) -> Rc<ShmemMachine> {
    let m = pair(cfg.with_quiesce_ns(200_000_000));
    m.run(|pe| {
        let pipe_len = 2u64 << 20;
        let ddest = pe.shmalloc(pipe_len, Domain::Gpu);
        let hdest = pe.shmalloc(64 << 10, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dsrc = pe.malloc_dev(pipe_len);
            let hsrc = pe.malloc_host(64 << 10);
            // pipelined D-D put: chunk-level retry/partial surface
            let _ = pe.try_putmem(ddest, dsrc, pipe_len, 1);
            pe.quiet();
            // host-RDMA cadence: per-op CQE retry surface
            for i in 0..12u64 {
                let _ = pe.try_putmem(hdest.add(4096 * i), hsrc, 4096, 1);
            }
            pe.quiet();
            let _ = pe.try_getmem(hsrc, hdest, 8192, 1);
            pe.quiet();
        }
        pe.barrier_all();
    });
    m
}

/// 8 KiB D-D puts on a ~10 us cadence. Under the `--burst` plan the
/// burst window (150..200 us, after the first put's cold registration
/// cost) lands inside the cadence: puts inside it exhaust their
/// retries, the breaker demotes `direct-gdr` (clean ops then ride the
/// fallback matrix), and once the cooldown lapses a half-open probe
/// re-promotes it — the full demote -> probe -> promote lifecycle.
///
/// The run also arms the windowed metrics plane (50 us windows) with
/// two SLO budgets: a per-window recovery-rate floor that only the
/// burst window can breach (its puts exhaust every retry, so the
/// window recovers 0 of its injected faults) and a p99 ceiling sized
/// above the cold-start window (so it never trips). The trace thus
/// carries `window-snapshot` records and `slo-violation` instants only
/// inside the burst window — what `tests/fault_events.rs` holds the
/// `gdrprof timeline` of this trace to.
fn burst_cadence(cfg: RuntimeConfig) -> Rc<ShmemMachine> {
    let m = pair(
        cfg.with_obs_window(50)
            .with_obs_slo("recovery:direct-gdr=0.9; p99:put/*/*=150"),
    );
    m.run(|pe| {
        let len = 8u64 << 10;
        let iters = 48u64;
        let ddest = pe.shmalloc(len * iters, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dsrc = pe.malloc_dev(len);
            for i in 0..iters {
                // typed errors are expected while the burst is active;
                // the cadence itself must never panic or hang
                let _ = pe.try_putmem(ddest.add(len * i), dsrc, len, 1);
                pe.quiet();
                pe.compute(SimDuration::from_us(5));
            }
        }
        pe.barrier_all();
    });
    m
}
