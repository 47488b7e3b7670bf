//! `chaos_trace` — CI driver for the fault-injection observability path.
//!
//! ```text
//! chaos_trace OUT_TRACE.json [--degraded | --pipeline]
//! ```
//!
//! Runs one span-traced inter-node workload under a fixed seeded fault
//! plan — transient CQE errors on the host-RDMA posts plus a "GDR
//! disabled on node 1" capability fault — and writes the Chrome trace
//! to `OUT_TRACE.json`. The trace deterministically contains `fault`,
//! `retry` and `fallback` instants, so CI can assert that `gdrprof`
//! surfaces the fault section and the fallback decision.
//!
//! `--degraded` raises the CQE error rate to near-certainty with a
//! retry budget of one, so almost every faulted op exhausts its
//! retries (a few survive — chunk posts draw too now, and a total
//! wipeout would leave no analyzable ops): the resulting report's
//! recovery rate collapses, which CI uses as the live regression the
//! `gdrprof diff` recovery gate must catch.
//!
//! `--pipeline` instead runs a large D-D put whose chunk posts draw
//! from a heavy CQE stream with a retry budget of one: the trace
//! deterministically contains `chunk-retry` and `partial-delivery`
//! instants, which CI greps for to gate the chunk-recovery path.
//!
//! `--burst` runs a steady put cadence across a correlated burst
//! window with the health breaker armed: every post inside the window
//! fails, the breaker demotes `direct-gdr`, traffic rides the fallback
//! path, and after cooldown a half-open probe re-promotes it. The
//! trace deterministically contains `demote`, `probe` and `promote`
//! instants, which CI greps for and which `gdrprof` folds into the
//! health report section.
//!
//! `--crash` runs a steady put cadence across a scheduled fail-stop
//! of the peer PE with a rejoin after the detection bound: the trace
//! deterministically contains the full `pe-dead` / `evict` /
//! `view-change` / `rejoin` membership lifecycle plus the rejoined
//! node's breaker `probe`/`promote` pair, which CI greps for and which
//! `gdrprof` folds into the membership report section.
//!
//! `--partition` runs the same cadence across a quorum-fenced network
//! split of the peer PE (typed `Partitioned` failures between fence and
//! heal), then pushes device-destination puts across an asymmetric cut
//! that severs only the direct GDR path — the trace deterministically
//! contains the `partition` / `fence` / `heal` lifecycle plus the cut's
//! reroute `fallback`, which CI greps for and which `gdrprof` folds
//! into the partitions report section.
//!
//! `--plan "<grammar>"` replays an **arbitrary** `GDR_SHMEM_FAULTS`
//! plan — typically a minimal repro shrunk by `gdrchaos` — under a
//! fixed mixed workload (pipelined D-D put plus a host-put/get tail).
//! The plan it ran under is echoed on stderr; the trace on stdout-path
//! is byte-identical across runs of the same grammar, which CI `cmp`s.

use faults::FaultPlan;
use obs::ObsLevel;
use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, RuntimeConfig, ShmemMachine, SimDuration};
use std::process::ExitCode;
use std::rc::Rc;

const USAGE: &str = "usage:
  chaos_trace OUT_TRACE.json              transient CQE faults + GDR-off fallback
  chaos_trace OUT_TRACE.json --degraded   near-certain CQE faults, retry budget 1
  chaos_trace OUT_TRACE.json --pipeline   chunk-retry + partial-delivery trace
  chaos_trace OUT_TRACE.json --burst      breaker demote/probe/promote lifecycle
  chaos_trace OUT_TRACE.json --crash      fail-stop membership lifecycle + rejoin
  chaos_trace OUT_TRACE.json --partition  quorum fence/heal lifecycle + cut reroute
  chaos_trace OUT_TRACE.json --plan \"<grammar>\"   replay a GDR_SHMEM_FAULTS plan

Each mode runs under a fixed fault seed (--plan \"seed=N ...\" replays any
other). Traces are byte-identical across runs of the same mode, so CI
can cmp two runs and grep the instants each mode guarantees.

exit codes:
  0  success
  1  usage error
  2  cannot write the output trace";

fn main() -> ExitCode {
    let mut out = None;
    let mut degraded = false;
    let mut pipeline = false;
    let mut burst = false;
    let mut crash = false;
    let mut partition = false;
    let mut grammar: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--degraded" => degraded = true,
            "--pipeline" => pipeline = true,
            "--burst" => burst = true,
            "--crash" => crash = true,
            "--partition" => partition = true,
            "--plan" => {
                i += 1;
                match args.get(i) {
                    Some(g) => grammar = Some(g.clone()),
                    None => {
                        eprintln!("{USAGE}");
                        return ExitCode::from(1);
                    }
                }
            }
            a if out.is_none() => out = Some(a.to_string()),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(1);
            }
        }
        i += 1;
    }
    let Some(out) = out else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };

    if let Some(grammar) = grammar {
        return plan_replay_trace(&out, &grammar);
    }
    if pipeline {
        return pipeline_fault_trace(&out);
    }
    if burst {
        return burst_fault_trace(&out);
    }
    if crash {
        return crash_fault_trace(&out);
    }
    if partition {
        return partition_fault_trace(&out);
    }
    cqe_fault_trace(&out, degraded)
}

/// The config every mode starts from: tuned Enhanced-GDR, spans on,
/// under `plan`.
fn config(plan: FaultPlan) -> RuntimeConfig {
    RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_faults(plan)
        .with_obs(ObsLevel::Spans)
}

/// Every mode's harness: build the inter-node pair under `cfg`, let
/// `workload` drive it, and write the Chrome trace to `out` — exit 2 if
/// it cannot be written.
fn traced_run(out: &str, cfg: RuntimeConfig, workload: impl FnOnce(&Rc<ShmemMachine>)) -> ExitCode {
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    workload(&m);
    if let Err(e) = std::fs::write(out, m.obs().chrome_trace()) {
        eprintln!("chaos_trace: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// The default plan: transient CQE errors on the host-RDMA posts plus
/// a "GDR disabled on node 1" capability fault; `--degraded` raises the
/// error rate to near-certainty with a retry budget of one.
fn cqe_fault_trace(out: &str, degraded: bool) -> ExitCode {
    let mut plan = FaultPlan::default()
        .with_seed(42)
        .with_cqe_errors(if degraded { 850 } else { 150 })
        .with_late_completions(100, 10_000)
        .with_gdr_disabled(1);
    if degraded {
        plan = plan.with_retry(1, 2_000, 64_000);
    }
    traced_run(out, config(plan), |m| {
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
    })
}

/// The `--crash` plan: PE 1 fail-stops at 120 us and rejoins at 500 us
/// while PE 0 keeps a steady 4 KiB put cadence at it. The puts land
/// until the crash, fail typed `PeerDead` from the detection instant
/// (crash + the 150 us detection bound), and land again once the rejoin
/// has re-registered the heap and walked the breaker's half-open probe
/// — so the trace deterministically carries the full `pe-dead` /
/// `evict` / `view-change` / `rejoin` lifecycle with the breaker's
/// `probe`/`promote` pair.
fn crash_fault_trace(out: &str) -> ExitCode {
    let plan = FaultPlan::default()
        .with_seed(5)
        .with_crash(1, 120_000, 500_000);
    traced_run(out, config(plan), |m| {
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
    })
}

/// The `--partition` plan: PE 1 is split off from 120 us to 500 us
/// (quorum fence at 270 us once the detection bound elapses, heal at
/// 550 us) while PE 0 keeps a steady 4 KiB host-put cadence at it —
/// puts land until the fence, fail typed `Partitioned` across it, and
/// land again after the heal. A generous asymmetric cut (0 -> 1) then
/// covers the tail of the run: the closing device-destination puts find
/// their direct GDR path severed and must reroute through the fallback
/// matrix, stamping the cut's `partition` instant. One deterministic
/// trace carries the whole `partition` / `fence` / `heal` lifecycle.
fn partition_fault_trace(out: &str) -> ExitCode {
    let plan = FaultPlan::default()
        .with_seed(5)
        .with_partition_split(0b10, 120_000, 500_000)
        .with_partition_cut(0, 1, 600_000, 2_000_000);
    traced_run(out, config(plan), |m| {
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
    })
}

/// The `--pipeline` plan: a 4 MB D-D put (8 pipeline chunks at the
/// tuned 512 KiB chunk size) under a heavy chunk-post CQE stream with a
/// retry budget of one, so the run deterministically records both
/// successful chunk replays and at least one exhausted chunk that
/// resolves as a typed partial delivery.
fn pipeline_fault_trace(out: &str) -> ExitCode {
    let plan = FaultPlan::default()
        .with_seed(1)
        .with_cqe_errors(450)
        .with_retry(1, 2_000, 64_000);
    traced_run(out, config(plan), |m| {
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
    })
}

/// The `--plan` mode: replay an arbitrary `GDR_SHMEM_FAULTS` grammar
/// string (typically a `gdrchaos` minimal repro) under a fixed mixed
/// workload. The workload covers the fault surfaces every plan
/// dimension can reach — a pipelined D-D put (chunk retries, partial
/// delivery, proxy stalls), a run of host-RDMA puts (CQE retry path,
/// link windows, bursts) and a get tail — while tolerating every typed
/// error, so any plan replays to a deterministic trace rather than an
/// abort. The effective plan (post-clamping) is printed on stderr.
fn plan_replay_trace(out: &str, grammar: &str) -> ExitCode {
    let plan = FaultPlan::parse(grammar);
    eprintln!("chaos_trace: plan: {plan}");
    traced_run(out, config(plan).with_quiesce_ns(200_000_000), |m| {
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
    })
}

/// The `--burst` plan: 8 KiB D-D puts on a ~10 us cadence with a
/// correlated burst window at 150..200 us (after the first put's cold
/// registration cost, inside the steady cadence) and the health breaker
/// armed. Puts inside the window exhaust their retries, the breaker
/// demotes `direct-gdr` (clean ops then ride the fallback matrix), and
/// once the cooldown lapses a half-open probe re-promotes it — the full
/// demote -> probe -> promote lifecycle in one deterministic trace.
///
/// The run also arms the windowed metrics plane (50 us windows) with
/// two SLO budgets: a per-window recovery-rate floor that only the
/// burst window can breach (its puts exhaust every retry, so the
/// window recovers 0 of its injected faults) and a p99 ceiling sized
/// above the cold-start window (so it never trips). The trace thus
/// deterministically carries `window-snapshot` records and
/// `slo-violation` instants only inside the burst window — the input
/// for the `gdrprof timeline` CI gates.
fn burst_fault_trace(out: &str) -> ExitCode {
    let plan = FaultPlan::default()
        .with_seed(5)
        .with_burst_window(150_000, 200_000)
        .with_retry(2, 2_000, 16_000)
        .with_health(50_000, 3, 150_000);
    traced_run(out, config(plan).with_obs_window(50), |m| {
        m.obs().set_slo(
            obs::SloPolicy::parse("recovery:direct-gdr=0.9; p99:put/*/*=150")
                .expect("burst SLO policy must parse"),
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
    })
}
