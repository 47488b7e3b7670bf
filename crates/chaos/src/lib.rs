//! # chaos — deterministic chaos-campaign engine
//!
//! PRs 3–5 hand-wrote one fault scenario at a time; this crate
//! *searches* the fault space. A campaign is a pure function of a
//! `(campaign_seed, trial)` pair: [`faults::FaultPlan::generate`]
//! enumerates a randomized plan per trial, [`run_trial`] executes one
//! workload from a fixed menu under that plan in virtual time, and a
//! registry of invariant oracles checks the result:
//!
//! - **byte-correctness** — destination memory matches a
//!   success-masked reference: bytes a successful op wrote must be
//!   there, bytes no op could have written must still be zero, bytes
//!   behind an uncertain outcome (`Timeout`, `PartialDelivery`) are
//!   don't-care.
//! - **no-hang** — the trial must terminate; a virtual-time deadlock
//!   or poisoned engine (caught panic) is a violation. The
//!   `RuntimeConfig::quiesce_ns` watchdog converts stuck waits into
//!   typed timeouts so this oracle sees an error value, not a panic.
//! - **staging-leak** — every PE's staging allocator drains back to
//!   zero once the trial quiesces.
//! - **breaker-recovery** — no health breaker is still demoted one
//!   cooldown past the end of the run: faults end, protocols come back.
//! - **counter-consistency** — the obs fault/retry tallies satisfy
//!   their internal arithmetic (recoveries never exceed retries,
//!   promotes never exceed demotes, recoveries imply injections).
//! - **replay-determinism** — re-running a trial reproduces a
//!   byte-identical trial report (the campaign spot-checks every 16th
//!   trial).
//! - **survivor-bytes** — the byte-correctness oracle of a crash trial:
//!   under a scheduled fail-stop (`crash=` dimension), *survivor*
//!   memory must still match the success-masked reference — a dead
//!   peer's typed `PeerDead` failures leave no bytes, in-flight ops at
//!   the crash instant complete, and sync failures caused purely by the
//!   crash do not relax the oracle (the membership layer keeps
//!   survivors deterministic).
//! - **view-convergence** — every survivor that observed a given PE's
//!   death reports the *same* eviction epoch, and that epoch matches
//!   the membership schedule; an undetectable crash (transparent blip)
//!   must never surface a `PeerDead` at a survivor.
//! - **split-brain** — the partition oracle: every typed `Partitioned`
//!   observation carries the fence epoch of a compiled split schedule
//!   and names a PE on the minority side, and a plan whose splits are
//!   all transparent blips surfaces no `Partitioned` at all. Combined
//!   with byte-correctness (a `Partitioned` op is *certain* — its
//!   bytes must never appear), this is the no-split-brain-writes
//!   guarantee.
//! - **quorum-progress** — during a quorum fence the majority side must
//!   keep operating: no majority-side PE may ever observe *itself* as
//!   the fenced party.
//! - **heal-convergence** — after the heal instant the fabric must be
//!   whole again: post-heal probe puts in both directions across the
//!   former split must not surface `Partitioned`.
//!
//! Any failing plan is handed to [`shrink`]: greedy delta-debugging
//! over a fixed candidate order (drop windows, halve/zero permilles,
//! clear capability-mask bits, reset scalars toward defaults) until no
//! candidate still reproduces the same oracle violation. The fixed
//! point is emitted as a `GDR_SHMEM_FAULTS` grammar line — the minimal
//! repro that `chaos_trace --plan` and `gdrchaos replay` re-execute
//! deterministically.

use faults::{mix, FaultPlan, LinkScope, LinkWindow, ProxyStall, GEN_HORIZON_NS};
use obs_analyze::{CampaignSummary, CampaignViolation};
use pcie_sim::{ClusterSpec, ProcId};
use shmem_gdr::{Design, Domain, Pe, RuntimeConfig, ShmemMachine, TransferError};
use std::collections::BTreeMap;

/// Cell granularity of the randomized-RMA workload.
const CELL: u64 = 32 << 10;
/// Cells per put/get region (each PE owns one region per domain).
const CELLS: u64 = 8;
/// Randomized ops per PE per trial.
const OPS: u64 = 8;
/// Pipelined-put transfer length (4 chunks at the tuned 512 KiB).
const PIPE_LEN: u64 = 2 << 20;
/// Tuned pipeline chunk size (mirrors `RuntimeConfig::tuned`).
const PIPE_CHUNK: u64 = 512 << 10;
/// Broadcast payload of the collectives workload.
const BCAST_LEN: u64 = 32 << 10;
/// Engine-level quiesce watchdog armed for every campaign trial: far
/// above any legitimate virtual-time wait of these workloads, so it
/// only fires on a genuinely stuck completion.
const QUIESCE_NS: u64 = 200_000_000;

/// Every oracle the campaign checks, for the summary header.
pub const ORACLES: [&str; 11] = [
    "breaker-recovery",
    "byte-correctness",
    "counter-consistency",
    "heal-convergence",
    "no-hang",
    "quorum-progress",
    "replay-determinism",
    "split-brain",
    "staging-leak",
    "survivor-bytes",
    "view-convergence",
];

/// The workload menu. One entry runs per trial, picked by seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Randomized put/get/atomic mix between two PEs over disjoint
    /// 32 KiB cells, host and GPU domains.
    RmaRandom,
    /// One large D-D put through the pipelined-GDR-write path (chunk
    /// retries, partial delivery).
    PipelineDd,
    /// Barrier / broadcast / barrier (sync-flag loss, collective
    /// replay).
    Collectives,
    /// Large gets served by the target side (proxy + host-staged
    /// paths; staging credits).
    ServeGet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RmaRandom,
        Workload::PipelineDd,
        Workload::Collectives,
        Workload::ServeGet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RmaRandom => "rma-random",
            Workload::PipelineDd => "pipeline-dd",
            Workload::Collectives => "collectives",
            Workload::ServeGet => "serve-get",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The trial's workload — pure in `(campaign_seed, trial)`.
    pub fn pick(campaign_seed: u64, trial: u64) -> Workload {
        Workload::ALL[(mix(campaign_seed, 0x574B_4C44, trial) % 4) as usize]
    }
}

/// What one operation did to destination memory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Completed; its bytes must be present.
    Ok,
    /// Completed but the data read back was wrong — a direct
    /// byte-correctness violation (unless the trial is relaxed by a
    /// broken barrier).
    Mismatch,
    /// Typed failure that left no bytes behind (retries exhausted,
    /// capability fault, registration error).
    Failed(&'static str),
    /// Timed out — bytes may still land later in virtual time.
    Timeout,
    /// Chunked transfer died mid-flight; delivered chunks are final.
    Partial { delivered: u64, total: u64 },
    /// The target (or the issuing PE itself) is fail-stopped: the
    /// membership layer evicted it at `epoch`. Certain — no bytes were
    /// delivered and none can land later. The carried epoch feeds the
    /// view-convergence oracle: every survivor must observe the same
    /// eviction epoch for the same dead PE.
    PeerDead { pe: u32, epoch: u64 },
    /// The target (or the issuing PE itself) sits on the fenced
    /// minority side of a network split at `epoch`. Certain like
    /// `PeerDead` — fenced ops fail before posting, so no bytes were
    /// delivered and none can land later. Feeds the split-brain and
    /// quorum-progress oracles.
    Partitioned { pe: u32, epoch: u64 },
}

impl Outcome {
    fn uncertain(&self) -> bool {
        matches!(self, Outcome::Timeout | Outcome::Partial { .. })
    }

    fn label(&self) -> String {
        match self {
            Outcome::Ok => "ok".into(),
            Outcome::Mismatch => "MISMATCH".into(),
            Outcome::Failed(k) => (*k).into(),
            Outcome::Timeout => "timeout".into(),
            Outcome::Partial { delivered, total } => format!("partial({delivered}/{total})"),
            Outcome::PeerDead { pe, epoch } => format!("peer-dead(pe{pe}@e{epoch})"),
            Outcome::Partitioned { pe, epoch } => format!("partitioned(pe{pe}@e{epoch})"),
        }
    }
}

fn classify(r: &Result<(), TransferError>) -> Outcome {
    match r {
        Ok(()) => Outcome::Ok,
        Err(TransferError::Timeout { .. }) => Outcome::Timeout,
        Err(TransferError::PartialDelivery { delivered, total }) => Outcome::Partial {
            delivered: *delivered,
            total: *total,
        },
        Err(TransferError::RetriesExhausted { .. }) => Outcome::Failed("retries-exhausted"),
        Err(TransferError::CapabilityDisabled { .. }) => Outcome::Failed("capability-disabled"),
        Err(TransferError::Mr(_)) => Outcome::Failed("mr-error"),
        Err(TransferError::PeerDead { pe, epoch }) => Outcome::PeerDead { pe: *pe, epoch: *epoch },
        Err(TransferError::Partitioned { pe, epoch }) => {
            Outcome::Partitioned { pe: *pe, epoch: *epoch }
        }
    }
}

/// A put's destination cell, for the success-masked reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CellRef {
    /// 0 = host region, 1 = GPU region.
    dom: u8,
    cell: u64,
    len: u64,
}

/// One recorded operation of a trial.
#[derive(Clone, PartialEq, Debug)]
struct OpRec {
    pe: usize,
    desc: String,
    cell: Option<CellRef>,
    /// Value of an atomic fetch-add, for the counter reference.
    add: Option<u64>,
    /// True for barrier/broadcast sync ops: a failure here relaxes the
    /// byte oracle (cross-PE ordering is gone).
    sync: bool,
    outcome: Outcome,
}

/// Everything one PE hands back from a trial.
struct PeOut {
    ops: Vec<OpRec>,
    put_h: Vec<u8>,
    put_g: Vec<u8>,
    /// Workload-specific region (pipeline destination, broadcast data).
    extra: Vec<u8>,
    ctr: u64,
}

/// Payload byte a writer puts into `(dom, cell)` of its peer — a pure
/// function of the trial so replays and late deliveries are idempotent.
fn pat_put(trial: u64, writer: usize, dom: u8, cell: u64) -> u8 {
    (mix(trial ^ 0x5055_5400, ((writer as u64) << 8) | dom as u64, cell) & 0xff) as u8
}

/// Pattern byte the owner pre-fills `(dom, cell)` of its get region
/// with.
fn pat_get(trial: u64, owner: usize, dom: u8, cell: u64) -> u8 {
    (mix(trial ^ 0x4745_5400, ((owner as u64) << 8) | dom as u64, cell) & 0xff) as u8
}

/// Per-chunk payload byte of the pipelined put.
fn pat_chunk(trial: u64, chunk: u64) -> u8 {
    // 0 is the "never delivered" sentinel; keep payloads distinct from it
    ((mix(trial ^ 0x5049_5045, 0, chunk) & 0xff) as u8) | 1
}

/// Broadcast payload byte.
fn pat_bcast(trial: u64) -> u8 {
    ((mix(trial ^ 0x4243_5354, 0, 0) & 0xff) as u8) | 1
}

/// FNV-1a over `parts` in order, eight bytes per multiply: each part's
/// length, its little-endian words, then its tail bytewise. Only ever
/// compared between a trial and its replay in one process (the
/// `mem-hash=` report line; no golden or fixture carries the value).
fn mem_hash(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for part in parts {
        eat(part.len() as u64);
        let words = part.chunks_exact(8);
        let tail = words.remainder();
        for w in words {
            eat(u64::from_le_bytes(w.try_into().expect("chunks of eight")));
        }
        for &b in tail {
            eat(b as u64);
        }
    }
    h
}

fn rec(
    pe: usize,
    desc: String,
    cell: Option<CellRef>,
    add: Option<u64>,
    sync: bool,
    outcome: Outcome,
) -> OpRec {
    OpRec { pe, desc, cell, add, sync, outcome }
}

fn bar(pe: &Pe, which: &str, ops: &mut Vec<OpRec>) {
    let out = classify(&pe.try_barrier_all());
    ops.push(rec(pe.my_pe(), format!("barrier-{which}"), None, None, true, out));
}

// ---------- workload bodies (run inside PE tasks) ----------

fn wl_rma_random(pe: &mut Pe, seed: u64, trial: u64) -> PeOut {
    let me = pe.my_pe();
    let peer = 1 - me;
    let put_h = pe.shmalloc(CELL * CELLS, Domain::Host);
    let put_g = pe.shmalloc(CELL * CELLS, Domain::Gpu);
    let get_h = pe.shmalloc(CELL * CELLS, Domain::Host);
    let get_g = pe.shmalloc(CELL * CELLS, Domain::Gpu);
    let ctr = pe.shmalloc(8, Domain::Host);
    // pre-fill my get regions with the owner pattern (local writes,
    // infallible, before any synchronization)
    for c in 0..CELLS {
        let h = vec![pat_get(trial, me, 0, c); CELL as usize];
        pe.write_raw(pe.addr_of(get_h, me).add(c * CELL), &h);
        let g = vec![pat_get(trial, me, 1, c); CELL as usize];
        pe.write_raw(pe.addr_of(get_g, me).add(c * CELL), &g);
    }
    let mut ops = Vec::new();
    bar(pe, "init", &mut ops);
    let src_h = pe.malloc_host(CELL);
    let src_g = pe.malloc_dev(CELL);
    let dst_h = pe.malloc_host(CELL);
    for i in 0..OPS {
        let r = mix(seed ^ 0x524D_4131, ((me as u64) << 32) | i, trial);
        let kind = r % 5;
        let cell = (r >> 8) % CELLS;
        let len = [512u64, 4096, CELL][((r >> 16) % 3) as usize];
        match kind {
            0 | 1 => {
                let dom = kind as u8;
                let payload = vec![pat_put(trial, me, dom, cell); len as usize];
                let (src, dest, name) = if dom == 0 {
                    (src_h, put_h, "put-h")
                } else {
                    (src_g, put_g, "put-g")
                };
                pe.write_raw(src, &payload);
                let res = pe.try_putmem(dest.add(cell * CELL), src, len, peer);
                ops.push(rec(
                    me,
                    format!("{name} cell{cell} len{len}"),
                    Some(CellRef { dom, cell, len }),
                    None,
                    false,
                    classify(&res),
                ));
            }
            2 | 3 => {
                let dom = (kind - 2) as u8;
                let (srcsym, name) = if dom == 0 { (get_h, "get-h") } else { (get_g, "get-g") };
                let res = pe.try_getmem(dst_h, srcsym.add(cell * CELL), len, peer);
                let mut out = classify(&res);
                if out == Outcome::Ok {
                    let want = pat_get(trial, peer, dom, cell);
                    let got = pe.read_raw(dst_h, len);
                    if !got.iter().all(|&b| b == want) {
                        out = Outcome::Mismatch;
                    }
                }
                ops.push(rec(me, format!("{name} cell{cell} len{len}"), None, None, false, out));
            }
            _ => {
                let v = (r >> 24) % 100 + 1;
                let res = pe.try_atomic_fetch_add(ctr, v, 1).map(|_| ());
                ops.push(rec(me, format!("add v{v}"), None, Some(v), false, classify(&res)));
            }
        }
    }
    pe.quiet();
    bar(pe, "fini", &mut ops);
    PeOut {
        ops,
        put_h: pe.read_raw(pe.addr_of(put_h, me), CELL * CELLS),
        put_g: pe.read_raw(pe.addr_of(put_g, me), CELL * CELLS),
        extra: Vec::new(),
        ctr: if me == 1 { pe.local_u64(ctr) } else { 0 },
    }
}

fn wl_pipeline_dd(pe: &mut Pe, _seed: u64, trial: u64) -> PeOut {
    let me = pe.my_pe();
    let ddest = pe.shmalloc(PIPE_LEN, Domain::Gpu);
    let mut ops = Vec::new();
    bar(pe, "init", &mut ops);
    if me == 0 {
        let dsrc = pe.malloc_dev(PIPE_LEN);
        let mut payload = vec![0u8; PIPE_LEN as usize];
        for (i, chunk) in payload.chunks_mut(PIPE_CHUNK as usize).enumerate() {
            chunk.fill(pat_chunk(trial, i as u64));
        }
        pe.write_raw(dsrc, &payload);
        let res = pe.try_putmem(ddest, dsrc, PIPE_LEN, 1);
        ops.push(rec(me, format!("pipe-put len{PIPE_LEN}"), None, None, false, classify(&res)));
        pe.quiet();
    }
    bar(pe, "fini", &mut ops);
    PeOut {
        ops,
        put_h: Vec::new(),
        put_g: Vec::new(),
        extra: if me == 1 {
            pe.read_raw(pe.addr_of(ddest, me), PIPE_LEN)
        } else {
            Vec::new()
        },
        ctr: 0,
    }
}

fn wl_collectives(pe: &mut Pe, _seed: u64, trial: u64) -> PeOut {
    let me = pe.my_pe();
    let data = pe.shmalloc(BCAST_LEN, Domain::Host);
    if me == 0 {
        pe.write_raw(pe.addr_of(data, me), &vec![pat_bcast(trial); BCAST_LEN as usize]);
    }
    let mut ops = Vec::new();
    bar(pe, "init", &mut ops);
    let out = classify(&pe.try_broadcast(data, BCAST_LEN, 0));
    ops.push(rec(me, format!("bcast len{BCAST_LEN}"), None, None, true, out));
    bar(pe, "fini", &mut ops);
    PeOut {
        ops,
        put_h: Vec::new(),
        put_g: Vec::new(),
        extra: pe.read_raw(pe.addr_of(data, me), BCAST_LEN),
        ctr: 0,
    }
}

fn wl_serve_get(pe: &mut Pe, _seed: u64, trial: u64) -> PeOut {
    let me = pe.my_pe();
    let gsrc = pe.shmalloc(1 << 20, Domain::Gpu);
    let hsrc = pe.shmalloc(256 << 10, Domain::Host);
    if me == 1 {
        pe.write_raw(pe.addr_of(gsrc, me), &vec![pat_get(trial, 1, 1, 0); 1 << 20]);
        pe.write_raw(pe.addr_of(hsrc, me), &vec![pat_get(trial, 1, 0, 0); 256 << 10]);
    }
    let mut ops = Vec::new();
    bar(pe, "init", &mut ops);
    if me == 0 {
        let dst = pe.malloc_host(1 << 20);
        // proxy-serviced (>= proxy_get_min), host-staged, and small-GDR
        // gets in one trial
        for (name, sym, dom, len) in [
            ("get-proxy", gsrc, 1u8, 768u64 << 10),
            ("get-host", hsrc, 0, 128 << 10),
            ("get-gdr", gsrc, 1, 64 << 10),
        ] {
            let res = pe.try_getmem(dst, sym, len, 1);
            let mut out = classify(&res);
            if out == Outcome::Ok {
                let want = pat_get(trial, 1, dom, 0);
                let got = pe.read_raw(dst, len);
                if !got.iter().all(|&b| b == want) {
                    out = Outcome::Mismatch;
                }
            }
            ops.push(rec(me, format!("{name} len{len}"), None, None, false, out));
        }
    }
    bar(pe, "fini", &mut ops);
    PeOut { ops, put_h: Vec::new(), put_g: Vec::new(), extra: Vec::new(), ctr: 0 }
}

// ---------- trial runner + oracles ----------

/// Fully specifies one trial; two runs of the same spec must produce
/// byte-identical [`TrialResult::report`]s.
#[derive(Clone, Copy, Debug)]
pub struct TrialSpec {
    pub campaign_seed: u64,
    pub trial: u64,
    pub workload: Workload,
    pub plan: FaultPlan,
    /// The fixture's deliberately re-introduced bug: treat any partial
    /// delivery as an invariant violation (`no-partial-delivery`).
    pub strict_no_partial: bool,
    /// The crash fixture's deliberately re-introduced bug: an app tier
    /// that treats any typed `PeerDead` as fatal (`no-peer-dead`).
    pub strict_no_peer_dead: bool,
    /// The partition fixture's deliberately re-introduced bug: an app
    /// tier that treats any typed `Partitioned` as fatal
    /// (`no-partitioned`).
    pub strict_no_partitioned: bool,
}

/// One trial's outcome: the deterministic report (replay identity) and
/// any oracle violations.
pub struct TrialResult {
    pub report: String,
    /// (oracle, detail) pairs, in oracle-registry order.
    pub violations: Vec<(String, String)>,
    pub fault_counters: BTreeMap<(String, String), u64>,
}

/// Run one workload under one plan in virtual time and evaluate every
/// oracle. Pure in `spec`: no wall-clock, no global state.
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    let TrialSpec {
        campaign_seed,
        trial,
        workload,
        plan,
        strict_no_partial,
        strict_no_peer_dead,
        strict_no_partitioned,
    } = *spec;
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_quiesce_ns(QUIESCE_NS)
            // counters feed the counter-consistency oracle and the
            // campaign summary; keep spans off (trials are many)
            .with_obs(obs::ObsLevel::Counters);
        let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
        // a crash with a detectable rejoin (outage longer than the
        // detection bound) gets a lifecycle epilogue: the survivor waits
        // out the outage and probes the rejoined peer, driving the full
        // evict → rejoin → HalfOpen-probe → promote path inside campaign
        // trials (crash-free plans take the historic trajectory exactly)
        let rejoin_crash = plan
            .crashes()
            .iter()
            .copied()
            .find(|c| c.rejoin_ns != 0 && c.rejoin_ns > c.at_ns + shmem_gdr::DETECT_BOUND_NS);
        // a fence-worthy split gets the analogous lifecycle epilogue:
        // once the heal instant passes, every PE probes across the
        // former split in both directions — the heal-convergence oracle
        // flags any probe that still surfaces a typed Partitioned
        // (partition-free plans take the historic trajectory exactly)
        let heal_split = if plan.n_partitions > 0 {
            shmem_gdr::Membership::new(&plan, 2).split_schedules().first().copied()
        } else {
            None
        };
        let outs = m.run(move |pe| {
            let probe_sym = rejoin_crash.map(|_| pe.shmalloc(64, Domain::Host));
            let heal_sym = heal_split.map(|_| pe.shmalloc(64, Domain::Host));
            let mut out = match workload {
                Workload::RmaRandom => wl_rma_random(pe, campaign_seed, trial),
                Workload::PipelineDd => wl_pipeline_dd(pe, campaign_seed, trial),
                Workload::Collectives => wl_collectives(pe, campaign_seed, trial),
                Workload::ServeGet => wl_serve_get(pe, campaign_seed, trial),
            };
            if let (Some(c), Some(sym)) = (rejoin_crash, probe_sym) {
                let me = pe.my_pe();
                if me != c.pe as usize {
                    let now_ns = pe.now().0 / sim_core::PS_PER_NS;
                    if now_ns <= c.rejoin_ns {
                        pe.compute(shmem_gdr::SimDuration::from_ns(c.rejoin_ns - now_ns + 1));
                    }
                    let src = pe.malloc_host(64);
                    let res = pe.try_putmem(sym, src, 64, c.pe as usize);
                    out.ops.push(rec(me, "rejoin-probe len64".into(), None, None, false, classify(&res)));
                }
            }
            if let (Some(s), Some(sym)) = (heal_split, heal_sym) {
                let me = pe.my_pe();
                let now_ns = pe.now().0 / sim_core::PS_PER_NS;
                if now_ns <= s.heal_ns {
                    pe.compute(shmem_gdr::SimDuration::from_ns(s.heal_ns - now_ns + 1));
                }
                let src = pe.malloc_host(64);
                let res = pe.try_putmem(sym, src, 64, 1 - me);
                out.ops.push(rec(me, "heal-probe len64".into(), None, None, false, classify(&res)));
            }
            out
        });
        (m, outs)
    }));

    let mut violations: Vec<(String, String)> = Vec::new();
    let mut report = format!("trial {trial} workload={} plan=\"{plan}\"\n", workload.name());
    let mut fault_counters = BTreeMap::new();

    let (m, outs) = match run {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            // keep only the first line: engine dumps embed task lists
            let msg = msg.lines().next().unwrap_or("").to_string();
            violations.push(("no-hang".into(), format!("trial panicked: {msg}")));
            report.push_str(&format!("  PANIC: {msg}\n"));
            return TrialResult { report, violations, fault_counters };
        }
    };

    // ---- deterministic trial report ----
    for out in &outs {
        for op in &out.ops {
            report.push_str(&format!("  pe{} {}: {}\n", op.pe, op.desc, op.outcome.label()));
        }
    }
    let now_ns = m.sim().now().0 / sim_core::PS_PER_NS;
    report.push_str(&format!("  final-now-ns={now_ns}\n"));
    for out in &outs {
        let hash = mem_hash(&[&out.put_h, &out.put_g, &out.extra]);
        report.push_str(&format!("  mem-hash={hash:#018x} ctr={}\n", out.ctr));
    }
    for ((what, proto), n) in m.obs().fault_counters() {
        report.push_str(&format!("  counter {what}/{proto}={n}\n"));
        *fault_counters.entry((what.to_string(), proto.to_string())).or_insert(0) += n;
    }

    // ---- oracles ----
    // Sync failures relax the byte oracle (cross-PE ordering is gone) —
    // except typed PeerDead and Partitioned, whose membership semantics
    // keep the other side deterministic (crash trials lean on this for
    // survivor memory; partition trials lean on it because every op a
    // fence rejects fails *before* posting, so both sides' snapshots
    // stay checkable even though the fenced side's sync ops failed).
    let relaxed = outs.iter().flat_map(|o| &o.ops).any(|op| {
        op.sync
            && op.outcome != Outcome::Ok
            && !matches!(op.outcome, Outcome::PeerDead { .. } | Outcome::Partitioned { .. })
    });

    // breaker-recovery: one cooldown past the end of the run, nothing
    // may still be demoted
    let probe_ns = now_ns.max(GEN_HORIZON_NS) + plan.health_cooldown_ns + 1;
    let demoted = m.demoted_protocols_at(probe_ns);
    if !demoted.is_empty() {
        let list: Vec<String> = demoted
            .iter()
            .map(|(n, p)| format!("node{n}/{}", p.name()))
            .collect();
        violations.push((
            "breaker-recovery".into(),
            format!(
                "still demoted at t={probe_ns}: {} ({})",
                list.join(", "),
                m.breaker_states().join("; ")
            ),
        ));
    }

    // staging-leak: every credit returned after quiesce
    for pe in 0..2u32 {
        let in_use = m.staging_in_use(ProcId(pe));
        if in_use != 0 {
            violations.push((
                "staging-leak".into(),
                format!("pe{pe} still holds {in_use} staging bytes after quiesce"),
            ));
        }
    }

    // counter-consistency
    let c = |what: &str, proto: &str| *fault_counters.get(&(what.into(), proto.into())).unwrap_or(&0);
    let protos: std::collections::BTreeSet<String> =
        fault_counters.keys().map(|(_, p)| p.clone()).collect();
    for p in &protos {
        let retried = c("retried", p) + c("chunk-retried", p);
        if c("recovered", p) > retried {
            violations.push((
                "counter-consistency".into(),
                format!("{p}: recovered {} > retried {retried}", c("recovered", p)),
            ));
        }
        if c("recovered", p) > 0 && c("injected", p) == 0 {
            violations.push((
                "counter-consistency".into(),
                format!("{p}: recoveries without injected faults"),
            ));
        }
        if c("promote", p) > c("demote", p) {
            violations.push((
                "counter-consistency".into(),
                format!("{p}: promote {} > demote {}", c("promote", p), c("demote", p)),
            ));
        }
    }

    // byte-correctness (success-masked reference); on crash trials the
    // same checks run under the survivor-bytes oracle name against the
    // survivors' memory only — a detectably-crashed PE's own snapshot
    // is don't-care (it may have died mid-receive, and fail-stop makes
    // no promises about a dead process's address space)
    let byte_oracle_name = if plan.n_crashes > 0 { "survivor-bytes" } else { "byte-correctness" };
    let dead_pes: u64 = if plan.n_crashes > 0 {
        let ms = shmem_gdr::Membership::new(&plan, 2);
        (0..2u32).filter(|&pe| ms.detect_ns(pe).is_some()).map(|pe| 1u64 << pe).sum()
    } else {
        0
    };
    if !relaxed {
        byte_oracle(&outs, workload, trial, byte_oracle_name, dead_pes, &mut violations);
    } else {
        report.push_str("  byte-oracle: relaxed (sync op failed)\n");
    }

    // view-convergence: all survivor-side PeerDead observations of one
    // PE must carry the same eviction epoch, and it must match the
    // membership schedule; a transparent blip must surface nothing.
    // (Self-reports are skipped: a dead PE's own failures legitimately
    // carry the epoch at issue time, not its eviction epoch.)
    if plan.n_crashes > 0 {
        let ms = shmem_gdr::Membership::new(&plan, 2);
        let mut observed: BTreeMap<u32, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for out in &outs {
            for op in &out.ops {
                if let Outcome::PeerDead { pe, epoch } = op.outcome {
                    if op.pe as u32 != pe {
                        observed.entry(pe).or_default().insert(epoch);
                    }
                }
            }
        }
        for (pe, epochs) in &observed {
            match ms.eviction_epoch(*pe) {
                None => violations.push((
                    "view-convergence".into(),
                    format!("pe{pe}: PeerDead observed for an undetectable crash (blip)"),
                )),
                Some(expect) => {
                    if epochs.len() > 1 || !epochs.contains(&expect) {
                        violations.push((
                            "view-convergence".into(),
                            format!("pe{pe}: observed epochs {epochs:?}, schedule says {expect}"),
                        ));
                    }
                }
            }
        }
    }

    // split-brain / quorum-progress / heal-convergence: every typed
    // Partitioned observation must match a compiled fence schedule and
    // name a minority-side PE (blip-only and cut-only plans surface
    // none); a majority-side PE must never observe *itself* fenced; and
    // the post-heal probes must not still be fenced.
    if plan.n_partitions > 0 {
        let ms = shmem_gdr::Membership::new(&plan, 2);
        let scheds = ms.split_schedules();
        for out in &outs {
            for op in &out.ops {
                let Outcome::Partitioned { pe, epoch } = op.outcome else { continue };
                let Some(s) = scheds.iter().find(|s| s.fence_epoch == epoch) else {
                    violations.push((
                        "split-brain".into(),
                        format!(
                            "pe{} {}: partitioned(pe{pe}@e{epoch}) matches no fence schedule",
                            op.pe, op.desc
                        ),
                    ));
                    continue;
                };
                if s.minority & (1u64 << pe) == 0 {
                    violations.push((
                        "split-brain".into(),
                        format!(
                            "pe{} {}: partitioned names pe{pe}, not on the minority side \
                             (mask {:#b})",
                            op.pe, op.desc, s.minority
                        ),
                    ));
                    if op.pe as u32 == pe {
                        violations.push((
                            "quorum-progress".into(),
                            format!(
                                "pe{}: majority-side PE observed itself fenced at e{epoch}",
                                op.pe
                            ),
                        ));
                    }
                }
                if op.desc.starts_with("heal-probe") {
                    violations.push((
                        "heal-convergence".into(),
                        format!(
                            "pe{} heal-probe still fenced after the heal instant \
                             (partitioned(pe{pe}@e{epoch}))",
                            op.pe
                        ),
                    ));
                }
            }
        }
    }

    if strict_no_partial {
        for out in &outs {
            for op in &out.ops {
                if let Outcome::Partial { delivered, total } = op.outcome {
                    violations.push((
                        "no-partial-delivery".into(),
                        format!("pe{} {} delivered only {delivered} of {total}", op.pe, op.desc),
                    ));
                }
            }
        }
    }

    if strict_no_peer_dead {
        for out in &outs {
            for op in &out.ops {
                if let Outcome::PeerDead { pe, epoch } = op.outcome {
                    violations.push((
                        "no-peer-dead".into(),
                        format!("pe{} {}: peer-dead(pe{pe}@e{epoch})", op.pe, op.desc),
                    ));
                }
            }
        }
    }

    if strict_no_partitioned {
        for out in &outs {
            for op in &out.ops {
                if let Outcome::Partitioned { pe, epoch } = op.outcome {
                    violations.push((
                        "no-partitioned".into(),
                        format!("pe{} {}: partitioned(pe{pe}@e{epoch})", op.pe, op.desc),
                    ));
                }
            }
        }
    }

    TrialResult { report, violations, fault_counters }
}

/// The success-masked byte reference for each workload. Reported under
/// `oracle` — `byte-correctness` normally, `survivor-bytes` on crash
/// trials (same checks, restricted to survivor-visible memory:
/// `dead_pes` is the bitmask of detectably-crashed PEs, whose own
/// memory snapshots are excluded from every check).
fn byte_oracle(
    outs: &[PeOut],
    workload: Workload,
    trial: u64,
    oracle: &str,
    dead_pes: u64,
    violations: &mut Vec<(String, String)>,
) {
    let mut fail = |detail: String| violations.push((oracle.to_string(), detail));
    // inline get mismatches are violations for every workload
    for out in outs {
        for op in &out.ops {
            if op.outcome == Outcome::Mismatch {
                fail(format!("pe{} {}: readback mismatch", op.pe, op.desc));
            }
        }
    }
    let fence_severed = |out: &PeOut| {
        out.ops.iter().any(|o| o.sync && matches!(o.outcome, Outcome::Partitioned { .. }))
    };
    match workload {
        Workload::RmaRandom => {
            // A quorum fence mid-trial severs the fini barrier as a sync
            // point, as it does for pipeline-dd below: the fenced side's
            // barrier fails typed `Partitioned` and the majority side's
            // re-forms without it, so a target snapshots before the
            // writer's pre-fence `ok` puts have landed. Like a dead
            // writer's, those completion claims are then uncheckable;
            // the zero-fill bound and the counter check stay.
            let sync_lost = outs.iter().any(fence_severed);
            for target in 0..2usize {
                if dead_pes & (1 << target) != 0 {
                    continue;
                }
                let writer = 1 - target;
                // a dead writer's completion claims lost their
                // synchronization point (the survivor snapshots without
                // barriering with it), so only the zero-fill bound
                // below stays checkable against this target
                let writer_dead = dead_pes & (1 << writer) != 0;
                for dom in 0..2u8 {
                    let bytes = if dom == 0 { &outs[target].put_h } else { &outs[target].put_g };
                    for cell in 0..CELLS {
                        let mut ok_len = 0u64;
                        let mut unc_len = 0u64;
                        for op in &outs[writer].ops {
                            let Some(cr) = op.cell else { continue };
                            if cr.dom != dom || cr.cell != cell {
                                continue;
                            }
                            match op.outcome {
                                Outcome::Ok => ok_len = ok_len.max(cr.len),
                                ref o if o.uncertain() => unc_len = unc_len.max(cr.len),
                                _ => {}
                            }
                        }
                        let pat = pat_put(trial, writer, dom, cell);
                        let base = (cell * CELL) as usize;
                        let slice = &bytes[base..base + CELL as usize];
                        if !writer_dead
                            && !sync_lost
                            && slice[..ok_len as usize].iter().any(|&b| b != pat)
                        {
                            fail(format!(
                                "pe{target} dom{dom} cell{cell}: delivered prefix ({ok_len}B) \
                                 corrupted (want {pat:#04x})"
                            ));
                        }
                        let zero_from = ok_len.max(unc_len) as usize;
                        if slice[zero_from..].iter().any(|&b| b != 0) {
                            fail(format!(
                                "pe{target} dom{dom} cell{cell}: bytes past {zero_from} written \
                                 by no successful op"
                            ));
                        }
                    }
                }
            }
            // atomic counter: sum of successful adds, unless any add is
            // uncertain (a timed-out add may still land)
            let mut sum = 0u64;
            let mut uncertain = false;
            for out in outs {
                for op in &out.ops {
                    let Some(v) = op.add else { continue };
                    match op.outcome {
                        Outcome::Ok => sum += v,
                        ref o if o.uncertain() => uncertain = true,
                        _ => {}
                    }
                }
            }
            if !uncertain && dead_pes == 0 && outs[1].ctr != sum {
                fail(format!("atomic counter: have {} want {sum}", outs[1].ctr));
            }
        }
        Workload::PipelineDd => {
            if dead_pes & 0b10 != 0 {
                // the receiver fail-stopped: its snapshot is don't-care
                return;
            }
            // a dead sender's Ok/Partial claims lost their sync point
            // (the survivor snapshots before the in-flight tail lands);
            // chunk atomicity stays checkable either way. A quorum
            // fence mid-trial severs the same sync point: the
            // receiver's fini barrier fails typed `Partitioned`, so it
            // snapshots before the pre-fence tail lands
            let sender_dead = dead_pes & 0b01 != 0;
            let sync_lost = fence_severed(&outs[1]);
            let bytes = &outs[1].extra;
            let op = outs[0].ops.iter().find(|o| o.cell.is_none() && !o.sync);
            let Some(op) = op else { return };
            let mut delivered_bytes = 0u64;
            for (i, chunk) in bytes.chunks(PIPE_CHUNK as usize).enumerate() {
                let pat = pat_chunk(trial, i as u64);
                let full = chunk.iter().all(|&b| b == pat);
                let empty = chunk.iter().all(|&b| b == 0);
                if full {
                    delivered_bytes += chunk.len() as u64;
                }
                if !full && !empty {
                    fail(format!("chunk {i}: torn (neither all-{pat:#04x} nor all-zero)"));
                }
                if !sender_dead && !sync_lost && op.outcome == Outcome::Ok && !full {
                    fail(format!("chunk {i}: op reported ok but chunk not delivered"));
                }
            }
            if let Outcome::Partial { delivered, total } = op.outcome {
                if !sender_dead && !sync_lost && (delivered != delivered_bytes || total != PIPE_LEN)
                {
                    fail(format!(
                        "partial accounting: typed {delivered}/{total}, \
                         memory shows {delivered_bytes}/{PIPE_LEN}"
                    ));
                }
            }
        }
        Workload::Collectives => {
            // every PE whose broadcast reported Ok must hold the root's
            // payload (on crash trials a PE with a typed PeerDead
            // broadcast is don't-care: it was dead or evicted)
            let pat = pat_bcast(trial);
            for (pe, out) in outs.iter().enumerate() {
                if dead_pes & (1 << pe) != 0 {
                    continue;
                }
                let bcast_ok = out
                    .ops
                    .iter()
                    .any(|o| o.desc.starts_with("bcast") && o.outcome == Outcome::Ok);
                if bcast_ok && out.extra.iter().any(|&b| b != pat) {
                    fail(format!("pe{pe}: broadcast payload wrong (want {pat:#04x})"));
                }
            }
        }
        Workload::ServeGet => {} // inline mismatch checks only
    }
}

// ---------- campaign ----------

/// A violation plus the context needed to shrink it.
pub struct CampaignFailure {
    /// The campaign seed is part of the failure's identity — it feeds
    /// the workload's op mix.
    pub campaign_seed: u64,
    pub trial: u64,
    pub workload: Workload,
    pub plan: FaultPlan,
    pub oracle: String,
    pub detail: String,
}

/// Which generator stream a campaign draws each trial's plan from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CampaignMode {
    /// [`FaultPlan::generate`] — the historic fault dimensions only.
    Base,
    /// [`FaultPlan::generate_with_crashes`] — adds the `crash=`
    /// dimension (fail-stop + rejoin).
    Crash,
    /// [`FaultPlan::generate_with_partitions`] — adds the `partition=`
    /// dimension (quorum-fenced splits and asymmetric cuts), exercising
    /// the split-brain, quorum-progress, and heal-convergence oracles.
    Partition,
}

/// Run `trials` trials under `campaign_seed`. Byte-identical summaries
/// across runs of the same seed; `violations: 0` is the CI gate.
pub fn run_campaign(campaign_seed: u64, trials: u64) -> (CampaignSummary, Vec<CampaignFailure>) {
    run_campaign_with(campaign_seed, trials, false)
}

/// [`run_campaign`] with the crash dimension switchable: `crash = true`
/// draws each trial's plan from [`FaultPlan::generate_with_crashes`]
/// (roughly every third trial fail-stops a PE mid-run and rejoins it
/// before the generation horizon), exercising the survivor-bytes and
/// view-convergence oracles. The crash draws ride on fresh generator
/// streams, so `crash = false` campaigns keep their historic
/// byte-identical trajectories.
pub fn run_campaign_with(
    campaign_seed: u64,
    trials: u64,
    crash: bool,
) -> (CampaignSummary, Vec<CampaignFailure>) {
    run_campaign_mode(campaign_seed, trials, if crash { CampaignMode::Crash } else { CampaignMode::Base })
}

/// [`run_campaign`] over an explicit generator stream. Each mode's
/// extra draws ride on fresh generator salts, so every mode keeps its
/// own byte-identical trajectory and `Base` keeps the historic one.
pub fn run_campaign_mode(
    campaign_seed: u64,
    trials: u64,
    mode: CampaignMode,
) -> (CampaignSummary, Vec<CampaignFailure>) {
    let _quiet = QuietPanics::arm();
    let mut summary = CampaignSummary {
        campaign_seed,
        trials,
        oracles: ORACLES.iter().map(|s| s.to_string()).collect(),
        ..Default::default()
    };
    let mut failures = Vec::new();
    for trial in 0..trials {
        let plan = match mode {
            CampaignMode::Base => FaultPlan::generate(campaign_seed, trial),
            CampaignMode::Crash => FaultPlan::generate_with_crashes(campaign_seed, trial),
            CampaignMode::Partition => FaultPlan::generate_with_partitions(campaign_seed, trial),
        };
        let workload = Workload::pick(campaign_seed, trial);
        let spec = TrialSpec {
            campaign_seed,
            trial,
            workload,
            plan,
            strict_no_partial: false,
            strict_no_peer_dead: false,
            strict_no_partitioned: false,
        };
        let res = run_trial(&spec);
        *summary.workloads.entry(workload.name().to_string()).or_insert(0) += 1;
        for (k, n) in &res.fault_counters {
            *summary.fault_counters.entry(k.clone()).or_insert(0) += n;
        }
        let mut violations = res.violations;
        // replay-determinism spot check: every 16th trial runs twice
        if trial % 16 == 0 {
            let again = run_trial(&spec);
            if again.report != res.report {
                violations.push((
                    "replay-determinism".into(),
                    "re-running the trial produced a different report".into(),
                ));
            }
        }
        for (oracle, detail) in violations {
            summary.violations.push(CampaignViolation {
                trial,
                oracle: oracle.clone(),
                plan: plan.to_string(),
                detail: detail.clone(),
            });
            failures.push(CampaignFailure { campaign_seed, trial, workload, plan, oracle, detail });
        }
    }
    (summary, failures)
}

/// Suppress panic backtraces while trials intentionally catch engine
/// panics; restores the previous hook on drop.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    fn arm() -> QuietPanics {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

// ---------- shrinking ----------

fn drop_link(p: &FaultPlan, i: usize) -> FaultPlan {
    let mut q = *p;
    let n = q.n_link_windows as usize;
    for j in i..n - 1 {
        q.link_windows[j] = q.link_windows[j + 1];
    }
    q.n_link_windows -= 1;
    q.link_windows[q.n_link_windows as usize] = Default::default();
    q
}

fn drop_stall(p: &FaultPlan, i: usize) -> FaultPlan {
    let mut q = *p;
    let n = q.n_proxy_stalls as usize;
    for j in i..n - 1 {
        q.proxy_stalls[j] = q.proxy_stalls[j + 1];
    }
    q.n_proxy_stalls -= 1;
    q.proxy_stalls[q.n_proxy_stalls as usize] = Default::default();
    q
}

fn drop_burst(p: &FaultPlan, i: usize) -> FaultPlan {
    let mut q = *p;
    let n = q.n_burst_windows as usize;
    for j in i..n - 1 {
        q.burst_windows[j] = q.burst_windows[j + 1];
    }
    q.n_burst_windows -= 1;
    q.burst_windows[q.n_burst_windows as usize] = Default::default();
    q
}

fn drop_crash(p: &FaultPlan, i: usize) -> FaultPlan {
    let mut q = *p;
    let n = q.n_crashes as usize;
    for j in i..n - 1 {
        q.crashes[j] = q.crashes[j + 1];
    }
    q.n_crashes -= 1;
    q.crashes[q.n_crashes as usize] = Default::default();
    q
}

fn drop_partition(p: &FaultPlan, i: usize) -> FaultPlan {
    let mut q = *p;
    let n = q.n_partitions as usize;
    for j in i..n - 1 {
        q.partitions[j] = q.partitions[j + 1];
    }
    q.n_partitions -= 1;
    q.partitions[q.n_partitions as usize] = Default::default();
    q
}

/// Simplification candidates of `p`, most aggressive first, in a fixed
/// deterministic order.
fn candidates(p: &FaultPlan) -> Vec<FaultPlan> {
    let d = FaultPlan::default();
    let mut out = Vec::new();
    for i in 0..p.n_link_windows as usize {
        out.push(drop_link(p, i));
    }
    for i in 0..p.n_proxy_stalls as usize {
        out.push(drop_stall(p, i));
    }
    for i in 0..p.n_burst_windows as usize {
        out.push(drop_burst(p, i));
    }
    for i in 0..p.n_crashes as usize {
        out.push(drop_crash(p, i));
    }
    for i in 0..p.n_partitions as usize {
        out.push(drop_partition(p, i));
    }
    if p.cqe_permille > 0 {
        let mut q = *p;
        q.cqe_permille = 0;
        out.push(q);
        if p.cqe_permille >= 2 {
            let mut q = *p;
            q.cqe_permille = p.cqe_permille / 2;
            out.push(q);
        }
    }
    if p.late_permille > 0 {
        let mut q = *p;
        q.late_permille = 0;
        q.late_extra_ns = d.late_extra_ns;
        out.push(q);
        if p.late_permille >= 2 {
            let mut q = *p;
            q.late_permille = p.late_permille / 2;
            out.push(q);
        }
    }
    for bit in 0..64 {
        if p.gdr_disabled_nodes & (1 << bit) != 0 {
            let mut q = *p;
            q.gdr_disabled_nodes &= !(1 << bit);
            out.push(q);
        }
    }
    if p.op_timeout_ns != 0 {
        let mut q = *p;
        q.op_timeout_ns = 0;
        out.push(q);
    }
    if (p.max_retries, p.backoff_base_ns, p.backoff_cap_ns)
        != (d.max_retries, d.backoff_base_ns, d.backoff_cap_ns)
    {
        let mut q = *p;
        q.max_retries = d.max_retries;
        q.backoff_base_ns = d.backoff_base_ns;
        q.backoff_cap_ns = d.backoff_cap_ns;
        out.push(q);
    }
    if p.cqe_detect_ns != d.cqe_detect_ns {
        let mut q = *p;
        q.cqe_detect_ns = d.cqe_detect_ns;
        out.push(q);
    }
    if (p.health_window_ns, p.health_threshold, p.health_cooldown_ns)
        != (d.health_window_ns, d.health_threshold, d.health_cooldown_ns)
    {
        let mut q = *p;
        q.health_window_ns = d.health_window_ns;
        q.health_threshold = d.health_threshold;
        q.health_cooldown_ns = d.health_cooldown_ns;
        out.push(q);
    }
    out
}

/// Greedy delta-debugging: repeatedly adopt the first candidate
/// simplification that still reproduces `oracle` on the same
/// `(workload, trial)`, until none does. Deterministic: candidate order
/// is fixed and every probe run is a pure virtual-time replay. Returns
/// the minimal plan (every remaining element is load-bearing).
pub fn shrink(failure: &CampaignFailure, strict_no_partial: bool) -> (FaultPlan, u64) {
    let _quiet = QuietPanics::arm();
    // re-arm the app-tier strictness that surfaced the target oracle so
    // every probe replay can reproduce it
    let strict_no_peer_dead = failure.oracle == "no-peer-dead";
    let strict_no_partitioned = failure.oracle == "no-partitioned";
    let reproduces = |plan: FaultPlan| {
        let spec = TrialSpec {
            campaign_seed: failure.campaign_seed,
            trial: failure.trial,
            workload: failure.workload,
            plan,
            strict_no_partial,
            strict_no_peer_dead,
            strict_no_partitioned,
        };
        run_trial(&spec).violations.iter().any(|(o, _)| *o == failure.oracle)
    };
    let mut plan = failure.plan;
    let mut probes = 0u64;
    'outer: loop {
        for cand in candidates(&plan) {
            probes += 1;
            if reproduces(cand) {
                plan = cand;
                continue 'outer;
            }
        }
        return (plan, probes);
    }
}

// ---------- fixture (the deliberately re-introduced bug) ----------

/// Campaign seed of the fixture run (feeds the workload op mix).
pub const FIXTURE_SEED: u64 = 99;

/// The known-bad plan: heavy chunk-post CQE stream with a retry budget
/// of one — deterministically produces a partial delivery on the
/// pipelined D-D put, which the fixture's strict `no-partial-delivery`
/// oracle (the modeled re-introduced bug) reports as a violation.
pub fn fixture_plan() -> FaultPlan {
    // the violation needs only cqe=450 + retries=1; everything else is
    // deliberate noise the shrinker must strip to reach the minimal repro
    FaultPlan::default()
        .with_seed(1)
        .with_cqe_errors(450)
        .with_retry(1, 2_000, 64_000)
        .with_late_completions(80, 15_000)
        .with_link_window(LinkWindow {
            scope: LinkScope::HcaTx,
            index: 0,
            start_ns: 400_000,
            end_ns: 900_000,
            bw_permille: 500,
        })
        .with_proxy_stall(ProxyStall {
            node: 1,
            start_ns: 1_000_000,
            end_ns: 1_200_000,
            extra_ns: 30_000,
        })
        .with_burst_window(600_000, 700_000)
        .with_health(120_000, 3, 250_000)
}

/// Run the fixture: report the violation and shrink it to the minimal
/// repro. Returns `None` if the fixture plan no longer violates (the
/// "bug" is gone — CI fails loudly on that, the fixture must stay bad).
pub fn run_fixture() -> Option<(CampaignFailure, FaultPlan, u64)> {
    let spec = TrialSpec {
        campaign_seed: FIXTURE_SEED,
        trial: 0,
        workload: Workload::PipelineDd,
        plan: fixture_plan(),
        strict_no_partial: true,
        strict_no_peer_dead: false,
        strict_no_partitioned: false,
    };
    let res = {
        let _quiet = QuietPanics::arm();
        run_trial(&spec)
    };
    let (oracle, detail) =
        res.violations.iter().find(|(o, _)| o == "no-partial-delivery")?.clone();
    let failure = CampaignFailure {
        campaign_seed: FIXTURE_SEED,
        trial: 0,
        workload: Workload::PipelineDd,
        plan: fixture_plan(),
        oracle,
        detail,
    };
    let (minimal, probes) = shrink(&failure, true);
    Some((failure, minimal, probes))
}

/// The known-bad crash plan: PE 1 dies at 20 µs and rejoins at 1.2 ms,
/// buried under deliberate noise dimensions. Paired with an app tier
/// that treats any typed [`TransferError::PeerDead`] as fatal (the
/// modeled re-introduced bug, oracle `no-peer-dead`), the crash is the
/// only load-bearing dimension and the shrinker must strip the rest.
pub fn crash_fixture_plan() -> FaultPlan {
    FaultPlan::default()
        .with_seed(1)
        .with_crash(1, 20_000, 1_200_000)
        .with_late_completions(80, 15_000)
        .with_link_window(LinkWindow {
            scope: LinkScope::HcaTx,
            index: 0,
            start_ns: 400_000,
            end_ns: 900_000,
            bw_permille: 500,
        })
        .with_proxy_stall(ProxyStall {
            node: 1,
            start_ns: 1_000_000,
            end_ns: 1_200_000,
            extra_ns: 30_000,
        })
        .with_burst_window(600_000, 700_000)
        .with_health(120_000, 3, 250_000)
}

/// Run the crash fixture: surface the `no-peer-dead` violation (an app
/// tier with no fail-stop handling) and shrink it to the minimal
/// `crash=` repro. Returns `None` if the fixture no longer violates.
pub fn run_crash_fixture() -> Option<(CampaignFailure, FaultPlan, u64)> {
    let spec = TrialSpec {
        campaign_seed: FIXTURE_SEED,
        trial: 0,
        workload: Workload::RmaRandom,
        plan: crash_fixture_plan(),
        strict_no_partial: false,
        strict_no_peer_dead: true,
        strict_no_partitioned: false,
    };
    let res = {
        let _quiet = QuietPanics::arm();
        run_trial(&spec)
    };
    let (oracle, detail) = res.violations.iter().find(|(o, _)| o == "no-peer-dead")?.clone();
    let failure = CampaignFailure {
        campaign_seed: FIXTURE_SEED,
        trial: 0,
        workload: Workload::RmaRandom,
        plan: crash_fixture_plan(),
        oracle,
        detail,
    };
    let (minimal, probes) = shrink(&failure, false);
    Some((failure, minimal, probes))
}

/// The known-bad partition plan: a split that severs PE 1 from 20 µs
/// until 1.2 ms (fence at 170 µs once the detection bound elapses, heal
/// at 1.25 ms), buried under the same deliberate noise dimensions as
/// the crash fixture. Paired with an app tier that treats any typed
/// [`TransferError::Partitioned`] as fatal (the modeled re-introduced
/// bug, oracle `no-partitioned`), the split is the only load-bearing
/// dimension and the shrinker must strip the rest.
pub fn partition_fixture_plan() -> FaultPlan {
    FaultPlan::default()
        .with_seed(1)
        .with_partition_split(0b10, 20_000, 1_200_000)
        .with_late_completions(80, 15_000)
        .with_link_window(LinkWindow {
            scope: LinkScope::HcaTx,
            index: 0,
            start_ns: 400_000,
            end_ns: 900_000,
            bw_permille: 500,
        })
        .with_proxy_stall(ProxyStall {
            node: 1,
            start_ns: 1_000_000,
            end_ns: 1_200_000,
            extra_ns: 30_000,
        })
        .with_burst_window(600_000, 700_000)
        .with_health(120_000, 3, 250_000)
}

/// Run the partition fixture: surface the `no-partitioned` violation
/// (an app tier with no quorum-fence handling) and shrink it to the
/// minimal `partition=` repro. Returns `None` if the fixture no longer
/// violates.
pub fn run_partition_fixture() -> Option<(CampaignFailure, FaultPlan, u64)> {
    let spec = TrialSpec {
        campaign_seed: FIXTURE_SEED,
        trial: 0,
        workload: Workload::RmaRandom,
        plan: partition_fixture_plan(),
        strict_no_partial: false,
        strict_no_peer_dead: false,
        strict_no_partitioned: true,
    };
    let res = {
        let _quiet = QuietPanics::arm();
        run_trial(&spec)
    };
    let (oracle, detail) = res.violations.iter().find(|(o, _)| o == "no-partitioned")?.clone();
    let failure = CampaignFailure {
        campaign_seed: FIXTURE_SEED,
        trial: 0,
        workload: Workload::RmaRandom,
        plan: partition_fixture_plan(),
        oracle,
        detail,
    };
    let (minimal, probes) = shrink(&failure, false);
    Some((failure, minimal, probes))
}

/// Render a committed repro file: comment header + the minimal
/// `GDR_SHMEM_FAULTS` grammar as the final line (extract it with
/// `grep -v '^#'`).
pub fn render_repro(f: &CampaignFailure, minimal: &FaultPlan, probes: u64) -> String {
    format!(
        "# gdrchaos minimal repro (gdrchaos-repro-v1)\n\
         # oracle: {}\n\
         # workload: {}\n\
         # campaign-seed: {}\n\
         # trial: {}\n\
         # original: {}\n\
         # shrink-probes: {}\n\
         {}\n",
        f.oracle,
        f.workload.name(),
        f.campaign_seed,
        f.trial,
        f.plan,
        probes,
        minimal
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_hash_sees_every_byte_and_every_boundary() {
        let mut mem = vec![0u8; 4099]; // words and a three-byte tail
        let clean = mem_hash(&[&mem]);
        for at in [0, 7, 8, 2048, 4095, 4096, 4098] {
            mem[at] ^= 0x80;
            assert_ne!(mem_hash(&[&mem]), clean, "flip at {at} went unseen");
            mem[at] ^= 0x80;
        }
        assert_eq!(mem_hash(&[&mem]), clean);
        assert_ne!(mem_hash(&[b"ab", b"c"]), mem_hash(&[b"a", b"bc"]));
        assert_ne!(mem_hash(&[&mem[..8]]), mem_hash(&[&mem[..16]]));
    }

    #[test]
    fn workload_pick_is_pure_and_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("bogus"), None);
        for trial in 0..32 {
            assert_eq!(Workload::pick(7, trial), Workload::pick(7, trial));
        }
        // a short campaign must exercise every workload
        let picked: std::collections::BTreeSet<&str> =
            (0..16).map(|t| Workload::pick(7, t).name()).collect();
        assert_eq!(picked.len(), Workload::ALL.len());
    }

    #[test]
    fn run_trial_is_deterministic() {
        let spec = TrialSpec {
            campaign_seed: 5,
            trial: 3,
            workload: Workload::RmaRandom,
            plan: FaultPlan::generate(5, 3),
            strict_no_partial: false,
            strict_no_peer_dead: false,
            strict_no_partitioned: false,
        };
        let _quiet = QuietPanics::arm();
        let a = run_trial(&spec);
        let b = run_trial(&spec);
        assert_eq!(a.report, b.report);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.fault_counters, b.fault_counters);
    }

    #[test]
    fn short_campaign_is_clean_and_byte_identical() {
        let (s1, f1) = run_campaign(7, 24);
        let (s2, f2) = run_campaign(7, 24);
        assert_eq!(s1.render(), s2.render());
        assert!(f1.is_empty(), "violations: {:?}", s1.violations);
        assert!(f2.is_empty());
        assert_eq!(s1.trials, 24);
        // each trial ran some workload
        assert_eq!(s1.workloads.values().sum::<u64>(), 24);
    }

    #[test]
    fn fixture_violates_and_shrinks_to_core_plan() {
        let (failure, minimal, probes) = run_fixture().expect("fixture must violate");
        assert_eq!(failure.oracle, "no-partial-delivery");
        // every noise dimension stripped; the failure-carrying core remains
        assert_eq!(minimal.to_string(), "seed=1 cqe=450 retries=1");
        assert!(probes > 0);
        // the minimal plan round-trips through the grammar and still
        // reproduces the identical violation
        let replay = FaultPlan::parse(&minimal.to_string());
        assert_eq!(replay, minimal);
        let spec = TrialSpec {
            campaign_seed: failure.campaign_seed,
            trial: failure.trial,
            workload: failure.workload,
            plan: replay,
            strict_no_partial: true,
            strict_no_peer_dead: false,
            strict_no_partitioned: false,
        };
        let _quiet = QuietPanics::arm();
        let res = run_trial(&spec);
        assert!(res
            .violations
            .iter()
            .any(|(o, d)| o == "no-partial-delivery" && *d == failure.detail));
    }

    #[test]
    fn classify_maps_errors_to_outcomes() {
        assert_eq!(classify(&Ok(())), Outcome::Ok);
        assert_eq!(
            classify(&Err(TransferError::Timeout { after_ns: 5, diag: String::new() })),
            Outcome::Timeout
        );
        assert!(matches!(
            classify(&Err(TransferError::PartialDelivery { delivered: 3, total: 9 })),
            Outcome::Partial { delivered: 3, total: 9 }
        ));
        assert!(classify(&Err(TransferError::Timeout { after_ns: 1, diag: String::new() }))
            .uncertain());
        assert!(!Outcome::Ok.uncertain());
        // a fenced op is certain: no bytes landed, none can land later
        let fenced = classify(&Err(TransferError::Partitioned { pe: 1, epoch: 2 }));
        assert_eq!(fenced, Outcome::Partitioned { pe: 1, epoch: 2 });
        assert!(!fenced.uncertain());
        assert_eq!(fenced.label(), "partitioned(pe1@e2)");
    }

    #[test]
    fn partition_campaign_is_clean_and_byte_identical() {
        let (s1, f1) = run_campaign_mode(7, 24, CampaignMode::Partition);
        let (s2, f2) = run_campaign_mode(7, 24, CampaignMode::Partition);
        assert_eq!(s1.render(), s2.render());
        assert!(f1.is_empty(), "violations: {:?}", s1.violations);
        assert!(f2.is_empty());
        // the partition dimension actually fired somewhere in the window
        let armed = (0..24)
            .any(|t| FaultPlan::generate_with_partitions(7, t).n_partitions > 0);
        assert!(armed, "24 trials of seed 7 drew no partition at all");
    }

    #[test]
    fn partition_fixture_violates_and_shrinks_to_core_plan() {
        let (failure, minimal, probes) =
            run_partition_fixture().expect("partition fixture must violate");
        assert_eq!(failure.oracle, "no-partitioned");
        // every noise dimension stripped; the split is load-bearing
        assert_eq!(minimal.to_string(), "seed=1 partition=split:2:20000:1200000");
        assert!(probes > 0);
        let replay = FaultPlan::parse(&minimal.to_string());
        assert_eq!(replay, minimal);
        let spec = TrialSpec {
            campaign_seed: failure.campaign_seed,
            trial: failure.trial,
            workload: failure.workload,
            plan: replay,
            strict_no_partial: false,
            strict_no_peer_dead: false,
            strict_no_partitioned: true,
        };
        let res = {
            let _quiet = QuietPanics::arm();
            run_trial(&spec)
        };
        // shrinking guarantees the same *oracle* reproduces, not the
        // same first-op detail (stripping the noise dimensions changes
        // which op the fence rejects first)
        assert!(res.violations.iter().any(|(o, _)| o == "no-partitioned"));
    }

    /// The rma-random byte oracle over hand-built outputs: pe0's host
    /// put region and pe1's op list; everything else zero or empty.
    fn rma_violations(pe0_put_h: Vec<u8>, pe1_ops: Vec<OpRec>) -> Vec<(String, String)> {
        let zero = || vec![0u8; (CELL * CELLS) as usize];
        let out = |ops, put_h| PeOut { ops, put_h, put_g: zero(), extra: Vec::new(), ctr: 0 };
        let outs = [out(Vec::new(), pe0_put_h), out(pe1_ops, zero())];
        let mut violations = Vec::new();
        byte_oracle(&outs, Workload::RmaRandom, 70, "byte-correctness", 0, &mut violations);
        violations
    }

    fn fini_barrier(outcome: Outcome) -> OpRec {
        rec(1, "barrier-fini".into(), None, None, true, outcome)
    }

    const FENCED: Outcome = Outcome::Partitioned { pe: 1, epoch: 2 };

    #[test]
    fn rma_prefix_exemption_needs_a_partitioned_sync_op() {
        // pe1 reports an `ok` 512 B put that pe0's snapshot does not hold
        let zero = vec![0u8; (CELL * CELLS) as usize];
        let cell = Some(CellRef { dom: 0, cell: 3, len: 512 });
        let put = rec(1, "put-h cell3 len512".into(), cell, None, false, Outcome::Ok);
        // no fence: a violation
        let v = rma_violations(zero.clone(), vec![put.clone(), fini_barrier(Outcome::Ok)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].1.contains("pe0 dom0 cell3: delivered prefix (512B) corrupted"));
        // a fence-severed fini barrier: the snapshot may predate the
        // landing, so the prefix claim is exempt
        assert!(rma_violations(zero, vec![put, fini_barrier(FENCED)]).is_empty());
    }

    #[test]
    fn rma_zero_fill_bound_survives_the_fence_exemption() {
        // bytes no successful op can have written stay a violation
        let mut region = vec![0u8; (CELL * CELLS) as usize];
        region[5 * CELL as usize] = 0xee;
        let v = rma_violations(region, vec![fini_barrier(FENCED)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].1.contains("pe0 dom0 cell5: bytes past 0 written by no successful op"));
    }

    #[test]
    fn render_repro_ends_with_bare_grammar_line() {
        let f = CampaignFailure {
            campaign_seed: 99,
            trial: 0,
            workload: Workload::PipelineDd,
            plan: fixture_plan(),
            oracle: "no-partial-delivery".into(),
            detail: "x".into(),
        };
        let minimal = FaultPlan::default().with_seed(1).with_cqe_errors(450);
        let doc = render_repro(&f, &minimal, 13);
        let bare: Vec<&str> =
            doc.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(bare, vec![minimal.to_string().as_str()]);
        assert!(doc.starts_with("# gdrchaos minimal repro (gdrchaos-repro-v1)\n"));
    }
}
