//! # chaos — deterministic chaos-campaign engine
//!
//! The chaos suite (`tests/chaos.rs`) hand-writes fault scenarios;
//! this crate *searches* the fault space. A campaign is a pure function of a
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
//! A trial handles its memory by page, not byte by byte. Its payloads
//! are constant runs, written with [`Pe::fill_raw`] (the whole pages of
//! a fill share one page); what the oracles check and the report hashes
//! is a [`Pe::snapshot`], a hold of the pages under the region as they
//! were when the PE finished, which later deliveries do not change. The
//! oracles read a snapshot run by run (`all`): a never-written run by
//! its length alone, a written page byte by byte, and a page shared by
//! consecutive slots once. The report's `mem-hash=` is [`mem_hash`] over
//! the snapshots, the same function of the bytes as over slices: one
//! digest per 4 KiB block, a never-written block a constant and a page
//! shared by consecutive slots digested once (its rustdoc states the
//! format).
//!
//! Any failing plan is handed to [`shrink`]: greedy delta-debugging
//! over a fixed candidate order (drop windows, halve/zero permilles,
//! clear capability-mask bits, reset scalars toward defaults) until no
//! candidate still reproduces the same oracle violation. The fixed
//! point is emitted as a `GDR_SHMEM_FAULTS` grammar line — the minimal
//! repro that `chaos_trace --plan` and `gdrchaos replay` re-execute
//! deterministically.
//!
//! The shrinker is held to committed goldens by [`FIXTURES`]: each row
//! is an app-tier oracle, a workload and a noisy plan in that same
//! grammar, and [`Fixture::run`] must surface the violation and shrink
//! it to the row's committed minimal repro.

use faults::{mix, Bounded, FaultPlan, GEN_HORIZON_NS};
use obs::FaultEvent;
use obs_analyze::{CampaignSummary, CampaignViolation};
use pcie_sim::{ClusterSpec, Held, ProcId, Run};
use shmem_gdr::{Design, Domain, Pe, RuntimeConfig, ShmemMachine, TransferError};
use std::collections::BTreeMap;

/// Cell granularity of the randomized-RMA workload.
const CELL: u64 = 32 << 10;
/// Cells per put/get region (each PE owns one region per domain).
const CELLS: u64 = 8;
/// Randomized ops per PE per trial.
const OPS: u64 = 8;
/// Pipelined-put transfer length (4 chunks at the tuned
/// `RuntimeConfig::pipeline_chunk`).
const PIPE_LEN: u64 = 2 << 20;
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

/// Everything one PE hands back from a trial: its ops, and snapshots
/// ([`Pe::snapshot`]) of the memory the oracles check and the report
/// hashes, taken when the PE finished its workload.
struct PeOut {
    ops: Vec<OpRec>,
    put_h: Held,
    put_g: Held,
    /// Workload-specific region (pipeline destination, broadcast data).
    /// Serve-get's requester holds what its three gets delivered in
    /// `put_h`, `put_g` and `extra`, in the order it issues them.
    extra: Held,
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

/// Memory [`mem_hash`] reads, part by part: a byte slice, or a
/// snapshot read run by run.
pub trait Part {
    /// Bytes in the part.
    fn size(&self) -> u64;
    /// Call `f` on the part's bytes, in order.
    fn runs<'a>(&'a self, f: impl FnMut(Run<'a>));
}

impl Part for [u8] {
    fn size(&self) -> u64 {
        self.len() as u64
    }
    fn runs<'a>(&'a self, mut f: impl FnMut(Run<'a>)) {
        f(Run::Bytes(self))
    }
}

impl Part for Held {
    fn size(&self) -> u64 {
        self.len()
    }
    fn runs<'a>(&'a self, f: impl FnMut(Run<'a>)) {
        Held::runs(self, 0, self.len(), f)
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Bytes per [`mem_hash`] block: one arena page, so a block of a
/// page-aligned snapshot is one held page.
const BLOCK: usize = 4096;
const _: () = assert!(BLOCK == pcie_sim::mem::PAGE);
/// The digest of a whole never-written block: a zero word turns `h` into
/// `h * P`, so 512 of them are one multiplication by `P^512`.
const ZERO_BLOCK: u64 = FNV_BASIS.wrapping_mul(FNV_PRIME.wrapping_pow((BLOCK / 8) as u32));
/// What a never-written run shorter than a block streams.
static ZEROS: [u8; BLOCK] = [0; BLOCK];

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// [`mem_hash`]'s state, borrowing the parts it reads for `'a`.
struct Digest<'a> {
    /// The hash so far: over the parts' lengths and finished blocks.
    h: u64,
    /// The current block's word-FNV over its first `fill` bytes, the
    /// last `fill % 8` of which wait in `word` (a run may end mid-word).
    block: u64,
    fill: usize,
    word: [u8; 8],
    /// The last whole block read as one slice, and its digest.
    memo: Option<(&'a [u8], u64)>,
}

impl<'a> Digest<'a> {
    fn bytes(&mut self, mut b: &'a [u8]) {
        while !b.is_empty() {
            if self.fill == 0 && b.len() >= BLOCK {
                let (whole, rest) = b.split_at(BLOCK);
                let d = match self.memo {
                    Some((seen, d)) if std::ptr::eq(seen, whole) => d,
                    _ => {
                        let d = words(FNV_BASIS, whole);
                        self.memo = Some((whole, d));
                        d
                    }
                };
                self.h = fnv(self.h, d);
                b = rest;
            } else {
                let (head, rest) = b.split_at((BLOCK - self.fill).min(b.len()));
                self.stream(head);
                b = rest;
            }
        }
    }

    fn zeros(&mut self, mut n: usize) {
        while n > 0 {
            let k = if self.fill == 0 && n >= BLOCK {
                self.h = fnv(self.h, ZERO_BLOCK);
                BLOCK
            } else {
                let k = (BLOCK - self.fill).min(n);
                self.stream(&ZEROS[..k]);
                k
            };
            n -= k;
        }
    }

    /// `b`, which fits in the current block, through the block's
    /// word-FNV; a block it fills ends.
    fn stream(&mut self, mut b: &[u8]) {
        let n = self.fill % 8;
        self.fill += b.len();
        if n > 0 {
            let k = (8 - n).min(b.len());
            self.word[n..n + k].copy_from_slice(&b[..k]);
            b = &b[k..];
            if n + k < 8 {
                return;
            }
            self.block = fnv(self.block, u64::from_le_bytes(self.word));
        }
        let tail = b.len() % 8;
        self.block = words(self.block, &b[..b.len() - tail]);
        self.word[..tail].copy_from_slice(&b[b.len() - tail..]);
        if self.fill == BLOCK {
            self.end_block();
        }
    }

    /// Fold the current block's tail bytes into its digest, and that
    /// into the hash.
    fn end_block(&mut self) {
        let tail = &self.word[..self.fill % 8];
        let block = tail.iter().fold(self.block, |h, &x| fnv(h, x as u64));
        self.h = fnv(self.h, block);
        (self.block, self.fill) = (FNV_BASIS, 0);
    }

    fn part(&mut self, part: &'a (impl Part + ?Sized)) {
        self.h = fnv(self.h, part.size());
        part.runs(|run| match run {
            Run::Zero(n) => self.zeros(n),
            Run::Bytes(b) => self.bytes(b),
        });
        if self.fill > 0 {
            self.end_block();
        }
    }
}

/// Word-FNV of `b`, whole words, from `h`.
fn words(h: u64, b: &[u8]) -> u64 {
    b.chunks_exact(8)
        .fold(h, |h, w| fnv(h, u64::from_le_bytes(w.try_into().expect("chunks of eight"))))
}

/// The digest of `parts`, in order, and the one place its format is
/// stated. FNV-1a from the offset basis over each part's length and then
/// one 64-bit digest per 4 KiB block of the part, counted from the
/// part's start; the last block may be partial. A block's digest is the
/// word-FNV of its bytes: from the offset basis, `h = (h ^ w) * P` for
/// each little-endian 8-byte word, then for each of a partial block's
/// 0-7 tail bytes. So a whole never-written block has one constant
/// digest.
///
/// A pure function of the bytes, the same in every process and whether a
/// part is a slice or a snapshot, at any offset. A whole block read as
/// the same slice as the block before it in this call (the same held
/// page, [`Held::runs`]) reuses that block's digest: a page shared by
/// many slots of a page-aligned snapshot is digested once. This is a
/// trial report's `mem-hash=` line and each line of the parity digest
/// (`tests/parity.rs`).
pub fn mem_hash<P: Part + ?Sized>(parts: &[&P]) -> u64 {
    let mut d = Digest { h: FNV_BASIS, block: FNV_BASIS, fill: 0, word: [0; 8], memo: None };
    for part in parts {
        d.part(*part);
    }
    d.h
}

/// Whether every byte of `bytes` is `b`. The oracles run this over
/// every written payload byte a trial snapshots; as a branch-free fold
/// it compiles to vector compares, where an early-exit loop ran one
/// branch per byte and its speed moved with its alignment in the binary.
fn all_bytes(bytes: &[u8], b: u8) -> bool {
    bytes.iter().fold(0, |acc, &x| acc | (x ^ b)) == 0
}

/// Whether every byte of `[off, off + len)` of `snap` is `b`: a
/// never-written run by its length alone, a written one by [`all_bytes`].
/// A written run with the address and length of the written run before
/// it is the same bytes of the same held page ([`Held::runs`]), its
/// answer already folded in: a filled page shared by many slots is read
/// once.
fn all(snap: &Held, off: u64, len: u64, b: u8) -> bool {
    let mut same = true;
    let mut last: &[u8] = &[];
    snap.runs(off, len, |run| match run {
        Run::Zero(_) => same &= b == 0,
        Run::Bytes(bytes) => {
            if !std::ptr::eq(bytes, last) {
                same &= all_bytes(bytes, b);
                last = bytes;
            }
        }
    });
    same
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
        pe.fill_raw(pe.addr_of(get_h, me).add(c * CELL), pat_get(trial, me, 0, c), CELL);
        pe.fill_raw(pe.addr_of(get_g, me).add(c * CELL), pat_get(trial, me, 1, c), CELL);
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
                let (src, dest, name) = if dom == 0 {
                    (src_h, put_h, "put-h")
                } else {
                    (src_g, put_g, "put-g")
                };
                pe.fill_raw(src, pat_put(trial, me, dom, cell), len);
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
                let want = pat_get(trial, peer, dom, cell);
                if out == Outcome::Ok && !all(&pe.snapshot(dst_h, len), 0, len, want) {
                    out = Outcome::Mismatch;
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
        put_h: pe.snapshot(pe.addr_of(put_h, me), CELL * CELLS),
        put_g: pe.snapshot(pe.addr_of(put_g, me), CELL * CELLS),
        extra: Held::default(),
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
        let chunk = pe.machine().cfg().pipeline_chunk;
        for (i, at) in (0..PIPE_LEN).step_by(chunk as usize).enumerate() {
            pe.fill_raw(dsrc.add(at), pat_chunk(trial, i as u64), chunk.min(PIPE_LEN - at));
        }
        let res = pe.try_putmem(ddest, dsrc, PIPE_LEN, 1);
        ops.push(rec(me, format!("pipe-put len{PIPE_LEN}"), None, None, false, classify(&res)));
        pe.quiet();
    }
    bar(pe, "fini", &mut ops);
    PeOut {
        ops,
        put_h: Held::default(),
        put_g: Held::default(),
        extra: if me == 1 {
            pe.snapshot(pe.addr_of(ddest, me), PIPE_LEN)
        } else {
            Held::default()
        },
        ctr: 0,
    }
}

fn wl_collectives(pe: &mut Pe, _seed: u64, trial: u64) -> PeOut {
    let me = pe.my_pe();
    let data = pe.shmalloc(BCAST_LEN, Domain::Host);
    if me == 0 {
        pe.fill_raw(pe.addr_of(data, me), pat_bcast(trial), BCAST_LEN);
    }
    let mut ops = Vec::new();
    bar(pe, "init", &mut ops);
    let out = classify(&pe.try_broadcast(data, BCAST_LEN, 0));
    ops.push(rec(me, format!("bcast len{BCAST_LEN}"), None, None, true, out));
    bar(pe, "fini", &mut ops);
    PeOut {
        ops,
        put_h: Held::default(),
        put_g: Held::default(),
        extra: pe.snapshot(pe.addr_of(data, me), BCAST_LEN),
        ctr: 0,
    }
}

fn wl_serve_get(pe: &mut Pe, _seed: u64, trial: u64) -> PeOut {
    let me = pe.my_pe();
    let gsrc = pe.shmalloc(1 << 20, Domain::Gpu);
    let hsrc = pe.shmalloc(256 << 10, Domain::Host);
    if me == 1 {
        pe.fill_raw(pe.addr_of(gsrc, me), pat_get(trial, 1, 1, 0), 1 << 20);
        pe.fill_raw(pe.addr_of(hsrc, me), pat_get(trial, 1, 0, 0), 256 << 10);
    }
    let mut ops = Vec::new();
    bar(pe, "init", &mut ops);
    // what each get delivered, for the report's hash; empty for a get
    // that failed
    let mut got: [Held; 3] = Default::default();
    if me == 0 {
        let dst = pe.malloc_host(1 << 20);
        // proxy-serviced (>= proxy_get_min), host-staged, and small-GDR
        // gets in one trial
        for (got, (name, sym, dom, len)) in got.iter_mut().zip([
            ("get-proxy", gsrc, 1u8, 768u64 << 10),
            ("get-host", hsrc, 0, 128 << 10),
            ("get-gdr", gsrc, 1, 64 << 10),
        ]) {
            let res = pe.try_getmem(dst, sym, len, 1);
            let mut out = classify(&res);
            if out == Outcome::Ok {
                *got = pe.snapshot(dst, len);
                if !all(got, 0, len, pat_get(trial, 1, dom, 0)) {
                    out = Outcome::Mismatch;
                }
            }
            ops.push(rec(me, format!("{name} len{len}"), None, None, false, out));
        }
    }
    bar(pe, "fini", &mut ops);
    let [put_h, put_g, extra] = got;
    PeOut { ops, put_h, put_g, extra, ctr: 0 }
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

impl TrialSpec {
    /// A campaign trial: the lenient app tier, no `strict_no_*` oracle
    /// armed.
    pub fn new(campaign_seed: u64, trial: u64, workload: Workload, plan: FaultPlan) -> TrialSpec {
        TrialSpec {
            campaign_seed,
            trial,
            workload,
            plan,
            strict_no_partial: false,
            strict_no_peer_dead: false,
            strict_no_partitioned: false,
        }
    }

    /// The same trial under the strict app tier whose oracle is
    /// `oracle` (one of the fixtures' `no-*` oracles); any other oracle
    /// name arms nothing.
    pub fn strict_for(self, oracle: &str) -> TrialSpec {
        TrialSpec {
            strict_no_partial: oracle == "no-partial-delivery",
            strict_no_peer_dead: oracle == "no-peer-dead",
            strict_no_partitioned: oracle == "no-partitioned",
            ..self
        }
    }
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
/// oracle. Pure in `spec`: no wall-clock, no global state, and no
/// `GDR_SHMEM_*` setting (the machine builds from
/// [`RuntimeConfig::builtin`]).
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
        let cfg = RuntimeConfig::builtin(Design::EnhancedGdr)
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
            .crashes
            .iter()
            .copied()
            .find(|c| c.rejoin_ns != 0 && c.rejoin_ns > c.at_ns + shmem_gdr::DETECT_BOUND_NS);
        // a fence-worthy split gets the analogous lifecycle epilogue:
        // once the heal instant passes, every PE probes across the
        // former split in both directions — the heal-convergence oracle
        // flags any probe that still surfaces a typed Partitioned
        // (partition-free plans take the historic trajectory exactly)
        let heal_split = m.membership().split_schedules().first().copied();
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
        let n = |event: FaultEvent| c(event.tally(), p);
        let retried = n(FaultEvent::Retry) + n(FaultEvent::ChunkRetry);
        if c("recovered", p) > retried {
            violations.push((
                "counter-consistency".into(),
                format!("{p}: recovered {} > retried {retried}", c("recovered", p)),
            ));
        }
        if c("recovered", p) > 0 && n(FaultEvent::Fault) == 0 {
            violations.push((
                "counter-consistency".into(),
                format!("{p}: recoveries without injected faults"),
            ));
        }
        let (promotes, demotes) = (n(FaultEvent::Promote), n(FaultEvent::Demote));
        if promotes > demotes {
            violations.push((
                "counter-consistency".into(),
                format!("{p}: promote {promotes} > demote {demotes}"),
            ));
        }
    }

    // byte-correctness (success-masked reference); on crash trials the
    // same checks run under the survivor-bytes oracle name against the
    // survivors' memory only — a detectably-crashed PE's own snapshot
    // is don't-care (it may have died mid-receive, and fail-stop makes
    // no promises about a dead process's address space)
    let crashes = !plan.crashes.is_empty();
    let byte_oracle_name = if crashes { "survivor-bytes" } else { "byte-correctness" };
    let ms = m.membership();
    let dead_pes: u64 =
        (0..2u32).filter(|&pe| ms.detect_ns(pe).is_some()).map(|pe| 1u64 << pe).sum();
    if !relaxed {
        let chunk = m.cfg().pipeline_chunk;
        byte_oracle(&outs, workload, trial, chunk, byte_oracle_name, dead_pes, &mut violations);
    } else {
        report.push_str("  byte-oracle: relaxed (sync op failed)\n");
    }

    // view-convergence: all survivor-side PeerDead observations of one
    // PE must carry the same eviction epoch, and it must match the
    // membership schedule; a transparent blip must surface nothing.
    // (Self-reports are skipped: a dead PE's own failures legitimately
    // carry the epoch at issue time, not its eviction epoch.)
    if crashes {
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
    if !plan.partitions.is_empty() {
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

    // the strict app tiers: the typed outcome an armed tier treats as fatal
    for op in outs.iter().flat_map(|o| &o.ops) {
        let (oracle, detail) = match op.outcome {
            Outcome::Partial { delivered, total } if strict_no_partial => {
                ("no-partial-delivery", format!(" delivered only {delivered} of {total}"))
            }
            Outcome::PeerDead { .. } if strict_no_peer_dead => {
                ("no-peer-dead", format!(": {}", op.outcome.label()))
            }
            Outcome::Partitioned { .. } if strict_no_partitioned => {
                ("no-partitioned", format!(": {}", op.outcome.label()))
            }
            _ => continue,
        };
        violations.push((oracle.into(), format!("pe{} {}{detail}", op.pe, op.desc)));
    }

    TrialResult { report, violations, fault_counters }
}

/// The success-masked byte reference for each workload. Reported under
/// `oracle` — `byte-correctness` normally, `survivor-bytes` on crash
/// trials (same checks, restricted to survivor-visible memory:
/// `dead_pes` is the bitmask of detectably-crashed PEs, whose own
/// memory snapshots are excluded from every check). A pipelined put
/// lands in whole chunks of the machine's `pipeline_chunk` bytes.
fn byte_oracle(
    outs: &[PeOut],
    workload: Workload,
    trial: u64,
    pipeline_chunk: u64,
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
                        let base = cell * CELL;
                        if !writer_dead && !sync_lost && !all(bytes, base, ok_len, pat) {
                            fail(format!(
                                "pe{target} dom{dom} cell{cell}: delivered prefix ({ok_len}B) \
                                 corrupted (want {pat:#04x})"
                            ));
                        }
                        let zero_from = ok_len.max(unc_len);
                        if !all(bytes, base + zero_from, CELL - zero_from, 0) {
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
            for (i, at) in (0..bytes.len()).step_by(pipeline_chunk as usize).enumerate() {
                let pat = pat_chunk(trial, i as u64);
                let len = pipeline_chunk.min(bytes.len() - at);
                let full = all(bytes, at, len, pat);
                let empty = !full && all(bytes, at, len, 0);
                if full {
                    delivered_bytes += len;
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
                if bcast_ok && !all(&out.extra, 0, out.extra.len(), pat) {
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

/// Run `trials` trials under `campaign_seed`, each drawing its plan from
/// `mode`'s generator stream. Byte-identical summaries across runs of
/// the same seed; `violations: 0` is the CI gate. Each mode's extra
/// draws ride fresh generator salts, so every mode keeps its own
/// trajectory and `Base` keeps the historic one.
pub fn run_campaign_mode(
    campaign_seed: u64,
    trials: u64,
    mode: CampaignMode,
) -> (CampaignSummary, Vec<CampaignFailure>) {
    run_campaign_with(campaign_seed, trials, mode, |_| {})
}

/// [`run_campaign_mode`], handing each trial's result to `each` in
/// trial order. The summary sums counters and carries no virtual time;
/// the reports carry each trial's final instant and memory hashes.
pub fn run_campaign_with(
    campaign_seed: u64,
    trials: u64,
    mode: CampaignMode,
    mut each: impl FnMut(&TrialResult),
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
        let spec = TrialSpec::new(campaign_seed, trial, workload, plan);
        let res = run_trial(&spec);
        each(&res);
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

/// Push onto `out` one copy of `p` per entry of the list `list` picks,
/// each with that entry removed.
fn drop_each<T: Copy + Default, const N: usize>(
    p: &FaultPlan,
    list: fn(&mut FaultPlan) -> &mut Bounded<T, N>,
    out: &mut Vec<FaultPlan>,
) {
    let mut q = *p;
    for i in 0..list(&mut q).len() {
        let mut q = *p;
        list(&mut q).remove(i);
        out.push(q);
    }
}

/// Simplification candidates of `p`, most aggressive first, in a fixed
/// deterministic order.
fn candidates(p: &FaultPlan) -> Vec<FaultPlan> {
    let d = FaultPlan::default();
    let mut out = Vec::new();
    drop_each(p, |q| &mut q.link_windows, &mut out);
    drop_each(p, |q| &mut q.proxy_stalls, &mut out);
    drop_each(p, |q| &mut q.burst_windows, &mut out);
    drop_each(p, |q| &mut q.crashes, &mut out);
    drop_each(p, |q| &mut q.partitions, &mut out);
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
/// simplification that still reproduces `failure.oracle` on the same
/// `(workload, trial)`, until none does. Every probe replays under the
/// app tier that oracle needs ([`TrialSpec::strict_for`]).
/// Deterministic: candidate order is fixed and every probe run is a
/// pure virtual-time replay. Returns the minimal plan (every remaining
/// element is load-bearing) and the number of probe runs.
pub fn shrink(failure: &CampaignFailure) -> (FaultPlan, u64) {
    let _quiet = QuietPanics::arm();
    let spec = TrialSpec::new(failure.campaign_seed, failure.trial, failure.workload, failure.plan)
        .strict_for(&failure.oracle);
    let reproduces = |plan: FaultPlan| {
        let res = run_trial(&TrialSpec { plan, ..spec });
        res.violations.iter().any(|(o, _)| *o == failure.oracle)
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

// ---------- fixtures (deliberately re-introduced bugs) ----------

/// Campaign seed of every fixture run (feeds the workload op mix).
pub const FIXTURE_SEED: u64 = 99;

/// A committed known-bad scenario: an app tier that treats one typed
/// outcome as fatal (the modeled re-introduced bug, reported as
/// `oracle`) runs `workload` under a plan whose one load-bearing
/// dimension produces that outcome, buried under noise dimensions the
/// shrinker must strip. `grammar` is the plan in `GDR_SHMEM_FAULTS`
/// form, exactly the `# original:` line of the fixture's committed
/// minimal-repro golden.
pub struct Fixture {
    pub oracle: &'static str,
    pub workload: Workload,
    pub grammar: &'static str,
}

/// The fixtures, one per [`CampaignMode`] ([`Fixture::of`], `gdrchaos
/// fixture [--crash | --partition]`): a heavy chunk-post CQE stream with a
/// retry budget of one makes the pipelined D-D put deliver partially;
/// PE 1 dies at 20 µs and rejoins at 1.2 ms; a split severs PE 1 from
/// 20 µs to 1.2 ms (fence at 170 µs, heal at 1.25 ms). Each shares the
/// same link, stall, burst, late-completion and health noise.
pub const FIXTURES: [Fixture; 3] = [
    Fixture {
        oracle: "no-partial-delivery",
        workload: Workload::PipelineDd,
        grammar: "seed=1 cqe=450 retries=1 late=80 late-extra=15000 \
                  link=hca:0:400000:900000:500 stall=1:1000000:1200000:30000 \
                  burst=600000:700000 health=120000:3:250000",
    },
    Fixture {
        oracle: "no-peer-dead",
        workload: Workload::RmaRandom,
        grammar: "seed=1 late=80 late-extra=15000 link=hca:0:400000:900000:500 \
                  stall=1:1000000:1200000:30000 burst=600000:700000 \
                  crash=1:20000:1200000 health=120000:3:250000",
    },
    Fixture {
        oracle: "no-partitioned",
        workload: Workload::RmaRandom,
        grammar: "seed=1 late=80 late-extra=15000 link=hca:0:400000:900000:500 \
                  stall=1:1000000:1200000:30000 burst=600000:700000 \
                  partition=split:2:20000:1200000 health=120000:3:250000",
    },
];

impl Fixture {
    /// The fixture `gdrchaos fixture` runs for `mode`.
    pub fn of(mode: CampaignMode) -> &'static Fixture {
        let [base, crash, partition] = &FIXTURES;
        match mode {
            CampaignMode::Base => base,
            CampaignMode::Crash => crash,
            CampaignMode::Partition => partition,
        }
    }

    /// Run the fixture trial, report its violation and shrink it to the
    /// minimal repro. `None` if the plan no longer violates: the "bug"
    /// is gone, which CI fails loudly on — a fixture must stay bad.
    pub fn run(&self) -> Option<(CampaignFailure, FaultPlan, u64)> {
        let plan = FaultPlan::parse(self.grammar);
        let spec = TrialSpec::new(FIXTURE_SEED, 0, self.workload, plan).strict_for(self.oracle);
        let res = {
            let _quiet = QuietPanics::arm();
            run_trial(&spec)
        };
        let (oracle, detail) = res.violations.into_iter().find(|(o, _)| o == self.oracle)?;
        let failure = CampaignFailure {
            campaign_seed: FIXTURE_SEED,
            trial: 0,
            workload: self.workload,
            plan,
            oracle,
            detail,
        };
        let (minimal, probes) = shrink(&failure);
        Some((failure, minimal, probes))
    }
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
        let clean = mem_hash(&[&mem[..]]);
        for at in [0, 7, 8, 2048, 4095, 4096, 4098] {
            mem[at] ^= 0x80;
            assert_ne!(mem_hash(&[&mem[..]]), clean, "flip at {at} went unseen");
            mem[at] ^= 0x80;
        }
        assert_eq!(mem_hash(&[&mem[..]]), clean);
        assert_ne!(mem_hash::<[u8]>(&[b"ab", b"c"]), mem_hash::<[u8]>(&[b"a", b"bc"]));
        assert_ne!(mem_hash(&[&mem[..8]]), mem_hash(&[&mem[..16]]));
    }

    /// The digest format, pinned to constants (computed apart from this
    /// code): a format drift fails here before it moves any golden.
    #[test]
    fn mem_hash_pins_the_block_format() {
        let pattern = |n: usize, s: usize| (0..n).map(|i| (i * 31 + s) as u8).collect::<Vec<u8>>();
        assert_eq!(mem_hash::<[u8]>(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(mem_hash::<[u8]>(&[&[]]), 0xaf63_bd4c_8601_b7df);
        assert_eq!(mem_hash(&[&[0u8; BLOCK][..]]), 0x562b_b6f9_aca0_ecce);
        let never_written = pcie_sim::MemoryMap::new();
        never_written.create(HOST, BLOCK);
        let held = never_written.hold(pcie_sim::MemRef::new(HOST, 0), BLOCK as u64).unwrap();
        assert_eq!(mem_hash(&[&held]), 0x562b_b6f9_aca0_ecce);
        assert_eq!(mem_hash(&[&[0x5Au8; BLOCK + 1][..]]), 0x5e80_a3a2_1d1e_adb2);
        let parts = [pattern(5, 7), pattern(4100, 1), pattern(8195, 3)];
        assert_eq!(mem_hash(&[&parts[0][..], &parts[1], &parts[2]]), 0x5609_a1cd_f0e0_18d8);
    }

    /// The block memo lives for one call and is keyed on where the bytes
    /// are: a page written copy-on-write between two snapshots of eight
    /// slots sharing it, and a slice written between two calls, hash anew.
    #[test]
    fn mem_hash_memo_never_outlives_its_bytes() {
        use pcie_sim::mem::PAGE;
        let (m, at) = (pcie_sim::MemoryMap::new(), pcie_sim::MemRef::new(HOST, 0));
        m.create(HOST, 8 * PAGE);
        m.fill_bytes(at, 0x5A, 8 * PAGE as u64).unwrap();
        let before = mem_hash(&[&m.hold(at, 8 * PAGE as u64).unwrap()]);
        assert_eq!(before, mem_hash(&[&[0x5Au8; 8 * PAGE][..]]));
        m.write_bytes(at.add(5 * PAGE as u64 + 9), &[0x5B]).unwrap();
        let after = mem_hash(&[&m.hold(at, 8 * PAGE as u64).unwrap()]);
        assert_eq!(after, mem_hash(&[&m.read_bytes(at, 8 * PAGE as u64).unwrap()[..]]));
        assert_ne!(after, before);

        let mut page = vec![0x5Au8; BLOCK];
        let before = mem_hash(&[&page[..]]);
        page[9] = 0x5B;
        assert_ne!(mem_hash(&[&page[..]]), before);
    }

    /// A snapshot read run by run hashes and compares as its bytes do.
    /// Seeded arenas mix never-written, shared (congruent copies), filled
    /// (zero and not) and written pages; ranges start at any byte, so
    /// words straddle page edges and runs start mid-word, and most end on
    /// a 1-7-byte tail; a third start on a page, so a page shared by
    /// consecutive slots is a run of consecutive whole blocks (the digest
    /// memo), where elsewhere it straddles two blocks. `mem_hash` of the
    /// snapshots must equal `mem_hash` of the bytes `read_bytes` reads
    /// there, part by part, and `all` over any sub-range must equal
    /// `all_bytes` over the same bytes.
    #[test]
    fn snapshot_runs_hash_and_compare_as_their_bytes() {
        use pcie_sim::mem::PAGE;
        use pcie_sim::{GpuId, MemRef, MemSpace, MemoryMap};
        const DEV: MemSpace = MemSpace::Device(GpuId(0));
        const SIZE: usize = 48 * PAGE;
        let mut draw = 0;
        let mut below = |seed: u64, n: usize| {
            draw += 1;
            (mix(seed, 0x534E_4150, draw) % n as u64) as usize
        };
        let (mut zero_mid_word, mut bytes_mid_word, mut tails) = (0, 0, [false; 8]);
        let (mut shared_on_block, mut shared_off_block) = (0, 0);
        for seed in 0..24 {
            let m = MemoryMap::new();
            m.create(HOST, SIZE);
            m.create(DEV, SIZE);
            let space = |i: usize| [HOST, DEV][i];
            for _ in 0..12 {
                let (sp, len) = (space(below(seed, 2)), below(seed, 6 * PAGE));
                let at = MemRef::new(sp, below(seed, SIZE - len) as u64);
                match below(seed, 4) {
                    0 => m.fill_bytes(at, [0, 0x5A, below(seed, 256) as u8][below(seed, 3)], len as u64),
                    1 => {
                        let bytes: Vec<u8> = (0..below(seed, 300)).map(|_| below(seed, 256) as u8).collect();
                        m.write_bytes(at, &bytes)
                    }
                    2 => {
                        let d = (below(seed, SIZE - len) & !(PAGE - 1)) + (at.offset as usize & (PAGE - 1));
                        let d = if d + len > SIZE { d - PAGE } else { d };
                        m.copy(at, MemRef::new(space(1 - (sp == DEV) as usize), d as u64), len as u64)
                    }
                    _ => Ok(()), // left never written
                }
                .unwrap();
            }
            for _ in 0..16 {
                let parts: Vec<(Held, Vec<u8>)> = (0..3)
                    .map(|_| {
                        let len = (below(seed, 5 * PAGE) & !7) + [0, below(seed, 8)][below(seed, 4).min(1)];
                        let mut at = below(seed, SIZE - len);
                        if below(seed, 3) == 0 {
                            at &= !(PAGE - 1);
                        }
                        let at = MemRef::new(space(below(seed, 2)), at as u64);
                        (m.hold(at, len as u64).unwrap(), m.read_bytes(at, len as u64).unwrap())
                    })
                    .collect();
                for (held, bytes) in &parts {
                    tails[bytes.len() % 8] = true;
                    let (mut pos, mut last): (_, &[u8]) = (0, &[]);
                    held.runs(0, held.len(), |run| {
                        let n = match run {
                            Run::Zero(n) => {
                                zero_mid_word += (pos % 8 != 0) as u32;
                                n
                            }
                            Run::Bytes(b) => {
                                bytes_mid_word += (pos % 8 != 0) as u32;
                                if b.len() == PAGE && std::ptr::eq(b, last) {
                                    if pos % PAGE == 0 {
                                        shared_on_block += 1;
                                    } else {
                                        shared_off_block += 1;
                                    }
                                }
                                last = b;
                                b.len()
                            }
                        };
                        pos += n;
                    });
                    assert_eq!(mem_hash(&[held]), mem_hash(&[&bytes[..]]), "seed {seed}");
                    let at = below(seed, bytes.len() + 1);
                    let n = below(seed, bytes.len() - at + 1);
                    let sub = &bytes[at..at + n];
                    for b in [0, 0x5A, sub.first().copied().unwrap_or(1)] {
                        assert_eq!(all(held, at as u64, n as u64, b), all_bytes(sub, b), "seed {seed}");
                    }
                }
                let held: Vec<&Held> = parts.iter().map(|(h, _)| h).collect();
                let bytes: Vec<&[u8]> = parts.iter().map(|(_, b)| &b[..]).collect();
                assert_eq!(mem_hash(&held), mem_hash(&bytes), "seed {seed}");
            }
        }
        assert!(zero_mid_word > 0 && bytes_mid_word > 0, "{zero_mid_word} {bytes_mid_word}");
        assert!(shared_on_block > 0 && shared_off_block > 0, "{shared_on_block} {shared_off_block}");
        assert!(tails.iter().all(|&t| t), "tails seen: {tails:?}");
    }

    #[test]
    fn all_bytes_sees_every_byte() {
        assert!(all_bytes(&[], 0x5a));
        let mut mem = vec![0x5au8; 4099];
        assert!(all_bytes(&mem, 0x5a));
        assert!(!all_bytes(&mem, 0));
        for at in [0, 7, 8, 2048, 4095, 4096, 4098] {
            mem[at] ^= 0x01;
            assert!(!all_bytes(&mem, 0x5a), "flip at {at} went unseen");
            mem[at] ^= 0x01;
        }
    }

    /// `all` skips a run of the page it just read, not one of the same
    /// length: a filled page shared by four slots, its copy-on-write twin
    /// one byte off in the third slot.
    #[test]
    fn all_reads_a_copy_on_write_twin_of_a_shared_page() {
        use pcie_sim::mem::PAGE;
        let (m, at) = (pcie_sim::MemoryMap::new(), pcie_sim::MemRef::new(HOST, 0));
        m.create(HOST, 4 * PAGE);
        m.fill_bytes(at, 0x5A, 4 * PAGE as u64).unwrap();
        m.write_bytes(at.add(2 * PAGE as u64 + 100), &[0x5B]).unwrap();
        let held = m.hold(at, 4 * PAGE as u64).unwrap();
        let mut pages = Vec::new();
        held.runs(0, held.len(), |run| match run {
            Run::Bytes(b) => pages.push(b.as_ptr()),
            Run::Zero(_) => panic!("every page was filled"),
        });
        assert!(pages[0] == pages[1] && pages[1] != pages[2] && pages[2] != pages[3]);
        assert!(all(&held, 0, 2 * PAGE as u64, 0x5A));
        assert!(!all(&held, 0, held.len(), 0x5A));
        assert!(!all(&held, PAGE as u64, 2 * PAGE as u64, 0x5A));
        assert!(all(&held, 3 * PAGE as u64, PAGE as u64, 0x5A));
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
        let spec = TrialSpec::new(5, 3, Workload::RmaRandom, FaultPlan::generate(5, 3));
        let _quiet = QuietPanics::arm();
        let a = run_trial(&spec);
        let b = run_trial(&spec);
        assert_eq!(a.report, b.report);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.fault_counters, b.fault_counters);
    }

    #[test]
    fn short_campaign_is_clean_and_byte_identical() {
        let (s1, f1) = run_campaign_mode(7, 24, CampaignMode::Base);
        let (s2, f2) = run_campaign_mode(7, 24, CampaignMode::Base);
        assert_eq!(s1.render(), s2.render());
        assert!(f1.is_empty(), "violations: {:?}", s1.violations);
        assert!(f2.is_empty());
        assert_eq!(s1.trials, 24);
        // each trial ran some workload
        assert_eq!(s1.workloads.values().sum::<u64>(), 24);
    }

    #[test]
    fn every_fixture_grammar_is_canonical() {
        // the grammar is the repro golden's `# original:` line, which is
        // the plan's Display form: the row must already be that form
        for f in &FIXTURES {
            assert_eq!(FaultPlan::parse(f.grammar).to_string(), f.grammar);
            assert!(f.oracle.starts_with("no-"), "{}: not an app-tier oracle", f.oracle);
        }
    }

    #[test]
    fn fixture_violates_and_shrinks_to_core_plan() {
        let fixture = Fixture::of(CampaignMode::Base);
        let (failure, minimal, probes) = fixture.run().expect("fixture must violate");
        assert_eq!(failure.oracle, "no-partial-delivery");
        // every noise dimension stripped; the failure-carrying core remains
        assert_eq!(minimal.to_string(), "seed=1 cqe=450 retries=1");
        assert!(probes > 0);
        // the minimal plan round-trips through the grammar and still
        // reproduces the identical violation
        let replay = FaultPlan::parse(&minimal.to_string());
        assert_eq!(replay, minimal);
        let spec = TrialSpec::new(failure.campaign_seed, failure.trial, failure.workload, replay)
            .strict_for(&failure.oracle);
        let _quiet = QuietPanics::arm();
        let res = run_trial(&spec);
        assert!(res
            .violations
            .iter()
            .any(|(o, d)| o == "no-partial-delivery" && *d == failure.detail));
    }

    #[test]
    fn partition_fixture_violates_and_shrinks_to_core_plan() {
        let fixture = Fixture::of(CampaignMode::Partition);
        let (failure, minimal, probes) = fixture.run().expect("partition fixture must violate");
        assert_eq!(failure.oracle, "no-partitioned");
        // every noise dimension stripped; the split is load-bearing
        assert_eq!(minimal.to_string(), "seed=1 partition=split:2:20000:1200000");
        assert!(probes > 0);
        let replay = FaultPlan::parse(&minimal.to_string());
        assert_eq!(replay, minimal);
        let spec = TrialSpec::new(failure.campaign_seed, failure.trial, failure.workload, replay)
            .strict_for(&failure.oracle);
        let res = {
            let _quiet = QuietPanics::arm();
            run_trial(&spec)
        };
        // shrinking guarantees the same *oracle* reproduces, not the
        // same first-op detail (stripping the noise dimensions changes
        // which op the fence rejects first)
        assert!(res.violations.iter().any(|(o, _)| o == "no-partitioned"));
    }

    #[test]
    fn fixture_of_each_mode_names_its_oracle() {
        let oracle = |mode| Fixture::of(mode).oracle;
        assert_eq!(oracle(CampaignMode::Base), "no-partial-delivery");
        assert_eq!(oracle(CampaignMode::Crash), "no-peer-dead");
        assert_eq!(oracle(CampaignMode::Partition), "no-partitioned");
    }

    #[test]
    fn strict_for_arms_exactly_the_named_oracle() {
        let spec = TrialSpec::new(1, 2, Workload::RmaRandom, FaultPlan::default());
        let arms = |oracle: &str| {
            let s = spec.strict_for(oracle);
            (s.strict_no_partial, s.strict_no_peer_dead, s.strict_no_partitioned)
        };
        assert_eq!(arms("no-partial-delivery"), (true, false, false));
        assert_eq!(arms("no-peer-dead"), (false, true, false));
        assert_eq!(arms("no-partitioned"), (false, false, true));
        for oracle in ORACLES {
            assert_eq!(arms(oracle), (false, false, false), "{oracle}");
        }
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
            .any(|t| !FaultPlan::generate_with_partitions(7, t).partitions.is_empty());
        assert!(armed, "24 trials of seed 7 drew no partition at all");
    }

    /// A snapshot of `bytes`, written into an arena of their length.
    fn snap(bytes: &[u8]) -> Held {
        let (m, at) = (pcie_sim::MemoryMap::new(), pcie_sim::MemRef::new(HOST, 0));
        m.create(HOST, bytes.len());
        m.write_bytes(at, bytes).unwrap();
        m.hold(at, bytes.len() as u64).unwrap()
    }

    const HOST: pcie_sim::MemSpace = pcie_sim::MemSpace::Host(ProcId(0));

    /// The rma-random byte oracle over hand-built outputs: pe0's host
    /// put region and pe1's op list; everything else zero or empty.
    fn rma_violations(pe0_put_h: Vec<u8>, pe1_ops: Vec<OpRec>) -> Vec<(String, String)> {
        let zero = || snap(&vec![0u8; (CELL * CELLS) as usize]);
        let out = |ops, put_h: Vec<u8>| PeOut {
            ops,
            put_h: snap(&put_h),
            put_g: zero(),
            extra: Held::default(),
            ctr: 0,
        };
        let outs = [out(Vec::new(), pe0_put_h), out(pe1_ops, vec![0u8; (CELL * CELLS) as usize])];
        let mut violations = Vec::new();
        let chunk = RuntimeConfig::builtin(Design::EnhancedGdr).pipeline_chunk;
        byte_oracle(&outs, Workload::RmaRandom, 70, chunk, "byte-correctness", 0, &mut violations);
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
            plan: FaultPlan::parse(FIXTURES[0].grammar),
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
