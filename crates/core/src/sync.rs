//! Low-level synchronization plumbing over the per-PE sync area.
//!
//! The sync area (part of each PE's registered host span) holds the flag
//! cells used by the dissemination barrier, broadcast/reduce, and
//! `put_u64` scratch. Flag writes are real transfers: CPU stores through
//! the shared segment node-locally, 8-byte RDMA writes across nodes —
//! and under an armed fault plan they draw from a *dedicated* sync-flag
//! CQE stream ([`faults::SYNC_STREAM`]), so a lost flag write surfaces
//! as a typed [`TransferError`] on the `try_*` entry points instead of
//! a panic, and a flag that never arrives trips `sync_wait`'s
//! virtual-time timeout instead of spinning forever.

use crate::error::TransferError;
use crate::machine::ShmemMachine;
use crate::membership::PartitionOutcome;
use crate::pe::Cmp;
use crate::state::Protocol;
use pcie_sim::mem::{Arena, MemRef};
use pcie_sim::ProcId;
use sim_core::{Probe, SimDuration, SimTime, TaskCtx};
use std::sync::Arc;

/// Default `sync_wait` deadline under an active fault plan that sets no
/// per-op timeout: generous against late partners (whole-op retry
/// chains, proxy stalls), small against the simulation horizon. The
/// collectives replay their flags and re-wait on timeout, so this is a
/// detection latency, not a failure budget.
pub(crate) const SYNC_WAIT_TIMEOUT_NS: u64 = 2_000_000;

/// Sync-area layout (offsets within each PE's sync area).
pub mod cells {
    /// Dissemination-barrier round flags: 64 cells.
    pub const BARRIER: u64 = 0;
    /// Scratch cell backing `Pe::put_u64`.
    pub const SCRATCH: u64 = 512;
    /// Broadcast round flags: 64 cells.
    pub const BCAST: u64 = 1024;
    /// Per-source reduce arrival flags: `8 * npes` bytes.
    pub const REDUCE_FLAGS: u64 = 2048;
    /// Reduce data slots: `SLOT * npes` bytes.
    pub const REDUCE_DATA: u64 = 4096;
    /// Bytes per reduce data slot (max reduce payload per PE).
    pub const SLOT: u64 = 256;
    /// Per-source fcollect/alltoall arrival flags: `8 * npes` bytes.
    pub const COLL_FLAGS: u64 = 24 << 10;
    /// Mirror scratch area for flag writes (one cell per flag cell).
    pub const FLAG_SCRATCH: u64 = 32 << 10;
}

impl ShmemMachine {
    /// The scratch cell backing `put_u64` for `pe`.
    pub(crate) fn sync_scratch(&self, pe: ProcId) -> MemRef {
        self.layout().sync_base(pe).add(cells::SCRATCH)
    }

    /// Address of a sync cell on `pe`.
    pub(crate) fn sync_cell(&self, pe: ProcId, off: u64) -> MemRef {
        debug_assert!(off + 8 <= crate::layout::SYNC_AREA);
        self.layout().sync_base(pe).add(off)
    }

    /// Bounded-retry loop for sync-area RDMA posts, drawing from the
    /// dedicated sync-flag CQE stream so sync traffic faults like any
    /// other transfer without perturbing the RMA streams. Failures and
    /// successes feed the [`Protocol::HostRdma`] health breaker (the
    /// transport these 8-byte writes ride on). With an unarmed CQE
    /// stream this is exactly one `post()` call and mints no op token,
    /// so unfaulted runs keep byte-identical traces.
    fn sync_post_with_retry<T>(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        label: &'static str,
        mut post: impl FnMut() -> Result<T, ib_sim::MrError>,
    ) -> Result<T, TransferError> {
        let plan = self.cfg().faults;
        if !plan.cqe_armed() {
            return post().map_err(TransferError::Mr);
        }
        let token = self.next_op(me);
        let mut attempt: u32 = 0;
        loop {
            if let Some(f) = self.ib().inject_sync_cqe(me, ctx.now()) {
                self.obs_fault(me, ctx.now(), f.kind, label, token);
                self.health_on_failure(me, ctx.now(), Protocol::HostRdma, token);
                ctx.advance(f.detect);
                if attempt >= plan.max_retries {
                    self.obs().fault_tally_at("exhausted", label, ctx.now());
                    return Err(TransferError::RetriesExhausted {
                        kind: f.kind,
                        attempts: attempt + 1,
                    });
                }
                let backoff = plan.backoff_ns(token.id, attempt);
                self.obs_retry(me, ctx.now(), label, attempt + 1, backoff, token);
                ctx.advance(SimDuration::from_ns(backoff));
                attempt += 1;
                continue;
            }
            let out = post().map_err(TransferError::Mr)?;
            self.health_on_success(me, ctx.now(), Protocol::HostRdma, token);
            if attempt > 0 {
                self.obs().fault_tally_at("recovered", label, ctx.now());
            }
            return Ok(out);
        }
    }

    /// Write a u64 flag into `target`'s sync cell. A CPU store through
    /// the shared segment node-locally; an 8-byte RDMA write otherwise.
    /// Fire-and-forget: visibility at the modelled arrival time.
    ///
    /// Idempotent by design: flag cells carry monotonic generation
    /// counters and waiters use `>=` predicates, so a replayed write is
    /// harmless — the collectives lean on this for flag-loss recovery.
    pub(crate) fn try_sync_flag_put(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        target: ProcId,
        cell_off: u64,
        value: u64,
    ) -> Result<(), TransferError> {
        self.peer_gate(ctx, me, target)?;
        let dst = self.sync_cell(target, cell_off);
        let topo = self.cluster().topo();
        if topo.same_node(me, target) {
            // store forwarded through the coherence fabric
            ctx.advance(SimDuration::from_ns(120));
            self.cluster()
                .mem()
                .get(dst.space)
                .expect("sync segment")
                .write_u64(dst.offset, value)
                .expect("sync flag write");
        } else {
            // stage the value in my mirror scratch cell, RDMA it over
            let scratch = self.sync_cell(me, cells::FLAG_SCRATCH + cell_off);
            self.cluster()
                .mem()
                .get(scratch.space)
                .expect("sync segment")
                .write_u64(scratch.offset, value)
                .expect("sync scratch write");
            let rkey = self.layout().host_rkey(target);
            let comp = self.sync_post_with_retry(ctx, me, "sync-flag", || {
                self.ib().post_rdma_write(ctx, me, scratch, rkey, dst, 8)
            })?;
            // local completion is cheap to wait and keeps scratch reuse safe
            ctx.wait(&comp.local);
        }
        Ok(())
    }

    /// Copy `len` bytes from a registered local buffer into `target`'s
    /// sync area (reduce data slots). Replay-safe for the same reason
    /// as flag puts: a fixed destination slot, gated by a flag write.
    pub(crate) fn try_sync_data_put(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        target: ProcId,
        cell_off: u64,
        src: MemRef,
        len: u64,
    ) -> Result<(), TransferError> {
        self.peer_gate(ctx, me, target)?;
        let dst = self.sync_cell(target, cell_off);
        let topo = self.cluster().topo();
        if topo.same_node(me, target) {
            self.shm_copy(ctx, src, dst, len);
        } else {
            self.ensure_registered(ctx, me, src, len);
            let rkey = self.layout().host_rkey(target);
            let comp = self.sync_post_with_retry(ctx, me, "sync-data", || {
                self.ib().post_rdma_write(ctx, me, src, rkey, dst, len)
            })?;
            ctx.wait(&comp.local);
            self.pe_state(me).track(comp.remote);
        }
        Ok(())
    }

    /// Poll a local sync cell until it reaches `gen` (flag cells carry
    /// monotonic generation counters, so every waiter's test is `>=`),
    /// with exponential backoff (poll_interval up to 2us) so long waits
    /// stay cheap in event count while the timing error stays bounded.
    ///
    /// Under an active fault plan the poll is bounded by a virtual-time
    /// deadline (the plan's `op_timeout_ns`, or [`SYNC_WAIT_TIMEOUT_NS`]
    /// when unset) and returns [`TransferError::Timeout`] when the flag
    /// never arrives — a lost flag write becomes a typed error the
    /// collectives recover from by replaying, never a hang. Unfaulted
    /// runs keep the historic unbounded loop.
    ///
    /// `from` names the expected writer, making the wait fail-stop
    /// aware: when the writer's crash becomes detectable (lease expiry)
    /// and the flag still has not arrived, the wait fails over with
    /// [`TransferError::PeerDead`] at the eviction instant instead of
    /// burning the full sync timeout — this bounds collective
    /// view convergence by `DETECT_BOUND_NS`, not by the replay
    /// budget. A waiter whose own detectable crash arrives mid-wait
    /// fail-stops the same way; a transparent blip of either side just
    /// keeps polling (the flag can still arrive after the rejoin).
    ///
    /// The wait is partition-aware too: once a quorum fence separates
    /// the waiter from the expected writer (or fences the waiter itself
    /// onto the minority side), the missing flag cannot arrive until
    /// the heal, so the wait fails over with
    /// [`TransferError::Partitioned`] at the fence instant. A split
    /// too short to be detected is a blip here as well — the loop just
    /// keeps polling across it.
    pub(crate) fn try_sync_wait(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        from: ProcId,
        cell_off: u64,
        gen: u64,
    ) -> Result<(), TransferError> {
        let cell = self.sync_cell(me, cell_off);
        self.flag_wait(ctx, me, Some(from), cell, Cmp::Ge, gen, SimDuration::from_us(2))
    }

    /// Block `me` until the local u64 at `cell` compares `cmp value` —
    /// the wait under both [`Self::try_sync_wait`] (`from` names the
    /// expected writer, arming the fail-stop and partition exits) and
    /// `Pe::try_wait_until` (no writer known, flat `cap`). Pending
    /// target-side work is progressed at every resumption, and an active
    /// fault plan bounds the wait by the sync deadline.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn flag_wait(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        from: Option<ProcId>,
        cell: MemRef,
        cmp: Cmp,
        value: u64,
        cap: SimDuration,
    ) -> Result<(), TransferError> {
        let timeout_ns = if self.cfg().faults.active() {
            match self.cfg().faults.op_timeout_ns {
                0 => SYNC_WAIT_TIMEOUT_NS,
                t => t,
            }
        } else {
            0
        };
        let ms = self.membership();
        let peers = from.filter(|_| ms.armed());
        let wait = FlagWait {
            m: self.clone(),
            arena: self.cluster().mem().get(cell.space).expect("flag arena"),
            offset: cell.offset,
            cmp,
            value,
            me,
            from: peers,
            me_evicts: peers.is_some() && ms.detect_ns(me.0).is_some(),
            writer_evicts: peers.and_then(|w| ms.detect_ns(w.0)),
            timeout_ns,
            deadline: ctx.now().0 + timeout_ns * sim_core::PS_PER_NS,
        };
        poll_wait(
            ctx,
            self.poll_interval(),
            cap,
            || {
                let w = wait.clone();
                Box::new(move |now| w.has_pending() || w.outcome(now).is_some())
            },
            || {
                self.drain_pending(ctx, me);
                wait.outcome(ctx.now())
            },
        )
    }
}

/// The runtime's one blocking poll loop: run `body` (task context) until
/// it yields a value, sleeping between attempts on the doubling poll grid
/// `first, 2·first, … cap`. The task is only resumed at grid instants
/// where the probe holds ([`TaskCtx::poll_until`] evaluates it in event
/// context; `probe` builds one per sleep), so a probe must be free of
/// side effects, must not touch the engine, and must hold whenever
/// `body` would do anything but return `None` with nothing changed —
/// every skipped instant is then exactly a no-op iteration of the plain
/// `loop { body; advance }`.
pub(crate) fn poll_wait<T>(
    ctx: &TaskCtx,
    first: SimDuration,
    cap: SimDuration,
    probe: impl Fn() -> Probe,
    mut body: impl FnMut() -> Option<T>,
) -> T {
    let mut interval = first;
    loop {
        if let Some(v) = body() {
            return v;
        }
        interval = ctx.poll_until(interval, cap, probe());
    }
}

/// Exit conditions of a [`ShmemMachine::flag_wait`], as data: `outcome`
/// is the wait's test in task context and, with `has_pending`, its
/// in-place probe in event context — one expression for both.
#[derive(Clone)]
struct FlagWait {
    m: Arc<ShmemMachine>,
    arena: Arc<Arena>,
    offset: u64,
    cmp: Cmp,
    value: u64,
    me: ProcId,
    /// The expected writer, when one is named and membership is armed.
    from: Option<ProcId>,
    me_evicts: bool,
    writer_evicts: Option<u64>,
    /// Zero = unbounded.
    timeout_ns: u64,
    deadline: u64,
}

impl FlagWait {
    /// Target-side work queued for the waiter: it must resume to run it.
    fn has_pending(&self) -> bool {
        !self.m.pe_state(self.me).pending.lock().is_empty()
    }

    /// How the wait ends at `now`, if it does.
    fn outcome(&self, now: SimTime) -> Option<Result<(), TransferError>> {
        if self.cmp.eval(self.arena.read_u64(self.offset).expect("flag read"), self.value) {
            return Some(Ok(()));
        }
        let now_ns = now.0 / sim_core::PS_PER_NS;
        if let Some(from) = self.from {
            let ms = self.m.membership();
            let me = self.me;
            if self.me_evicts && ms.crashed(me.0, now_ns) {
                return Some(Err(TransferError::PeerDead {
                    pe: me.0,
                    epoch: ms.epoch_at(now_ns),
                }));
            }
            if let Some(detect) = self.writer_evicts {
                if now_ns >= detect && ms.crashed(from.0, now_ns) {
                    return Some(Err(TransferError::PeerDead {
                        pe: from.0,
                        epoch: ms
                            .eviction_epoch(from.0)
                            .expect("detectable crash has an eviction epoch"),
                    }));
                }
            }
            if let Some(PartitionOutcome::FailAt { at_ns, pe, epoch }) =
                ms.partition_outcome(me.0, from.0, now_ns)
            {
                if now_ns >= at_ns {
                    return Some(Err(TransferError::Partitioned { pe, epoch }));
                }
            }
        }
        if self.timeout_ns > 0 && now.0 >= self.deadline {
            return Some(Err(TransferError::Timeout {
                after_ns: self.timeout_ns,
                diag: String::new(),
            }));
        }
        None
    }
}
