//! Chunk-level fault recovery for event-context posts, and the one
//! per-op value every chunk of a chunked transfer shares.
//!
//! The chunked protocols (pipeline GDR write, host staging pipeline,
//! proxy puts/gets, serve-get replies) issue their RDMA posts inside
//! `Sched` callbacks — there is no `TaskCtx` to run
//! `post_with_retry`'s blocking draw → detect → backoff loop. This
//! module rebuilds the same sequence out of scheduled events:
//! `ShmemMachine::chunk_post_with_retry` draws from the seeded CQE
//! stream before firing a post closure, re-scheduling the attempt after
//! the plan's detect latency and backoff on a fault, and running a
//! failure closure once the retry budget is spent.
//!
//! `ChunkOp` is everything the chunks of one transfer share, built
//! once per op and handed to every chunk closure as one `Rc`: the
//! protocol and op token (fault draws, tallies, trace events), the
//! chunk-span track (when spans are recorded), the delivered/failed/armed
//! accounting that turns individual chunk failures into one typed
//! [`TransferError::PartialDelivery`], and the outcome completion the
//! op waits on. Its methods are the steps every chain shares — the
//! `chunk-<stage>` span, a chunk's success, a chunk's give-up, and the
//! op's closing wait and partial-delivery report — so each is written
//! once. It holds no machine reference (a serve-get request sits in a
//! PE's pending queue, which the machine owns); the methods that need
//! one borrow it.
//!
//! Recovery is whole-chunk and idempotent: a retried post re-sends the
//! complete chunk (the destination offset is fixed, so a replay lands
//! on the same bytes), and a chunk that exhausts its budget leaves no
//! bytes and no staging credits behind — every failure closure releases
//! the credits its chunk held and poisons the completions the op (and
//! `quiet`) would otherwise wait on forever.
//!
//! The pipeline GDR write keeps its own replay path
//! (`pipe_chunk_post` / `pipe_chunk_restage` in `pipeline.rs`) instead
//! of `ShmemMachine::chunk_post_with_retry`, on purpose: it frees the
//! chunk's staging credit at the fault rather than at give-up, it
//! re-stages the chunk from its GPU source before each replay (the
//! failed attempt's staged bytes are dead), and its faults never feed
//! the health breaker (whose demotion only ever re-routes direct GDR).
//! Merging the two paths would change all three, and with them every
//! faulted trace. It shares `ChunkOp` with the other routes all the
//! same.

use crate::error::TransferError;
use crate::machine::{OpToken, ShmemMachine};
use crate::state::Protocol;
use obs::{FaultEvent, Payload, TrackId};
use pcie_sim::ProcId;
use sim_core::{Completion, Sched, SimDuration, SimTime, TaskCtx};
use std::cell::Cell;
use std::rc::Rc;

/// The state one chunked transfer's chunks share (see the module doc).
///
/// `armed` is false when the fault plan cannot fault chunk posts
/// (`!cqe_armed()`: no per-post permille and no burst windows): then
/// no chunk is counted or given up, and the protocols take exactly
/// their pre-fault code paths, so an unfaulted run's trace is
/// byte-identical to one built without recovery.
pub(crate) struct ChunkOp {
    pub(crate) protocol: Protocol,
    pub(crate) token: OpToken,
    /// The PE whose op this is: a put's poster, a get's requester.
    pub(crate) origin: ProcId,
    /// Where chunk spans go; `None` when they are not recorded (spans
    /// off, or a route without chunk spans).
    track: Option<TrackId>,
    /// Total payload bytes of the transfer.
    total: u64,
    /// Chunks the transfer is cut into.
    chunks: u64,
    /// Bytes whose chunk resolved successfully.
    delivered: Cell<u64>,
    /// Chunks that exhausted their retry budget.
    failed: Cell<u64>,
    armed: bool,
    /// Whether [`Self::outcome`] counts every chunk: always for a get,
    /// whose requester waits for its data either way, but only under an
    /// armed plan for a put, whose unfaulted chunks resolve unwatched.
    counted: bool,
    /// Signalled once per resolved chunk (delivered or given up) while
    /// `counted`; the op's closing wait is on `chunks` signals.
    pub(crate) outcome: Completion,
    /// Whether this op already recorded its proxy agent's restart.
    pub(crate) restart_seen: Cell<bool>,
}

impl ChunkOp {
    /// A chunked put of `total` bytes by `origin` on `protocol`.
    pub(crate) fn put(
        m: &ShmemMachine,
        protocol: Protocol,
        origin: ProcId,
        token: OpToken,
        total: u64,
        track: Option<TrackId>,
    ) -> Rc<ChunkOp> {
        Self::new(m, protocol, origin, token, total, track, false)
    }

    /// A chunked get of `total` bytes into `origin` on `protocol`.
    pub(crate) fn get(
        m: &ShmemMachine,
        protocol: Protocol,
        origin: ProcId,
        token: OpToken,
        total: u64,
        track: Option<TrackId>,
    ) -> Rc<ChunkOp> {
        Self::new(m, protocol, origin, token, total, track, true)
    }

    fn new(
        m: &ShmemMachine,
        protocol: Protocol,
        origin: ProcId,
        token: OpToken,
        total: u64,
        track: Option<TrackId>,
        get: bool,
    ) -> Rc<ChunkOp> {
        let armed = m.cfg().faults.cqe_armed();
        Rc::new(ChunkOp {
            protocol,
            token,
            origin,
            track: track.filter(|_| m.obs().spans_on()),
            total,
            chunks: total.div_ceil(m.cfg().pipeline_chunk),
            delivered: Cell::new(0),
            failed: Cell::new(0),
            armed,
            counted: armed || get,
            outcome: Completion::new(),
            restart_seen: Cell::new(false),
        })
    }

    /// Whether chunk posts of this op draw from the fault stream.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.armed
    }

    /// Whether this op's chunk spans are recorded.
    #[inline]
    pub(crate) fn traced(&self) -> bool {
        self.track.is_some()
    }

    /// Record chunk `index`'s `name` stage (`chunk-d2h`, `chunk-rdma`,
    /// `chunk-wakeup`, `chunk-h2d`) over `[start, end)`, if this op's
    /// chunk spans are recorded.
    #[inline]
    pub(crate) fn span(
        &self,
        m: &ShmemMachine,
        name: &'static str,
        index: u64,
        size: u64,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(track) = self.track {
            m.obs().span(
                track,
                name,
                start,
                end,
                obs::Payload::Chunk {
                    protocol: self.protocol.name(),
                    stage: name.trim_start_matches("chunk-"),
                    index: index as u32,
                    size,
                    op_id: self.token.id,
                },
            );
        }
    }

    /// Record a proxy op's `proxy-request` instant (`kind` is `put` or
    /// `get`) at `now`, if its spans are recorded.
    pub(crate) fn proxy_request(&self, m: &ShmemMachine, kind: &'static str, now: SimTime) {
        if let Some(track) = self.track {
            m.obs().instant(
                track,
                "proxy-request",
                now,
                obs::Payload::Proxy {
                    kind,
                    size: self.total,
                    origin_pe: self.origin.0,
                },
            );
        }
    }

    /// One chunk of `len` bytes resolved successfully.
    #[inline]
    pub(crate) fn ok(&self, s: &mut Sched<'_>, len: u64) {
        if self.armed {
            self.delivered.set(self.delivered.get() + len);
        }
        if self.counted {
            s.signal(&self.outcome, 1);
        }
    }

    /// One chunk gave up after exhausting its retries: poison
    /// `tracked`, the completions its op and `quiet` would otherwise
    /// wait on forever (in order), then count it resolved.
    #[inline]
    pub(crate) fn give_up(&self, s: &mut Sched<'_>, tracked: &[&Completion]) {
        self.failed.set(self.failed.get() + 1);
        for c in tracked {
            s.signal(c, 1);
        }
        s.signal(&self.outcome, 1);
    }

    /// Tally one chunk that exhausted its retries at `now`.
    #[inline]
    pub(crate) fn exhausted(&self, m: &ShmemMachine, now: SimTime) {
        m.obs().fault_tally("exhausted", self.protocol.name(), now);
    }

    /// The op's epilogue: wait until every counted chunk resolved, then
    /// report a [`TransferError::PartialDelivery`] if any gave up.
    pub(crate) fn finish(&self, ctx: &TaskCtx, m: &ShmemMachine) -> Result<(), TransferError> {
        if self.counted {
            ctx.wait_threshold(&self.outcome, self.chunks);
        }
        if self.failed.get() == 0 {
            return Ok(());
        }
        let delivered = self.delivered.get();
        let (protocol, total, op_id) = (self.protocol.name(), self.total, self.token.id);
        let payload = Payload::PartialDelivery { protocol, delivered, total, op_id };
        m.fault_event(self.origin, ctx.now(), FaultEvent::PartialDelivery, payload);
        Err(TransferError::PartialDelivery {
            delivered,
            total: self.total,
        })
    }
}

/// One step of a chunk's chain: an event-context continuation that is
/// handed the machine and the chunk's op when it runs, so it captures
/// neither.
pub(crate) trait ChunkStep:
    FnOnce(&mut Sched<'_>, &Rc<ShmemMachine>, &Rc<ChunkOp>) + 'static
{
}

impl<F: FnOnce(&mut Sched<'_>, &Rc<ShmemMachine>, &Rc<ChunkOp>) + 'static> ChunkStep for F {}

impl ShmemMachine {
    /// Run step `f` of `op`'s chunk once `c` is signalled.
    #[inline]
    pub(crate) fn chunk_on(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        c: &Completion,
        op: &Rc<ChunkOp>,
        f: impl ChunkStep,
    ) {
        let m = self.clone();
        let op = op.clone();
        s.call_on(c, 1, Box::new(move |s| f(s, &m, &op)));
    }

    /// Run step `f` of `op`'s chunk after `delay`.
    #[inline]
    pub(crate) fn chunk_in(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        delay: SimDuration,
        op: &Rc<ChunkOp>,
        f: impl ChunkStep,
    ) {
        let m = self.clone();
        let op = op.clone();
        s.schedule_in(delay, Box::new(move |s| f(s, &m, &op)));
    }

    /// Event-context counterpart of `post_with_retry`: run `post` once
    /// the chunk's CQE draw comes up clean, retrying with the plan's
    /// detect latency and seeded backoff in between, or run `on_fail`
    /// (once, after the last detect latency) when the budget is spent.
    /// Every draw feeds `op`'s protocol's health breaker.
    ///
    /// `poster` selects the per-process fault stream — it must be the
    /// process whose HCA issues the post (the serving/proxying side for
    /// gets), matching what a task-context `post_with_retry` on that
    /// process would draw. With no plan or an unarmed CQE stream
    /// (`!cqe_armed()`) the draw short-circuits and `post` runs
    /// synchronously, preserving the exact unfaulted event order.
    pub(crate) fn chunk_post_with_retry(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        poster: ProcId,
        op: &Rc<ChunkOp>,
        post: impl ChunkStep,
        on_fail: impl ChunkStep,
    ) {
        self.chunk_attempt(s, poster, op, 0, post, on_fail);
    }

    fn chunk_attempt(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        poster: ProcId,
        op: &Rc<ChunkOp>,
        attempt: u32,
        post: impl ChunkStep,
        on_fail: impl ChunkStep,
    ) {
        if !op.armed() {
            post(s, self, op);
            return;
        }
        let Some(f) = self.ib().inject_transient_cqe(poster) else {
            self.health_on_success(poster, s.now(), op.protocol, op.token);
            if attempt > 0 {
                self.obs()
                    .fault_tally("chunk-recovered", op.protocol.name(), s.now());
            }
            post(s, self, op);
            return;
        };
        let (protocol, op_id) = (op.protocol.name(), op.token.id);
        let payload = Payload::Fault { kind: f.kind, protocol, op_id };
        self.fault_event(poster, s.now(), FaultEvent::Fault, payload);
        self.health_on_failure(poster, s.now(), op.protocol, op.token);
        let plan = self.cfg().faults;
        if attempt >= plan.max_retries {
            op.exhausted(self, s.now());
            // the failure is acted on once the CQE error is detected,
            // like the blocking loop's final advance
            self.chunk_in(s, f.detect, op, on_fail);
            return;
        }
        let backoff = plan.backoff_ns(op.token.id, attempt);
        self.chunk_in(s, f.detect, op, move |s, m, op| {
            let payload = Payload::Retry { protocol, attempt: attempt + 1, backoff_ns: backoff, op_id };
            m.fault_event(poster, s.now(), FaultEvent::ChunkRetry, payload);
            m.chunk_in(s, SimDuration::from_ns(backoff), op, move |s, m, op| {
                m.chunk_attempt(s, poster, op, attempt + 1, post, on_fail);
            });
        });
    }
}
