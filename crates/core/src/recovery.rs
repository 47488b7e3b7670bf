//! Chunk-level fault recovery for event-context posts.
//!
//! The chunked protocols (pipeline GDR write, host staging pipeline,
//! proxy puts/gets, serve-get replies) issue their RDMA posts inside
//! `Sched` callbacks — there is no `TaskCtx` to run
//! `post_with_retry`'s blocking draw → detect → backoff loop. This
//! module rebuilds the same sequence out of scheduled events:
//! [`ShmemMachine::chunk_post_with_retry`] draws from the seeded CQE
//! stream before firing a post closure, re-scheduling the attempt after
//! the plan's detect latency and backoff on a fault, and running a
//! failure closure once the retry budget is spent. [`ChunkRecovery`]
//! is the per-op bookkeeping that turns individual chunk failures into
//! one typed [`TransferError::PartialDelivery`] at the op level.
//!
//! Recovery is whole-chunk and idempotent: a retried post re-sends the
//! complete chunk (the destination offset is fixed, so a replay lands
//! on the same bytes), and a chunk that exhausts its budget leaves no
//! bytes and no staging credits behind — every failure closure releases
//! the credits its chunk held and poisons the completions the op (and
//! `quiet`) would otherwise wait on forever.

use crate::error::TransferError;
use crate::machine::{OpToken, ShmemMachine};
use crate::state::Protocol;
use pcie_sim::ProcId;
use sim_core::{Action, Sched, SimDuration};
use std::cell::Cell;
use std::rc::Rc;

/// Per-op outcome accounting for a chunked transfer, shared by the
/// task-side driver and the event-context chunk callbacks.
///
/// `armed` is false when the fault plan cannot fault chunk posts
/// (`!cqe_armed()`: no per-post permille and no burst windows): then
/// every method is a no-op and the protocols take exactly their
/// pre-fault code paths, so an unfaulted run's trace is byte-identical
/// to one built without recovery.
pub(crate) struct ChunkRecovery {
    /// Total payload bytes of the transfer.
    total: u64,
    /// Bytes whose chunk resolved successfully.
    delivered: Cell<u64>,
    /// Chunks that exhausted their retry budget.
    failed: Cell<u64>,
    armed: bool,
}

impl ChunkRecovery {
    pub(crate) fn new(total: u64, armed: bool) -> Rc<ChunkRecovery> {
        Rc::new(ChunkRecovery {
            total,
            delivered: Cell::new(0),
            failed: Cell::new(0),
            armed,
        })
    }

    /// Whether chunk posts of this op draw from the fault stream.
    pub(crate) fn armed(&self) -> bool {
        self.armed
    }

    /// Account one successfully resolved chunk of `len` bytes.
    pub(crate) fn chunk_ok(&self, len: u64) {
        if self.armed {
            self.delivered.set(self.delivered.get() + len);
        }
    }

    /// Account one chunk that gave up after exhausting its retries.
    pub(crate) fn chunk_failed(&self) {
        self.failed.set(self.failed.get() + 1);
    }

    pub(crate) fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// The typed partial-delivery outcome, if any chunk failed.
    pub(crate) fn partial_error(&self) -> Option<TransferError> {
        if self.failed.get() == 0 {
            return None;
        }
        Some(TransferError::PartialDelivery {
            delivered: self.delivered(),
            total: self.total,
        })
    }
}

impl ShmemMachine {
    /// Event-context counterpart of `post_with_retry`: run `post` once
    /// the chunk's CQE draw comes up clean, retrying with the plan's
    /// detect latency and seeded backoff in between, or run `on_fail`
    /// (once, after the last detect latency) when the budget is spent.
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
        protocol: Protocol,
        token: OpToken,
        post: Action,
        on_fail: Action,
    ) {
        self.chunk_attempt(s, poster, protocol, token, 0, post, on_fail);
    }

    #[allow(clippy::too_many_arguments)]
    fn chunk_attempt(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        poster: ProcId,
        protocol: Protocol,
        token: OpToken,
        attempt: u32,
        post: Action,
        on_fail: Action,
    ) {
        let plan = self.cfg().faults;
        if !plan.cqe_armed() {
            post(s);
            return;
        }
        match self.ib().inject_transient_cqe(poster) {
            None => {
                self.health_on_success(poster, s.now(), protocol, token);
                if attempt > 0 {
                    self.obs().fault_tally_at("chunk-recovered", protocol.name(), s.now());
                }
                post(s);
            }
            Some(f) => {
                self.obs_fault(poster, s.now(), f.kind, protocol.name(), token);
                self.health_on_failure(poster, s.now(), protocol, token);
                if attempt >= plan.max_retries {
                    self.obs().fault_tally_at("exhausted", protocol.name(), s.now());
                    // the failure is acted on once the CQE error is
                    // detected, like the blocking loop's final advance
                    s.schedule_in(f.detect, on_fail);
                } else {
                    let backoff = plan.backoff_ns(token.id, attempt);
                    let m = self.clone();
                    s.schedule_in(
                        f.detect,
                        Box::new(move |s| {
                            m.obs_chunk_retry(poster, s.now(), protocol.name(), attempt + 1, backoff, token);
                            let m2 = m.clone();
                            s.schedule_in(
                                SimDuration::from_ns(backoff),
                                Box::new(move |s| {
                                    m2.chunk_attempt(
                                        s,
                                        poster,
                                        protocol,
                                        token,
                                        attempt + 1,
                                        post,
                                        on_fail,
                                    );
                                }),
                            );
                        }),
                    );
                }
            }
        }
    }
}
