//! Chunked pipeline protocols and the node-proxy engine.
//!
//! These implement the large-message designs of paper §III-C:
//! **Pipeline GDR write** (D2H staging chunks + GDR RDMA writes, truly
//! one-sided), the **proxy-based** protocols (a node-level agent moves
//! data via IPC + RDMA on behalf of PEs, keeping the *target* PE out of
//! the loop), and the baseline **host-based pipeline** [15] whose final
//! copy needs the target process.
//!
//! Under a fault plan every chunk post draws from the seeded CQE
//! stream (see [`crate::recovery`]): chunks retry with backoff, a
//! chunk that exhausts its budget releases its staging credits and
//! poisons the completions the op tracks, and the op surfaces
//! [`TransferError::PartialDelivery`] naming exactly how many bytes
//! landed.

use crate::error::TransferError;
use crate::machine::{OpToken, ShmemMachine};
use crate::recovery::ChunkRecovery;
use crate::state::{Delivery, GetRequest, PendingWork, Protocol};
use ib_sim::RdmaCompletion;
use pcie_sim::mem::MemRef;
use pcie_sim::ProcId;
use sim_core::{Action, Completion, Sched, SimDuration, TaskCtx};
use std::cell::Cell;
use std::rc::Rc;

/// The retry-invariant identity of one pipeline-GDR chunk. Its staging
/// offset is deliberately *not* here: a replay releases the failed
/// attempt's credit and re-acquires a fresh (possibly different) slot,
/// re-staging from `src_c` — which is what makes chunk replay
/// idempotent instead of a use-after-free of recycled staging space.
#[derive(Clone, Copy)]
struct PipeChunk {
    me: ProcId,
    /// Device source of this chunk (replays re-stage from here).
    src_c: MemRef,
    dst_c: MemRef,
    rkey: ib_sim::Rkey,
    clen: u64,
    index: u32,
    token: OpToken,
    trace: bool,
    track: obs::TrackId,
}

impl ShmemMachine {
    /// Allocate from `pe`'s staging area, blocking (with virtual-time
    /// polling) until in-flight chunks free space — credit-based flow
    /// control. Panics if the request can never fit; returns a typed
    /// [`TransferError::Timeout`] if the area stays full for 500 ms of
    /// virtual time — a flow-control stall (in-flight chunks are not
    /// freeing; raise `RuntimeConfig::staging` if the workload is
    /// legitimate). The panicking `putmem`/`getmem` wrappers surface
    /// that timeout with their usual fail-loud unwrap.
    pub(crate) fn alloc_staging_blocking(
        self: &Rc<Self>,
        ctx: &TaskCtx,
        pe: ProcId,
        len: u64,
    ) -> Result<u64, TransferError> {
        const STALL_NS: u64 = 500_000_000;
        let cap = self.cfg().staging;
        assert!(
            len <= cap,
            "staging request of {len} bytes exceeds the {cap}-byte staging area; \
             raise RuntimeConfig::staging"
        );
        let stall_at = ctx.now() + SimDuration::from_ns(STALL_NS);
        let step = SimDuration::from_us(1);
        crate::sync::poll_wait(
            ctx,
            step,
            step,
            || {
                let m = self.clone();
                Box::new(move |now| {
                    now >= stall_at || m.pe_state(pe).staging_alloc.borrow().fits(len)
                })
            },
            || {
                if ctx.now() >= stall_at {
                    return Some(Err(TransferError::Timeout {
                        after_ns: STALL_NS,
                        diag: String::new(),
                    }));
                }
                self.pe_state(pe).staging_alloc.borrow_mut().alloc(len).ok().map(Ok)
            },
        )
    }

    /// Latency of the modelled software ack path (target → source, small
    /// control message over the wire).
    pub(crate) fn ack_latency(&self) -> SimDuration {
        let ib = &self.cluster().hw().ib;
        ib.post_overhead + ib.hca_wqe + ib.wire_latency + ib.switch_latency + ib.cq_delivery
    }

    /// Latency for a proxy-request signal to reach and wake the remote
    /// proxy (paper Fig. 5: source passes a signal to the remote proxy).
    pub(crate) fn proxy_signal_latency(&self) -> SimDuration {
        let ib = &self.cluster().hw().ib;
        ib.post_overhead + ib.hca_wqe + ib.wire_latency + ib.switch_latency + ib.remote_hca
            + SimDuration::from_ns(500)
    }

    /// **Pipeline GDR write** (Enhanced-GDR large put with device source):
    /// chunked D2H copies into the registered staging area, each chunk
    /// RDMA-written (GDR when the destination is a GPU) as soon as it is
    /// staged. Returns when the last D2H copy completes — the paper's
    /// definition of local completion for this protocol. Remote
    /// completions are tracked for `quiet`. No target involvement.
    ///
    /// Under a fault plan each chunk post draws from the CQE stream and
    /// replays through [`Self::pipe_chunk_restage`]; if any chunk
    /// exhausts its retries the op waits for every chunk to resolve and
    /// returns [`TransferError::PartialDelivery`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pipeline_gdr_put(
        self: &Rc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        src: MemRef,
        dst: MemRef,
        dst_domain: crate::addr::Domain,
        len: u64,
        target: ProcId,
        token: OpToken,
    ) -> Result<(), TransferError> {
        let chunk = self.cfg().pipeline_chunk;
        let rkey = self.layout().rkey(dst_domain, target);
        let n = len.div_ceil(chunk);
        let rec = self.obs().clone();
        let track = self.pe_track(me);
        // chunk spans follow the op's sampling verdict
        let trace = rec.spans_on() && token.sampled;
        let recovery = ChunkRecovery::new(len, self.cfg().faults.cqe_armed());
        let outcome = Completion::new();
        let mut last_d2h: Option<Completion> = None;
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            let stg_off = self.alloc_staging_blocking(ctx, me, clen)?;
            let stg = self.layout().staging_base(me).add(stg_off);
            let t_stage = ctx.now();
            let d2h = self.gpus().memcpy_async(ctx, src.add(off), stg, clen);
            let comp = RdmaCompletion::new();
            let pc = PipeChunk {
                me,
                src_c: src.add(off),
                dst_c: dst.add(off),
                rkey,
                clen,
                index: i as u32,
                token,
                trace,
                track,
            };
            let mach = self.clone();
            let comp2 = comp.clone();
            let rec2 = rec.clone();
            let recovery2 = recovery.clone();
            let outcome2 = outcome.clone();
            ctx.with_sched(|s| {
                s.call_on(
                    &d2h,
                    1,
                    Box::new(move |s| {
                        if trace {
                            rec2.span(
                                track,
                                "chunk-d2h",
                                t_stage,
                                s.now(),
                                obs::Payload::Chunk {
                                    protocol: "pipeline-gdr-write",
                                    stage: "d2h",
                                    index: i as u32,
                                    size: clen,
                                    op_id: token.id,
                                },
                            );
                        }
                        mach.pipe_chunk_post(s, pc, stg_off, 0, comp2, recovery2, outcome2);
                    }),
                );
            });
            if i == n - 1 {
                // last chunk's remote completion = the whole put delivered
                self.flow_end_on(ctx, &comp.remote, 1, self.pe_track(target), token);
            }
            self.pe_state(me).track(comp.remote.clone());
            last_d2h = Some(d2h);
        }
        if let Some(c) = last_d2h {
            ctx.wait(&c);
        }
        if recovery.armed() {
            // every chunk must resolve (delivered or given up) before
            // the op can name its outcome
            ctx.wait_threshold(&outcome, n);
            if let Some(e) = recovery.partial_error() {
                self.obs_partial(
                    me,
                    ctx.now(),
                    "pipeline-gdr-write",
                    recovery.delivered(),
                    len,
                    token,
                );
                return Err(e);
            }
        }
        Ok(())
    }

    /// One pipeline-GDR chunk post attempt in event context, with the
    /// staged bytes at `stg_off`. A clean CQE draw (or an unarmed plan)
    /// fires the RDMA write. A fault releases the staging credit at
    /// once — the failed attempt's staged bytes are dead, so a retrying
    /// chunk can never wedge the op's own credit flow control — and the
    /// chunk replays through [`Self::pipe_chunk_restage`] after the
    /// detect + backoff delays, or resolves as failed once the retry
    /// budget is spent.
    #[allow(clippy::too_many_arguments)]
    fn pipe_chunk_post(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        c: PipeChunk,
        stg_off: u64,
        attempt: u32,
        comp: RdmaCompletion,
        recovery: Rc<ChunkRecovery>,
        outcome: Completion,
    ) {
        if !recovery.armed() {
            self.pipe_chunk_fire(s, c, stg_off, &comp);
            return;
        }
        let plan = self.cfg().faults;
        match self.ib().inject_transient_cqe(c.me) {
            None => {
                if attempt > 0 {
                    self.obs().fault_tally_at("chunk-recovered", "pipeline-gdr-write", s.now());
                }
                self.pipe_chunk_fire(s, c, stg_off, &comp);
                recovery.chunk_ok(c.clen);
                s.signal(&outcome, 1);
            }
            Some(f) => {
                self.obs_fault(c.me, s.now(), f.kind, "pipeline-gdr-write", c.token);
                self.free_staging(c.me, stg_off, c.clen);
                if attempt >= plan.max_retries {
                    self.obs().fault_tally_at("exhausted", "pipeline-gdr-write", s.now());
                    let remote = comp.remote.clone();
                    s.schedule_in(
                        f.detect,
                        Box::new(move |s| {
                            recovery.chunk_failed();
                            // poison the tracked remote completion so
                            // quiet and the op's flow end cannot hang on
                            // a chunk that will never reach the wire
                            s.signal(&remote, 1);
                            s.signal(&outcome, 1);
                        }),
                    );
                } else {
                    let backoff = plan.backoff_ns(c.token.id, attempt);
                    let m = self.clone();
                    s.schedule_in(
                        f.detect,
                        Box::new(move |s| {
                            m.obs_chunk_retry(
                                c.me,
                                s.now(),
                                "pipeline-gdr-write",
                                attempt + 1,
                                backoff,
                                c.token,
                            );
                            let m2 = m.clone();
                            s.schedule_in(
                                SimDuration::from_ns(backoff),
                                Box::new(move |s| {
                                    m2.pipe_chunk_restage(
                                        s,
                                        c,
                                        attempt + 1,
                                        comp,
                                        recovery,
                                        outcome,
                                        SimDuration::ZERO,
                                    );
                                }),
                            );
                        }),
                    );
                }
            }
        }
    }

    /// Post one staged pipeline chunk: the GDR RDMA write, the
    /// staging-credit release at local completion, and the chunk-rdma
    /// span.
    fn pipe_chunk_fire(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        c: PipeChunk,
        stg_off: u64,
        comp: &RdmaCompletion,
    ) {
        let stg = self.layout().staging_base(c.me).add(stg_off);
        let t_rdma = s.now();
        self.ib()
            .rdma_write_start(s, c.me, stg, c.rkey, c.dst_c, c.clen, comp)
            .expect("pipeline chunk rdma");
        // free my staging when the HCA has read it
        let m = self.clone();
        s.call_on(
            &comp.local,
            1,
            Box::new(move |_| {
                m.free_staging(c.me, stg_off, c.clen);
            }),
        );
        if c.trace {
            let rec = self.obs().clone();
            let remote = comp.remote.clone();
            s.call_on(
                &remote,
                1,
                Box::new(move |s| {
                    rec.span(
                        c.track,
                        "chunk-rdma",
                        t_rdma,
                        s.now(),
                        obs::Payload::Chunk {
                            protocol: "pipeline-gdr-write",
                            stage: "rdma",
                            index: c.index,
                            size: c.clen,
                            op_id: c.token.id,
                        },
                    );
                }),
            );
        }
    }

    /// Replay leg of [`Self::pipe_chunk_post`]: re-acquire a staging
    /// credit (polling in event context — the task loop may be racing
    /// for the same credits), re-stage the chunk from its GPU source,
    /// and re-enter the post path. Gives the chunk up if credits stay
    /// dry for the same 500 ms bound the blocking allocator uses.
    #[allow(clippy::too_many_arguments)]
    fn pipe_chunk_restage(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        c: PipeChunk,
        attempt: u32,
        comp: RdmaCompletion,
        recovery: Rc<ChunkRecovery>,
        outcome: Completion,
        waited: SimDuration,
    ) {
        let got = self.pe_state(c.me).staging_alloc.borrow_mut().alloc(c.clen);
        let stg_off = match got {
            Ok(off) => off,
            Err(_) if waited < SimDuration::from_ms(500) => {
                let step = SimDuration::from_us(1);
                let m = self.clone();
                s.schedule_in(
                    step,
                    Box::new(move |s| {
                        m.pipe_chunk_restage(
                            s,
                            c,
                            attempt,
                            comp,
                            recovery,
                            outcome,
                            waited + step,
                        );
                    }),
                );
                return;
            }
            Err(_) => {
                // credit starvation during replay: resolve the chunk as
                // failed rather than probing forever
                self.obs().fault_tally_at("exhausted", "pipeline-gdr-write", s.now());
                recovery.chunk_failed();
                s.signal(&comp.remote, 1);
                s.signal(&outcome, 1);
                return;
            }
        };
        let stg = self.layout().staging_base(c.me).add(stg_off);
        let t_stage = s.now();
        let d2h = Completion::new();
        self.gpus().dma_start(s, c.src_c, stg, c.clen, &d2h);
        let m = self.clone();
        s.call_on(
            &d2h,
            1,
            Box::new(move |s| {
                if c.trace {
                    m.obs().span(
                        c.track,
                        "chunk-d2h",
                        t_stage,
                        s.now(),
                        obs::Payload::Chunk {
                            protocol: "pipeline-gdr-write",
                            stage: "d2h",
                            index: c.index,
                            size: c.clen,
                            op_id: c.token.id,
                        },
                    );
                }
                m.pipe_chunk_post(s, c, stg_off, attempt, comp, recovery, outcome);
            }),
        );
    }

    /// The baseline **host-based pipeline put** [15] (inter-node D-D):
    /// D2H staging chunks, RDMA into the *target's* staging, and the
    /// final H2D copy performed by the target process when it enters the
    /// library. The source tracks per-chunk acks; `quiet` therefore
    /// blocks until the target has progressed — the one-sidedness
    /// violation the paper measures in Fig. 10.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn host_pipeline_put(
        self: &Rc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        src: MemRef,
        dst: MemRef,
        len: u64,
        target: ProcId,
        token: OpToken,
    ) -> Result<(), TransferError> {
        let chunk = self.cfg().pipeline_chunk;
        let host_rkey = self.layout().host_rkey(target);
        let n = len.div_ceil(chunk);
        // The baseline is rendezvous-based: an RTS/CTS handshake with the
        // target's runtime precedes the pipeline (cf. [17]).
        ctx.advance(self.ack_latency() * 2);
        let recovery = ChunkRecovery::new(len, self.cfg().faults.cqe_armed());
        let outcome = Completion::new();
        let mut last_d2h: Option<Completion> = None;
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            let stg_off = self.alloc_staging_blocking(ctx, me, clen)?;
            let stg = self.layout().staging_base(me).add(stg_off);
            let t_off = match self.alloc_staging_blocking(ctx, target, clen) {
                Ok(o) => o,
                Err(e) => {
                    // free the credit this chunk already holds before
                    // surfacing the stall
                    self.free_staging(me, stg_off, clen);
                    return Err(e);
                }
            };
            let t_stg = self.layout().staging_base(target).add(t_off);
            // Small/medium messages use synchronous cudaMemcpy staging
            // (each chunk pays the full driver overhead — most of the
            // 20.9us of paper Table II); large transfers pipeline with
            // async copies like the real MVAPICH2-X implementation, so
            // both designs converge to staging bandwidth (paper Fig 8b).
            let d2h = if clen >= 256 << 10 {
                self.gpus().memcpy_async(ctx, src.add(off), stg, clen)
            } else {
                self.gpus().memcpy_sync(ctx, src.add(off), stg, clen);
                let c = Completion::new();
                ctx.with_sched(|s| s.signal(&c, 1));
                c
            };
            let comp = RdmaCompletion::new();
            let ack = Completion::new();
            let dst_c = dst.add(off);
            // once the chunk is staged: RDMA it into the target staging
            // (drawing this chunk's CQE fault stream first)
            let mach = self.clone();
            let comp_c = comp.clone();
            let recovery2 = recovery.clone();
            let outcome2 = outcome.clone();
            let ack_p = ack.clone();
            ctx.with_sched(|s| {
                s.call_on(
                    &d2h,
                    1,
                    Box::new(move |s| {
                        let m = mach.clone();
                        let rec_ok = recovery2.clone();
                        let out_ok = outcome2.clone();
                        let post: Action = Box::new(move |s| {
                            m.ib()
                                .rdma_write_start(s, me, stg, host_rkey, t_stg, clen, &comp_c)
                                .expect("host-pipeline chunk rdma");
                            rec_ok.chunk_ok(clen);
                            if rec_ok.armed() {
                                s.signal(&out_ok, 1);
                            }
                        });
                        let m2 = mach.clone();
                        let on_fail: Action = Box::new(move |s| {
                            // both staging credits die with the chunk;
                            // poison the ack so quiet and the op's flow
                            // end cannot hang on it
                            m2.free_staging(me, stg_off, clen);
                            m2.free_staging(target, t_off, clen);
                            recovery2.chunk_failed();
                            s.signal(&ack_p, 1);
                            s.signal(&outcome2, 1);
                        });
                        mach.chunk_post_with_retry(
                            s,
                            me,
                            "host-pipeline-staged",
                            token,
                            post,
                            on_fail,
                        );
                    }),
                );
            });
            // free my staging when the HCA has read it
            let mach = self.clone();
            ctx.with_sched(|s| {
                s.call_on(
                    &comp.local,
                    1,
                    Box::new(move |_| {
                        mach.free_staging(me, stg_off, clen);
                    }),
                );
            });
            // when the payload lands in target staging, hand the final
            // H2D to the target's progress engine
            let mach = self.clone();
            let ack2 = ack.clone();
            ctx.with_sched(|s| {
                s.call_on(
                    &comp.remote,
                    1,
                    Box::new(move |s| {
                        mach.arrive_pending(
                            s,
                            target,
                            PendingWork::Deliver(Delivery {
                                staged: t_stg,
                                dst: dst_c,
                                len: clen,
                                ack: ack2,
                                staging_off: t_off,
                            }),
                        );
                    }),
                );
            });
            if i == n - 1 {
                // the op is fully delivered once the target has H2D-copied
                // (and acked) the final chunk
                self.flow_end_on(ctx, &ack, 1, self.pe_track(target), token);
            }
            self.pe_state(me).track(ack);
            last_d2h = Some(d2h);
        }
        if let Some(c) = last_d2h {
            ctx.wait(&c);
        }
        if recovery.armed() {
            ctx.wait_threshold(&outcome, n);
            if let Some(e) = recovery.partial_error() {
                self.obs_partial(
                    me,
                    ctx.now(),
                    "host-pipeline-staged",
                    recovery.delivered(),
                    len,
                    token,
                );
                return Err(e);
            }
        }
        Ok(())
    }

    /// **Proxy-assisted put** (Enhanced-GDR, inter-socket destination):
    /// chunks are staged into the *target's* host staging via plain host
    /// RDMA; the remote **proxy** (not the target PE) performs the final
    /// H2D copies. One-sided: quiet waits on proxy copies, which run as
    /// hardware events regardless of what the target PE is doing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn proxy_put(
        self: &Rc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        src: MemRef,
        dst: MemRef,
        len: u64,
        target: ProcId,
        token: OpToken,
    ) -> Result<(), TransferError> {
        let chunk = self.cfg().pipeline_chunk;
        let host_rkey = self.layout().host_rkey(target);
        let n = len.div_ceil(chunk);
        let src_dev = src.is_device();
        let node = self.cluster().topo().node_of(target);
        // base wake latency; any stall-window delay is sampled at each
        // chunk's arrival, so a mid-transfer fault window — and the
        // agent restart that ends it — is modelled per chunk
        let base_signal = self.proxy_signal_latency();
        let restart_seen = Rc::new(Cell::new(false));
        let stats = self.proxy(node);
        stats.puts_served.set(stats.puts_served.get() + 1);
        stats.bytes.set(stats.bytes.get() + len);
        let rec = self.obs().clone();
        let ptrack = self.proxy_track(node);
        let trace = rec.spans_on() && token.sampled;
        if trace {
            rec.instant(
                ptrack,
                "proxy-request",
                ctx.now(),
                obs::Payload::Proxy {
                    kind: "put",
                    size: len,
                    origin_pe: me.0,
                },
            );
        }
        let recovery = ChunkRecovery::new(len, self.cfg().faults.cqe_armed());
        let outcome = Completion::new();
        let mut last_local: Option<Completion> = None;
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            let t_off = self.alloc_staging_blocking(ctx, target, clen)?;
            let t_stg = self.layout().staging_base(target).add(t_off);
            let dst_c = dst.add(off);
            let comp = RdmaCompletion::new();
            let proxy_done = Completion::new();

            if src_dev {
                // stage through my host first (chunked D2H), then RDMA
                let stg_off = match self.alloc_staging_blocking(ctx, me, clen) {
                    Ok(o) => o,
                    Err(e) => {
                        self.free_staging(target, t_off, clen);
                        return Err(e);
                    }
                };
                let stg = self.layout().staging_base(me).add(stg_off);
                let d2h = self.gpus().memcpy_async(ctx, src.add(off), stg, clen);
                let mach = self.clone();
                let comp2 = comp.clone();
                let recovery2 = recovery.clone();
                let outcome2 = outcome.clone();
                let pd_p = proxy_done.clone();
                ctx.with_sched(|s| {
                    s.call_on(
                        &d2h,
                        1,
                        Box::new(move |s| {
                            let m = mach.clone();
                            let rec_ok = recovery2.clone();
                            let out_ok = outcome2.clone();
                            let post: Action = Box::new(move |s| {
                                m.ib()
                                    .rdma_write_start(
                                        s, me, stg, host_rkey, t_stg, clen, &comp2,
                                    )
                                    .expect("proxy-put chunk rdma");
                                rec_ok.chunk_ok(clen);
                                if rec_ok.armed() {
                                    s.signal(&out_ok, 1);
                                }
                            });
                            let m2 = mach.clone();
                            let on_fail: Action = Box::new(move |s| {
                                m2.free_staging(me, stg_off, clen);
                                m2.free_staging(target, t_off, clen);
                                recovery2.chunk_failed();
                                s.signal(&pd_p, 1);
                                s.signal(&outcome2, 1);
                            });
                            mach.chunk_post_with_retry(
                                s,
                                me,
                                "proxy-pipeline",
                                token,
                                post,
                                on_fail,
                            );
                        }),
                    );
                });
                let mach = self.clone();
                ctx.with_sched(|s| {
                    s.call_on(
                        &comp.local,
                        1,
                        Box::new(move |_| {
                            mach.free_staging(me, stg_off, clen);
                        }),
                    );
                });
                last_local = Some(d2h);
            } else {
                self.ensure_registered(ctx, me, src.add(off), clen);
                let mach = self.clone();
                let comp2 = comp.clone();
                let recovery2 = recovery.clone();
                let outcome2 = outcome.clone();
                let pd_p = proxy_done.clone();
                let local_p = comp.local.clone();
                let src_c = src.add(off);
                ctx.with_sched(|s| {
                    let m = mach.clone();
                    let rec_ok = recovery2.clone();
                    let out_ok = outcome2.clone();
                    let post: Action = Box::new(move |s| {
                        m.ib()
                            .rdma_write_start(s, me, src_c, host_rkey, t_stg, clen, &comp2)
                            .expect("proxy-put chunk rdma");
                        rec_ok.chunk_ok(clen);
                        if rec_ok.armed() {
                            s.signal(&out_ok, 1);
                        }
                    });
                    let m2 = mach.clone();
                    let on_fail: Action = Box::new(move |s| {
                        // nothing staged on my side; the target credit
                        // dies with the chunk, and both the proxy
                        // completion and the local completion the op
                        // blocks on are poisoned
                        m2.free_staging(target, t_off, clen);
                        recovery2.chunk_failed();
                        s.signal(&pd_p, 1);
                        s.signal(&local_p, 1);
                        s.signal(&outcome2, 1);
                    });
                    mach.chunk_post_with_retry(s, me, "proxy-pipeline", token, post, on_fail);
                });
                last_local = Some(comp.local.clone());
            }

            // when the chunk lands in target staging: the remote proxy
            // wakes (signal latency) and performs the H2D
            let mach = self.clone();
            let pd = proxy_done.clone();
            let rec2 = rec.clone();
            let rs = restart_seen.clone();
            ctx.with_sched(|s| {
                s.call_on(
                    &comp.remote,
                    1,
                    Box::new(move |s| {
                        let t_arrive = s.now();
                        // a stalled proxy agent services this chunk late —
                        // unless its fault window ends first and the
                        // restarted agent re-drives the remaining chunks
                        let signal =
                            base_signal + mach.proxy_stall_or_restart(node, t_arrive, token, &rs);
                        let mach2 = mach.clone();
                        let pd2 = pd.clone();
                        s.schedule_in(
                            signal,
                            Box::new(move |s| {
                                let t_h2d = s.now();
                                if trace {
                                    rec2.span(
                                        ptrack,
                                        "chunk-wakeup",
                                        t_arrive,
                                        t_h2d,
                                        obs::Payload::Chunk {
                                            protocol: "proxy-pipeline",
                                            stage: "wakeup",
                                            index: i as u32,
                                            size: clen,
                                            op_id: token.id,
                                        },
                                    );
                                }
                                let h2d = Completion::new();
                                mach2.gpus().dma_start(s, t_stg, dst_c, clen, &h2d);
                                let mach3 = mach2.clone();
                                s.call_on(
                                    &h2d,
                                    1,
                                    Box::new(move |s| {
                                        if trace {
                                            rec2.span(
                                                ptrack,
                                                "chunk-h2d",
                                                t_h2d,
                                                s.now(),
                                                obs::Payload::Chunk {
                                                    protocol: "proxy-pipeline",
                                                    stage: "h2d",
                                                    index: i as u32,
                                                    size: clen,
                                                    op_id: token.id,
                                                },
                                            );
                                        }
                                        mach3.free_staging(target, t_off, clen);
                                        s.signal(&pd2, 1);
                                    }),
                                );
                            }),
                        );
                    }),
                );
            });
            if i == n - 1 {
                // delivered once the proxy finishes the final H2D copy
                self.flow_end_on(ctx, &proxy_done, 1, self.pe_track(target), token);
            }
            self.pe_state(me).track(proxy_done);
        }
        if let Some(c) = last_local {
            ctx.wait(&c);
        }
        if recovery.armed() {
            ctx.wait_threshold(&outcome, n);
            if let Some(e) = recovery.partial_error() {
                self.obs_partial(
                    me,
                    ctx.now(),
                    "proxy-pipeline",
                    recovery.delivered(),
                    len,
                    token,
                );
                return Err(e);
            }
        }
        Ok(())
    }

    /// **Proxy-based get** (Enhanced-GDR, large get from remote GPU):
    /// the remote node's proxy IPC-copies chunks from the target GPU to
    /// its registered host staging and RDMA-writes them (GDR when the
    /// local destination is a GPU) straight into the requester's buffer.
    /// The target *PE* does nothing; the (blocking) requester waits.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn proxy_get(
        self: &Rc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dst: MemRef,
        src: MemRef,
        len: u64,
        from: ProcId,
        token: OpToken,
    ) -> Result<(), TransferError> {
        let chunk = self.cfg().pipeline_chunk;
        let n = len.div_ceil(chunk);
        // the proxy writes into our buffer: make sure it is registered
        // and obtain its rkey
        self.ensure_registered(ctx, me, dst, len);
        let dst_mr = self
            .ib()
            .mrs()
            .check_local(me, dst, len)
            .expect("just registered");
        let node = self.cluster().topo().node_of(from);
        // a stalled proxy agent (fault plan) services requests late —
        // unless its fault window ends first and the restarted agent
        // re-drives the transfer's remaining chunks
        let restart_seen = Cell::new(false);
        let signal = self.proxy_signal_latency()
            + self.proxy_stall_or_restart(node, ctx.now(), token, &restart_seen);
        let stats = self.proxy(node);
        stats.gets_served.set(stats.gets_served.get() + 1);
        stats.bytes.set(stats.bytes.get() + len);
        let rec = self.obs().clone();
        let ptrack = self.proxy_track(node);
        let trace = rec.spans_on() && token.sampled;
        if trace {
            rec.instant(
                ptrack,
                "proxy-request",
                ctx.now(),
                obs::Payload::Proxy {
                    kind: "get",
                    size: len,
                    origin_pe: me.0,
                },
            );
        }
        let recovery = ChunkRecovery::new(len, self.cfg().faults.cqe_armed());
        let done = Completion::new();
        ctx.advance(self.cluster().hw().ib.post_overhead);
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            // credit-based reservation of the remote staging
            let t_off = self.alloc_staging_blocking(ctx, from, clen)?;
            let t_stg = self.layout().staging_base(from).add(t_off);
            let src_c = src.add(off);
            let dst_c = dst.add(off);
            let mach = self.clone();
            let done2 = done.clone();
            let recovery2 = recovery.clone();
            let rkey = dst_mr.rkey;
            let rec2 = rec.clone();
            let t_req = ctx.now();
            ctx.with_sched(|s| {
                s.schedule_in(
                    signal,
                    Box::new(move |s| {
                        // proxy: D2H from the target GPU into its staging
                        let t_wake = s.now();
                        if trace {
                            rec2.span(
                                ptrack,
                                "chunk-wakeup",
                                t_req,
                                t_wake,
                                obs::Payload::Chunk {
                                    protocol: "proxy-pipeline",
                                    stage: "wakeup",
                                    index: i as u32,
                                    size: clen,
                                    op_id: token.id,
                                },
                            );
                        }
                        let d2h = Completion::new();
                        mach.gpus().dma_start(s, src_c, t_stg, clen, &d2h);
                        let mach2 = mach.clone();
                        s.call_on(
                            &d2h,
                            1,
                            Box::new(move |s| {
                                let t_rdma = s.now();
                                if trace {
                                    rec2.span(
                                        ptrack,
                                        "chunk-d2h",
                                        t_wake,
                                        t_rdma,
                                        obs::Payload::Chunk {
                                            protocol: "proxy-pipeline",
                                            stage: "d2h",
                                            index: i as u32,
                                            size: clen,
                                            op_id: token.id,
                                        },
                                    );
                                }
                                let comp = RdmaCompletion::new();
                                let m = mach2.clone();
                                let rec_ok = recovery2.clone();
                                let done_ok = done2.clone();
                                let rec3 = rec2.clone();
                                let post: Action = Box::new(move |s| {
                                    m.ib()
                                        .rdma_write_start(
                                            s, from, t_stg, rkey, dst_c, clen, &comp,
                                        )
                                        .expect("proxy-get chunk rdma");
                                    let m3 = m.clone();
                                    s.call_on(
                                        &comp.local,
                                        1,
                                        Box::new(move |_| {
                                            m3.free_staging(from, t_off, clen);
                                        }),
                                    );
                                    let remote = comp.remote.clone();
                                    s.call_on(
                                        &remote,
                                        1,
                                        Box::new(move |s| {
                                            if trace {
                                                rec3.span(
                                                    ptrack,
                                                    "chunk-rdma",
                                                    t_rdma,
                                                    s.now(),
                                                    obs::Payload::Chunk {
                                                        protocol: "proxy-pipeline",
                                                        stage: "rdma",
                                                        index: i as u32,
                                                        size: clen,
                                                        op_id: token.id,
                                                    },
                                                );
                                            }
                                            rec_ok.chunk_ok(clen);
                                            s.signal(&done_ok, 1);
                                        }),
                                    );
                                });
                                let m4 = mach2.clone();
                                let done_f = done2.clone();
                                let rec_f = recovery2.clone();
                                let on_fail: Action = Box::new(move |s| {
                                    m4.free_staging(from, t_off, clen);
                                    rec_f.chunk_failed();
                                    s.signal(&done_f, 1);
                                });
                                mach2.chunk_post_with_retry(
                                    s,
                                    from,
                                    "proxy-pipeline",
                                    token,
                                    post,
                                    on_fail,
                                );
                            }),
                        );
                    }),
                );
            });
        }
        ctx.wait_threshold(&done, n);
        if let Some(e) = recovery.partial_error() {
            self.obs_partial(
                me,
                ctx.now(),
                "proxy-pipeline",
                recovery.delivered(),
                len,
                token,
            );
            return Err(e);
        }
        Ok(())
    }

    /// Ablation fallback: chunked direct GDR reads (proxy disabled) —
    /// pays the PCIe P2P read cap on every chunk. Chunk posts run in
    /// task context, so the standard `post_with_retry` loop applies;
    /// exhausting retries mid-transfer surfaces as a partial delivery.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn chunked_direct_get(
        self: &Rc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dst: MemRef,
        rkey: ib_sim::Rkey,
        src: MemRef,
        len: u64,
        token: OpToken,
    ) -> Result<(), TransferError> {
        let chunk = self.cfg().pipeline_chunk;
        self.ensure_registered(ctx, me, dst, len);
        let n = len.div_ceil(chunk);
        let mut dones = Vec::with_capacity(n as usize);
        let mut delivered = 0u64;
        let mut failure: Option<TransferError> = None;
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            let posted = self.post_with_retry(ctx, me, Protocol::DirectGdr, token, || {
                self.ib()
                    .post_rdma_read(ctx, me, dst.add(off), rkey, src.add(off), clen)
            });
            match posted {
                Ok(d) => {
                    dones.push(d);
                    delivered += clen;
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // already-posted chunks complete normally either way
        for d in &dones {
            ctx.wait(d);
        }
        match failure {
            None => Ok(()),
            Some(TransferError::RetriesExhausted { .. }) if delivered > 0 => {
                self.obs_partial(me, ctx.now(), "direct-gdr", delivered, len, token);
                Err(TransferError::PartialDelivery {
                    delivered,
                    total: len,
                })
            }
            Some(e) => Err(e),
        }
    }

    /// The baseline **host-pipeline get** (inter-node D-D): the requester
    /// sends a request; the *target PE* (when it progresses) D2H-copies
    /// and RDMA-writes chunks into the requester's staging; the requester
    /// H2D-copies each staged chunk into the final device buffer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn host_pipeline_get(
        self: &Rc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dst: MemRef,
        src: MemRef,
        len: u64,
        from: ProcId,
        token: OpToken,
    ) -> Result<(), TransferError> {
        // reserve a contiguous landing strip in my staging
        let my_off = self.alloc_staging_blocking(ctx, me, len)?;
        let my_stg = self.layout().staging_base(me).add(my_off);
        let served = Completion::new();
        let chunk = self.cfg().pipeline_chunk;
        let n = len.div_ceil(chunk);
        let signal = self.proxy_signal_latency()
            + self.proxy_stall_extra(self.cluster().topo().node_of(from), ctx.now());
        let recovery = ChunkRecovery::new(len, self.cfg().faults.cqe_armed());
        let req = GetRequest {
            src,
            req_staging: my_stg,
            len,
            requester: me,
            served: served.clone(),
            token,
            recovery: recovery.clone(),
        };
        let mach = self.clone();
        ctx.advance(self.cluster().hw().ib.post_overhead);
        ctx.with_sched(|s| {
            s.schedule_in(
                signal,
                Box::new(move |s| {
                    mach.arrive_pending(s, from, PendingWork::ServeGet(req));
                }),
            );
        });
        // as chunks land in my staging, H2D them to the final buffer
        // (synchronous cudaMemcpy calls, as in the baseline runtime).
        // Failed chunks poison `served`, so the loop cannot hang; their
        // H2D copies move undefined staging bytes, which the typed
        // partial-delivery error below disclaims.
        for i in 0..n {
            ctx.wait_threshold(&served, i + 1);
            let off = i * chunk;
            let clen = chunk.min(len - off);
            self.gpus().memcpy_sync(ctx, my_stg.add(off), dst.add(off), clen);
        }
        self.free_staging(me, my_off, len);
        if let Some(e) = recovery.partial_error() {
            self.obs_partial(
                me,
                ctx.now(),
                "host-pipeline-staged",
                recovery.delivered(),
                len,
                token,
            );
            return Err(e);
        }
        Ok(())
    }
}
