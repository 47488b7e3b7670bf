//! Chunked pipeline protocols and the node-proxy engine.
//!
//! These implement the large-message designs of paper §III-C:
//! **Pipeline GDR write** (D2H staging chunks + GDR RDMA writes, truly
//! one-sided), the **proxy-based** protocols (a node-level agent moves
//! data via IPC + RDMA on behalf of PEs, keeping the *target* PE out of
//! the loop), and the baseline **host-based pipeline** \[15\] whose final
//! copy needs the target process.
//!
//! Every chunked op builds one `ChunkOp` and hands it to each of its
//! chunks' continuations. Under a fault plan every chunk post draws
//! from the seeded CQE stream (see [`crate::recovery`]): chunks retry
//! with backoff, a chunk that exhausts its budget releases its staging
//! credits and poisons the completions the op tracks, and the op
//! surfaces [`TransferError::PartialDelivery`] naming exactly how many
//! bytes landed.

use crate::error::TransferError;
use crate::machine::{OpToken, ShmemMachine};
use crate::recovery::{ChunkOp, ChunkStep};
use crate::state::{Delivery, GetRequest, PendingWork, Protocol};
use ib_sim::{RdmaCompletion, Rkey};
use obs::{FaultEvent, Payload};
use pcie_sim::mem::MemRef;
use pcie_sim::ProcId;
use sim_core::{Completion, Sched, SimDuration, SimTime, TaskCtx};
use std::rc::Rc;

/// The retry-invariant identity of one pipeline-GDR chunk. Its staging
/// offset is deliberately *not* here: a replay releases the failed
/// attempt's credit and re-acquires a fresh (possibly different) slot,
/// re-staging from `src_c` — which is what makes chunk replay
/// idempotent instead of a use-after-free of recycled staging space.
struct PipeChunk {
    me: ProcId,
    /// Device source of this chunk (replays re-stage from here).
    src_c: MemRef,
    dst_c: MemRef,
    rkey: Rkey,
    clen: u64,
    index: u64,
    /// The chunk's RDMA completions, the same across replays.
    comp: RdmaCompletion,
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
            stall_at,
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
                self.pe_state(pe)
                    .staging_alloc
                    .borrow_mut()
                    .alloc(len)
                    .ok()
                    .map(Ok)
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
        ib.post_overhead
            + ib.hca_wqe
            + ib.wire_latency
            + ib.switch_latency
            + ib.remote_hca
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
        let op = ChunkOp::put(
            self,
            Protocol::PipelineGdrWrite,
            me,
            token,
            len,
            Some(self.pe_track(me)),
        );
        let mut last_d2h: Option<Completion> = None;
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            let stg_off = self.alloc_staging_blocking(ctx, me, clen)?;
            let stg = self.layout().staging_base(me).add(stg_off);
            let t_stage = ctx.now();
            let d2h = self.gpus().memcpy_async(ctx, src.add(off), stg, clen);
            let comp = RdmaCompletion::new();
            let remote = comp.remote.clone();
            let c = PipeChunk {
                me,
                src_c: src.add(off),
                dst_c: dst.add(off),
                rkey,
                clen,
                index: i,
                comp,
            };
            ctx.with_sched(|s| self.pipe_chunk_staged(s, &d2h, t_stage, c, stg_off, 0, &op));
            if i == n - 1 {
                // last chunk's remote completion = the whole put delivered
                self.flow_end_on(ctx, &remote, 1, self.pe_track(target), token);
            }
            self.pe_state(me).track(remote);
            last_d2h = Some(d2h);
        }
        if let Some(c) = last_d2h {
            ctx.wait(&c);
        }
        op.finish(ctx, self)
    }

    /// Once chunk `c` is staged at `stg_off` (`d2h` done): record its
    /// d2h span from `t_stage` and post it.
    #[allow(clippy::too_many_arguments)]
    fn pipe_chunk_staged(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        d2h: &Completion,
        t_stage: SimTime,
        c: PipeChunk,
        stg_off: u64,
        attempt: u32,
        op: &Rc<ChunkOp>,
    ) {
        self.chunk_on(s, d2h, op, move |s, m, op| {
            op.span(m, "chunk-d2h", c.index, c.clen, t_stage, s.now());
            m.pipe_chunk_post(s, c, stg_off, attempt, op);
        });
    }

    /// One pipeline-GDR chunk post attempt in event context, with the
    /// staged bytes at `stg_off`. A clean CQE draw (or an unarmed plan)
    /// fires the RDMA write. A fault releases the staging credit at
    /// once — the failed attempt's staged bytes are dead, so a retrying
    /// chunk can never wedge the op's own credit flow control — and the
    /// chunk replays through [`Self::pipe_chunk_restage`] after the
    /// detect + backoff delays, or resolves as failed once the retry
    /// budget is spent. Unlike [`Self::chunk_post_with_retry`], these
    /// faults never feed the health breaker.
    fn pipe_chunk_post(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        c: PipeChunk,
        stg_off: u64,
        attempt: u32,
        op: &Rc<ChunkOp>,
    ) {
        let fault = if op.armed() {
            self.ib().inject_transient_cqe(c.me)
        } else {
            None
        };
        let Some(f) = fault else {
            if attempt > 0 {
                self.obs()
                    .fault_tally("chunk-recovered", op.protocol.name(), s.now());
            }
            self.pipe_chunk_fire(s, &c, stg_off, op);
            op.ok(s, c.clen);
            return;
        };
        let (protocol, op_id) = (op.protocol.name(), op.token.id);
        let payload = Payload::Fault { kind: f.kind, protocol, op_id };
        self.fault_event(c.me, s.now(), FaultEvent::Fault, payload);
        self.free_staging(c.me, stg_off, c.clen);
        let plan = self.cfg().faults;
        if attempt >= plan.max_retries {
            op.exhausted(self, s.now());
            // poison the tracked remote completion so quiet and the op's
            // flow end cannot hang on a chunk that will never reach the
            // wire
            self.chunk_in(s, f.detect, op, move |s, _, op| {
                op.give_up(s, &[&c.comp.remote])
            });
            return;
        }
        let backoff = plan.backoff_ns(op.token.id, attempt);
        self.chunk_in(s, f.detect, op, move |s, m, op| {
            let payload = Payload::Retry { protocol, attempt: attempt + 1, backoff_ns: backoff, op_id };
            m.fault_event(c.me, s.now(), FaultEvent::ChunkRetry, payload);
            m.chunk_in(s, SimDuration::from_ns(backoff), op, move |s, m, op| {
                m.pipe_chunk_restage(s, c, attempt + 1, op, SimDuration::ZERO);
            });
        });
    }

    /// Post one staged pipeline chunk: the GDR RDMA write, the
    /// staging-credit release at local completion, and the chunk-rdma
    /// span.
    fn pipe_chunk_fire(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        c: &PipeChunk,
        stg_off: u64,
        op: &Rc<ChunkOp>,
    ) {
        let stg = self.layout().staging_base(c.me).add(stg_off);
        let t_rdma = s.now();
        self.ib()
            .rdma_write_start(s, c.me, stg, c.rkey, c.dst_c, c.clen, &c.comp)
            .expect("pipeline chunk rdma");
        self.free_staging_on(s, &c.comp.local, c.me, stg_off, c.clen);
        if op.traced() {
            let (index, clen) = (c.index, c.clen);
            self.chunk_on(s, &c.comp.remote, op, move |s, m, op| {
                op.span(m, "chunk-rdma", index, clen, t_rdma, s.now());
            });
        }
    }

    /// Replay leg of [`Self::pipe_chunk_post`]: re-acquire a staging
    /// credit (polling in event context — the task loop may be racing
    /// for the same credits), re-stage the chunk from its GPU source,
    /// and re-enter the post path. Gives the chunk up if credits stay
    /// dry for the same 500 ms bound the blocking allocator uses.
    fn pipe_chunk_restage(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        c: PipeChunk,
        attempt: u32,
        op: &Rc<ChunkOp>,
        waited: SimDuration,
    ) {
        let got = self.pe_state(c.me).staging_alloc.borrow_mut().alloc(c.clen);
        let stg_off = match got {
            Ok(off) => off,
            Err(_) if waited < SimDuration::from_ms(500) => {
                let step = SimDuration::from_us(1);
                self.chunk_in(s, step, op, move |s, m, op| {
                    m.pipe_chunk_restage(s, c, attempt, op, waited + step);
                });
                return;
            }
            Err(_) => {
                // credit starvation during replay: resolve the chunk as
                // failed rather than probing forever
                op.exhausted(self, s.now());
                op.give_up(s, &[&c.comp.remote]);
                return;
            }
        };
        let stg = self.layout().staging_base(c.me).add(stg_off);
        let t_stage = s.now();
        let d2h = Completion::new();
        self.gpus().dma_start(s, c.src_c, stg, c.clen, &d2h);
        self.pipe_chunk_staged(s, &d2h, t_stage, c, stg_off, attempt, op);
    }

    /// Post one put chunk — `len` bytes from the origin's `src` into
    /// `dst` under `rkey` — through the event-context retry loop. A
    /// clean post counts the chunk delivered; a spent budget runs
    /// `on_fail`, which releases the chunk's staging credits and gives
    /// it up.
    #[allow(clippy::too_many_arguments)]
    fn put_chunk_post(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        op: &Rc<ChunkOp>,
        src: MemRef,
        rkey: Rkey,
        dst: MemRef,
        len: u64,
        comp: RdmaCompletion,
        on_fail: impl ChunkStep,
    ) {
        let me = op.origin;
        let post = move |s: &mut Sched<'_>, m: &Rc<Self>, op: &Rc<ChunkOp>| {
            m.ib()
                .rdma_write_start(s, me, src, rkey, dst, len, &comp)
                .expect("put chunk rdma");
            op.ok(s, len);
        };
        self.chunk_post_with_retry(s, me, op, post, on_fail);
    }

    /// Post one get chunk — `len` bytes from `poster`'s staging at
    /// `t_off` into the requester's `dst` under `rkey` — through the
    /// event-context retry loop, drawing from the serving side's fault
    /// stream. The staging credit frees once the HCA has read it and
    /// the chunk is served when it lands (its `chunk-rdma` span starts
    /// at `t_rdma`); a spent budget frees the credit and gives the
    /// chunk up.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_chunk_post(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        op: &Rc<ChunkOp>,
        poster: ProcId,
        t_off: u64,
        rkey: Rkey,
        dst: MemRef,
        index: u64,
        len: u64,
        t_rdma: SimTime,
    ) {
        let post = move |s: &mut Sched<'_>, m: &Rc<Self>, op: &Rc<ChunkOp>| {
            let comp = RdmaCompletion::new();
            let t_stg = m.layout().staging_base(poster).add(t_off);
            m.ib()
                .rdma_write_start(s, poster, t_stg, rkey, dst, len, &comp)
                .expect("get chunk rdma");
            m.free_staging_on(s, &comp.local, poster, t_off, len);
            m.chunk_on(s, &comp.remote, op, move |s, m, op| {
                op.span(m, "chunk-rdma", index, len, t_rdma, s.now());
                op.ok(s, len);
            });
        };
        let on_fail = move |s: &mut Sched<'_>, m: &Rc<Self>, op: &Rc<ChunkOp>| {
            m.free_staging(poster, t_off, len);
            op.give_up(s, &[]);
        };
        self.chunk_post_with_retry(s, poster, op, post, on_fail);
    }

    /// Release `pe`'s staging range at `off` once `read` (the HCA's
    /// local completion) fires.
    fn free_staging_on(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        read: &Completion,
        pe: ProcId,
        off: u64,
        len: u64,
    ) {
        let m = self.clone();
        s.call_on(read, 1, Box::new(move |_| m.free_staging(pe, off, len)));
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
        let op = ChunkOp::put(self, Protocol::HostPipelineStaged, me, token, len, None);
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
            let delivery = Delivery {
                staged: t_stg,
                dst: dst.add(off),
                len: clen,
                ack: ack.clone(),
                staging_off: t_off,
            };
            ctx.with_sched(|s| {
                // once the chunk is staged: RDMA it into the target
                // staging (drawing this chunk's CQE fault stream first)
                let comp_c = comp.clone();
                let ack_c = ack.clone();
                self.chunk_on(s, &d2h, &op, move |s, m, op| {
                    m.put_chunk_post(
                        s,
                        op,
                        stg,
                        host_rkey,
                        t_stg,
                        clen,
                        comp_c,
                        move |s, m, op| {
                            // both staging credits die with the chunk;
                            // poison the ack so quiet and the op's flow end
                            // cannot hang on it
                            m.free_staging(me, stg_off, clen);
                            m.free_staging(target, t_off, clen);
                            op.give_up(s, &[&ack_c]);
                        },
                    );
                });
                // free my staging when the HCA has read it
                self.free_staging_on(s, &comp.local, me, stg_off, clen);
                // when the payload lands in target staging, hand the
                // final H2D to the target's progress engine
                self.chunk_on(s, &comp.remote, &op, move |s, m, _| {
                    m.arrive_pending(s, target, PendingWork::Deliver(delivery));
                });
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
        op.finish(ctx, self)
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
        let stats = self.proxy(node);
        stats.puts_served.set(stats.puts_served.get() + 1);
        stats.bytes.set(stats.bytes.get() + len);
        let op = ChunkOp::put(
            self,
            Protocol::ProxyPipeline,
            me,
            token,
            len,
            Some(self.proxy_track(node)),
        );
        op.proxy_request(self, "put", ctx.now());
        let mut last_local: Option<Completion> = None;
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            let t_off = self.alloc_staging_blocking(ctx, target, clen)?;
            let t_stg = self.layout().staging_base(target).add(t_off);
            let dst_c = dst.add(off);
            let comp = RdmaCompletion::new();
            let proxy_done = Completion::new();
            let pd = proxy_done.clone();

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
                ctx.with_sched(|s| {
                    let comp_c = comp.clone();
                    self.chunk_on(s, &d2h, &op, move |s, m, op| {
                        m.put_chunk_post(
                            s,
                            op,
                            stg,
                            host_rkey,
                            t_stg,
                            clen,
                            comp_c,
                            move |s, m, op| {
                                m.free_staging(me, stg_off, clen);
                                m.free_staging(target, t_off, clen);
                                op.give_up(s, &[&pd]);
                            },
                        );
                    });
                    self.free_staging_on(s, &comp.local, me, stg_off, clen);
                });
                last_local = Some(d2h);
            } else {
                self.ensure_registered(ctx, me, src.add(off), clen);
                let local = comp.local.clone();
                ctx.with_sched(|s| {
                    self.put_chunk_post(
                        s,
                        &op,
                        src.add(off),
                        host_rkey,
                        t_stg,
                        clen,
                        comp.clone(),
                        move |s, m, op| {
                            // nothing staged on my side; the target credit
                            // dies with the chunk, and both the proxy
                            // completion and the local completion the op
                            // blocks on are poisoned
                            m.free_staging(target, t_off, clen);
                            op.give_up(s, &[&pd, &local]);
                        },
                    );
                });
                last_local = Some(comp.local.clone());
            }

            // when the chunk lands in target staging: the remote proxy
            // wakes (signal latency) and performs the H2D
            let pd = proxy_done.clone();
            ctx.with_sched(|s| {
                self.chunk_on(s, &comp.remote, &op, move |s, m, op| {
                    let t_arrive = s.now();
                    // a stalled proxy agent services this chunk late —
                    // unless its fault window ends first and the
                    // restarted agent re-drives the remaining chunks
                    let signal = base_signal + m.proxy_stall_or_restart(node, t_arrive, op);
                    m.chunk_in(s, signal, op, move |s, m, op| {
                        let t_h2d = s.now();
                        op.span(m, "chunk-wakeup", i, clen, t_arrive, t_h2d);
                        let h2d = Completion::new();
                        m.gpus().dma_start(s, t_stg, dst_c, clen, &h2d);
                        m.chunk_on(s, &h2d, op, move |s, m, op| {
                            op.span(m, "chunk-h2d", i, clen, t_h2d, s.now());
                            m.free_staging(target, t_off, clen);
                            s.signal(&pd, 1);
                        });
                    });
                });
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
        op.finish(ctx, self)
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
        let rkey = self
            .ib()
            .mrs()
            .check_local(me, dst, len)
            .expect("just registered")
            .rkey;
        let node = self.cluster().topo().node_of(from);
        let op = ChunkOp::get(
            self,
            Protocol::ProxyPipeline,
            me,
            token,
            len,
            Some(self.proxy_track(node)),
        );
        // a stalled proxy agent (fault plan) services requests late —
        // unless its fault window ends first and the restarted agent
        // re-drives the transfer's remaining chunks
        let signal =
            self.proxy_signal_latency() + self.proxy_stall_or_restart(node, ctx.now(), &op);
        let stats = self.proxy(node);
        stats.gets_served.set(stats.gets_served.get() + 1);
        stats.bytes.set(stats.bytes.get() + len);
        op.proxy_request(self, "get", ctx.now());
        ctx.advance(self.cluster().hw().ib.post_overhead);
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            // credit-based reservation of the remote staging
            let t_off = self.alloc_staging_blocking(ctx, from, clen)?;
            let t_stg = self.layout().staging_base(from).add(t_off);
            let src_c = src.add(off);
            let dst_c = dst.add(off);
            let t_req = ctx.now();
            ctx.with_sched(|s| {
                self.chunk_in(s, signal, &op, move |s, m, op| {
                    // proxy: D2H from the target GPU into its staging
                    let t_wake = s.now();
                    op.span(m, "chunk-wakeup", i, clen, t_req, t_wake);
                    let d2h = Completion::new();
                    m.gpus().dma_start(s, src_c, t_stg, clen, &d2h);
                    m.chunk_on(s, &d2h, op, move |s, m, op| {
                        let t_rdma = s.now();
                        op.span(m, "chunk-d2h", i, clen, t_wake, t_rdma);
                        m.get_chunk_post(s, op, from, t_off, rkey, dst_c, i, clen, t_rdma);
                    });
                });
            });
        }
        op.finish(ctx, self)
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
        rkey: Rkey,
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
                let (protocol, total, op_id) = (Protocol::DirectGdr.name(), len, token.id);
                let payload = Payload::PartialDelivery { protocol, delivered, total, op_id };
                self.fault_event(me, ctx.now(), FaultEvent::PartialDelivery, payload);
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
        let chunk = self.cfg().pipeline_chunk;
        let n = len.div_ceil(chunk);
        let signal = self.proxy_signal_latency()
            + self.proxy_stall_extra(self.cluster().topo().node_of(from), ctx.now());
        let op = ChunkOp::get(self, Protocol::HostPipelineStaged, me, token, len, None);
        let req = GetRequest {
            src,
            req_staging: my_stg,
            len,
            requester: me,
            op: op.clone(),
        };
        ctx.advance(self.cluster().hw().ib.post_overhead);
        ctx.with_sched(|s| {
            self.chunk_in(s, signal, &op, move |s, m, _| {
                m.arrive_pending(s, from, PendingWork::ServeGet(req));
            });
        });
        // as chunks land in my staging, H2D them to the final buffer
        // (synchronous cudaMemcpy calls, as in the baseline runtime).
        // Failed chunks resolve the op's outcome too, so the loop cannot
        // hang; their H2D copies move undefined staging bytes, which the
        // typed partial-delivery error below disclaims.
        for i in 0..n {
            ctx.wait_threshold(&op.outcome, i + 1);
            let off = i * chunk;
            let clen = chunk.min(len - off);
            self.gpus()
                .memcpy_sync(ctx, my_stg.add(off), dst.add(off), clen);
        }
        self.free_staging(me, my_off, len);
        op.finish(ctx, self)
    }
}
