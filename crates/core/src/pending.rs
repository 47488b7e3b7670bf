//! Target-side progress: the piece of the baseline that breaks
//! one-sidedness.
//!
//! Host-pipeline transfers end with work only the **target process** can
//! do (the final H2D copy, or serving a get request). When such work
//! arrives while the target is inside a library call, it executes after
//! a short progress delay; otherwise it queues until the target's next
//! call — which is why the baseline's communication time grows with
//! target-side computation (paper Fig. 10), and exactly what the
//! Enhanced-GDR design eliminates.

use crate::machine::ShmemMachine;
use crate::state::{Delivery, GetRequest, PendingWork};
use ib_sim::RdmaCompletion;
use pcie_sim::ProcId;
use sim_core::{Completion, Sched, SimDuration, TaskCtx};
use std::rc::Rc;

impl ShmemMachine {
    /// Deliver `work` to `target`: execute immediately (plus a poll
    /// delay) if the target is inside the library, else enqueue it for
    /// the target's next call. Invoked from transfer-completion events.
    pub(crate) fn arrive_pending(self: &Rc<Self>, s: &mut Sched<'_>, target: ProcId, work: PendingWork) {
        let st = self.pe_state(target);
        if st.is_in_library() {
            self.execute_pending(s, target, work, self.poll_interval());
        } else if self.cfg().service_thread {
            // the service thread picks the work up after its polling
            // period plus the channel-lock handoff with the main thread
            let delay = SimDuration::from_ns(self.cfg().service_poll_ns)
                + self.poll_interval() * 2;
            self.execute_pending(s, target, work, delay);
        } else {
            st.pending.borrow_mut().push_back(work);
        }
    }

    /// Drain the queue at library entry (every shmem call does this).
    pub(crate) fn drain_pending(self: &Rc<Self>, ctx: &TaskCtx, me: ProcId) {
        loop {
            let work = self.pe_state(me).pending.borrow_mut().pop_front();
            match work {
                Some(w) => {
                    // the target's CPU spends a little time progressing
                    ctx.advance(self.poll_interval());
                    ctx.with_sched(|s| self.execute_pending(s, me, w, SimDuration::ZERO));
                }
                None => break,
            }
        }
    }

    /// Run one piece of deferred target-side work (event context).
    pub(crate) fn execute_pending(
        self: &Rc<Self>,
        s: &mut Sched<'_>,
        target: ProcId,
        work: PendingWork,
        delay: SimDuration,
    ) {
        self.pe_state(target).stats.borrow_mut().progressed += 1;
        match work {
            PendingWork::Deliver(d) => self.exec_delivery(s, target, d, delay),
            PendingWork::ServeGet(g) => self.exec_serve_get(s, target, g, delay),
        }
    }

    /// Final H2D copy of a host-pipeline put chunk + ack back to the source.
    fn exec_delivery(self: &Rc<Self>, s: &mut Sched<'_>, target: ProcId, d: Delivery, delay: SimDuration) {
        let mach = self.clone();
        let ack_lat = self.ack_latency();
        // the target's final copy is a full cudaMemcpy call; a stalled
        // progress agent (fault plan) starts it late
        let delay = delay
            + self.cluster().hw().gpu.memcpy_overhead
            + self.proxy_stall_extra(self.cluster().topo().node_of(target), s.now());
        s.schedule_in(
            delay,
            Box::new(move |s| {
                let h2d = Completion::new();
                mach.gpus().dma_start(s, d.staged, d.dst, d.len, &h2d);
                let mach2 = mach.clone();
                s.call_on(
                    &h2d,
                    1,
                    Box::new(move |s| {
                        mach2.free_staging(target, d.staging_off, d.len);
                        let ack = d.ack.clone();
                        s.schedule_in(ack_lat, Box::new(move |s| s.signal(&ack, 1)));
                    }),
                );
            }),
        );
    }

    /// Serve a host-pipeline get: chunked D2H into this PE's staging,
    /// each chunk RDMA-written into the requester's staging strip.
    /// Each reply post draws from the *serving* side's CQE fault stream;
    /// a chunk that exhausts its retries frees its staging credit and
    /// poisons `served`, and the requester reports the partial delivery.
    fn exec_serve_get(self: &Rc<Self>, s: &mut Sched<'_>, target: ProcId, g: GetRequest, delay: SimDuration) {
        let chunk = self.cfg().pipeline_chunk;
        let n = g.len.div_ceil(chunk);
        let req_rkey = self.layout().host_rkey(g.requester);
        // a stalled progress agent (fault plan) begins serving late
        let delay = delay + self.proxy_stall_extra(self.cluster().topo().node_of(target), s.now());
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(g.len - off);
            // the serving side's D2H is a full cudaMemcpy call per chunk
            let delay = delay + self.cluster().hw().gpu.memcpy_overhead * (i + 1);
            // staging is allocated here, in event context: a full area is
            // a configuration error, so fail loudly — unless the op runs
            // under a fault plan, where starvation resolves the chunk as
            // failed instead of crashing the run
            let t_off = match self.pe_state(target).staging_alloc.borrow_mut().alloc(clen) {
                Ok(o) => o,
                Err(_) if g.recovery.armed() => {
                    self.obs().fault_tally_at("exhausted", "host-pipeline-staged", s.now());
                    g.recovery.chunk_failed();
                    let served = g.served.clone();
                    s.schedule_in(delay, Box::new(move |s| s.signal(&served, 1)));
                    continue;
                }
                Err(_) => panic!(
                    "target staging exhausted while serving a get; raise RuntimeConfig::staging"
                ),
            };
            let t_stg = self.layout().staging_base(target).add(t_off);
            let src_c = g.src.add(off);
            let req_c = g.req_staging.add(off);
            let mach = self.clone();
            let served = g.served.clone();
            let recovery = g.recovery.clone();
            let token = g.token;
            s.schedule_in(
                delay,
                Box::new(move |s| {
                    let d2h = Completion::new();
                    mach.gpus().dma_start(s, src_c, t_stg, clen, &d2h);
                    let mach2 = mach.clone();
                    s.call_on(
                        &d2h,
                        1,
                        Box::new(move |s| {
                            let m = mach2.clone();
                            let served_ok = served.clone();
                            let rec_ok = recovery.clone();
                            let post: sim_core::Action = Box::new(move |s| {
                                let comp = RdmaCompletion::new();
                                m.ib()
                                    .rdma_write_start(
                                        s, target, t_stg, req_rkey, req_c, clen, &comp,
                                    )
                                    .expect("serve-get chunk rdma");
                                let m2 = m.clone();
                                s.call_on(
                                    &comp.local,
                                    1,
                                    Box::new(move |_| {
                                        m2.free_staging(target, t_off, clen);
                                    }),
                                );
                                s.call_on(
                                    &comp.remote,
                                    1,
                                    Box::new(move |s| {
                                        rec_ok.chunk_ok(clen);
                                        s.signal(&served_ok, 1);
                                    }),
                                );
                            });
                            let m3 = mach2.clone();
                            let on_fail: sim_core::Action = Box::new(move |s| {
                                m3.free_staging(target, t_off, clen);
                                recovery.chunk_failed();
                                s.signal(&served, 1);
                            });
                            mach2.chunk_post_with_retry(
                                s,
                                target,
                                "host-pipeline-staged",
                                token,
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
