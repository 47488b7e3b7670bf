//! CUDA-aware two-sided messaging (the "MPI send/recv" layer).
//!
//! The original GPULBM application is CUDA-aware MPI (paper §IV); the
//! LBM baseline in this reproduction runs over this layer. Device
//! buffers are staged through the registered host staging areas exactly
//! like a host-based-pipeline MPI: D2H before the send, H2D after the
//! receive. Host buffers go straight over the two-sided verbs.

use crate::pe::Pe;
use pcie_sim::mem::MemRef;
use pcie_sim::ProcId;
use sim_core::Completion;
use std::rc::Rc;

/// Handle of a pending two-sided operation; wait with [`Pe::msg_wait`].
pub struct MsgHandle {
    done: Completion,
    /// Staging to free once done (offset, len, owner).
    staging: Option<(u64, u64, ProcId)>,
}

impl Pe {
    /// Non-blocking send (`MPI_Isend` analogue). The handle completes
    /// when the source buffer is reusable.
    pub fn isend(&self, to: usize, src: MemRef, len: u64) -> MsgHandle {
        let m = self.machine().clone();
        let me = self.proc_id();
        let to = ProcId(to as u32);
        if src.is_device() {
            // stage D2H into app memory, then copy into the MPI
            // library's registered (pinned) pool — the original
            // application's buffers are plain cudaMalloc/malloc, so the
            // CUDA-aware MPI path pays this extra copy — then send.
            let off = m
                .alloc_staging_blocking(self.ctx(), me, len)
                .unwrap_or_else(|e| panic!("isend: {e}"));
            let stg = m.layout().staging_base(me).add(off);
            let d2h = m.gpus().memcpy_async(self.ctx(), src, stg, len);
            let local = Completion::new();
            let m2 = m.clone();
            let local2 = local.clone();
            self.ctx().with_sched(|s| {
                s.call_on(
                    &d2h,
                    1,
                    Box::new(move |s| {
                        // pinned-pool copy on the library's progress thread
                        let grant = m2.pe_state(me).pin_engine.borrow_mut().reserve(s.now(), len);
                        let m3 = m2.clone();
                        let local3 = local2.clone();
                        s.schedule_at(
                            grant.arrive,
                            Box::new(move |s| {
                                m3.ib()
                                    .send_start(s, me, to, stg, len, &local3)
                                    .unwrap_or_else(|e| panic!("isend: {e}"));
                            }),
                        );
                    }),
                );
            });
            MsgHandle {
                done: local,
                staging: Some((off, len, me)),
            }
        } else {
            m.ensure_registered(self.ctx(), me, src, len);
            let local = m
                .ib()
                .post_send(self.ctx(), me, to, src, len)
                .unwrap_or_else(|e| panic!("isend: {e}"));
            MsgHandle {
                done: local,
                staging: None,
            }
        }
    }

    /// Non-blocking receive (`MPI_Irecv` analogue). The handle completes
    /// when the payload is in `dst` (including the H2D stage for device
    /// destinations).
    pub fn irecv(&self, from: usize, dst: MemRef, cap: u64) -> MsgHandle {
        let m = self.machine().clone();
        let me = self.proc_id();
        let from = ProcId(from as u32);
        if dst.is_device() {
            let off = m
                .alloc_staging_blocking(self.ctx(), me, cap)
                .unwrap_or_else(|e| panic!("irecv: {e}"));
            let stg = m.layout().staging_base(me).add(off);
            let landed = Completion::new();
            let done = Completion::new();
            let matched_len = Rc::new(std::cell::Cell::new(0));
            let ml = matched_len.clone();
            self.ctx().with_sched(|s| {
                m.ib()
                    .recv_start_sized(s, me, from, stg, cap, &landed, &ml)
                    .unwrap_or_else(|e| panic!("irecv: {e}"));
            });
            // chain: recv landed in the pinned pool -> copy to the app
            // staging -> H2D -> done (the reverse pinned-pool copy).
            // Only the matched message length moves to the device; a
            // larger posted capacity must not clobber bytes beyond it.
            let m2 = m.clone();
            let done2 = done.clone();
            self.ctx().with_sched(|s| {
                s.call_on(
                    &landed,
                    1,
                    Box::new(move |s| {
                        let n = matched_len.get();
                        // reverse pinned-pool copy on the progress thread
                        let grant = m2.pe_state(me).pin_engine.borrow_mut().reserve(s.now(), n);
                        let m3 = m2.clone();
                        let done3 = done2.clone();
                        s.schedule_at(
                            grant.arrive,
                            Box::new(move |s| {
                                let h2d = Completion::new();
                                m3.gpus().dma_start(s, stg, dst, n, &h2d);
                                let done4 = done3.clone();
                                s.call_on(&h2d, 1, Box::new(move |s| s.signal(&done4, 1)));
                            }),
                        );
                    }),
                );
            });
            MsgHandle {
                done,
                staging: Some((off, cap, me)),
            }
        } else {
            m.ensure_registered(self.ctx(), me, dst, cap);
            let done = m
                .ib()
                .post_recv(self.ctx(), me, from, dst, cap)
                .unwrap_or_else(|e| panic!("irecv: {e}"));
            MsgHandle {
                done,
                staging: None,
            }
        }
    }

    /// Wait for one handle (`MPI_Wait`).
    pub fn msg_wait(&self, h: MsgHandle) {
        self.ctx().wait(&h.done);
        if let Some((off, len, owner)) = h.staging {
            self.machine().free_staging(owner, off, len);
        }
    }

    /// Wait for a set of handles (`MPI_Waitall`).
    pub fn msg_waitall(&self, hs: Vec<MsgHandle>) {
        for h in hs {
            self.msg_wait(h);
        }
    }

    /// Blocking send.
    pub fn send(&self, to: usize, src: MemRef, len: u64) {
        let h = self.isend(to, src, len);
        self.msg_wait(h);
    }

    /// Blocking receive.
    pub fn recv(&self, from: usize, dst: MemRef, cap: u64) {
        let h = self.irecv(from, dst, cap);
        self.msg_wait(h);
    }
}
