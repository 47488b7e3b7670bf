//! Two-sided send/recv over queue pairs.
//!
//! Used by the Table II "IB Send/Recv" baseline row and by the MPI-style
//! layer the original GPULBM application is written against. Matching is
//! per ordered (sender → receiver) channel, FIFO, like an IB RC QP: a
//! send transfers as soon as a receive buffer is available; otherwise it
//! waits (receiver-not-ready).

use crate::mr::MrError;
use crate::IbVerbs;
use pcie_sim::mem::MemRef;
use pcie_sim::ProcId;
use sim_core::{Completion, Sched, TaskCtx};
use std::cell::{Cell, RefCell, RefMut};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

struct PostedRecv {
    buf: MemRef,
    cap: u64,
    done: Completion,
    len_cell: Rc<Cell<u64>>,
}

struct PendingSend {
    src: MemRef,
    len: u64,
    local: Completion,
}

#[derive(Default)]
struct QpState {
    recvs: VecDeque<PostedRecv>,
    sends: VecDeque<PendingSend>,
}

/// All (sender → receiver) channels in the fabric.
#[derive(Default)]
pub struct QpTable {
    chans: RefCell<BTreeMap<(ProcId, ProcId), QpState>>,
}

impl QpTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn chan(&self, sender: ProcId, receiver: ProcId) -> RefMut<'_, QpState> {
        RefMut::map(self.chans.borrow_mut(), |c| c.entry((sender, receiver)).or_default())
    }
}

/// Errors from two-sided operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SendRecvError {
    /// Local-buffer registration problem.
    Mr(MrError),
    /// Matched receive buffer smaller than the incoming message.
    Truncation { msg: u64, cap: u64 },
}

impl From<MrError> for SendRecvError {
    fn from(e: MrError) -> Self {
        SendRecvError::Mr(e)
    }
}

impl std::fmt::Display for SendRecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendRecvError::Mr(e) => write!(f, "{e}"),
            SendRecvError::Truncation { msg, cap } => {
                write!(f, "message of {msg} bytes truncates {cap}-byte receive")
            }
        }
    }
}

impl std::error::Error for SendRecvError {}

impl IbVerbs {
    /// Event-context receive post (no CPU-overhead charge). The
    /// completion fires when a matching send's payload has landed in `buf`.
    pub fn recv_start(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        receiver: ProcId,
        sender: ProcId,
        buf: MemRef,
        cap: u64,
        done: &Completion,
    ) -> Result<(), SendRecvError> {
        self.recv_start_sized(s, receiver, sender, buf, cap, done, &Rc::default())
    }

    /// As [`IbVerbs::recv_start`], also reporting the matched message
    /// length through `len_cell` (set at match time, before data moves).
    #[allow(clippy::too_many_arguments)]
    pub fn recv_start_sized(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        receiver: ProcId,
        sender: ProcId,
        buf: MemRef,
        cap: u64,
        done: &Completion,
        len_cell: &Rc<Cell<u64>>,
    ) -> Result<(), SendRecvError> {
        self.mrs().check_local(receiver, buf, cap)?;
        let to_start = {
            let mut st = self.qps().chan(sender, receiver);
            // check truncation BEFORE popping: an error must leave the
            // queued send intact or its local completion never fires
            if let Some(send) = st.sends.front() {
                if send.len > cap {
                    return Err(SendRecvError::Truncation {
                        msg: send.len,
                        cap,
                    });
                }
            }
            if let Some(send) = st.sends.pop_front() {
                Some(send)
            } else {
                st.recvs.push_back(PostedRecv {
                    buf,
                    cap,
                    done: done.clone(),
                    len_cell: len_cell.clone(),
                });
                None
            }
        };
        if let Some(send) = to_start {
            len_cell.set(send.len);
            self.sendrecv_transfer(s, sender, receiver, send.src, buf, send.len, &send.local, done);
        }
        Ok(())
    }

    /// Event-context send post (no CPU-overhead charge); `local` fires
    /// when the source buffer is reusable. The transfer starts once the
    /// receiver has a buffer posted.
    pub fn send_start(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        sender: ProcId,
        receiver: ProcId,
        src: MemRef,
        len: u64,
        local: &Completion,
    ) -> Result<(), SendRecvError> {
        self.mrs().check_local(sender, src, len)?;
        let matched = {
            let mut st = self.qps().chan(sender, receiver);
            // mirror of recv_start: peek the truncation check first so a
            // failed post leaves the queued receive matchable
            if let Some(recv) = st.recvs.front() {
                if len > recv.cap {
                    return Err(SendRecvError::Truncation {
                        msg: len,
                        cap: recv.cap,
                    });
                }
            }
            if let Some(recv) = st.recvs.pop_front() {
                Some(recv)
            } else {
                st.sends.push_back(PendingSend {
                    src,
                    len,
                    local: local.clone(),
                });
                None
            }
        };
        if let Some(recv) = matched {
            recv.len_cell.set(len);
            self.sendrecv_transfer(s, sender, receiver, src, recv.buf, len, local, &recv.done);
        }
        Ok(())
    }

    /// Post a receive buffer from task context (charges post overhead).
    pub fn post_recv(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        receiver: ProcId,
        sender: ProcId,
        buf: MemRef,
        cap: u64,
    ) -> Result<Completion, SendRecvError> {
        ctx.advance(self.cluster().hw().ib.post_overhead);
        let done = Completion::new();
        ctx.with_sched(|s| self.recv_start(s, receiver, sender, buf, cap, &done))?;
        Ok(done)
    }

    /// Post a send from task context (charges post overhead); returns the
    /// local completion (source reusable).
    pub fn post_send(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        sender: ProcId,
        receiver: ProcId,
        src: MemRef,
        len: u64,
    ) -> Result<Completion, SendRecvError> {
        ctx.advance(self.cluster().hw().ib.post_overhead);
        let local = Completion::new();
        ctx.with_sched(|s| self.send_start(s, sender, receiver, src, len, &local))?;
        Ok(local)
    }

    /// The matched-transfer path: an RDMA-write-shaped movement plus the
    /// receiver-side completion processing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sendrecv_transfer(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        sender: ProcId,
        receiver: ProcId,
        src: MemRef,
        dst: MemRef,
        len: u64,
        local: &Completion,
        remote: &Completion,
    ) {
        self.hca(self.cluster().topo().hca_of(sender)).note_send();
        let extra_remote = self.cluster().hw().ib.cq_delivery; // recv CQE
        self.transfer_core(s, sender, src, dst, receiver, len, local, remote, extra_remote);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fabric;
    use pcie_sim::mem::MemSpace;
    use sim_core::SimDuration;

    #[test]
    fn send_matches_posted_recv_and_moves_data() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(2, move |ctx| {
            let me = ProcId(ctx.id().0 as u32);
            let mine = MemRef::new(MemSpace::Host(me), 0);
            let mr = ib2.reg_mr_nocost(me, mine, 4096);
            let _ = mr;
            if me == ProcId(0) {
                ib2.cluster().mem().write_bytes(mine, b"payload!").unwrap();
                let local = ib2.post_send(&ctx, me, ProcId(1), mine, 8).unwrap();
                ctx.wait(&local);
            } else {
                let done = ib2.post_recv(&ctx, me, ProcId(0), mine, 4096).unwrap();
                ctx.wait(&done);
                assert_eq!(
                    ib2.cluster().mem().read_bytes(mine, 8).unwrap(),
                    b"payload!"
                );
            }
        });
    }

    #[test]
    fn unposted_recv_delays_send_completion() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        let out = sim.run(2, move |ctx| {
            let me = ProcId(ctx.id().0 as u32);
            let mine = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, mine, 4096);
            if me == ProcId(0) {
                let t0 = ctx.now();
                let local = ib2.post_send(&ctx, me, ProcId(1), mine, 64).unwrap();
                ctx.wait(&local);
                (ctx.now() - t0).as_us_f64()
            } else {
                // receiver naps before posting
                ctx.advance(SimDuration::from_us(50));
                let done = ib2.post_recv(&ctx, me, ProcId(0), mine, 64).unwrap();
                ctx.wait(&done);
                0.0
            }
        });
        assert!(out[0] >= 50.0, "sender completed before recv: {}", out[0]);
    }

    #[test]
    fn truncation_is_detected() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(2, move |ctx| {
            let me = ProcId(ctx.id().0 as u32);
            let mine = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, mine, 4096);
            if me == ProcId(0) {
                // recv first so the send matches instantly
                let done = ib2.post_recv(&ctx, me, ProcId(1), mine, 16);
                let _ = done;
            } else {
                ctx.advance(SimDuration::from_us(1));
                let err = ib2.post_send(&ctx, me, ProcId(0), mine, 64).unwrap_err();
                assert!(matches!(err, SendRecvError::Truncation { .. }));
            }
        });
    }

    #[test]
    fn sends_and_recvs_match_in_fifo_order() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(2, move |ctx| {
            let me = ProcId(ctx.id().0 as u32);
            let mine = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, mine, 4096);
            if me == ProcId(0) {
                for i in 0..4u8 {
                    ib2.cluster()
                        .mem()
                        .write_bytes(mine.add(i as u64 * 64), &[i; 64])
                        .unwrap();
                    let c = ib2
                        .post_send(&ctx, me, ProcId(1), mine.add(i as u64 * 64), 64)
                        .unwrap();
                    ctx.wait(&c);
                }
            } else {
                let mut dones = Vec::new();
                for i in 0..4u8 {
                    dones.push(
                        ib2.post_recv(&ctx, me, ProcId(0), mine.add(i as u64 * 256), 64)
                            .unwrap(),
                    );
                }
                for d in &dones {
                    ctx.wait(d);
                }
                for i in 0..4u8 {
                    let got = ib2
                        .cluster()
                        .mem()
                        .read_bytes(mine.add(i as u64 * 256), 64)
                        .unwrap();
                    assert!(got.iter().all(|&b| b == i), "recv {i} got wrong payload");
                }
            }
        });
    }
}

#[cfg(test)]
mod truncation_recovery_tests {
    use super::*;
    use crate::testutil::fabric;
    use pcie_sim::mem::MemSpace;

    #[test]
    fn failed_truncating_recv_leaves_the_send_matchable() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(2, move |ctx| {
            let me = ProcId(ctx.rank() as u32);
            let mine = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, mine, 4096);
            if me == ProcId(0) {
                ib2.cluster().mem().write_bytes(mine, &[9u8; 64]).unwrap();
                let local = ib2.post_send(&ctx, me, ProcId(1), mine, 64).unwrap();
                ctx.wait(&local); // must still complete after the bad recv
            } else {
                ctx.advance(sim_core::SimDuration::from_us(5));
                // too-small recv: rejected, but the send must survive
                let err = ib2.post_recv(&ctx, me, ProcId(0), mine, 16).unwrap_err();
                assert!(matches!(err, SendRecvError::Truncation { .. }));
                let done = ib2.post_recv(&ctx, me, ProcId(0), mine, 4096).unwrap();
                ctx.wait(&done);
                assert_eq!(ib2.cluster().mem().read_bytes(mine, 64).unwrap(), vec![9u8; 64]);
            }
        });
    }
}
