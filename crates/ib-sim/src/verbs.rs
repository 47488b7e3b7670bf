//! One-sided verbs: RDMA write, RDMA read, and hardware atomics — with
//! GPUDirect paths when an endpoint is device memory.
//!
//! Timing model per operation (constants from [`pcie_sim::IbProfile`]):
//!
//! ```text
//! write:  post ─ wqe ─ gather(src DMA) ─ TX@eff_bw ─┬ depart → local CQ
//!                                                    └ wire/loopback ─ remote HCA ─ scatter(dst DMA) → remote visible
//! read:   post ─ wqe ─ request wire ─ responder gather ─ TX@eff_bw ─ wire back ─ local scatter → CQ
//! atomic: post ─ wqe ─ wire ─ remote HCA ─ atomic unit (@dst mem) ─ wire back → CQ (+old value)
//! ```
//!
//! `eff_bw` encodes the PCIe P2P caps of paper Table III whenever the
//! gather/scatter side touches GPU memory, keyed by the socket relation
//! between the executing HCA and the GPU.

use crate::mr::{MemoryRegion, MrError, Rkey};
use crate::IbVerbs;
use pcie_sim::mem::{MemRef, MemSpace};
use pcie_sim::profile::P2pDir;
use pcie_sim::{HcaId, ProcId};
use sim_core::{Completion, Sched, SimDuration, SimTime, TaskCtx};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Completion pair for a posted one-sided write.
#[derive(Clone, Debug)]
pub struct RdmaCompletion {
    /// Source buffer reusable (local CQE).
    pub local: Completion,
    /// Data visible in the target memory.
    pub remote: Completion,
}

impl RdmaCompletion {
    pub fn new() -> Self {
        RdmaCompletion {
            local: Completion::new(),
            remote: Completion::new(),
        }
    }
}

impl Default for RdmaCompletion {
    fn default() -> Self {
        Self::new()
    }
}

/// A fetched value delivered by an atomic's completion.
#[derive(Clone, Debug)]
pub struct AtomicResult {
    pub done: Completion,
    slot: Rc<Cell<Option<u64>>>,
}

impl AtomicResult {
    pub fn new() -> Self {
        AtomicResult {
            done: Completion::new(),
            slot: Rc::default(),
        }
    }

    /// The fetched old value, or `None` if the atomic has not completed
    /// yet (poll `done`, or wait on it, before reading). Fault-delayed
    /// atomics make early polls routine, so this must not panic.
    pub fn value(&self) -> Option<u64> {
        self.slot.get()
    }

    fn set(&self, v: u64) {
        self.slot.set(Some(v));
    }
}

impl Default for AtomicResult {
    fn default() -> Self {
        Self::new()
    }
}

/// Hardware atomic operations (64-bit, like IB HCAs).
#[derive(Clone, Copy, Debug)]
pub enum AtomicOp {
    FetchAdd(u64),
    CompareSwap { compare: u64, swap: u64 },
}

/// Resolved path facts for one operation.
struct Path {
    src_hca: HcaId,
    /// The HCA whose DMA engine touches the *target* memory
    /// (the source's own HCA for node-local loopback).
    exec_hca: HcaId,
    /// Wire latency between posting and executing HCA (one way).
    mid: SimDuration,
    loopback: bool,
}

impl IbVerbs {
    fn path_to(&self, poster: ProcId, dst_space_node: pcie_sim::NodeId, dst_owner: ProcId) -> Path {
        let topo = self.cluster().topo();
        let ib = &self.cluster().hw().ib;
        let src_hca = topo.hca_of(poster);
        if topo.node_of_hca(src_hca) == dst_space_node {
            // Node-local: the posting HCA loops the packet back and DMAs
            // into the destination itself (the paper's loopback design).
            Path {
                src_hca,
                exec_hca: src_hca,
                mid: ib.loopback,
                loopback: true,
            }
        } else {
            Path {
                src_hca,
                exec_hca: topo.hca_of(dst_owner),
                mid: ib.wire_latency + ib.switch_latency,
                loopback: false,
            }
        }
    }

    /// Gather-side effective bandwidth and extra latency for reading
    /// `mem` through `hca`.
    fn gather_cost(&self, mem: MemRef, hca: HcaId) -> (f64, SimDuration) {
        let hw = self.cluster().hw();
        match mem.space {
            MemSpace::Device(g) => {
                let intra = self.cluster().topo().gpu_hca_intra_socket(g, hca);
                (
                    hw.pcie.p2p_bw(P2pDir::ReadFromGpu, intra).min(hw.ib.wire_bw),
                    hw.ib.gdr_dma,
                )
            }
            _ => (hw.ib.wire_bw, hw.ib.host_dma),
        }
    }

    /// Scatter-side effective bandwidth and extra latency for writing
    /// `mem` through `hca`. Returns (bw cap, extra latency, Some(gpu)).
    fn scatter_cost(&self, mem: MemRef, hca: HcaId) -> (f64, SimDuration, Option<pcie_sim::GpuId>) {
        let hw = self.cluster().hw();
        match mem.space {
            MemSpace::Device(g) => {
                let intra = self.cluster().topo().gpu_hca_intra_socket(g, hca);
                (
                    hw.pcie.p2p_bw(P2pDir::WriteToGpu, intra).min(hw.ib.wire_bw),
                    hw.ib.gdr_dma,
                    Some(g),
                )
            }
            _ => (hw.ib.wire_bw, hw.ib.host_dma, None),
        }
    }

    /// Schedule an RDMA write (in engine context, via `Sched`). Completion
    /// semantics: `comp.local` fires when the source buffer is reusable,
    /// `comp.remote` when the data is visible at the destination. Returns
    /// the target MR.
    #[allow(clippy::too_many_arguments)]
    pub fn rdma_write_start(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        poster: ProcId,
        src: MemRef,
        rkey: Rkey,
        dst: MemRef,
        len: u64,
        comp: &RdmaCompletion,
    ) -> Result<MemoryRegion, MrError> {
        let mr = self.mrs().check_remote(rkey, dst, len)?;
        self.mrs().check_local(poster, src, len)?;
        self.hca(self.cluster().topo().hca_of(poster)).note_write();
        self.transfer_core(
            s,
            poster,
            src,
            dst,
            mr.owner,
            len,
            &comp.local,
            &comp.remote,
            SimDuration::ZERO,
        );
        Ok(mr)
    }

    /// The write-shaped transfer engine shared by RDMA write and matched
    /// send/recv: gather at the source HCA, stream at the bottleneck
    /// bandwidth, scatter at the executing HCA. `extra_remote` is added
    /// before the remote completion fires (e.g. receive-CQE processing).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transfer_core(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        poster: ProcId,
        src: MemRef,
        dst: MemRef,
        dst_owner: ProcId,
        len: u64,
        local_done: &Completion,
        remote_done: &Completion,
        extra_remote: SimDuration,
    ) {
        let topo = self.cluster().topo();
        let hw = *self.cluster().hw();
        let path = self.path_to(poster, topo.node_of_space(dst.space), dst_owner);

        // The transfer streams cut-through; its end-to-end bandwidth is
        // the minimum of the gather cap (P2P read when the source is on a
        // GPU), the wire, and the scatter cap (P2P write when the
        // destination is on a GPU). Latencies add once.
        let (gather_bw, gather_lat) = self.gather_cost(src, path.src_hca);
        let (scatter_bw, scatter_lat, scatter_gpu) = self.scatter_cost(dst, path.exec_hca);
        let mut eff = gather_bw.min(scatter_bw);
        if path.loopback && src.is_device() && dst.is_device() {
            // a D-D loopback streams GPU->HCA->GPU: both legs are P2P
            // through the HCA's one PCIe interface, halving throughput —
            // why D-D uses "the least GDR threshold" (paper §III-B)
            eff /= 2.0;
        }
        let t0 = s.now() + hw.ib.hca_wqe + gather_lat;
        if let MemSpace::Device(g) = src.space {
            // occupy the source GPU's PCIe read port for the duration
            let intra = topo.gpu_hca_intra_socket(g, path.src_hca);
            self.gpus()
                .p2p_reserve(self.gpus().gpu(g), t0, len, P2pDir::ReadFromGpu, intra);
        }
        let grant = self.tx_reserve(path.src_hca, t0, len, eff);

        // Local completion: last byte pulled from the source buffer.
        let local = local_done.clone();
        let cluster = self.cluster().clone();
        let remote = remote_done.clone();
        let at_exec_hca = grant.depart
            + path.mid
            + if path.loopback { SimDuration::ZERO } else { hw.ib.remote_hca };
        let visible_at = match scatter_gpu {
            Some(g) => {
                // occupy the destination GPU's PCIe write port; under
                // contention the port, not the wire, gates arrival
                let intra = topo.gpu_hca_intra_socket(g, path.exec_hca);
                let port = self.gpus().p2p_reserve(
                    self.gpus().gpu(g),
                    grant.start,
                    len,
                    P2pDir::WriteToGpu,
                    intra,
                );
                (at_exec_hca + scatter_lat + hw.pcie.latency)
                    .max(port.arrive + scatter_lat)
            }
            None => at_exec_hca + scatter_lat,
        } + extra_remote;
        // A late-completion fault delays only the CQE, never the data.
        let cq = grant.depart + hw.ib.cq_delivery + self.late_extra(poster);
        s.schedule_at(
            grant.depart,
            Box::new(move |s| {
                // HCA finished reading the source: the payload is the
                // source as it is now, whatever is written there later.
                let data = cluster
                    .mem()
                    .hold(src, len)
                    .expect("gather from validated buffer");
                s.schedule_at(
                    visible_at,
                    Box::new(move |s| {
                        cluster
                            .mem()
                            .deliver(data, dst)
                            .expect("scatter into validated MR");
                        s.signal(&remote, 1);
                    }),
                );
            }),
        );
        s.schedule_at(cq, Box::new(move |s| s.signal(&local, 1)));
    }

    /// Schedule an RDMA read (in engine context, via `Sched`); `done`
    /// fires when the data is available in `local_dst`.
    #[allow(clippy::too_many_arguments)]
    pub fn rdma_read_start(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        poster: ProcId,
        local_dst: MemRef,
        rkey: Rkey,
        remote_src: MemRef,
        len: u64,
        done: &Completion,
    ) -> Result<MemoryRegion, MrError> {
        let mr = self.mrs().check_remote(rkey, remote_src, len)?;
        self.mrs().check_local(poster, local_dst, len)?;
        let topo = self.cluster().topo();
        let hw = *self.cluster().hw();
        let path = self.path_to(poster, topo.node_of_space(remote_src.space), mr.owner);
        self.hca(path.src_hca).note_read();

        // Request reaches the responder...
        let t_req = s.now() + hw.ib.hca_wqe + path.mid
            + if path.loopback { SimDuration::ZERO } else { hw.ib.remote_hca };
        // ...which gathers the remote data and streams it back, cut-through
        // at the minimum of the gather and scatter caps.
        let (gather_bw, gather_lat) = self.gather_cost(remote_src, path.exec_hca);
        let (scatter_bw, scatter_lat, scatter_gpu) = self.scatter_cost(local_dst, path.src_hca);
        let mut eff = gather_bw.min(scatter_bw);
        if path.loopback && remote_src.is_device() && local_dst.is_device() {
            eff /= 2.0; // D-D loopback: double P2P through one HCA
        }
        if let MemSpace::Device(g) = remote_src.space {
            let intra = topo.gpu_hca_intra_socket(g, path.exec_hca);
            self.gpus().p2p_reserve(
                self.gpus().gpu(g),
                t_req + gather_lat,
                len,
                P2pDir::ReadFromGpu,
                intra,
            );
        }
        let grant = self.tx_reserve(path.exec_hca, t_req + gather_lat, len, eff);

        // Response crosses back and is scattered locally by the poster's HCA.
        let back_at = grant.depart + path.mid;
        let landed_at = match scatter_gpu {
            Some(g) => {
                let intra = topo.gpu_hca_intra_socket(g, path.src_hca);
                let port = self.gpus().p2p_reserve(
                    self.gpus().gpu(g),
                    grant.start,
                    len,
                    P2pDir::WriteToGpu,
                    intra,
                );
                (back_at + scatter_lat + hw.pcie.latency).max(port.arrive + scatter_lat)
            }
            None => back_at + scatter_lat,
        };
        let cluster = self.cluster().clone();
        let done = done.clone();
        let done_at = landed_at + hw.ib.cq_delivery + self.late_extra(poster);
        s.schedule_at(
            grant.depart,
            Box::new(move |s| {
                let data = cluster
                    .mem()
                    .hold(remote_src, len)
                    .expect("gather from validated MR");
                s.schedule_at(
                    done_at,
                    Box::new(move |s| {
                        cluster
                            .mem()
                            .deliver(data, local_dst)
                            .expect("scatter into validated local buffer");
                        s.signal(&done, 1);
                    }),
                );
            }),
        );
        Ok(mr)
    }

    /// Schedule a 64-bit hardware atomic executed by the target HCA's
    /// atomic unit directly against the destination memory (via GDR when
    /// the destination is on a GPU).
    pub fn atomic_start(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        poster: ProcId,
        rkey: Rkey,
        dst: MemRef,
        op: AtomicOp,
        result: &AtomicResult,
    ) -> Result<MemoryRegion, MrError> {
        let mr = self.mrs().check_remote(rkey, dst, 8)?;
        let topo = self.cluster().topo();
        let hw = *self.cluster().hw();
        let path = self.path_to(poster, topo.node_of_space(dst.space), mr.owner);
        self.hca(path.src_hca).note_atomic();

        let mem_lat = match dst.space {
            // the atomic unit must read+write the GPU over PCIe P2P
            MemSpace::Device(_) => hw.ib.gdr_dma * 2,
            _ => hw.ib.host_dma * 2,
        };
        let t_exec = s.now()
            + hw.ib.hca_wqe
            + path.mid
            + if path.loopback { SimDuration::ZERO } else { hw.ib.remote_hca }
            + hw.ib.atomic_unit
            + mem_lat;
        let t_done = t_exec + path.mid + hw.ib.cq_delivery + self.late_extra(poster);
        let me = self.clone();
        let result = result.clone();
        s.schedule_at(
            t_exec,
            Box::new(move |s| {
                let arena = me.cluster().mem().get(dst.space).expect("validated MR");
                let old = arena
                    .fetch_update_u64(dst.offset, |cur| match op {
                        AtomicOp::FetchAdd(v) => cur.wrapping_add(v),
                        AtomicOp::CompareSwap { compare, swap } => {
                            if cur == compare {
                                swap
                            } else {
                                cur
                            }
                        }
                    })
                    .expect("atomic on validated MR");
                result.set(old);
                let done = result.done.clone();
                s.schedule_at(t_done, Box::new(move |s| s.signal(&done, 1)));
            }),
        );
        Ok(mr)
    }

    /// RDMA **write with signal**: after the payload lands, the HCA
    /// updates a second (8-byte) location at the target — the hardware
    /// idiom behind `shmem_put_signal` (write + write-with-immediate on
    /// real adapters). Both writes are one-sided; the signal is ordered
    /// after the data.
    #[allow(clippy::too_many_arguments)]
    pub fn rdma_write_signal_start(
        self: &Arc<Self>,
        s: &mut Sched<'_>,
        poster: ProcId,
        src: MemRef,
        rkey: Rkey,
        dst: MemRef,
        len: u64,
        sig_rkey: Rkey,
        sig_dst: MemRef,
        sig_value: u64,
        comp: &RdmaCompletion,
    ) -> Result<(), MrError> {
        let mr = self.mrs().check_remote(rkey, dst, len)?;
        self.mrs().check_remote(sig_rkey, sig_dst, 8)?;
        self.mrs().check_local(poster, src, len)?;
        self.hca(self.cluster().topo().hca_of(poster)).note_write();
        // data transfer; the signal store chains on its remote completion
        let data_done = Completion::new();
        self.transfer_core(
            s,
            poster,
            src,
            dst,
            // the MR owner serves as the path anchor
            mr.owner,
            len,
            &comp.local,
            &data_done,
            SimDuration::ZERO,
        );
        let me = self.clone();
        let remote = comp.remote.clone();
        let sig_lat = self.cluster().hw().ib.host_dma;
        s.call_on(
            &data_done,
            1,
            Box::new(move |s| {
                // the signal store is executed by the same HCA right
                // after the last data byte (ordered on the QP)
                let me2 = me.clone();
                let remote2 = remote.clone();
                s.schedule_in(
                    sig_lat,
                    Box::new(move |s| {
                        me2.cluster()
                            .mem()
                            .get(sig_dst.space)
                            .expect("validated signal MR")
                            .write_u64(sig_dst.offset, sig_value)
                            .expect("signal store");
                        s.signal(&remote2, 1);
                    }),
                );
            }),
        );
        Ok(())
    }

    // ---- PE-context wrappers (charge the CPU post overhead) ----

    /// Post an RDMA write from task context.
    pub fn post_rdma_write(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        poster: ProcId,
        src: MemRef,
        rkey: Rkey,
        dst: MemRef,
        len: u64,
    ) -> Result<RdmaCompletion, MrError> {
        ctx.advance(self.cluster().hw().ib.post_overhead);
        let comp = RdmaCompletion::new();
        ctx.with_sched(|s| self.rdma_write_start(s, poster, src, rkey, dst, len, &comp))?;
        Ok(comp)
    }

    /// Post an RDMA read from task context.
    pub fn post_rdma_read(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        poster: ProcId,
        local_dst: MemRef,
        rkey: Rkey,
        remote_src: MemRef,
        len: u64,
    ) -> Result<Completion, MrError> {
        ctx.advance(self.cluster().hw().ib.post_overhead);
        let done = Completion::new();
        ctx.with_sched(|s| {
            self.rdma_read_start(s, poster, local_dst, rkey, remote_src, len, &done)
        })?;
        Ok(done)
    }

    /// Post a hardware atomic from task context.
    pub fn post_atomic(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        poster: ProcId,
        rkey: Rkey,
        dst: MemRef,
        op: AtomicOp,
    ) -> Result<AtomicResult, MrError> {
        ctx.advance(self.cluster().hw().ib.post_overhead);
        let result = AtomicResult::new();
        ctx.with_sched(|s| self.atomic_start(s, poster, rkey, dst, op, &result))?;
        Ok(result)
    }

    /// Predict the unloaded one-way latency of a small write on a path
    /// (used by tests and the tuning tables; excludes post overhead).
    pub fn unloaded_write_latency(
        &self,
        internode: bool,
        src_dev: bool,
        dst_dev: bool,
    ) -> SimDuration {
        let ib = &self.cluster().hw().ib;
        let gather = if src_dev { ib.gdr_dma } else { ib.host_dma };
        let scatter = if dst_dev { ib.gdr_dma } else { ib.host_dma };
        let pcie = self.cluster().hw().pcie.latency;
        let mid = if internode {
            ib.wire_latency + ib.switch_latency + ib.remote_hca
        } else {
            ib.loopback
        };
        let scatter_pcie = if dst_dev { pcie } else { SimDuration::ZERO };
        ib.hca_wqe + gather + mid + scatter + scatter_pcie
    }

    /// Timestamp helper for tests.
    pub fn now(&self) -> SimTime {
        self.sim().now()
    }
}

#[cfg(test)]
mod shape_tests {
    use crate::testutil::fabric;
    use crate::RdmaCompletion;
    use pcie_sim::mem::{MemRef, MemSpace};
    use pcie_sim::{GpuId, ProcId};

    /// Measure remote-completion time for a large write (us).
    fn write_time(src_dev: bool, dst_dev: bool, len: u64) -> f64 {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        let out = sim.run(1, move |ctx| {
            let me = ProcId(0);
            let src = if src_dev {
                ib2.gpus().gpu(GpuId(0)).malloc(len).unwrap()
            } else {
                MemRef::new(MemSpace::Host(me), 0)
            };
            ib2.reg_mr_nocost(me, src, len);
            let dst = if dst_dev {
                ib2.gpus().gpu(GpuId(2)).malloc(len).unwrap()
            } else {
                MemRef::new(MemSpace::Host(ProcId(1)), 0)
            };
            let mr = ib2.reg_mr_nocost(ProcId(1), dst, len);
            let t0 = ctx.now();
            let comp = ib2
                .post_rdma_write(&ctx, me, src, mr.rkey, dst, len)
                .unwrap();
            ctx.wait(&comp.remote);
            (ctx.now() - t0).as_us_f64()
        });
        out[0]
    }

    #[test]
    fn large_gdr_write_is_read_cap_limited_on_gpu_source() {
        let len = 4u64 << 20;
        let from_host = write_time(false, true, len); // gather host: wire speed
        let from_gpu = write_time(true, true, len); // gather P2P read: 3421 MB/s
        // ratio should be ~ wire/p2p_read = 6397/3421 = 1.87
        let ratio = from_gpu / from_host;
        assert!(
            (1.6..2.2).contains(&ratio),
            "P2P read cap not visible: {from_host} vs {from_gpu} (ratio {ratio})"
        );
    }

    #[test]
    fn host_to_host_runs_at_wire_speed() {
        let len = 8u64 << 20;
        let t = write_time(false, false, len);
        let mbps = len as f64 / t; // us and bytes -> MB/s
        assert!(
            (5800.0..6400.0).contains(&mbps),
            "H-H large write {mbps} MB/s (expect near 6397)"
        );
    }

    #[test]
    fn hca_stats_count_operations() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let me = ProcId(0);
            let src = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, src, 4096);
            let dst = MemRef::new(MemSpace::Host(ProcId(1)), 0);
            let mr = ib2.reg_mr_nocost(ProcId(1), dst, 4096);
            for _ in 0..3 {
                let c = ib2.post_rdma_write(&ctx, me, src, mr.rkey, dst, 64).unwrap();
                ctx.wait(&c.remote);
            }
            let d = ib2.post_rdma_read(&ctx, me, src, mr.rkey, dst, 64).unwrap();
            ctx.wait(&d);
        });
        let topo = ib.cluster().topo().clone();
        let hca = ib.hca(topo.hca_of(ProcId(0)));
        assert_eq!(hca.stats().writes_posted, 3);
        assert_eq!(hca.stats().reads_posted, 1);
        assert!(hca.stats().bytes_tx >= 3 * 64);
    }

    #[test]
    fn event_context_write_works_from_callbacks() {
        // the pipelined protocols post writes from inside events
        let (sim, ib) = fabric(2, 1);
        let src = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        let dst = MemRef::new(MemSpace::Host(ProcId(1)), 0);
        ib.reg_mr_nocost(ProcId(0), src, 4096);
        let mr = ib.reg_mr_nocost(ProcId(1), dst, 4096);
        ib.cluster().mem().write_bytes(src, b"from-event").unwrap();
        let comp = RdmaCompletion::new();
        let ib2 = ib.clone();
        let c2 = comp.clone();
        sim.with_sched(move |s| {
            s.schedule_in(
                sim_core::SimDuration::from_us(5),
                Box::new(move |s| {
                    ib2.rdma_write_start(s, ProcId(0), src, mr.rkey, dst, 10, &c2)
                        .unwrap();
                }),
            );
        });
        sim.drain();
        assert!(comp.remote.is_done(1));
        assert_eq!(ib.cluster().mem().read_bytes(dst, 10).unwrap(), b"from-event");
    }
}

#[cfg(test)]
mod contention_tests {
    use crate::testutil::fabric;
    use pcie_sim::mem::{MemRef, MemSpace};
    use pcie_sim::{GpuId, ProcId};

    #[test]
    fn concurrent_gdr_writes_serialize_on_the_target_port() {
        // two senders write 4 MiB each into the same GPU: the second
        // arrival must reflect port occupancy, not wire-only timing
        let (sim, ib) = fabric(3, 1);
        let dst_gpu = ib.gpus().gpu(GpuId(4)); // node2's gpu
        let d0 = dst_gpu.malloc(4 << 20).unwrap();
        let d1 = dst_gpu.malloc(4 << 20).unwrap();
        let mr0 = ib.reg_mr_nocost(ProcId(2), d0, 4 << 20);
        let mr1 = ib.reg_mr_nocost(ProcId(2), d1, 4 << 20);
        for p in [ProcId(0), ProcId(1)] {
            ib.reg_mr_nocost(p, MemRef::new(MemSpace::Host(p), 0), 8 << 20);
        }
        let ib2 = ib.clone();
        let times = sim.run(2, move |ctx| {
            let me = ProcId(ctx.rank() as u32);
            let (rkey, dst) = if me == ProcId(0) {
                (mr0.rkey, d0)
            } else {
                (mr1.rkey, d1)
            };
            let src = MemRef::new(MemSpace::Host(me), 0);
            let t0 = ctx.now();
            let c = ib2
                .post_rdma_write(&ctx, me, src, rkey, dst, 4 << 20)
                .unwrap();
            ctx.wait(&c.remote);
            (ctx.now() - t0).as_us_f64()
        });
        // one 4 MiB write at wire speed ~= 656us; two into one port can't
        // BOTH finish in that time (port native bw 12 GB/s => ~22% slack,
        // two wires feeding one port => the later one is measurably later)
        let slower = times[0].max(times[1]);
        let solo = 4.0 * (1 << 20) as f64 / 6397e6 * 1e6;
        assert!(
            slower > solo * 1.05,
            "no port contention visible: {times:?} vs solo {solo:.0}us"
        );
    }
}

/// A transfer's payload is its source at `grant.depart`: claimed there,
/// not copied, and delivered at the visibility instant whatever happens
/// to the source in between.
#[cfg(test)]
mod payload_tests {
    use crate::testutil::fabric;
    use crate::{IbVerbs, MemoryRegion};
    use pcie_sim::mem::{MemRef, MemSpace};
    use pcie_sim::ProcId;
    use sim_core::{Completion, Sim, SimDuration};
    use std::sync::Arc;

    const LEN: u64 = 1 << 20;
    const OLD: u8 = 0x11;
    const NEW: u8 = 0x99;

    fn host(p: u32) -> MemRef {
        MemRef::new(MemSpace::Host(ProcId(p)), 0)
    }

    /// Two nodes, `LEN` bytes registered at `host(0)` and `host(1)`;
    /// PE 0 posts, the MR is PE 1's.
    fn pair() -> (Sim, Arc<IbVerbs>, MemoryRegion) {
        let (sim, ib) = fabric(2, 1);
        ib.reg_mr_nocost(ProcId(0), host(0), LEN);
        let mr = ib.reg_mr_nocost(ProcId(1), host(1), LEN);
        (sim, ib, mr)
    }

    #[test]
    fn a_write_delivers_the_source_as_the_hca_read_it() {
        let (sim, ib, mr) = pair();
        let (src, dst) = (host(0), host(1));
        let mem = ib.cluster().clone();
        mem.mem().write_bytes(src, &vec![OLD; LEN as usize]).unwrap();
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let comp = ib2
                .post_rdma_write(&ctx, ProcId(0), src, mr.rkey, dst, LEN)
                .unwrap();
            // the source is reusable at the local CQE: reuse it there,
            // in event context, while the payload is still on the wire
            let (mem2, remote) = (ib2.cluster().clone(), comp.remote.clone());
            ctx.with_sched(|s| {
                s.call_on(
                    &comp.local,
                    1,
                    Box::new(move |_| {
                        assert!(!remote.is_done(1), "the CQE must precede visibility");
                        mem2.mem().write_bytes(src, &vec![NEW; LEN as usize]).unwrap();
                    }),
                );
            });
            ctx.wait(&comp.remote);
        });
        assert_eq!(mem.mem().read_bytes(dst, LEN).unwrap(), vec![OLD; LEN as usize]);
        assert_eq!(mem.mem().read_bytes(src, LEN).unwrap(), vec![NEW; LEN as usize]);
        // the overwrite is what copied the payload, and only it
        let st = mem.mem().stats();
        assert_eq!((st.cow_saves, st.bytes_moved), (1, 2 * LEN));
    }

    /// How long an undisturbed `LEN`-byte read takes from a fresh fabric's
    /// time zero (the run is deterministic, so another one's takes the same).
    fn read_takes() -> SimDuration {
        let (sim, ib, mr) = pair();
        sim.run(1, move |ctx| {
            let done = ib
                .post_rdma_read(&ctx, ProcId(0), host(0), mr.rkey, host(1), LEN)
                .unwrap();
            ctx.wait(&done);
        });
        sim.now() - sim_core::SimTime::ZERO
    }

    #[test]
    fn a_read_delivers_the_source_as_the_responder_read_it() {
        // after the responder's last byte left (wire back + scatter + CQE
        // are 1.1 us) and before the data has landed
        let overwrite_in = read_takes().saturating_sub(SimDuration::from_ns(500));
        let (sim, ib, mr) = pair();
        let (dst, src) = (host(0), host(1));
        let mem = ib.cluster().clone();
        mem.mem().write_bytes(src, &vec![OLD; LEN as usize]).unwrap();
        let mem2 = mem.clone();
        sim.with_sched(|s| {
            s.schedule_in(
                overwrite_in,
                Box::new(move |_| mem2.mem().write_bytes(src, &vec![NEW; LEN as usize]).unwrap()),
            );
        });
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let done = ib2
                .post_rdma_read(&ctx, ProcId(0), dst, mr.rkey, src, LEN)
                .unwrap();
            ctx.wait(&done);
        });
        assert_eq!(mem.mem().read_bytes(dst, LEN).unwrap(), vec![OLD; LEN as usize]);
        // one save: the overwrite fell between the claim and its delivery
        let st = mem.mem().stats();
        assert_eq!((st.cow_saves, st.bytes_moved), (1, 2 * LEN));
    }

    #[test]
    fn a_transfer_dropped_with_its_engine_releases_its_claim() {
        let (sim, ib, mr) = pair();
        let (src, dst) = (host(0), host(1));
        let mem = ib.cluster().clone();
        let local = Completion::new();
        let (ib2, local2) = (ib.clone(), local.clone());
        // the poster dies at its local CQE: the run unwinds without
        // draining, the payload claimed and its delivery still queued
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run(1, move |ctx| {
                let comp = ib2
                    .post_rdma_write(&ctx, ProcId(0), src, mr.rkey, dst, LEN)
                    .unwrap();
                ctx.wait(&comp.local);
                ctx.with_sched(|s| s.signal(&local2, 1));
                panic!("poster abandons the transfer");
            })
        }));
        assert!(died.is_err() && local.is_done(1));
        // the queued delivery owns the claim and points at nothing that
        // points back at the engine: dropping the engine drops both
        drop((sim, ib));
        mem.mem().write_bytes(src, &vec![NEW; LEN as usize]).unwrap();
        let st = mem.mem().stats();
        assert_eq!((st.cow_saves, st.bytes_moved), (0, 0));
        assert_eq!(mem.mem().read_bytes(dst, 8).unwrap(), vec![0; 8]);
    }
}
