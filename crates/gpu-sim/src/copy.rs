//! `cudaMemcpy`-style data movement with modelled DMA timing.
//!
//! Classification follows UVA semantics: the copy kind is inferred from
//! the source and destination spaces, exactly like `cudaMemcpyDefault`.
//! Bytes really move (through the cluster [`MemoryMap`](pcie_sim::MemoryMap)) at the virtual
//! instant the modelled DMA completes.

use crate::device::GpuDevice;
use crate::GpuRuntime;
use pcie_sim::mem::{MemError, MemRef, MemSpace};
use pcie_sim::profile::P2pDir;
use pcie_sim::GpuId;
use sim_core::{Completion, LinkGrant, Sched, SimDuration, SimTime, TaskCtx};
use std::rc::Rc;

/// The inferred direction of a memcpy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyKind {
    /// Host/shared -> host/shared (plain CPU memcpy).
    HostToHost,
    /// Host/shared -> device DMA.
    HostToDevice(GpuId),
    /// Device -> host/shared DMA.
    DeviceToHost(GpuId),
    /// Within one device.
    DeviceToDevice(GpuId),
    /// Between two devices (CUDA IPC / peer access over PCIe).
    PeerToPeer { src: GpuId, dst: GpuId },
}

/// Classify a copy from its endpoint spaces.
pub fn classify(src: MemRef, dst: MemRef) -> CopyKind {
    match (src.space, dst.space) {
        (MemSpace::Device(a), MemSpace::Device(b)) if a == b => CopyKind::DeviceToDevice(a),
        (MemSpace::Device(a), MemSpace::Device(b)) => CopyKind::PeerToPeer { src: a, dst: b },
        (MemSpace::Device(a), _) => CopyKind::DeviceToHost(a),
        (_, MemSpace::Device(b)) => CopyKind::HostToDevice(b),
        _ => CopyKind::HostToHost,
    }
}

impl GpuRuntime {
    /// Validate a copy's endpoints before any time is spent.
    pub fn validate_copy(&self, src: MemRef, dst: MemRef, len: u64) -> Result<(), MemError> {
        let check = |r: MemRef| -> Result<(), MemError> {
            let a = self.cluster().mem().get(r.space)?;
            let size = a.size();
            if r.offset.checked_add(len).is_none_or(|end| end > size) {
                return Err(MemError::OutOfBounds {
                    space: r.space,
                    offset: r.offset,
                    len,
                    size,
                });
            }
            Ok(())
        };
        check(src)?;
        check(dst)
    }

    /// Record one DMA-engine occupancy with the attached recorder (if
    /// any): utilization counters at `Counters`, plus an engine span at
    /// `Spans`.
    fn note_dma(&self, engine: &'static str, g: GpuId, len: u64, grant: &LinkGrant) {
        if let Some(rec) = self.obs.counters() {
            rec.agent_bytes(
                obs::TrackKind::GpuDma,
                g.0,
                grant.start,
                len,
                grant.depart.since(grant.start),
            );
            if rec.spans_on() {
                let track = rec.track(obs::TrackKind::GpuDma, g.0);
                rec.span(track, engine, grant.start, grant.arrive, obs::Payload::Xfer { size: len });
            }
        }
    }

    /// Classify `src -> dst`, reserve the right DMA engine(s) for `len`
    /// bytes starting `now`, and return the arrival instant of the last
    /// byte.
    fn reserve_transfer(&self, now: SimTime, src: MemRef, dst: MemRef, len: u64) -> SimTime {
        let hw = *self.cluster().hw();
        match classify(src, dst) {
            CopyKind::HostToHost => {
                now + hw.host.memcpy_overhead + SimDuration::for_bytes(len, hw.host.memcpy_bw)
            }
            CopyKind::HostToDevice(g) => {
                let grant = self.gpu(g).h2d.borrow_mut().reserve(now, len);
                self.note_dma("h2d", g, len, &grant);
                grant.arrive
            }
            CopyKind::DeviceToHost(g) => {
                let grant = self.gpu(g).d2h.borrow_mut().reserve(now, len);
                self.note_dma("d2h", g, len, &grant);
                grant.arrive
            }
            CopyKind::DeviceToDevice(g) => {
                let grant = self.gpu(g).d2d.borrow_mut().reserve(now, len);
                self.note_dma("d2d", g, len, &grant);
                grant.arrive
            }
            CopyKind::PeerToPeer { src: a, dst: b } => {
                // A peer copy reads from `a` and writes into `b`; the
                // chipset caps it at the P2P write bandwidth for the
                // socket relation between the two devices.
                let topo = self.cluster().topo();
                let intra = topo.node_of_gpu(a) == topo.node_of_gpu(b)
                    && topo.socket_of_gpu(a) == topo.socket_of_gpu(b);
                let eff = hw.pcie.p2p_bw(P2pDir::WriteToGpu, intra);
                let ga = self.gpu(a).d2h.borrow_mut().reserve_with(now, len, eff);
                let gb = self.gpu(b).h2d.borrow_mut().reserve_with(now, len, eff);
                self.note_dma("p2p-out", a, len, &ga);
                self.note_dma("p2p-in", b, len, &gb);
                ga.arrive.max(gb.arrive)
            }
        }
    }

    /// Start the DMA for a memcpy *now* (in engine context, via `Sched`);
    /// signals `done` (+1) at the modelled completion instant, after the
    /// bytes have actually been copied.
    ///
    /// This is the async building block; it charges no CPU-side launch
    /// cost (callers account for that — see [`GpuRuntime::memcpy_sync`]
    /// and [`GpuRuntime::memcpy_async`]).
    pub fn dma_start(self: &Rc<Self>, s: &mut Sched<'_>, src: MemRef, dst: MemRef, len: u64, done: &Completion) {
        if let Err(e) = self.validate_copy(src, dst, len) {
            panic!("memcpy validation failed: {e}");
        }
        let arrive = self.reserve_transfer(s.now(), src, dst, len);
        let rt = self.clone();
        let done = done.clone();
        s.schedule_at(
            arrive,
            Box::new(move |s| {
                rt.cluster()
                    .mem()
                    .copy(src, dst, len)
                    .expect("validated memcpy failed");
                s.signal(&done, 1);
            }),
        );
    }

    /// `cudaMemcpy` (synchronous): charges the driver overhead to the
    /// calling PE, runs the DMA, and returns when the data has landed.
    pub fn memcpy_sync(self: &Rc<Self>, ctx: &TaskCtx, src: MemRef, dst: MemRef, len: u64) {
        ctx.advance(self.cluster().hw().gpu.memcpy_overhead);
        let done = Completion::new();
        ctx.with_sched(|s| self.dma_start(s, src, dst, len, &done));
        ctx.wait(&done);
    }

    /// `cudaMemcpyAsync`: charges only the launch cost to the calling PE
    /// and returns a completion that fires when the transfer lands.
    pub fn memcpy_async(self: &Rc<Self>, ctx: &TaskCtx, src: MemRef, dst: MemRef, len: u64) -> Completion {
        ctx.advance(self.cluster().hw().gpu.memcpy_async_launch);
        let done = Completion::new();
        ctx.with_sched(|s| self.dma_start(s, src, dst, len, &done));
        done
    }

    /// Model a kernel launch + execution on the calling PE's stream
    /// (synchronous; the PE blocks as if it called `cudaDeviceSynchronize`).
    pub fn kernel_sync(&self, ctx: &TaskCtx, cost: SimDuration) {
        ctx.advance(self.cluster().hw().gpu.kernel_launch + cost);
    }
}

/// Expose the per-device links for raw-path experiments (Table III).
impl GpuRuntime {
    /// Reserve a raw P2P DMA on a GPU's PCIe port and return its arrival
    /// instant. `dir` is relative to the GPU. Used by the HCA model (GDR)
    /// and the Table III harness.
    pub fn p2p_reserve(
        &self,
        gpu: &GpuDevice,
        now: sim_core::SimTime,
        len: u64,
        dir: P2pDir,
        intra_socket: bool,
    ) -> sim_core::LinkGrant {
        let eff = self.cluster().hw().pcie.p2p_bw(dir, intra_socket);
        let (engine, grant) = match dir {
            P2pDir::ReadFromGpu => ("p2p-out", gpu.p2p_out.borrow_mut().reserve_with(now, len, eff)),
            P2pDir::WriteToGpu => ("p2p-in", gpu.p2p_in.borrow_mut().reserve_with(now, len, eff)),
        };
        self.note_dma(engine, gpu.id(), len, &grant);
        grant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::ProcId;

    #[test]
    fn classification_matrix() {
        let h = |p| MemRef::new(MemSpace::Host(ProcId(p)), 0);
        let d = |g| MemRef::new(MemSpace::Device(GpuId(g)), 0);
        assert_eq!(classify(h(0), h(1)), CopyKind::HostToHost);
        assert_eq!(classify(h(0), d(1)), CopyKind::HostToDevice(GpuId(1)));
        assert_eq!(classify(d(2), h(0)), CopyKind::DeviceToHost(GpuId(2)));
        assert_eq!(classify(d(2), d(2)), CopyKind::DeviceToDevice(GpuId(2)));
        assert_eq!(
            classify(d(0), d(1)),
            CopyKind::PeerToPeer {
                src: GpuId(0),
                dst: GpuId(1)
            }
        );
    }
}
