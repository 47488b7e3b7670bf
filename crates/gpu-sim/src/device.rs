//! Simulated GPU devices: device memory, allocator, and DMA engine links.

use pcie_sim::alloc::{OutOfMemory, RangeAlloc};
use pcie_sim::mem::{Arena, MemRef, MemSpace};
use pcie_sim::profile::HwProfile;
use pcie_sim::GpuId;
use sim_core::{Link, LinkSpec, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// Allocation granularity of `cuda_malloc` (CUDA guarantees at least 256 B).
pub const DEVICE_ALLOC_ALIGN: u64 = 256;

/// One simulated GPU: its memory arena, DMA engine links and allocator.
pub struct GpuDevice {
    id: GpuId,
    arena: Rc<Arena>,
    /// Host -> device DMA engine (also the write side of P2P traffic).
    pub(crate) h2d: RefCell<Link>,
    /// Device -> host DMA engine (also the read side of P2P traffic).
    pub(crate) d2h: RefCell<Link>,
    /// On-device copy engine.
    pub(crate) d2d: RefCell<Link>,
    /// Raw PCIe port, inbound (peer/HCA P2P writes into the GPU).
    pub(crate) p2p_in: RefCell<Link>,
    /// Raw PCIe port, outbound (peer/HCA P2P reads from the GPU).
    pub(crate) p2p_out: RefCell<Link>,
    heap: RefCell<RangeAlloc>,
}

impl GpuDevice {
    pub fn new(id: GpuId, arena: Rc<Arena>, hw: &HwProfile) -> Rc<GpuDevice> {
        let size = arena.size();
        Rc::new(GpuDevice {
            id,
            arena,
            h2d: RefCell::new(Link::new(LinkSpec::new(hw.pcie.latency, hw.gpu.h2d_bw))),
            d2h: RefCell::new(Link::new(LinkSpec::new(hw.pcie.latency, hw.gpu.d2h_bw))),
            d2d: RefCell::new(Link::new(LinkSpec::new(
                SimDuration::from_ns(50),
                hw.gpu.d2d_bw,
            ))),
            p2p_in: RefCell::new(Link::new(LinkSpec::new(hw.pcie.latency, hw.pcie.port_bw))),
            p2p_out: RefCell::new(Link::new(LinkSpec::new(hw.pcie.latency, hw.pcie.port_bw))),
            heap: RefCell::new(RangeAlloc::new(size, DEVICE_ALLOC_ALIGN)),
        })
    }

    pub fn id(&self) -> GpuId {
        self.id
    }

    pub fn arena(&self) -> &Rc<Arena> {
        &self.arena
    }

    pub fn mem_size(&self) -> u64 {
        self.arena.size()
    }

    pub fn mem_allocated(&self) -> u64 {
        self.heap.borrow().allocated()
    }

    /// `cudaMalloc`: allocate device memory, returning a UVA-style ref.
    pub fn malloc(&self, size: u64) -> Result<MemRef, OutOfMemory> {
        let off = self.heap.borrow_mut().alloc(size)?;
        Ok(MemRef::new(MemSpace::Device(self.id), off))
    }

    /// `cudaFree`.
    pub fn free(&self, r: MemRef, size: u64) {
        assert_eq!(
            r.space,
            MemSpace::Device(self.id),
            "freeing foreign pointer on {}",
            self.id
        );
        self.heap.borrow_mut().free(r.offset, size);
    }
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GpuDevice({}, {}/{} bytes used)",
            self.id,
            self.mem_allocated(),
            self.mem_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::mem::Arena;

    fn dev() -> Rc<GpuDevice> {
        let arena = Arena::new(MemSpace::Device(GpuId(0)), 1 << 20);
        GpuDevice::new(GpuId(0), arena, &HwProfile::wilkes())
    }

    #[test]
    fn malloc_returns_device_refs() {
        let g = dev();
        let a = g.malloc(100).unwrap();
        let b = g.malloc(100).unwrap();
        assert!(a.is_device());
        assert_ne!(a.offset, b.offset);
        assert_eq!(g.mem_allocated(), 512); // two aligned blocks
        g.free(a, 100);
        g.free(b, 100);
        assert_eq!(g.mem_allocated(), 0);
    }

    #[test]
    fn oom_when_device_memory_exhausted() {
        let g = dev();
        assert!(g.malloc(2 << 20).is_err());
    }

    #[test]
    #[should_panic(expected = "foreign pointer")]
    fn freeing_foreign_pointer_panics() {
        let g = dev();
        g.free(MemRef::new(MemSpace::Device(GpuId(3)), 0), 64);
    }
}
