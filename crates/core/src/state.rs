//! Per-PE runtime state: allocators, progress queue, outstanding ops,
//! registration cache, and statistics.

pub use obs::plan::Protocol;
use pcie_sim::alloc::RangeAlloc;
use pcie_sim::mem::MemRef;
use pcie_sim::ProcId;
use sim_core::{Completion, Link, LinkSpec};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Per-PE operation counters.
#[derive(Clone, Debug, Default)]
pub struct PeStats {
    pub puts: u64,
    pub gets: u64,
    pub atomics: u64,
    pub bytes_put: u64,
    pub bytes_get: u64,
    pub barriers: u64,
    pub by_protocol: [u64; Protocol::COUNT],
    /// Target-side deferred deliveries executed (host-pipeline progress).
    pub progressed: u64,
}

impl PeStats {
    pub fn count(&mut self, p: Protocol) {
        self.by_protocol[p as usize] += 1;
    }

    pub fn of(&self, p: Protocol) -> u64 {
        self.by_protocol[p as usize]
    }
}

/// Deferred target-side work (the host-pipeline's last stage): the data
/// has landed in the target's staging area; the *target* must copy it to
/// its GPU and acknowledge. Executed only when the target enters the
/// library — this is exactly what breaks one-sidedness in the baseline.
pub struct Delivery {
    /// Where the payload currently sits (target staging).
    pub staged: MemRef,
    /// Final destination (target GPU heap).
    pub dst: MemRef,
    pub len: u64,
    /// Signalled (after the modelled ack latency) once delivered; the
    /// source's `quiet` waits on these.
    pub ack: Completion,
    /// Staging range to release after delivery (offset within staging).
    pub staging_off: u64,
}

/// A pending remote get request the target must service (host-pipeline).
pub struct GetRequest {
    /// Remote source on this PE (device memory).
    pub src: MemRef,
    /// Requester's staging area slot to RDMA the data into.
    pub req_staging: MemRef,
    pub len: u64,
    /// Requester PE (for path selection).
    pub requester: ProcId,
    /// The requesting op: the serving side's fault draws, trace events
    /// and chunk accounting, and the outcome the requester waits on
    /// chunk by chunk.
    pub(crate) op: Rc<crate::recovery::ChunkOp>,
}

/// Target-side deferred work item.
pub enum PendingWork {
    Deliver(Delivery),
    ServeGet(GetRequest),
}

/// Proof that a PE is inside a library call; leaving is its drop, so
/// every return path — `?` included — leaves.
#[must_use = "the PE leaves the library when the guard drops"]
pub struct InLibrary<'a>(&'a Cell<bool>);

impl Drop for InLibrary<'_> {
    fn drop(&mut self) {
        self.0.set(false);
    }
}

/// Everything one PE owns at runtime.
pub struct PeState {
    pub id: ProcId,
    /// True while the PE is executing a library call (progress happens).
    pub in_library: Cell<bool>,
    /// Deferred target-side work (host-pipeline only).
    pub pending: RefCell<VecDeque<PendingWork>>,
    /// Remote completions of outstanding one-sided ops (quiet waits these).
    pub outstanding: RefCell<Vec<Completion>>,
    /// Symmetric heap allocators (replicated state: symmetric as long as
    /// every PE allocates collectively in the same order).
    pub host_alloc: RefCell<RangeAlloc>,
    pub gpu_alloc: RefCell<RangeAlloc>,
    /// Private (non-symmetric) host memory allocator.
    pub priv_alloc: RefCell<RangeAlloc>,
    /// Staging-area allocator (registered bounce buffers).
    pub staging_alloc: RefCell<RangeAlloc>,
    pub stats: RefCell<PeStats>,
    /// Barrier generation counter (for the dissemination barrier).
    pub barrier_gen: Cell<u64>,
    /// Generation counter for the other collectives.
    pub coll_gen: Cell<u64>,
    /// The MPI library's single progress thread: pinned-pool staging
    /// copies serialize on it (used by the two-sided layer).
    pub pin_engine: RefCell<Link>,
    /// RMA op sequence number, the basis of per-op correlation ids
    /// (flow events).
    pub op_seq: Cell<u64>,
}

impl PeState {
    pub fn new(
        id: ProcId,
        host_heap: u64,
        gpu_heap: u64,
        staging: u64,
        private: u64,
        memcpy_bw: f64,
    ) -> PeState {
        PeState {
            id,
            in_library: Cell::new(false),
            pending: RefCell::new(VecDeque::new()),
            outstanding: RefCell::new(Vec::new()),
            host_alloc: RefCell::new(RangeAlloc::new(host_heap, 64)),
            gpu_alloc: RefCell::new(RangeAlloc::new(gpu_heap, 256)),
            priv_alloc: RefCell::new(RangeAlloc::new(private, 64)),
            staging_alloc: RefCell::new(RangeAlloc::new(staging, 256)),
            stats: RefCell::new(PeStats::default()),
            barrier_gen: Cell::new(0),
            coll_gen: Cell::new(0),
            pin_engine: RefCell::new(Link::new(LinkSpec::new(
                sim_core::SimDuration::from_ns(200),
                memcpy_bw,
            ))),
            op_seq: Cell::new(0),
        }
    }

    /// Mark the PE as executing a library call until the returned guard
    /// drops (target-side progress only happens meanwhile).
    pub fn enter_library(&self) -> InLibrary<'_> {
        self.in_library.set(true);
        InLibrary(&self.in_library)
    }

    pub fn is_in_library(&self) -> bool {
        self.in_library.get()
    }

    /// Record an outstanding one-sided op for `quiet`.
    pub fn track(&self, remote: Completion) {
        self.outstanding.borrow_mut().push(remote);
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_cover_all_variants() {
        let all = [
            Protocol::ShmCopy,
            Protocol::IpcCopy,
            Protocol::TwoCopyStaged,
            Protocol::LoopbackGdr,
            Protocol::DirectGdr,
            Protocol::PipelineGdrWrite,
            Protocol::HostPipelineStaged,
            Protocol::ProxyPipeline,
            Protocol::HostRdma,
            Protocol::HwAtomic,
        ];
        assert_eq!(all.len(), Protocol::COUNT);
        let mut stats = PeStats::default();
        for p in all {
            stats.count(p);
            assert_eq!(stats.of(p), 1, "{}", p.name());
        }
    }

    #[test]
    fn library_flag_toggles() {
        let st = PeState::new(ProcId(0), 1024, 1024, 1024, 1024, 6e9);
        assert!(!st.is_in_library());
        let guard = st.enter_library();
        assert!(st.is_in_library());
        drop(guard);
        assert!(!st.is_in_library());
    }

}
