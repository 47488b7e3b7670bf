//! Symmetric heap layout and address resolution.
//!
//! Per PE, the runtime owns:
//! - a **host symmetric heap**, placed inside its node's shared segment
//!   (so node-local peers can `shmem_ptr` into it — paper Fig. 3);
//! - a registered **staging area** next to it (pipeline protocols);
//! - a small **sync area** (barrier / wait_until flags);
//! - a **GPU symmetric heap** carved out of its GPU's device memory.
//!
//! Everything is registered with the fabric at init (descriptors
//! "exchanged between all processes", §III-A), so any PE can resolve any
//! symmetric address to a `(MemRef, Rkey)` pair without target involvement.

use crate::addr::{Domain, SymAddr};
use crate::config::RuntimeConfig;
use ib_sim::{IbVerbs, Rkey};
use pcie_sim::mem::{MemRef, MemSpace};
use pcie_sim::{Cluster, ProcId};
use std::rc::Rc;

/// Size of the per-PE sync area (flags for barrier, wait_until, user sync).
pub const SYNC_AREA: u64 = 64 << 10;

/// Keys a PE needs to address a peer's heaps remotely.
#[derive(Clone, Copy, Debug)]
pub struct PeKeys {
    /// Covers the whole host span (heap + staging + sync).
    pub host: Rkey,
    /// Covers the GPU heap.
    pub gpu: Rkey,
}

/// Resolved layout for the whole job.
pub struct HeapLayout {
    cluster: Rc<Cluster>,
    host_heap: u64,
    staging: u64,
    /// host heap + staging + sync, rounded: one PE's slice of the segment.
    span: u64,
    /// Per-PE base of its GPU heap in device memory.
    gpu_bases: Vec<MemRef>,
    /// Everyone's rkeys, indexed by PE.
    keys: Vec<PeKeys>,
}

impl HeapLayout {
    /// Create segments and GPU heaps, register everything, and build the
    /// exchanged-descriptor table. Called once at machine construction.
    pub fn build(
        cluster: &Rc<Cluster>,
        gpus: &gpu_sim::GpuRuntime,
        ib: &IbVerbs,
        cfg: &RuntimeConfig,
    ) -> HeapLayout {
        let topo = cluster.topo();
        // the sync area's fixed cell map must hold this job size
        // (reduce slots, collective flags, flag-scratch mirror)
        let n = topo.nprocs() as u64;
        use crate::sync::cells;
        assert!(
            cells::REDUCE_DATA + cells::SLOT * n <= cells::COLL_FLAGS,
            "{n} PEs overflow the reduce-slot region (max {})",
            (cells::COLL_FLAGS - cells::REDUCE_DATA) / cells::SLOT
        );
        assert!(
            cells::COLL_FLAGS + 8 * n <= cells::FLAG_SCRATCH,
            "{n} PEs overflow the collective-flag region"
        );
        let span = cfg.host_heap + cfg.staging + SYNC_AREA;
        // One shared segment per node holding every local PE's host span.
        for n in 0..topo.nnodes() {
            let node = pcie_sim::NodeId(n as u32);
            let size = span * topo.spec().procs_per_node as u64;
            cluster.create_shared_segment(node, size as usize);
        }
        let mut gpu_bases = Vec::with_capacity(topo.nprocs());
        let mut keys = Vec::with_capacity(topo.nprocs());
        for p in topo.all_procs() {
            let gpu = gpus.gpu(topo.gpu_of(p));
            let gbase = gpu
                .malloc(cfg.gpu_heap)
                .expect("device memory exhausted while creating GPU symmetric heap");
            gpu_bases.push(gbase);
        }
        for p in topo.all_procs() {
            let seg = MemSpace::Shared(topo.seg_of_node(topo.node_of(p)));
            let host_base = MemRef::new(seg, topo.local_rank(p) as u64 * span);
            let host_mr = ib.reg_mr_nocost(p, host_base, span);
            let gpu_mr = ib.reg_mr_nocost(p, gpu_bases[p.index()], cfg.gpu_heap);
            keys.push(PeKeys {
                host: host_mr.rkey,
                gpu: gpu_mr.rkey,
            });
        }
        HeapLayout {
            cluster: cluster.clone(),
            host_heap: cfg.host_heap,
            staging: cfg.staging,
            span,
            gpu_bases,
            keys,
        }
    }

    /// Base of `pe`'s host symmetric heap (inside its node's segment).
    pub fn host_base(&self, pe: ProcId) -> MemRef {
        let topo = self.cluster.topo();
        let seg = MemSpace::Shared(topo.seg_of_node(topo.node_of(pe)));
        MemRef::new(seg, topo.local_rank(pe) as u64 * self.span)
    }

    /// Base of `pe`'s registered staging area.
    pub fn staging_base(&self, pe: ProcId) -> MemRef {
        self.host_base(pe).add(self.host_heap)
    }

    /// Base of `pe`'s sync area.
    pub fn sync_base(&self, pe: ProcId) -> MemRef {
        self.host_base(pe).add(self.host_heap + self.staging)
    }

    /// Resolve a symmetric address on a given PE.
    pub fn resolve(&self, sym: SymAddr, pe: ProcId) -> MemRef {
        match sym.domain {
            Domain::Host => {
                debug_assert!(sym.offset < self.host_heap, "host heap overflow");
                self.host_base(pe).add(sym.offset)
            }
            Domain::Gpu => self.gpu_bases[pe.index()].add(sym.offset),
        }
    }

    /// The rkey to present when touching `domain` memory of `pe`.
    pub fn rkey(&self, domain: Domain, pe: ProcId) -> Rkey {
        match domain {
            Domain::Host => self.keys[pe.index()].host,
            Domain::Gpu => self.keys[pe.index()].gpu,
        }
    }

    /// rkey covering the host span (heap + staging + sync) of `pe`.
    pub fn host_rkey(&self, pe: ProcId) -> Rkey {
        self.keys[pe.index()].host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use gpu_sim::GpuRuntime;
    use pcie_sim::{ClusterSpec, HwProfile};
    use sim_core::Sim;

    fn build(nodes: usize, ppn: usize) -> (Rc<Cluster>, HeapLayout) {
        let sim = Sim::new();
        let cluster = Cluster::new(ClusterSpec::wilkes(nodes, ppn), HwProfile::wilkes());
        let gpus = GpuRuntime::new(&sim, cluster.clone(), 64 << 20);
        let ib = IbVerbs::new(&sim, gpus.clone());
        let cfg = RuntimeConfig::tuned(Design::EnhancedGdr);
        let layout = HeapLayout::build(&cluster, &gpus, &ib, &cfg);
        (cluster, layout)
    }

    #[test]
    fn layout_is_disjoint_across_local_pes() {
        let (_c, l) = build(1, 2);
        let h0 = l.host_base(ProcId(0));
        let h1 = l.host_base(ProcId(1));
        assert_eq!(h0.space, h1.space, "same node segment");
        let span = l.host_heap + l.staging + SYNC_AREA;
        assert_eq!(h1.offset - h0.offset, span);
        // staging and sync sit inside the span
        assert!(l.staging_base(ProcId(0)).offset < h1.offset);
        assert!(l.sync_base(ProcId(0)).offset < h1.offset);
    }

    #[test]
    fn resolve_is_symmetric() {
        let (_c, l) = build(2, 2);
        let sym = SymAddr::new(Domain::Gpu, 0x40);
        for pe in 0..4 {
            let r = l.resolve(sym, ProcId(pe));
            assert!(r.is_device());
            assert_eq!(r.offset, l.gpu_bases[pe as usize].offset + 0x40);
        }
        let symh = SymAddr::new(Domain::Host, 0x80);
        let r2 = l.resolve(symh, ProcId(2));
        assert_eq!(r2, l.host_base(ProcId(2)).add(0x80));
    }

    #[test]
    fn distinct_pes_get_distinct_gpu_heaps() {
        let (c, l) = build(1, 2);
        let (g0, g1) = (l.gpu_bases[0], l.gpu_bases[1]);
        // different GPUs on a 2-GPU node
        assert_ne!(g0.space, g1.space);
        let _ = c;
    }

    #[test]
    fn keys_differ_per_pe_and_domain() {
        let (_c, l) = build(2, 1);
        assert_ne!(l.rkey(Domain::Host, ProcId(0)), l.rkey(Domain::Gpu, ProcId(0)));
        assert_ne!(l.rkey(Domain::Host, ProcId(0)), l.rkey(Domain::Host, ProcId(1)));
    }
}
