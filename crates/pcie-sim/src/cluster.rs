//! The [`Cluster`]: topology + memory map + hardware profile in one bundle.
//!
//! Device models (GPUs in `gpu-sim`, HCAs in `ib-sim`) and the OpenSHMEM
//! runtime are all constructed over a shared `Rc<Cluster>`.

use crate::ids::{NodeId, ProcId};
use crate::mem::{Arena, MemSpace, MemoryMap};
use crate::profile::HwProfile;
use crate::topo::{ClusterSpec, Topology};
use std::rc::Rc;

/// A simulated cluster: who is where, what memory exists, how fast the
/// hardware is.
pub struct Cluster {
    topo: Topology,
    mem: MemoryMap,
    hw: HwProfile,
}

impl Cluster {
    pub fn new(spec: ClusterSpec, hw: HwProfile) -> Rc<Cluster> {
        Rc::new(Cluster {
            topo: Topology::new(spec),
            mem: MemoryMap::new(),
            hw,
        })
    }

    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    pub fn mem(&self) -> &MemoryMap {
        &self.mem
    }

    pub fn hw(&self) -> &HwProfile {
        &self.hw
    }

    /// Create the private host arena for a process.
    pub fn create_host_arena(&self, p: ProcId, size: usize) -> Rc<Arena> {
        self.mem.create(MemSpace::Host(p), size)
    }

    /// Create the node-wide shared segment for a node.
    pub fn create_shared_segment(&self, n: NodeId, size: usize) -> Rc<Arena> {
        self.mem.create(MemSpace::Shared(self.topo.seg_of_node(n)), size)
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cluster({} nodes x {} procs)",
            self.topo.nnodes(),
            self.topo.spec().procs_per_node
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemRef;

    #[test]
    fn cluster_bundles_everything() {
        let c = Cluster::new(ClusterSpec::wilkes(2, 2), HwProfile::wilkes());
        assert_eq!(c.topo().nprocs(), 4);
        let a = c.create_host_arena(ProcId(0), 128);
        assert_eq!(a.size(), 128);
        c.create_shared_segment(NodeId(0), 256);
        let r = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        c.mem().write_bytes(r, &[7; 4]).unwrap();
        assert_eq!(c.mem().read_bytes(r, 4).unwrap(), vec![7; 4]);
    }
}
