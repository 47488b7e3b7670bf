//! Cluster and node topology: sockets, device placement, process binding.
//!
//! Mirrors the evaluation platform of the paper (the Wilkes "Tesla"
//! partition): dual-socket nodes, one GPU and one HCA per socket, and MPI
//! ranks bound round-robin to sockets with the socket-local GPU and HCA.
//! The placement policy is configurable so the inter-socket P2P bottleneck
//! (paper Table III, §II-B) can be exercised deliberately.

use crate::ids::{GpuId, HcaId, NodeId, ProcId, SegId, SocketId};

/// How processes are bound to their GPU and HCA.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlacementPolicy {
    /// GPU and HCA on the process's own socket (intra-socket; the tuned
    /// production configuration).
    #[default]
    Affinity,
    /// GPU on the process's socket but HCA on the *other* socket, forcing
    /// every GDR transfer across the inter-socket chipset path.
    CrossSocket,
}

/// Shape of the simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    pub nodes: usize,
    pub procs_per_node: usize,
    pub gpus_per_node: usize,
    pub hcas_per_node: usize,
    pub sockets_per_node: usize,
    pub placement: PlacementPolicy,
}

impl ClusterSpec {
    /// A Wilkes-like node: 2 sockets, 2 K20 GPUs, 2 FDR HCAs.
    pub fn wilkes(nodes: usize, procs_per_node: usize) -> Self {
        ClusterSpec {
            nodes,
            procs_per_node,
            gpus_per_node: 2,
            hcas_per_node: 2,
            sockets_per_node: 2,
            placement: PlacementPolicy::Affinity,
        }
    }

    /// Two PEs on one node (the paper's intra-node micro-benchmarks).
    pub fn intranode_pair() -> Self {
        Self::wilkes(1, 2)
    }

    /// One PE on each of two nodes (the inter-node micro-benchmarks).
    pub fn internode_pair() -> Self {
        Self::wilkes(2, 1)
    }

    pub fn with_placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    pub fn total_procs(&self) -> usize {
        self.nodes * self.procs_per_node
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::wilkes(2, 1)
    }
}

/// Resolved topology with all placement questions answered.
#[derive(Clone, Debug)]
pub struct Topology {
    spec: ClusterSpec,
}

impl Topology {
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.nodes > 0, "need at least one node");
        assert!(spec.procs_per_node > 0, "need at least one proc per node");
        assert!(spec.gpus_per_node > 0, "need at least one GPU per node");
        assert!(spec.hcas_per_node > 0, "need at least one HCA per node");
        assert!(spec.sockets_per_node > 0, "need at least one socket");
        Topology { spec }
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn nprocs(&self) -> usize {
        self.spec.total_procs()
    }

    pub fn nnodes(&self) -> usize {
        self.spec.nodes
    }

    pub fn ngpus(&self) -> usize {
        self.spec.nodes * self.spec.gpus_per_node
    }

    pub fn nhcas(&self) -> usize {
        self.spec.nodes * self.spec.hcas_per_node
    }

    pub fn node_of(&self, p: ProcId) -> NodeId {
        NodeId((p.index() / self.spec.procs_per_node) as u32)
    }

    /// Rank of `p` among the processes of its node.
    pub fn local_rank(&self, p: ProcId) -> usize {
        p.index() % self.spec.procs_per_node
    }

    pub fn procs_on(&self, n: NodeId) -> impl Iterator<Item = ProcId> + '_ {
        let base = n.index() * self.spec.procs_per_node;
        (base..base + self.spec.procs_per_node).map(|i| ProcId(i as u32))
    }

    pub fn same_node(&self, a: ProcId, b: ProcId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The GPU a process uses (socket-local by local rank).
    pub fn gpu_of(&self, p: ProcId) -> GpuId {
        let n = self.node_of(p);
        let local_gpu = self.local_rank(p) % self.spec.gpus_per_node;
        GpuId((n.index() * self.spec.gpus_per_node + local_gpu) as u32)
    }

    /// The HCA a process posts to; depends on the placement policy.
    pub fn hca_of(&self, p: ProcId) -> HcaId {
        let n = self.node_of(p);
        let local = match self.spec.placement {
            PlacementPolicy::Affinity => self.local_rank(p) % self.spec.hcas_per_node,
            PlacementPolicy::CrossSocket => {
                (self.local_rank(p) + 1) % self.spec.hcas_per_node.max(2)
                    % self.spec.hcas_per_node
            }
        };
        HcaId((n.index() * self.spec.hcas_per_node + local) as u32)
    }

    pub fn node_of_gpu(&self, g: GpuId) -> NodeId {
        NodeId((g.index() / self.spec.gpus_per_node) as u32)
    }

    pub fn node_of_hca(&self, h: HcaId) -> NodeId {
        NodeId((h.index() / self.spec.hcas_per_node) as u32)
    }

    pub fn socket_of_gpu(&self, g: GpuId) -> SocketId {
        SocketId(((g.index() % self.spec.gpus_per_node) % self.spec.sockets_per_node) as u32)
    }

    pub fn socket_of_hca(&self, h: HcaId) -> SocketId {
        SocketId(((h.index() % self.spec.hcas_per_node) % self.spec.sockets_per_node) as u32)
    }

    /// True when a P2P transfer between this GPU and HCA stays within one
    /// socket's PCIe root complex (the fast case of Table III).
    pub fn gpu_hca_intra_socket(&self, g: GpuId, h: HcaId) -> bool {
        self.node_of_gpu(g) == self.node_of_hca(h) && self.socket_of_gpu(g) == self.socket_of_hca(h)
    }

    /// The shared-memory segment of a node (one per node).
    pub fn seg_of_node(&self, n: NodeId) -> SegId {
        SegId(n.0)
    }

    /// Inverse of [`Topology::seg_of_node`].
    pub fn node_of_seg(&self, s: SegId) -> NodeId {
        NodeId(s.0)
    }

    /// The node that physically hosts a memory space.
    pub fn node_of_space(&self, space: crate::mem::MemSpace) -> NodeId {
        match space {
            crate::mem::MemSpace::Host(p) => self.node_of(p),
            crate::mem::MemSpace::Shared(s) => self.node_of_seg(s),
            crate::mem::MemSpace::Device(g) => self.node_of_gpu(g),
        }
    }

    pub fn all_procs(&self) -> impl Iterator<Item = ProcId> {
        (0..self.nprocs()).map(|i| ProcId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilkes_shape() {
        let t = Topology::new(ClusterSpec::wilkes(4, 2));
        assert_eq!(t.nprocs(), 8);
        assert_eq!(t.nnodes(), 4);
        assert_eq!(t.ngpus(), 8);
        assert_eq!(t.nhcas(), 8);
    }

    #[test]
    fn proc_to_node_mapping() {
        let t = Topology::new(ClusterSpec::wilkes(3, 2));
        assert_eq!(t.node_of(ProcId(0)), NodeId(0));
        assert_eq!(t.node_of(ProcId(1)), NodeId(0));
        assert_eq!(t.node_of(ProcId(2)), NodeId(1));
        assert_eq!(t.node_of(ProcId(5)), NodeId(2));
        assert!(t.same_node(ProcId(0), ProcId(1)));
        assert!(!t.same_node(ProcId(1), ProcId(2)));
        assert_eq!(t.local_rank(ProcId(3)), 1);
    }

    #[test]
    fn affinity_placement_is_socket_local() {
        let t = Topology::new(ClusterSpec::wilkes(2, 2));
        for p in t.all_procs() {
            let g = t.gpu_of(p);
            let h = t.hca_of(p);
            assert_eq!(t.node_of_gpu(g), t.node_of(p));
            assert_eq!(t.node_of_hca(h), t.node_of(p));
            assert!(t.gpu_hca_intra_socket(g, h));
        }
    }

    #[test]
    fn cross_socket_placement_splits_gpu_and_hca() {
        let t = Topology::new(
            ClusterSpec::wilkes(2, 2).with_placement(PlacementPolicy::CrossSocket),
        );
        for p in t.all_procs() {
            let g = t.gpu_of(p);
            let h = t.hca_of(p);
            assert_eq!(t.node_of_hca(h), t.node_of(p));
            assert!(!t.gpu_hca_intra_socket(g, h), "expected cross-socket for {p}");
        }
    }

    #[test]
    fn procs_on_node_enumerates_in_rank_order() {
        let t = Topology::new(ClusterSpec::wilkes(2, 3));
        let v: Vec<_> = t.procs_on(NodeId(1)).collect();
        assert_eq!(v, vec![ProcId(3), ProcId(4), ProcId(5)]);
    }

    #[test]
    fn single_gpu_node_shares_device() {
        let mut spec = ClusterSpec::wilkes(1, 2);
        spec.gpus_per_node = 1;
        spec.hcas_per_node = 1;
        let t = Topology::new(spec);
        assert_eq!(t.gpu_of(ProcId(0)), t.gpu_of(ProcId(1)));
        assert_eq!(t.hca_of(ProcId(0)), t.hca_of(ProcId(1)));
    }

    #[test]
    fn pair_helpers() {
        let intra = Topology::new(ClusterSpec::intranode_pair());
        assert_eq!(intra.nprocs(), 2);
        assert!(intra.same_node(ProcId(0), ProcId(1)));
        let inter = Topology::new(ClusterSpec::internode_pair());
        assert_eq!(inter.nprocs(), 2);
        assert!(!inter.same_node(ProcId(0), ProcId(1)));
    }

    #[test]
    fn seg_ids_follow_nodes() {
        let t = Topology::new(ClusterSpec::wilkes(3, 1));
        assert_eq!(t.seg_of_node(NodeId(2)), SegId(2));
    }
}
