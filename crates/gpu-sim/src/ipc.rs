//! CUDA IPC: exporting device buffers to sibling processes on one node.
//!
//! A process obtains an [`IpcHandle`] for a device allocation and another
//! process on the same node opens it, after which the buffer is directly
//! addressable (peer copies work). Opening is expensive the first time per
//! (process, device) pair; the runtime caches mappings exactly like the
//! paper's initialization-time IPC exchange (§III-A).

use crate::GpuRuntime;
use parking_lot::Mutex;
use pcie_sim::mem::{MemRef, MemSpace};
use pcie_sim::{GpuId, ProcId};
use std::collections::HashSet;
use std::sync::Arc;

/// An exported device buffer (the analogue of `cudaIpcMemHandle_t`).
#[derive(Clone, Copy, Debug)]
pub struct IpcHandle {
    pub mem: MemRef,
    pub len: u64,
}

/// Per-cluster registry of which processes already mapped which devices.
#[derive(Default)]
pub struct IpcRegistry {
    open: Mutex<HashSet<(ProcId, GpuId)>>,
}

impl IpcRegistry {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Error opening an IPC handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IpcError {
    /// The handle does not point at device memory.
    NotDeviceMemory,
    /// Opener and owner are on different nodes (IPC is intra-node only).
    CrossNode,
}

impl std::fmt::Display for IpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpcError::NotDeviceMemory => write!(f, "IPC handle must reference device memory"),
            IpcError::CrossNode => write!(f, "CUDA IPC only works between processes on one node"),
        }
    }
}

impl std::error::Error for IpcError {}

impl GpuRuntime {
    /// `cudaIpcGetMemHandle`.
    pub fn ipc_get_handle(&self, mem: MemRef, len: u64) -> Result<IpcHandle, IpcError> {
        if !mem.is_device() {
            return Err(IpcError::NotDeviceMemory);
        }
        Ok(IpcHandle { mem, len })
    }

    /// `cudaIpcOpenMemHandle` for process `opener`: validates locality,
    /// charges the one-time mapping cost, and returns the peer-usable ref.
    pub fn ipc_open(
        self: &Arc<Self>,
        ctx: &sim_core::TaskCtx,
        opener: ProcId,
        handle: IpcHandle,
    ) -> Result<MemRef, IpcError> {
        let gpu = match handle.mem.space {
            MemSpace::Device(g) => g,
            _ => return Err(IpcError::NotDeviceMemory),
        };
        let topo = self.cluster().topo();
        if topo.node_of(opener) != topo.node_of_gpu(gpu) {
            return Err(IpcError::CrossNode);
        }
        let first = self.ipc().open.lock().insert((opener, gpu));
        if first {
            ctx.advance(self.cluster().hw().gpu.ipc_open_cost);
        }
        Ok(handle.mem)
    }

    /// Whether `opener` already mapped `gpu` (mapping-cache hit).
    pub fn ipc_is_open(&self, opener: ProcId, gpu: GpuId) -> bool {
        self.ipc().open.lock().contains(&(opener, gpu))
    }

    /// Record a mapping without charging time — used by runtimes that
    /// perform the whole IPC exchange during initialization (paper
    /// §III-A) and account for it there.
    pub fn ipc_mark_open(&self, opener: ProcId, gpu: GpuId) {
        self.ipc().open.lock().insert((opener, gpu));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuRuntime;
    use pcie_sim::{Cluster, ClusterSpec, HwProfile};
    use sim_core::Sim;

    #[test]
    fn ipc_open_charges_once_and_is_node_local() {
        let sim = Sim::new();
        let cluster = Cluster::new(ClusterSpec::wilkes(2, 2), HwProfile::wilkes());
        let rt = GpuRuntime::new(&sim, cluster, 1 << 20);
        let owner_buf = rt.gpu(GpuId(0)).malloc(4096).unwrap();
        let handle = rt.ipc_get_handle(owner_buf, 4096).unwrap();

        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            // pe1 is on node0 with gpu0's owner: open succeeds, costs time.
            let t0 = ctx.now();
            let r = rt2.ipc_open(&ctx, ProcId(1), handle).unwrap();
            assert_eq!(r, owner_buf);
            let cost1 = ctx.now() - t0;
            assert!(!cost1.is_zero());
            // second open of same device is cached
            let t1 = ctx.now();
            rt2.ipc_open(&ctx, ProcId(1), handle).unwrap();
            assert!((ctx.now() - t1).is_zero());
            assert!(rt2.ipc_is_open(ProcId(1), GpuId(0)));
            // pe2 is on node1: cross-node open fails
            assert_eq!(
                rt2.ipc_open(&ctx, ProcId(2), handle).unwrap_err(),
                IpcError::CrossNode
            );
        });
    }

    #[test]
    fn host_memory_cannot_be_exported() {
        let sim = Sim::new();
        let cluster = Cluster::new(ClusterSpec::wilkes(1, 2), HwProfile::wilkes());
        let rt = GpuRuntime::new(&sim, cluster, 1 << 20);
        let r = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        assert_eq!(
            rt.ipc_get_handle(r, 16).unwrap_err(),
            IpcError::NotDeviceMemory
        );
    }
}
