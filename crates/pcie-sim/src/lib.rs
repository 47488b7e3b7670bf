//! # pcie-sim — node & cluster hardware model
//!
//! The physical substrate beneath the GDR-aware OpenSHMEM runtime:
//!
//! - [`ids`] — cluster-global identifiers ([`NodeId`], [`ProcId`],
//!   [`GpuId`], [`HcaId`], …);
//! - [`mem`] — byte-accurate simulated memory: [`Arena`]s for host,
//!   shared-segment and device spaces, addressed by UVA-style [`MemRef`]s;
//! - [`topo`] — dual-socket node topology with GPU/HCA placement and the
//!   intra-/inter-socket distinction that drives the paper's P2P caps;
//! - [`profile`] — every timing constant ([`HwProfile`]), calibrated to
//!   the paper's Wilkes platform (Tables II and III);
//! - [`cluster`] — the [`Cluster`] bundle the device models build on.

pub mod alloc;
pub mod cluster;
pub mod ids;
pub mod mem;
pub mod profile;
pub mod topo;

pub use alloc::{OutOfMemory, RangeAlloc};
pub use cluster::Cluster;
pub use ids::{GpuId, HcaId, NodeId, ProcId, SegId, SocketId};
pub use mem::{Arena, Held, MemError, MemRef, MemSpace, MemStats, MemoryMap, Run};
pub use profile::{GpuProfile, HostProfile, HwProfile, IbProfile, P2pDir, PcieProfile};
pub use topo::{ClusterSpec, PlacementPolicy, Topology};
