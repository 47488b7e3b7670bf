//! # shmem-gdr — a GDR-aware OpenSHMEM runtime for simulated GPU clusters
//!
//! Reproduction of *"Exploiting GPUDirect RDMA in Designing High
//! Performance OpenSHMEM for NVIDIA GPU Clusters"* (CLUSTER 2015). The
//! runtime implements the paper's domain-based symmetric memory model —
//! `shmalloc(size, domain)` with host **and GPU** symmetric heaps — and
//! its three designs:
//!
//! - [`Design::Naive`]: host-only communication, users stage GPU data;
//! - [`Design::HostPipeline`]: the CUDA-aware baseline \[15\] (IPC copies
//!   intra-node, host-staged pipeline inter-node, target-side last copy);
//! - [`Design::EnhancedGdr`]: the paper's contribution — GDR loopback,
//!   direct GDR, pipeline-GDR-write and proxy protocols, truly one-sided
//!   in every (H-H, H-D, D-H, D-D) × (intra-, inter-node) configuration.
//!
//! ```
//! use shmem_gdr::{Design, Domain, RuntimeConfig, ShmemMachine};
//! use pcie_sim::ClusterSpec;
//!
//! let m = ShmemMachine::build(
//!     ClusterSpec::internode_pair(),
//!     RuntimeConfig::tuned(Design::EnhancedGdr),
//! );
//! m.run(|pe| {
//!     // a symmetric vector on every PE's GPU
//!     let x = pe.shmalloc_slice::<f64>(16, Domain::Gpu);
//!     if pe.my_pe() == 0 {
//!         let src = pe.malloc_dev(128);
//!         pe.write_raw(src, &42f64.to_le_bytes().repeat(16));
//!         pe.put_slice(&x, src, 1);   // GPU -> remote GPU, one-sided
//!         pe.quiet();
//!     }
//!     pe.barrier_all();
//!     if pe.my_pe() == 1 {
//!         assert_eq!(pe.read_sym(&x), vec![42f64; 16]);
//!     }
//! });
//! ```

pub mod addr;
pub mod collectives;
pub mod config;
pub mod error;
pub mod health;
pub mod layout;
pub mod lock;
pub mod machine;
pub mod membership;
pub mod msg;
pub mod pe;
pub mod pending;
pub mod recovery;
pub mod report;
pub mod pipeline;
pub mod protocols;
pub mod state;
pub mod sync;

pub use addr::{Domain, Pod, SymAddr, SymSlice};
pub use collectives::{RedOp, Reducible};
pub use config::{Design, RuntimeConfig};
pub use error::TransferError;
pub use layout::HeapLayout;
pub use machine::ShmemMachine;
pub use membership::{
    Membership, PartitionOutcome, SplitSchedule, View, DETECT_BOUND_NS, HEAL_BOUND_NS,
    HEARTBEAT_PERIOD_NS, MISSED_BEATS,
};
pub use msg::MsgHandle;
pub use pe::{Cmp, Pe};
pub use report::JobReport;
pub use state::{PeStats, Protocol};

// re-export the substrate types users commonly need
pub use faults::{FaultPlan, LinkScope, LinkWindow, ProxyStall};
pub use pcie_sim::{ClusterSpec, HwProfile, MemRef, PlacementPolicy, ProcId};
pub use sim_core::{SimDuration, SimTime};
