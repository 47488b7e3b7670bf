//! Hardware timing profile.
//!
//! Every latency and bandwidth constant in the simulation lives here, in
//! one serializable structure, so experiments can swap profiles and the
//! calibration tests can pin the headline numbers from the paper.
//!
//! The default profile is calibrated against the paper's published
//! measurements on the Wilkes Tesla partition (dual IvyBridge, Tesla K20,
//! FDR ConnectX-3): Table II (4 B put latencies), Table III (P2P
//! bandwidth), and the micro-benchmark figures (§V-B).
//!
//! Bandwidths are quoted in MB/s with 1 MB = 1e6 bytes (Mellanox
//! convention, as in the paper's "6,397 MB/s" FDR figure).

use sim_core::SimDuration;

const MB: f64 = 1e6;

/// Direction of a PCIe peer-to-peer transfer relative to the GPU.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum P2pDir {
    /// HCA (or peer) reads from GPU memory.
    ReadFromGpu,
    /// HCA (or peer) writes into GPU memory.
    WriteToGpu,
}

/// PCIe fabric constants.
#[derive(Clone, Copy, Debug)]
pub struct PcieProfile {
    /// Native bandwidth of a GPU's PCIe port (bytes/s).
    pub port_bw: f64,
    /// One-way PCIe transaction latency.
    pub latency: SimDuration,
    /// P2P read from GPU, devices on the same socket (Table III).
    pub p2p_read_intra: f64,
    /// P2P read from GPU, devices on different sockets (Table III).
    pub p2p_read_inter: f64,
    /// P2P write to GPU, same socket (Table III).
    pub p2p_write_intra: f64,
    /// P2P write to GPU, different sockets (Table III).
    pub p2p_write_inter: f64,
}

impl PcieProfile {
    /// Effective P2P bandwidth cap for a transfer.
    pub fn p2p_bw(&self, dir: P2pDir, intra_socket: bool) -> f64 {
        match (dir, intra_socket) {
            (P2pDir::ReadFromGpu, true) => self.p2p_read_intra,
            (P2pDir::ReadFromGpu, false) => self.p2p_read_inter,
            (P2pDir::WriteToGpu, true) => self.p2p_write_intra,
            (P2pDir::WriteToGpu, false) => self.p2p_write_inter,
        }
    }
}

/// GPU device constants (Tesla K20-class).
#[derive(Clone, Copy, Debug)]
pub struct GpuProfile {
    /// Host->device DMA engine effective bandwidth (bytes/s).
    pub h2d_bw: f64,
    /// Device->host DMA engine effective bandwidth (bytes/s).
    pub d2h_bw: f64,
    /// On-device copy bandwidth (bytes/s).
    pub d2d_bw: f64,
    /// Driver/launch overhead of one synchronous cudaMemcpy call.
    pub memcpy_overhead: SimDuration,
    /// Launch overhead of an asynchronous cudaMemcpyAsync (the CPU-side
    /// cost only; the DMA proceeds in the background).
    pub memcpy_async_launch: SimDuration,
    /// Kernel launch overhead (used by the application cost models).
    pub kernel_launch: SimDuration,
}

/// Host memory constants.
#[derive(Clone, Copy, Debug)]
pub struct HostProfile {
    /// Single-core memcpy bandwidth host<->host / host<->shm (bytes/s).
    pub memcpy_bw: f64,
    /// Fixed overhead of a host memcpy call.
    pub memcpy_overhead: SimDuration,
}

/// InfiniBand-like fabric constants (FDR ConnectX-3-class).
#[derive(Clone, Copy, Debug)]
pub struct IbProfile {
    /// Wire payload bandwidth (bytes/s): the paper's 6,397 MB/s.
    pub wire_bw: f64,
    /// CPU cost of posting one work request (doorbell + WQE write).
    pub post_overhead: SimDuration,
    /// Sender HCA work-request processing time.
    pub hca_wqe: SimDuration,
    /// Wire propagation latency (cable + serdes), per traversal.
    pub wire_latency: SimDuration,
    /// Per-switch-hop latency; inter-node paths cross one switch.
    pub switch_latency: SimDuration,
    /// Target HCA processing before issuing the DMA.
    pub remote_hca: SimDuration,
    /// PCIe DMA latency into host memory at the target.
    pub host_dma: SimDuration,
    /// Extra PCIe P2P latency when the DMA targets/sources GPU memory
    /// (the GDR BAR path is slower than the host path for small messages).
    pub gdr_dma: SimDuration,
    /// Shortcut latency when source and destination HCA are the same
    /// physical adapter (loopback RDMA, used by the intra-node designs).
    pub loopback: SimDuration,
    /// Execution time of a 64-bit atomic in the target HCA's atomic unit.
    pub atomic_unit: SimDuration,
    /// Fixed base cost of one memory-registration call (cold).
    pub reg_base_cost: SimDuration,
    /// Incremental cost per registered page (cold).
    pub reg_page_cost: SimDuration,
    /// Page size used for registration accounting.
    pub reg_page_bytes: u64,
    /// Completion-queue poll / interrupt delivery delay back to software.
    pub cq_delivery: SimDuration,
}

/// The full hardware profile.
#[derive(Clone, Copy, Debug)]
pub struct HwProfile {
    pub pcie: PcieProfile,
    pub gpu: GpuProfile,
    pub host: HostProfile,
    pub ib: IbProfile,
}

impl HwProfile {
    /// Profile calibrated to the paper's Wilkes numbers.
    pub fn wilkes() -> Self {
        HwProfile {
            pcie: PcieProfile {
                port_bw: 12_000.0 * MB,
                latency: SimDuration::from_ns(300),
                p2p_read_intra: 3_421.0 * MB,
                p2p_read_inter: 247.0 * MB,
                p2p_write_intra: 6_396.0 * MB,
                p2p_write_inter: 1_179.0 * MB,
            },
            gpu: GpuProfile {
                h2d_bw: 6_000.0 * MB,
                d2h_bw: 6_500.0 * MB,
                d2d_bw: 140_000.0 * MB,
                memcpy_overhead: SimDuration::from_ns(5_300),
                memcpy_async_launch: SimDuration::from_ns(1_200),
                kernel_launch: SimDuration::from_us(7),
            },
            host: HostProfile {
                memcpy_bw: 6_000.0 * MB,
                memcpy_overhead: SimDuration::from_ns(200),
            },
            ib: IbProfile {
                wire_bw: 6_397.0 * MB,
                post_overhead: SimDuration::from_ns(150),
                hca_wqe: SimDuration::from_ns(450),
                wire_latency: SimDuration::from_ns(500),
                switch_latency: SimDuration::from_ns(100),
                remote_hca: SimDuration::from_ns(350),
                host_dma: SimDuration::from_ns(250),
                gdr_dma: SimDuration::from_ns(550),
                loopback: SimDuration::from_ns(200),
                atomic_unit: SimDuration::from_ns(400),
                reg_base_cost: SimDuration::from_us(30),
                reg_page_cost: SimDuration::from_ns(350),
                reg_page_bytes: 4096,
                cq_delivery: SimDuration::from_ns(250),
            },
        }
    }
}

impl Default for HwProfile {
    fn default() -> Self {
        Self::wilkes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_caps_are_encoded() {
        let p = HwProfile::wilkes().pcie;
        assert_eq!(p.p2p_bw(P2pDir::ReadFromGpu, true), 3_421.0 * MB);
        assert_eq!(p.p2p_bw(P2pDir::ReadFromGpu, false), 247.0 * MB);
        assert_eq!(p.p2p_bw(P2pDir::WriteToGpu, true), 6_396.0 * MB);
        assert_eq!(p.p2p_bw(P2pDir::WriteToGpu, false), 1_179.0 * MB);
    }

    #[test]
    fn intra_socket_write_saturates_fdr() {
        // The paper notes P2P write intra-socket delivers 100% of FDR.
        let hw = HwProfile::wilkes();
        let ratio = hw.pcie.p2p_bw(P2pDir::WriteToGpu, true) / hw.ib.wire_bw;
        assert!((ratio - 1.0).abs() < 0.001, "ratio {ratio}");
    }

    #[test]
    fn profile_is_cloneable_and_debuggable() {
        let hw = HwProfile::wilkes();
        let copy = hw;
        let dbg = format!("{copy:?}");
        assert!(dbg.contains("wire_bw"));
    }
}
