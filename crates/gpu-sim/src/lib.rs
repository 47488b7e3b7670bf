//! # gpu-sim — CUDA-like simulated GPU runtime
//!
//! Provides the device-side substrate the paper's runtime depends on:
//! device memory with a real allocator, `cudaMemcpy`-style transfers with
//! modelled DMA engines and PCIe timing, CUDA IPC handles, streams, and
//! UVA pointer classification. Bytes really move; time is virtual.
//!
//! ```
//! use gpu_sim::GpuRuntime;
//! use pcie_sim::{Cluster, ClusterSpec, HwProfile, GpuId, ProcId, MemRef, MemSpace};
//! use sim_core::Sim;
//!
//! let sim = Sim::new();
//! let cluster = Cluster::new(ClusterSpec::wilkes(1, 1), HwProfile::wilkes());
//! cluster.create_host_arena(ProcId(0), 4096);
//! let rt = GpuRuntime::new(&sim, cluster, 1 << 20);
//! let rt2 = rt.clone();
//! sim.run(1, move |ctx| {
//!     let dbuf = rt2.gpu(GpuId(0)).malloc(256).unwrap();
//!     let host = MemRef::new(MemSpace::Host(ProcId(0)), 0);
//!     rt2.cluster().mem().write_bytes(host, b"gpu!").unwrap();
//!     rt2.memcpy_sync(&ctx, host, dbuf, 4);
//!     assert_eq!(rt2.cluster().mem().read_bytes(dbuf, 4).unwrap(), b"gpu!");
//! });
//! ```

pub mod copy;
pub mod device;
pub mod ipc;
pub mod stream;

pub use copy::{classify, CopyKind};
pub use device::{GpuDevice, DEVICE_ALLOC_ALIGN};
pub use ipc::{IpcError, IpcHandle};
pub use stream::Stream;

use pcie_sim::mem::MemSpace;
use pcie_sim::{Cluster, GpuId, ProcId};
use sim_core::Sim;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// The per-cluster GPU runtime: all devices plus the IPC registry.
pub struct GpuRuntime {
    sim: Sim,
    cluster: Rc<Cluster>,
    gpus: Vec<Rc<GpuDevice>>,
    /// The IPC registry: which processes already mapped which devices.
    ipc_open: RefCell<HashSet<(ProcId, GpuId)>>,
    obs: obs::Sink,
}

/// Link-track slots per GPU in the obs index space (h2d, d2h, d2d,
/// p2p-in, p2p-out).
const LINKS_PER_GPU: usize = 5;

impl GpuRuntime {
    /// Build every GPU in the cluster with `dev_mem_bytes` of memory each.
    pub fn new(sim: &Sim, cluster: Rc<Cluster>, dev_mem_bytes: u64) -> Rc<GpuRuntime> {
        let hw = *cluster.hw();
        let gpus = (0..cluster.topo().ngpus())
            .map(|i| {
                let id = GpuId(i as u32);
                let arena = cluster
                    .mem()
                    .create(MemSpace::Device(id), dev_mem_bytes as usize);
                GpuDevice::new(id, arena, &hw)
            })
            .collect();
        let rt = Rc::new(GpuRuntime {
            sim: sim.clone(),
            cluster,
            gpus,
            ipc_open: RefCell::default(),
            obs: obs::Sink::new(),
        });
        // Per-link utilization: every PCIe/DMA link reports its
        // reservations through the late-bound sink, so a machine that
        // attaches a recorder gets one named utilization track per link.
        for (i, gpu) in rt.gpus.iter().enumerate() {
            let links = [
                ("h2d", &gpu.h2d),
                ("d2h", &gpu.d2h),
                ("d2d", &gpu.d2d),
                ("p2p-in", &gpu.p2p_in),
                ("p2p-out", &gpu.p2p_out),
            ];
            for (slot, (tag, link)) in links.into_iter().enumerate() {
                let sink = rt.obs.clone();
                let name = format!("pcie/gpu{i}/{tag}");
                let index = (i * LINKS_PER_GPU + slot) as u32;
                link.borrow_mut().set_observer(Box::new(move |ev| {
                    if let Some(rec) = sink.counters() {
                        rec.link_sample(index, &name, ev);
                    }
                }));
            }
        }
        rt
    }

    /// Late-bound observability sink; a machine attaches its recorder
    /// here so DMA-engine utilization lands in the trace.
    pub fn obs(&self) -> &obs::Sink {
        &self.obs
    }

    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    pub fn cluster(&self) -> &Rc<Cluster> {
        &self.cluster
    }

    pub fn gpu(&self, id: GpuId) -> &Rc<GpuDevice> {
        &self.gpus[id.index()]
    }

    pub fn gpus(&self) -> &[Rc<GpuDevice>] {
        &self.gpus
    }

    /// Install the plan's `GpuPcie`-scoped fault windows on the indexed
    /// GPU's PCIe attachment: all five engine links (h2d, d2h, d2d and
    /// both raw P2P ports) see the same degradation/blackout interval,
    /// which also throttles GDR gather/scatter through those ports.
    pub fn install_fault_windows(&self, plan: &faults::FaultPlan) {
        for w in &plan.link_windows {
            if w.scope != faults::LinkScope::GpuPcie {
                continue;
            }
            let window = sim_core::LinkFaultWindow {
                start: sim_core::SimTime(w.start_ns.saturating_mul(sim_core::PS_PER_NS)),
                end: sim_core::SimTime(w.end_ns.saturating_mul(sim_core::PS_PER_NS)),
                bw_multiplier: f64::from(w.bw_permille) / 1000.0,
            };
            for (i, gpu) in self.gpus.iter().enumerate() {
                if w.index == faults::ALL || w.index as usize == i {
                    for link in [&gpu.h2d, &gpu.d2h, &gpu.d2d, &gpu.p2p_in, &gpu.p2p_out] {
                        link.borrow_mut().add_fault_window(window);
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for GpuRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GpuRuntime({} gpus)", self.gpus.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::mem::MemRef;
    use pcie_sim::{ClusterSpec, HwProfile, ProcId};
    use sim_core::SimDuration;

    fn setup(nodes: usize, ppn: usize) -> (Sim, Rc<GpuRuntime>) {
        let sim = Sim::new();
        let cluster = Cluster::new(ClusterSpec::wilkes(nodes, ppn), HwProfile::wilkes());
        for p in cluster.topo().all_procs() {
            cluster.create_host_arena(p, 1 << 20);
        }
        let rt = GpuRuntime::new(&sim, cluster, 8 << 20);
        (sim, rt)
    }

    #[test]
    fn h2d_d2h_round_trip_preserves_data() {
        let (sim, rt) = setup(1, 1);
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let d = rt2.gpu(GpuId(0)).malloc(4096).unwrap();
            let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
            let payload: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
            rt2.cluster().mem().write_bytes(h, &payload).unwrap();
            rt2.memcpy_sync(&ctx, h, d, 4096);
            // scribble over host, then read back from device
            rt2.cluster().mem().write_bytes(h, &vec![0; 4096]).unwrap();
            rt2.memcpy_sync(&ctx, d, h, 4096);
            assert_eq!(rt2.cluster().mem().read_bytes(h, 4096).unwrap(), payload);
        });
    }

    #[test]
    fn sync_memcpy_takes_overhead_plus_dma_time() {
        let (sim, rt) = setup(1, 1);
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let hw = *rt2.cluster().hw();
            let d = rt2.gpu(GpuId(0)).malloc(1 << 20).unwrap();
            let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
            let t0 = ctx.now();
            rt2.memcpy_sync(&ctx, h, d, 1 << 20);
            let took = ctx.now() - t0;
            let expect = hw.gpu.memcpy_overhead
                + hw.pcie.latency
                + SimDuration::for_bytes(1 << 20, hw.gpu.h2d_bw);
            assert_eq!(took, expect);
        });
    }

    #[test]
    fn async_memcpy_overlaps_with_compute() {
        let (sim, rt) = setup(1, 1);
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let d = rt2.gpu(GpuId(0)).malloc(1 << 20).unwrap();
            let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
            let t0 = ctx.now();
            let done = rt2.memcpy_async(&ctx, h, d, 1 << 20);
            // A 1 MiB H2D takes ~175us; do 200us of compute meanwhile.
            ctx.advance(SimDuration::from_us(200));
            ctx.wait(&done);
            let took = ctx.now() - t0;
            // Total must be ~max(copy, compute) + launch, not the sum.
            assert!(took < SimDuration::from_us(210), "no overlap: {took}");
        });
    }

    #[test]
    fn peer_copy_between_sockets_is_slower() {
        let (sim, rt) = setup(1, 2); // gpu0 socket0, gpu1 socket1
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let a = rt2.gpu(GpuId(0)).malloc(1 << 20).unwrap();
            let b = rt2.gpu(GpuId(1)).malloc(1 << 20).unwrap();
            let t0 = ctx.now();
            rt2.memcpy_sync(&ctx, a, b, 1 << 20);
            let inter = ctx.now() - t0;
            // same-device copy is far faster
            let c = rt2.gpu(GpuId(0)).malloc(1 << 20).unwrap();
            let t1 = ctx.now();
            rt2.memcpy_sync(&ctx, a, c, 1 << 20);
            let local = ctx.now() - t1;
            assert!(inter > local * 10, "inter={inter} local={local}");
        });
    }

    #[test]
    fn dma_engines_serialize_per_direction() {
        let (sim, rt) = setup(1, 1);
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let d = rt2.gpu(GpuId(0)).malloc(2 << 20).unwrap();
            let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
            let t0 = ctx.now();
            let c1 = rt2.memcpy_async(&ctx, h, d, 1 << 20);
            let c2 = rt2.memcpy_async(&ctx, h, d.add(1 << 20), 1 << 20);
            ctx.wait(&c1);
            ctx.wait(&c2);
            let took = ctx.now() - t0;
            let hw = rt2.cluster().hw();
            let one = SimDuration::for_bytes(1 << 20, hw.gpu.h2d_bw);
            // Two same-direction copies on one engine serialize.
            assert!(took >= one * 2, "took {took}, one copy {one}");
        });
    }

    #[test]
    fn pcie_fault_window_degrades_h2d_copies() {
        let timed = |faulted: bool| {
            let (sim, rt) = setup(1, 1);
            if faulted {
                // halve GPU0's PCIe bandwidth for the first 10 ms
                rt.install_fault_windows(&faults::FaultPlan::default().with_link_window(
                    faults::LinkWindow {
                        scope: faults::LinkScope::GpuPcie,
                        index: 0,
                        start_ns: 0,
                        end_ns: 10_000_000,
                        bw_permille: 500,
                    },
                ));
            }
            let rt2 = rt.clone();
            let out = sim.run(1, move |ctx| {
                let d = rt2.gpu(GpuId(0)).malloc(1 << 20).unwrap();
                let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
                let t0 = ctx.now();
                rt2.memcpy_sync(&ctx, h, d, 1 << 20);
                (ctx.now() - t0).as_us_f64()
            });
            out[0]
        };
        let clean = timed(false);
        let slow = timed(true);
        assert!(
            slow > clean * 1.8 && slow < clean * 2.2,
            "half-rate window not visible: clean {clean}us vs faulted {slow}us"
        );
    }

    #[test]
    #[should_panic(expected = "memcpy validation failed")]
    fn out_of_bounds_copy_panics_at_launch() {
        let (sim, rt) = setup(1, 1);
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let d = rt2.gpu(GpuId(0)).malloc(256).unwrap();
            let h = MemRef::new(MemSpace::Host(ProcId(0)), (1 << 20) - 8);
            rt2.memcpy_sync(&ctx, h, d, 4096);
        });
    }
}
