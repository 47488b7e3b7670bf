//! # ib-sim — InfiniBand-like fabric with GPUDirect RDMA
//!
//! The network substrate of the reproduction: HCAs with modelled WQE and
//! DMA timing, memory registration with lkey/rkey protection (device-mem
//! MRs == GDR), one-sided RDMA write/read, 64-bit hardware atomics, and
//! two-sided send/recv. Payloads really move between arenas; transfer
//! schedules honour the PCIe P2P caps of the paper's Table III.

pub mod hca;
pub mod mr;
pub mod sendrecv;
pub mod verbs;

pub use hca::{Hca, HcaStats};
pub use mr::{Lkey, MemoryRegion, MrError, MrTable, Rkey};
pub use sendrecv::{QpTable, SendRecvError};
pub use verbs::{AtomicOp, AtomicResult, RdmaCompletion};

use gpu_sim::GpuRuntime;
use pcie_sim::mem::MemRef;
use pcie_sim::{Cluster, HcaId, ProcId};
use sim_core::{Sim, SimDuration, SimTime, TaskCtx};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A transient completion-queue error drawn from the active fault plan.
/// The HCA "detects" the failure `detect` after the post attempt; the
/// WQE never executes, so the poster must re-post (or give up).
#[derive(Clone, Copy, Debug)]
pub struct CqeFault {
    /// CQE status mnemonic (`cqe-flush-err` / `cqe-retry-exceeded`).
    pub kind: &'static str,
    /// Virtual time between the post and the error CQE.
    pub detect: SimDuration,
}

/// Deterministic fault-draw state: program-ordered counters per poster
/// so identical seeds replay identical fault sequences regardless of
/// wall-clock scheduling.
#[derive(Default)]
struct FaultState {
    plan: Option<faults::FaultPlan>,
    /// Per-poster post-attempt counters (CQE error stream).
    posts: Vec<u64>,
    /// Per-poster completion counters (late-delivery stream).
    completions: Vec<u64>,
    /// Per-poster sync-area flag/data write counters: a dedicated CQE
    /// stream (`faults::SYNC_STREAM`) so arming sync faults never
    /// shifts the RMA post streams above.
    sync_posts: Vec<u64>,
}

impl FaultState {
    fn bump(v: &mut Vec<u64>, idx: usize) -> u64 {
        if v.len() <= idx {
            v.resize(idx + 1, 0);
        }
        let c = v[idx];
        v[idx] = c + 1;
        c
    }
}

/// The fabric: every HCA in the cluster plus the MR and QP tables.
pub struct IbVerbs {
    sim: Sim,
    cluster: Rc<Cluster>,
    gpus: Rc<GpuRuntime>,
    hcas: Vec<Hca>,
    mrs: MrTable,
    qps: QpTable,
    obs: obs::Sink,
    faults: RefCell<FaultState>,
}

/// Obs link-track index base for HCA TX links (above every possible
/// GPU link index, so the two families never collide).
const HCA_LINK_BASE: u32 = 0x8000;

impl IbVerbs {
    pub fn new(sim: &Sim, gpus: Rc<GpuRuntime>) -> Arc<IbVerbs> {
        let cluster = gpus.cluster().clone();
        let obs = obs::Sink::new();
        let hcas: Vec<Hca> = (0..cluster.topo().nhcas())
            .map(|i| Hca::new(HcaId(i as u32), &cluster.hw().ib))
            .collect();
        // Per-link utilization: each HCA's TX wire reports reservations
        // through the late-bound sink (one named link track per HCA).
        for (i, h) in hcas.iter().enumerate() {
            let sink = obs.clone();
            let name = format!("ib/hca{i}/tx");
            let index = HCA_LINK_BASE + i as u32;
            h.set_tx_observer(Box::new(move |ev| {
                if let Some(rec) = sink.counters() {
                    rec.link_sample(index, &name, ev);
                }
            }));
        }
        // The one `Arc` left in the workspace: bench_wall names
        // `Arc<IbVerbs>` and may only change in the benchmark PR
        // (ROADMAP item 1), which retires it for `Rc`.
        #[allow(clippy::arc_with_non_send_sync)]
        Arc::new(IbVerbs {
            sim: sim.clone(),
            cluster,
            gpus,
            hcas,
            mrs: MrTable::new(),
            qps: QpTable::new(),
            obs,
            faults: RefCell::new(FaultState::default()),
        })
    }

    /// Arm the fabric with a fault plan: transient CQE errors and late
    /// completions are drawn deterministically per poster, and the
    /// plan's HCA-TX link windows (degradation/blackout) are installed
    /// on the matching TX links.
    pub fn set_fault_plan(&self, plan: faults::FaultPlan) {
        for w in &plan.link_windows {
            if w.scope != faults::LinkScope::HcaTx {
                continue;
            }
            let window = sim_core::LinkFaultWindow {
                start: SimTime(w.start_ns.saturating_mul(sim_core::PS_PER_NS)),
                end: SimTime(w.end_ns.saturating_mul(sim_core::PS_PER_NS)),
                bw_multiplier: f64::from(w.bw_permille) / 1000.0,
            };
            for (i, h) in self.hcas.iter().enumerate() {
                if w.index == faults::ALL || w.index as usize == i {
                    h.add_tx_fault_window(window);
                }
            }
        }
        self.faults.borrow_mut().plan = Some(plan);
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<faults::FaultPlan> {
        self.faults.borrow().plan
    }

    /// Draw the next post-attempt outcome for `poster`. `Some` means the
    /// WQE failed with a transient CQE error after `detect` of virtual
    /// time; the caller charges the detection latency and may re-post.
    /// Every call advances the poster's deterministic draw counter.
    /// Inside a correlated burst window every draw fails (`cqe-burst`),
    /// regardless of the per-post permille.
    pub fn inject_transient_cqe(&self, poster: ProcId) -> Option<CqeFault> {
        self.draw_cqe(poster, u64::from(poster.0), |st| &mut st.posts)
    }

    /// Sync-area counterpart of [`IbVerbs::inject_transient_cqe`]:
    /// `sync_flag_put` / `sync_data_put` posts draw from a dedicated
    /// per-poster stream (`faults::SYNC_STREAM` salt, own counters), so
    /// the RMA post streams replay identically whether or not a
    /// workload issues sync traffic between their posts.
    pub fn inject_sync_cqe(&self, poster: ProcId) -> Option<CqeFault> {
        let stream = u64::from(poster.0) | faults::SYNC_STREAM;
        self.draw_cqe(poster, stream, |st| &mut st.sync_posts)
    }

    /// Shared draw on `stream`, counted in `poster`'s slot of
    /// `counters`: burst windows defeat every post at once; otherwise
    /// the seeded per-post permille decides.
    fn draw_cqe(
        &self,
        poster: ProcId,
        stream: u64,
        counters: fn(&mut FaultState) -> &mut Vec<u64>,
    ) -> Option<CqeFault> {
        let mut st = self.faults.borrow_mut();
        let plan = st.plan?;
        if !plan.cqe_armed() {
            return None;
        }
        let counter = FaultState::bump(counters(&mut st), poster.0 as usize);
        let detect = SimDuration::from_ns(plan.cqe_detect_ns);
        if plan.in_burst(self.sim.now().0 / sim_core::PS_PER_NS) {
            return Some(CqeFault { kind: "cqe-burst", detect });
        }
        plan.cqe_fails(stream, counter).then(|| CqeFault {
            kind: plan.cqe_kind(stream, counter),
            detect,
        })
    }

    /// Extra CQ-delivery delay for `poster`'s next completion (the
    /// "late completion" fault); `SimDuration::ZERO` when unfaulted.
    pub(crate) fn late_extra(&self, poster: ProcId) -> SimDuration {
        let mut st = self.faults.borrow_mut();
        let Some(plan) = st.plan else {
            return SimDuration::ZERO;
        };
        if plan.late_permille == 0 {
            return SimDuration::ZERO;
        }
        let n = FaultState::bump(&mut st.completions, poster.0 as usize);
        if plan.completion_late(u64::from(poster.0), n) {
            SimDuration::from_ns(plan.late_extra_ns)
        } else {
            SimDuration::ZERO
        }
    }

    /// Late-bound observability sink; a machine attaches its recorder
    /// here so HCA TX utilization lands in the trace.
    pub fn obs(&self) -> &obs::Sink {
        &self.obs
    }

    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    pub fn cluster(&self) -> &Rc<Cluster> {
        &self.cluster
    }

    pub fn gpus(&self) -> &Rc<GpuRuntime> {
        &self.gpus
    }

    pub fn hca(&self, id: HcaId) -> &Hca {
        &self.hcas[id.index()]
    }

    /// Reserve an HCA's TX engine, accounting the transfer with the
    /// attached recorder (utilization counters; a TX span at `Spans`).
    pub(crate) fn tx_reserve(
        &self,
        id: HcaId,
        now: sim_core::SimTime,
        len: u64,
        eff_bw: f64,
    ) -> sim_core::LinkGrant {
        let grant = self.hca(id).tx_reserve(now, len, eff_bw);
        if let Some(rec) = self.obs.counters() {
            rec.agent_bytes(
                obs::TrackKind::Hca,
                id.0,
                grant.start,
                len,
                grant.depart.since(grant.start),
            );
            if rec.spans_on() {
                let track = rec.track(obs::TrackKind::Hca, id.0);
                rec.span(track, "tx", grant.start, grant.depart, obs::Payload::Xfer { size: len });
            }
        }
        grant
    }

    pub fn hcas(&self) -> &[Hca] {
        &self.hcas
    }

    pub fn mrs(&self) -> &MrTable {
        &self.mrs
    }

    pub(crate) fn qps(&self) -> &QpTable {
        &self.qps
    }

    /// Register memory, charging the (cold) registration cost to the
    /// calling PE. Higher layers add a registration *cache* on top, as
    /// MVAPICH2-X does (paper §III-A).
    pub fn reg_mr(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        owner: ProcId,
        base: MemRef,
        len: u64,
    ) -> MemoryRegion {
        let ib = &self.cluster.hw().ib;
        let pages = len.div_ceil(ib.reg_page_bytes).max(1);
        ctx.advance(ib.reg_base_cost + ib.reg_page_cost * pages);
        self.reg_mr_nocost(owner, base, len)
    }

    /// Register memory without charging time (initialization-time setup
    /// whose cost is accounted by the caller, and tests).
    pub fn reg_mr_nocost(&self, owner: ProcId, base: MemRef, len: u64) -> MemoryRegion {
        // the arena must exist and cover the range
        let arena = self
            .cluster
            .mem()
            .get(base.space)
            .unwrap_or_else(|e| panic!("registering unmapped memory: {e}"));
        assert!(
            base.offset + len <= arena.size(),
            "MR [{}+{len}) beyond arena size {}",
            base,
            arena.size()
        );
        self.mrs.insert(owner, base, len)
    }

    pub fn dereg_mr(&self, mr: &MemoryRegion) {
        self.mrs.dereg(mr);
    }
}

impl std::fmt::Debug for IbVerbs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IbVerbs({} hcas, {} MRs)",
            self.hcas.len(),
            self.mrs.len()
        )
    }
}

/// Test helper: build a Wilkes-like fabric with host arenas mapped.
#[doc(hidden)]
pub mod testutil {
    use super::*;
    use pcie_sim::{ClusterSpec, HwProfile};

    pub fn fabric(nodes: usize, ppn: usize) -> (Sim, Arc<IbVerbs>) {
        let sim = Sim::new();
        let cluster = Cluster::new(ClusterSpec::wilkes(nodes, ppn), HwProfile::wilkes());
        for p in cluster.topo().all_procs() {
            cluster.create_host_arena(p, 16 << 20);
        }
        let gpus = GpuRuntime::new(&sim, cluster, 16 << 20);
        let ib = IbVerbs::new(&sim, gpus);
        (sim, ib)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::fabric;
    use super::*;
    use pcie_sim::mem::{MemRef, MemSpace};
    use pcie_sim::GpuId;
    

    #[test]
    fn rdma_write_host_to_host_internode() {
        let (sim, ib) = fabric(2, 1);
        // register both sides before the run so rkeys are known
        let src = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        let dst = MemRef::new(MemSpace::Host(ProcId(1)), 128);
        ib.reg_mr_nocost(ProcId(0), src, 4096);
        let mr1 = ib.reg_mr_nocost(ProcId(1), MemRef::new(MemSpace::Host(ProcId(1)), 0), 4096);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            ib2.cluster().mem().write_bytes(src, b"rdma-bytes").unwrap();
            let comp = ib2
                .post_rdma_write(&ctx, ProcId(0), src, mr1.rkey, dst, 10)
                .unwrap();
            ctx.wait(&comp.remote);
            assert_eq!(
                ib2.cluster().mem().read_bytes(dst, 10).unwrap(),
                b"rdma-bytes"
            );
        });
    }

    #[test]
    fn rdma_write_rejects_bad_rkey_and_bounds() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let me = ProcId(0);
            let mine = MemRef::new(MemSpace::Host(me), 0);
            let mr0 = ib2.reg_mr_nocost(me, mine, 1024);
            let peer = MemRef::new(MemSpace::Host(ProcId(1)), 0);
            let mr1 = ib2.reg_mr_nocost(ProcId(1), peer, 1024);
            // bad rkey
            let e = ib2
                .post_rdma_write(&ctx, me, mine, Rkey(9999), peer, 8)
                .unwrap_err();
            assert!(matches!(e, MrError::InvalidRkey(_)));
            // out of MR bounds
            let e = ib2
                .post_rdma_write(&ctx, me, mine, mr1.rkey, peer.add(1020), 16)
                .unwrap_err();
            assert!(matches!(e, MrError::ProtectionFault { .. }));
            // unregistered local source
            let high = MemRef::new(MemSpace::Host(me), 900_000);
            let e = ib2
                .post_rdma_write(&ctx, me, high, mr1.rkey, peer, 8)
                .unwrap_err();
            assert!(matches!(e, MrError::NotRegistered { .. }));
            let _ = mr0;
        });
    }

    #[test]
    fn gdr_write_lands_in_device_memory() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let me = ProcId(0);
            let src = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, src, 4096);
            // register pe1's GPU buffer: GDR
            let dev = ib2.gpus().gpu(GpuId(2)).malloc(4096).unwrap(); // node1 gpu
            let mr = ib2.reg_mr_nocost(ProcId(1), dev, 4096);
            assert!(mr.is_gdr());
            ib2.cluster().mem().write_bytes(src, &[0x5A; 64]).unwrap();
            let comp = ib2
                .post_rdma_write(&ctx, me, src, mr.rkey, dev, 64)
                .unwrap();
            ctx.wait(&comp.remote);
            assert!(ib2
                .cluster()
                .mem()
                .read_bytes(dev, 64)
                .unwrap()
                .iter()
                .all(|&b| b == 0x5A));
        });
    }

    #[test]
    fn rdma_read_pulls_remote_device_data() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let me = ProcId(0);
            let dst = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, dst, 4096);
            let dev = ib2.gpus().gpu(GpuId(2)).malloc(4096).unwrap();
            let mr = ib2.reg_mr_nocost(ProcId(1), dev, 4096);
            ib2.cluster().mem().write_bytes(dev, &[0xC3; 128]).unwrap();
            let done = ib2
                .post_rdma_read(&ctx, me, dst, mr.rkey, dev, 128)
                .unwrap();
            ctx.wait(&done);
            assert!(ib2
                .cluster()
                .mem()
                .read_bytes(dst, 128)
                .unwrap()
                .iter()
                .all(|&b| b == 0xC3));
        });
    }

    #[test]
    fn small_gdr_write_latency_is_near_paper_number() {
        // Inter-node D-D 8 B put ~ 3.13us at the OpenSHMEM level; the raw
        // verb should be slightly below that (runtime overhead comes later).
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let me = ProcId(0);
            let src_dev = ib2.gpus().gpu(GpuId(0)).malloc(4096).unwrap();
            ib2.reg_mr_nocost(me, src_dev, 4096);
            let dst_dev = ib2.gpus().gpu(GpuId(2)).malloc(4096).unwrap();
            let mr = ib2.reg_mr_nocost(ProcId(1), dst_dev, 4096);
            let t0 = ctx.now();
            let comp = ib2
                .post_rdma_write(&ctx, me, src_dev, mr.rkey, dst_dev, 8)
                .unwrap();
            ctx.wait(&comp.remote);
            let lat = (ctx.now() - t0).as_us_f64();
            assert!((1.5..3.2).contains(&lat), "raw GDR D-D latency {lat}us");
        });
    }

    #[test]
    fn atomics_fetch_add_and_cswap() {
        let (sim, ib) = fabric(2, 1);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let me = ProcId(0);
            let local = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, local, 64);
            let peer = MemRef::new(MemSpace::Host(ProcId(1)), 0);
            let mr = ib2.reg_mr_nocost(ProcId(1), peer, 64);
            ib2.cluster()
                .mem()
                .get(peer.space)
                .unwrap()
                .write_u64(0, 100)
                .unwrap();

            let r = ib2
                .post_atomic(&ctx, me, mr.rkey, peer, AtomicOp::FetchAdd(5))
                .unwrap();
            assert_eq!(r.value(), None, "polling before completion must not panic");
            ctx.wait(&r.done);
            assert_eq!(r.value(), Some(100));
            let arena = ib2.cluster().mem().get(peer.space).unwrap();
            assert_eq!(arena.read_u64(0).unwrap(), 105);

            // successful compare-and-swap
            let r = ib2
                .post_atomic(
                    &ctx,
                    me,
                    mr.rkey,
                    peer,
                    AtomicOp::CompareSwap {
                        compare: 105,
                        swap: 7,
                    },
                )
                .unwrap();
            ctx.wait(&r.done);
            assert_eq!(r.value(), Some(105));
            assert_eq!(arena.read_u64(0).unwrap(), 7);

            // failing compare-and-swap leaves memory untouched
            let r = ib2
                .post_atomic(
                    &ctx,
                    me,
                    mr.rkey,
                    peer,
                    AtomicOp::CompareSwap {
                        compare: 999,
                        swap: 1,
                    },
                )
                .unwrap();
            ctx.wait(&r.done);
            assert_eq!(r.value(), Some(7));
            assert_eq!(arena.read_u64(0).unwrap(), 7);
        });
    }

    #[test]
    fn concurrent_fetch_adds_are_linearizable() {
        let (sim, ib) = fabric(2, 2);
        let peer = MemRef::new(MemSpace::Host(ProcId(3)), 0);
        let mr = ib.reg_mr_nocost(ProcId(3), peer, 64);
        let rkey = mr.rkey;
        let ib3 = ib.clone();
        sim.run(3, move |ctx| {
            let me = ProcId(ctx.id().0 as u32);
            let local = MemRef::new(MemSpace::Host(me), 0);
            ib3.reg_mr_nocost(me, local, 64);
            for _ in 0..10 {
                let r = ib3
                    .post_atomic(&ctx, me, rkey, peer, AtomicOp::FetchAdd(1))
                    .unwrap();
                ctx.wait(&r.done);
            }
        });
        let arena = ib.cluster().mem().get(peer.space).unwrap();
        assert_eq!(arena.read_u64(0).unwrap(), 30);
    }

    #[test]
    fn loopback_write_is_faster_than_internode() {
        let (sim, ib) = fabric(2, 2);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let me = ProcId(0);
            let mine = MemRef::new(MemSpace::Host(me), 0);
            ib2.reg_mr_nocost(me, mine, 4096);
            // intra-node target: pe1; inter-node target: pe2
            let near = MemRef::new(MemSpace::Host(ProcId(1)), 0);
            let far = MemRef::new(MemSpace::Host(ProcId(2)), 0);
            let mr_near = ib2.reg_mr_nocost(ProcId(1), near, 4096);
            let mr_far = ib2.reg_mr_nocost(ProcId(2), far, 4096);

            let t0 = ctx.now();
            let c = ib2
                .post_rdma_write(&ctx, me, mine, mr_near.rkey, near, 8)
                .unwrap();
            ctx.wait(&c.remote);
            let lat_near = ctx.now() - t0;

            let t1 = ctx.now();
            let c = ib2
                .post_rdma_write(&ctx, me, mine, mr_far.rkey, far, 8)
                .unwrap();
            ctx.wait(&c.remote);
            let lat_far = ctx.now() - t1;
            assert!(lat_near < lat_far, "near {lat_near} far {lat_far}");
        });
    }

    #[test]
    fn registration_cost_scales_with_pages() {
        let (sim, ib) = fabric(1, 1);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            let me = ProcId(0);
            let mine = MemRef::new(MemSpace::Host(me), 0);
            let t0 = ctx.now();
            ib2.reg_mr(&ctx, me, mine, 4096);
            let one_page = ctx.now() - t0;
            let t1 = ctx.now();
            ib2.reg_mr(&ctx, me, mine.add(4096), 64 * 4096);
            let many = ctx.now() - t1;
            assert!(
                many > one_page,
                "64-page reg not slower: {many} vs {one_page}"
            );
        });
    }

    #[test]
    fn writes_on_one_path_complete_in_order() {
        // FIFO TX serialization => remote completion order matches post
        // order for a same-QP-path pair (needed by fence semantics).
        let (sim, ib) = fabric(2, 1);
        let src = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        let dst = MemRef::new(MemSpace::Host(ProcId(1)), 0);
        ib.reg_mr_nocost(ProcId(0), src, 1 << 20);
        let mr = ib.reg_mr_nocost(ProcId(1), dst, 1 << 20);
        let ib2 = ib.clone();
        sim.run(1, move |ctx| {
            // big write then tiny write to adjacent cell
            ib2.cluster().mem().write_bytes(src, &[1; 1 << 19]).unwrap();
            ib2.cluster().mem().write_bytes(src.add(1 << 19), &[2; 8]).unwrap();
            let c1 = ib2
                .post_rdma_write(&ctx, ProcId(0), src, mr.rkey, dst, 1 << 19)
                .unwrap();
            let c2 = ib2
                .post_rdma_write(
                    &ctx,
                    ProcId(0),
                    src.add(1 << 19),
                    mr.rkey,
                    dst.add(1 << 19),
                    8,
                )
                .unwrap();
            ctx.wait(&c2.remote);
            // If the tiny write is visible, the big one must be too.
            assert!(c1.remote.is_done(1), "FIFO ordering violated");
        });
    }

    #[test]
    fn cqe_injection_draws_are_deterministic_per_poster() {
        let plan = faults::FaultPlan::default().with_cqe_errors(250);
        let draws = |_: ()| {
            let (_sim, ib) = fabric(2, 1);
            ib.set_fault_plan(plan);
            (0..64)
                .map(|_| ib.inject_transient_cqe(ProcId(0)).map(|f| f.kind))
                .collect::<Vec<_>>()
        };
        let a = draws(());
        let b = draws(());
        assert_eq!(a, b, "same plan must replay the same fault sequence");
        let hits = a.iter().flatten().count();
        assert!(
            (4..28).contains(&hits),
            "25% permille rate wildly off: {hits}/64"
        );
        // distinct posters see independent streams
        let (_sim, ib) = fabric(2, 1);
        ib.set_fault_plan(plan);
        let c = (0..64)
            .map(|_| ib.inject_transient_cqe(ProcId(1)).map(|f| f.kind))
            .collect::<Vec<_>>();
        assert_ne!(a, c, "poster streams should decorrelate");
    }

    #[test]
    fn no_plan_or_zero_rate_injects_nothing() {
        let (_sim, ib) = fabric(2, 1);
        assert!(ib.inject_transient_cqe(ProcId(0)).is_none());
        assert!(ib.inject_sync_cqe(ProcId(0)).is_none());
        ib.set_fault_plan(faults::FaultPlan::default());
        for _ in 0..32 {
            assert!(ib.inject_transient_cqe(ProcId(0)).is_none());
            assert!(ib.inject_sync_cqe(ProcId(0)).is_none());
        }
    }

    #[test]
    fn burst_window_fails_every_draw_at_time_zero() {
        // the fabric sits at t=0, inside the window: every draw on
        // every stream fails with the burst kind, even with cqe=0
        let (_sim, ib) = fabric(2, 1);
        ib.set_fault_plan(faults::FaultPlan::default().with_burst_window(0, 1_000_000));
        for _ in 0..16 {
            let f = ib
                .inject_transient_cqe(ProcId(0))
                .expect("in burst: must fail");
            assert_eq!(f.kind, "cqe-burst");
            let f = ib
                .inject_sync_cqe(ProcId(1))
                .expect("in burst: sync draws fail too");
            assert_eq!(f.kind, "cqe-burst");
        }
        // a window elsewhere leaves t=0 draws clean (cqe=0 ⇒ permille
        // path never fires)
        let (_sim, ib) = fabric(2, 1);
        ib.set_fault_plan(faults::FaultPlan::default().with_burst_window(5_000_000, 6_000_000));
        for _ in 0..16 {
            assert!(ib.inject_transient_cqe(ProcId(0)).is_none());
        }
    }

    #[test]
    fn sync_draws_ride_their_own_stream_and_counters() {
        let plan = faults::FaultPlan::default().with_seed(5).with_cqe_errors(400);
        // baseline: RMA post draws alone
        let (_sim, ib) = fabric(2, 1);
        ib.set_fault_plan(plan);
        let rma_alone: Vec<_> = (0..32)
            .map(|_| ib.inject_transient_cqe(ProcId(0)).map(|f| f.kind))
            .collect();
        // interleaving sync draws must not shift the RMA stream
        let (_sim, ib) = fabric(2, 1);
        ib.set_fault_plan(plan);
        let mut rma_mixed = Vec::new();
        let mut sync_mixed = Vec::new();
        for _ in 0..32 {
            sync_mixed.push(ib.inject_sync_cqe(ProcId(0)).map(|f| f.kind));
            rma_mixed.push(ib.inject_transient_cqe(ProcId(0)).map(|f| f.kind));
        }
        assert_eq!(
            rma_alone, rma_mixed,
            "sync draws must not perturb the RMA post stream"
        );
        assert_ne!(rma_mixed, sync_mixed, "the two streams must decorrelate");
    }

    #[test]
    fn hca_tx_blackout_window_defers_transfers() {
        let timed = |faulted: bool| {
            let (sim, ib) = fabric(2, 1);
            if faulted {
                // blackout the posting HCA's TX from 0 to 1 ms
                ib.set_fault_plan(faults::FaultPlan::default().with_link_window(
                    faults::LinkWindow {
                        scope: faults::LinkScope::HcaTx,
                        index: faults::ALL,
                        start_ns: 0,
                        end_ns: 1_000_000,
                        bw_permille: 0,
                    },
                ));
            }
            let src = MemRef::new(MemSpace::Host(ProcId(0)), 0);
            let dst = MemRef::new(MemSpace::Host(ProcId(1)), 0);
            ib.reg_mr_nocost(ProcId(0), src, 4096);
            let mr = ib.reg_mr_nocost(ProcId(1), dst, 4096);
            let ib2 = ib.clone();
            let out = sim.run(1, move |ctx| {
                let c = ib2
                    .post_rdma_write(&ctx, ProcId(0), src, mr.rkey, dst, 64)
                    .unwrap();
                ctx.wait(&c.remote);
                ctx.now().as_us_f64()
            });
            out[0]
        };
        let clean = timed(false);
        let dark = timed(true);
        assert!(
            dark >= 1000.0 && dark > clean + 900.0,
            "blackout not visible: clean {clean}us vs faulted {dark}us"
        );
    }

    #[test]
    fn late_completion_fault_delays_the_cqe() {
        let plan = faults::FaultPlan::default().with_late_completions(1000, 50_000);
        let timed = |faulted: bool| {
            let (sim, ib) = fabric(2, 1);
            if faulted {
                ib.set_fault_plan(plan);
            }
            let src = MemRef::new(MemSpace::Host(ProcId(0)), 0);
            let dst = MemRef::new(MemSpace::Host(ProcId(1)), 0);
            ib.reg_mr_nocost(ProcId(0), src, 4096);
            let mr = ib.reg_mr_nocost(ProcId(1), dst, 4096);
            let ib2 = ib.clone();
            let out = sim.run(1, move |ctx| {
                let c = ib2
                    .post_rdma_write(&ctx, ProcId(0), src, mr.rkey, dst, 64)
                    .unwrap();
                ctx.wait(&c.local);
                ctx.now().as_us_f64()
            });
            out[0]
        };
        let clean = timed(false);
        let late = timed(true);
        assert!(
            (late - clean - 50.0).abs() < 1.0,
            "late CQE delta wrong: clean {clean}us vs late {late}us"
        );
    }
}
