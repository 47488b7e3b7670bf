//! The [`ShmemMachine`]: one fully-initialized simulated job.
//!
//! Construction performs everything the paper's enhanced initialization
//! does (§III-A): create host + GPU symmetric heaps, register them with
//! the fabric, exchange memory descriptors and IPC handles, and stand up
//! the per-node proxy state. `run` then launches one task per PE.

use crate::config::RuntimeConfig;
use crate::error::TransferError;
use crate::health::{HealthMonitor, Route};
use crate::layout::HeapLayout;
use crate::membership::{Membership, PartitionOutcome, DETECT_BOUND_NS, REJOIN_PROBE_NS, REJOIN_REREG_NS};
use crate::pe::Pe;
use crate::state::{PeState, Protocol};
use gpu_sim::GpuRuntime;
use ib_sim::IbVerbs;
use obs::{Recorder, TrackId, TrackKind};
use parking_lot::Mutex;
use pcie_sim::{Cluster, ClusterSpec, HwProfile, ProcId};
use sim_core::{Completion, Sim, SimDuration, SimTime, TaskCtx};
use std::sync::Arc;

/// Per-op correlation token, minted at the start of every RMA/sync op by
/// [`ShmemMachine::next_op`]. The id threads through pipeline chunks and
/// completion callbacks so Chrome flow events can stitch an op's origin
/// span to its remote completion; `sampled` gates all op-correlated span
/// recording under `GDR_SHMEM_OBS_SAMPLE`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpToken {
    /// Globally unique: origin PE in the high 32 bits, per-PE sequence
    /// number in the low 32. Id 0 is reserved for uncorrelated spans.
    pub id: u64,
    /// Whether op-correlated spans/flows of this op are recorded.
    pub sampled: bool,
}

/// Which membership transitions have already been observed (and thus
/// emitted to obs / applied to the breakers) — bitmasks by PE. The
/// schedule itself is pure; this only dedups the side effects so
/// exactly one observer emits each lifecycle event.
#[derive(Default)]
struct MemberSeen {
    dead: u64,
    rejoined: u64,
    /// Splits whose `partition`+`fence` instants were emitted (bit =
    /// index into [`Membership::split_schedules`]).
    fenced: u64,
    /// Splits whose `heal` instant was emitted.
    healed: u64,
    /// Cut partitions whose `partition` instant was emitted (bit =
    /// index into the plan's partition list).
    cut: u64,
}

/// Per-node proxy counters (the proxy itself is event-driven).
#[derive(Debug, Default)]
pub struct ProxyStats {
    pub gets_served: std::sync::atomic::AtomicU64,
    pub puts_served: std::sync::atomic::AtomicU64,
    pub bytes: std::sync::atomic::AtomicU64,
}

/// One simulated OpenSHMEM job on a simulated cluster.
pub struct ShmemMachine {
    sim: Sim,
    cluster: Arc<Cluster>,
    gpus: Arc<GpuRuntime>,
    ib: Arc<IbVerbs>,
    cfg: RuntimeConfig,
    layout: HeapLayout,
    pes: Vec<PeState>,
    proxies: Vec<ProxyStats>,
    /// Per-(node, protocol) circuit breakers feeding health-driven
    /// demotion in protocol selection (inert on unfaulted runs).
    /// Shared with the recorder's SLO violation hook when
    /// [`RuntimeConfig::slo_demote`] bridges watchdog breaches into
    /// breaker failure draws.
    health: Arc<HealthMonitor>,
    /// Fail-stop membership schedule compiled from the fault plan's
    /// crash dimension (inert when no crash is scheduled).
    membership: Membership,
    /// Emission dedup for membership lifecycle events.
    member_seen: Mutex<MemberSeen>,
    obs: Arc<Recorder>,
    /// PE tracks, pre-registered in PE order so op recording is a
    /// lock-free index lookup (and export order never depends on which
    /// PE recorded first).
    pe_tracks: Vec<TrackId>,
}

impl ShmemMachine {
    /// Build with the default (Wilkes-calibrated) hardware profile.
    pub fn build(spec: ClusterSpec, cfg: RuntimeConfig) -> Arc<ShmemMachine> {
        Self::build_with(spec, HwProfile::wilkes(), cfg)
    }

    /// Build with an explicit hardware profile.
    pub fn build_with(spec: ClusterSpec, hw: HwProfile, cfg: RuntimeConfig) -> Arc<ShmemMachine> {
        let sim = Sim::new();
        let cluster = Cluster::new(spec, hw);
        let topo = cluster.topo().clone();
        for p in topo.all_procs() {
            cluster.create_host_arena(p, cfg.private_host as usize);
        }
        let gpus = GpuRuntime::new(&sim, cluster.clone(), cfg.dev_mem);
        let ib = IbVerbs::new(&sim, gpus.clone());
        if cfg.faults.active() {
            // arm the hardware layers: CQE/late-completion draws plus
            // HCA-TX and GPU-PCIe degradation/blackout windows
            ib.set_fault_plan(cfg.faults);
            gpus.install_fault_windows(&cfg.faults);
        }
        let layout = HeapLayout::build(&cluster, &gpus, &ib, &cfg);

        // IPC exchange: every PE maps every node-local GPU at init.
        for p in topo.all_procs() {
            let node = topo.node_of(p);
            for q in topo.procs_on(node) {
                gpus.ipc_mark_open(p, topo.gpu_of(q));
            }
        }

        let pes = topo
            .all_procs()
            .map(|p| {
                PeState::new(
                    p,
                    cfg.host_heap,
                    cfg.gpu_heap,
                    cfg.staging,
                    cfg.private_host,
                    hw.host.memcpy_bw,
                )
            })
            .collect();
        let proxies = (0..topo.nnodes()).map(|_| ProxyStats::default()).collect();
        let health = Arc::new(HealthMonitor::new(&cfg.faults, topo.nnodes()));
        let membership = Membership::new(&cfg.faults, topo.nprocs());

        // Observability: one recorder per machine, shared with the
        // hardware layers through their late-bound sinks. PE and proxy
        // tracks are pre-registered in a deterministic order.
        let obs = Recorder::with_windows(cfg.obs_level, cfg.obs_sample, cfg.obs_window_us);
        gpus.obs().attach(obs.clone());
        ib.obs().attach(obs.clone());
        if let Ok(spec) = std::env::var("GDR_SHMEM_OBS_SLO") {
            // fail loud: a mistyped budget silently ignored would mute
            // the watchdog for the whole run
            let policy = obs::SloPolicy::parse(&spec)
                .unwrap_or_else(|e| panic!("GDR_SHMEM_OBS_SLO: {e}"));
            if !policy.is_empty() && !obs.windowing_on() {
                panic!(
                    "GDR_SHMEM_OBS_SLO needs the windowed metrics plane: set \
                     GDR_SHMEM_OBS_WINDOW_US (or RuntimeConfig::with_obs_window) \
                     and GDR_SHMEM_OBS=counters or higher"
                );
            }
            obs.set_slo(policy);
        }
        if cfg.slo_demote {
            // Bridge SLO violations into the health breaker: each
            // violation with a resolvable protocol is a failure draw on
            // that protocol's breaker on every node (the watchdog has no
            // node attribution). The recorder is held weakly — it owns
            // the hook, so a strong capture would leak the cycle.
            let hm = Arc::clone(&health);
            let rec = Arc::downgrade(&obs);
            let nnodes = topo.nnodes();
            obs.set_violation_hook(Box::new(move |v| {
                let Some(proto) = Protocol::from_name(&v.protocol) else {
                    return;
                };
                let now_ns = v.ts_ps / sim_core::PS_PER_NS;
                let mut demoted = false;
                for node in 0..nnodes {
                    if hm.record_failure(node, proto, now_ns).is_some() {
                        demoted = true;
                    }
                }
                if demoted {
                    if let Some(r) = rec.upgrade() {
                        r.fault_tally("slo-demote", proto.name());
                    }
                }
            }));
        }
        let pe_tracks = topo
            .all_procs()
            .map(|p| obs.track(TrackKind::Pe, p.0))
            .collect();
        for n in 0..topo.nnodes() {
            obs.track(TrackKind::Proxy, n as u32);
        }
        obs.track(TrackKind::Engine, 0);

        Arc::new(ShmemMachine {
            sim,
            cluster,
            gpus,
            ib,
            cfg,
            layout,
            pes,
            proxies,
            health,
            membership,
            member_seen: Mutex::new(MemberSeen::default()),
            obs,
            pe_tracks,
        })
    }

    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn gpus(&self) -> &Arc<GpuRuntime> {
        &self.gpus
    }

    pub fn ib(&self) -> &Arc<IbVerbs> {
        &self.ib
    }

    pub fn cfg(&self) -> &RuntimeConfig {
        &self.cfg
    }

    pub fn layout(&self) -> &HeapLayout {
        &self.layout
    }

    pub fn pe_state(&self, p: ProcId) -> &PeState {
        &self.pes[p.index()]
    }

    pub fn proxy(&self, node: pcie_sim::NodeId) -> &ProxyStats {
        &self.proxies[node.index()]
    }

    pub fn n_pes(&self) -> usize {
        self.cluster.topo().nprocs()
    }

    /// The machine's observability recorder (level set by
    /// [`RuntimeConfig::obs_level`]).
    pub fn obs(&self) -> &Arc<Recorder> {
        &self.obs
    }

    /// The pre-registered observability track of a PE.
    pub fn pe_track(&self, p: ProcId) -> TrackId {
        self.pe_tracks[p.index()]
    }

    /// The pre-registered observability track of a node's proxy.
    pub fn proxy_track(&self, node: pcie_sim::NodeId) -> TrackId {
        self.obs.track(TrackKind::Proxy, node.0)
    }

    /// Mint the correlation token for a new RMA/sync op on `me`: a
    /// globally unique id plus the deterministic sampling verdict
    /// (1-in-N by per-PE sequence number; see
    /// [`crate::config::RuntimeConfig::obs_sample`]).
    pub(crate) fn next_op(&self, me: ProcId) -> OpToken {
        let seq = self
            .pe_state(me)
            .op_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        OpToken {
            // PE is offset by one so PE 0's first op is not id 0
            id: ((me.0 as u64 + 1) << 32) | (seq & 0xffff_ffff),
            sampled: self.obs.op_sampled(seq),
        }
    }

    /// Record one finished RMA/sync op: latency histogram (Counters+),
    /// op span, protocol-decision record and flow-start event (Spans,
    /// when the op is sampled). `candidates` and `consulted` are the
    /// plan's own ([`obs::plan::Plan`]); the consulted thresholds are
    /// recorded with the values in force.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obs_op(
        &self,
        op: &'static str,
        me: ProcId,
        peer: ProcId,
        chosen: crate::state::Protocol,
        len: u64,
        src_dev: bool,
        dst_dev: bool,
        same_node: bool,
        socket_rel: &'static str,
        t0: sim_core::SimTime,
        t1: sim_core::SimTime,
        token: OpToken,
        candidates: &[crate::state::Protocol],
        consulted: &[&'static str],
    ) {
        if !self.obs.counters_on() {
            return;
        }
        self.obs.op_latency_at(op, chosen.name(), len, t1.since(t0), t1);
        if !self.obs.spans_on() || !token.sampled {
            return;
        }
        let track = self.pe_track(me);
        let mut d = obs::Decision {
            op,
            size: len,
            src_pe: me.0,
            dst_pe: peer.0,
            src_dev,
            dst_dev,
            same_node,
            chosen: chosen.name(),
            op_id: token.id,
            size_class: obs::hist::bucket_index(len) as u8,
            socket_rel,
            tsource: if self.cfg.thresholds_loaded {
                "thresholds-v1"
            } else {
                "builtin"
            },
            candidates: candidates.iter().map(|p| p.name()).collect(),
            ..Default::default()
        };
        for &name in consulted {
            let value = self.cfg.limits.get(name).expect("plan cites Limits::NAMES only");
            d.thresholds.push(name, value);
        }
        self.obs.decision(track, t0, d);
        // Flow start at the op's origin: the matching flow-end instants
        // (emitted by the protocol layer at local or remote completion)
        // share the id, so Chrome draws an arrow from the op span to
        // wherever the data actually landed.
        self.obs.instant(
            track,
            "op-flow",
            t0,
            obs::Payload::FlowStart { id: token.id },
        );
        self.obs.span(
            track,
            op,
            t0,
            t1,
            obs::Payload::Op {
                op,
                protocol: chosen.name(),
                size: len,
                src_pe: me.0,
                dst_pe: peer.0,
                src_dev,
                dst_dev,
                same_node,
                op_id: token.id,
            },
        );
    }

    /// Capability fault: is GDR (HCA DMA into/out of GPU memory)
    /// administratively disabled on the node of `p` by the fault plan?
    pub(crate) fn gdr_disabled_at(&self, p: ProcId) -> bool {
        self.cfg
            .faults
            .gdr_disabled(self.cluster.topo().node_of(p).0 as usize)
    }

    /// Reachability fault: is the direct/GDR fabric from `me` toward
    /// `peer` severed by an asymmetric cut right now? Proxy and
    /// host-staged paths stay reachable, so dispatch reroutes onto them
    /// instead of erroring (ZERO-cost single branch when unfaulted).
    pub(crate) fn cut_now(&self, me: ProcId, peer: ProcId) -> bool {
        self.cfg.faults.n_partitions > 0
            && self
                .cfg
                .faults
                .cut_active(me.0, peer.0, self.sim.now().0 / sim_core::PS_PER_NS)
    }

    /// Extra proxy/progress-agent delay on `node` at `now` from the
    /// fault plan's stall windows (ZERO when unfaulted).
    pub(crate) fn proxy_stall_extra(&self, node: pcie_sim::NodeId, now: SimTime) -> SimDuration {
        let ns = self
            .cfg
            .faults
            .proxy_stall_extra_ns(node.0 as usize, now.0 / sim_core::PS_PER_NS);
        SimDuration::from_ns(ns)
    }

    /// Restart-aware proxy stall: like [`Self::proxy_stall_extra`], but
    /// the stall is capped at the fault window's end plus one signal
    /// latency — the window closing models the proxy agent restarting
    /// and re-driving the transfer's remaining chunks, so a chunk never
    /// sleeps out a stall that outlives its window. The first chunk of
    /// an op that benefits from the cap records a `proxy-restart`
    /// instant (deduplicated through `restart_seen`). ZERO when no
    /// window covers `now`.
    pub(crate) fn proxy_stall_or_restart(
        &self,
        node: pcie_sim::NodeId,
        now: SimTime,
        token: OpToken,
        restart_seen: &std::sync::atomic::AtomicBool,
    ) -> SimDuration {
        let now_ns = now.0 / sim_core::PS_PER_NS;
        let Some((end_ns, extra_ns)) = self
            .cfg
            .faults
            .proxy_stall_window_ns(node.0 as usize, now_ns)
        else {
            return SimDuration::ZERO;
        };
        // restarting costs one more signal latency: the recovered agent
        // must be re-signalled before it re-drives the remaining chunks
        let restart = SimDuration::from_ns(end_ns.saturating_sub(now_ns))
            + self.proxy_signal_latency();
        let extra = SimDuration::from_ns(extra_ns);
        if restart >= extra {
            return extra;
        }
        if !restart_seen.swap(true, std::sync::atomic::Ordering::Relaxed) {
            self.obs.fault_tally_at("proxy-restart", "proxy-pipeline", now);
            if self.obs.spans_on() && token.sampled {
                self.obs.instant(
                    self.proxy_track(node),
                    "proxy-restart",
                    now,
                    obs::Payload::Fault {
                        kind: "proxy-restart",
                        protocol: "proxy-pipeline",
                        op_id: token.id,
                    },
                );
            }
        }
        restart
    }

    /// Bytes currently allocated in `pe`'s staging area. Returns to 0
    /// once no transfer is in flight — the chaos suite uses this as its
    /// credit-leak probe after partial-delivery failures.
    pub fn staging_in_use(&self, pe: ProcId) -> u64 {
        self.pe_state(pe).staging_alloc.lock().allocated()
    }

    /// Every (node, protocol) pair whose health breaker is still demoted
    /// at virtual time `now_ns` — the campaign's breaker-recovery oracle
    /// probes this at a quiesce point past the last fault window plus
    /// cooldown, where it must be empty.
    pub fn demoted_protocols_at(&self, now_ns: u64) -> Vec<(usize, Protocol)> {
        self.health.demoted(now_ns)
    }

    /// Human-readable snapshot of every non-closed health breaker,
    /// for oracle-violation diagnostics.
    pub fn breaker_states(&self) -> Vec<String> {
        self.health.breaker_states()
    }

    /// The compiled fail-stop membership schedule of this job (inert
    /// when the fault plan schedules no crash).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Gate one point-to-point op from `me` against `peer`'s liveness.
    ///
    /// Unarmed plans short-circuit before any membership query, so
    /// unfaulted runs pay a single branch and stay byte-identical. A
    /// fail-stopped *issuer* fails immediately (its own hardware is
    /// gone). Against a fail-stopped peer the op blocks until the
    /// lease-expiry detection instant — nobody can know the peer is
    /// dead before its lease expires — then fails as
    /// [`TransferError::PeerDead`] carrying the eviction epoch; the
    /// first observer also emits the eviction lifecycle and opens the
    /// dead node's breakers until its rejoin instant. A crash whose
    /// rejoin beats the lease is a transparent blip: the op just blocks
    /// until the peer is back. Finally, the first op touching (or
    /// issued by) a *rejoined* peer drives the rejoin path: heap
    /// re-registration plus the breaker warm-up probe.
    pub(crate) fn peer_gate(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        peer: ProcId,
    ) -> Result<(), TransferError> {
        let ms = &self.membership;
        if !ms.armed() {
            return Ok(());
        }
        let now_ns = ctx.now().0 / sim_core::PS_PER_NS;
        if ms.crashed(me.0, now_ns) {
            if ms.detect_ns(me.0).is_none() {
                // my own transparent blip: activity freezes until the
                // rejoin instant, then resumes as if nothing happened
                let c = self
                    .cfg
                    .faults
                    .crash_of(me.0)
                    .expect("crashed issuer has a crash schedule");
                ctx.advance(SimDuration::from_ns(c.rejoin_ns - now_ns));
            } else {
                return Err(TransferError::PeerDead {
                    pe: me.0,
                    epoch: ms.epoch_at(now_ns),
                });
            }
        }
        // a rejoined issuer re-admits itself before its first post
        if let Some(rejoin) = ms.rejoin_ns(me.0) {
            if now_ns >= rejoin {
                self.note_rejoin(ctx, me);
            }
        }
        if ms.crashed(peer.0, now_ns) {
            return match ms.detect_ns(peer.0) {
                Some(detect) => {
                    if now_ns < detect {
                        ctx.advance(SimDuration::from_ns(detect - now_ns));
                    }
                    self.note_eviction(peer);
                    Err(TransferError::PeerDead {
                        pe: peer.0,
                        epoch: ms
                            .eviction_epoch(peer.0)
                            .expect("detectable crash has an eviction epoch"),
                    })
                }
                None => {
                    let c = self
                        .cfg
                        .faults
                        .crash_of(peer.0)
                        .expect("crashed peer has a crash schedule");
                    if now_ns < c.rejoin_ns {
                        ctx.advance(SimDuration::from_ns(c.rejoin_ns - now_ns));
                    }
                    Ok(())
                }
            };
        }
        if let Some(rejoin) = ms.rejoin_ns(peer.0) {
            if now_ns >= rejoin {
                self.note_rejoin(ctx, peer);
            }
        }
        // network partitions: a severed pair blocks until the fence
        // lands (nobody can know a link is cut before leases expire),
        // then fails typed; while a fence is up, minority-issued and
        // at-minority ops fail immediately. Blip splits just block.
        let now_ns = ctx.now().0 / sim_core::PS_PER_NS;
        match ms.partition_outcome(me.0, peer.0, now_ns) {
            None => {}
            Some(PartitionOutcome::BlockUntil(end_ns)) => {
                ctx.advance(SimDuration::from_ns(end_ns - now_ns));
            }
            Some(PartitionOutcome::FailAt { at_ns, pe, epoch }) => {
                if now_ns < at_ns {
                    ctx.advance(SimDuration::from_ns(at_ns - now_ns));
                }
                self.note_partitions(ctx.now());
                return Err(TransferError::Partitioned { pe, epoch });
            }
        }
        if ms.split_schedules().iter().any(|s| s.heal_ns <= now_ns) {
            // emit any heal whose instant has passed, even though this
            // op itself is unaffected — the merge is a view event
            self.note_partitions(ctx.now());
        }
        Ok(())
    }

    /// First-observer bookkeeping for split-partition lifecycle events:
    /// emit `partition` (window start, pre-fence epoch), `fence`
    /// (detection instant, fence epoch) and `heal` (merge instant, heal
    /// epoch) for every schedule whose instant is at or before `now`.
    /// Idempotent per schedule — exactly one observer emits each.
    pub(crate) fn note_partitions(&self, now: SimTime) {
        let now_ns = now.0 / sim_core::PS_PER_NS;
        for (i, s) in self.membership.split_schedules().iter().enumerate() {
            let rep = ProcId(s.minority.trailing_zeros());
            if s.fence_ns <= now_ns {
                let emit = {
                    let mut seen = self.member_seen.lock();
                    let fresh = seen.fenced & (1 << i) == 0;
                    seen.fenced |= 1 << i;
                    fresh
                };
                if emit {
                    let t_start = SimTime((s.fence_ns - DETECT_BOUND_NS) * sim_core::PS_PER_NS);
                    let t_fence = SimTime(s.fence_ns * sim_core::PS_PER_NS);
                    for (name, ts, ep) in [
                        ("partition", t_start, s.fence_epoch - 1),
                        ("fence", t_fence, s.fence_epoch),
                    ] {
                        self.obs.fault_tally_at(name, "membership", ts);
                        if self.obs.spans_on() {
                            self.obs.instant(
                                self.pe_track(rep),
                                name,
                                ts,
                                obs::Payload::Member { pe: rep.0, epoch: ep },
                            );
                        }
                    }
                }
            }
            if s.heal_ns <= now_ns {
                let emit = {
                    let mut seen = self.member_seen.lock();
                    let fresh = seen.healed & (1 << i) == 0;
                    seen.healed |= 1 << i;
                    fresh
                };
                if emit {
                    let t_heal = SimTime(s.heal_ns * sim_core::PS_PER_NS);
                    self.obs.fault_tally_at("heal", "membership", t_heal);
                    if self.obs.spans_on() {
                        self.obs.instant(
                            self.pe_track(rep),
                            "heal",
                            t_heal,
                            obs::Payload::Member { pe: rep.0, epoch: s.heal_epoch },
                        );
                    }
                }
            }
        }
    }

    /// First-observer bookkeeping for an asymmetric cut becoming
    /// visible: the dispatcher noticed the direct fabric from `me`
    /// toward `peer` is severed and rerouted. Emits one `partition`
    /// instant per cut fault (dedup by plan index).
    pub(crate) fn note_cut(&self, me: ProcId, peer: ProcId, ts: SimTime) {
        let now_ns = ts.0 / sim_core::PS_PER_NS;
        for (i, p) in self.cfg.faults.partitions().iter().enumerate() {
            if p.kind != faults::PartitionKind::Cut
                || p.a != me.0
                || p.b != peer.0
                || now_ns < p.start_ns
                || now_ns >= p.end_ns
            {
                continue;
            }
            let emit = {
                let mut seen = self.member_seen.lock();
                let fresh = seen.cut & (1 << i) == 0;
                seen.cut |= 1 << i;
                fresh
            };
            if emit {
                self.obs.fault_tally_at("partition", "membership", ts);
                if self.obs.spans_on() {
                    self.obs.instant(
                        self.pe_track(me),
                        "partition",
                        ts,
                        obs::Payload::Member {
                            pe: peer.0,
                            epoch: self.membership.epoch_at(now_ns),
                        },
                    );
                }
            }
        }
    }

    /// First-observer bookkeeping for `peer`'s eviction: emit the
    /// `pe-dead` / `evict` / `view-change` lifecycle at its canonical
    /// plan-derived instants and open every breaker of the dead node
    /// until the peer's rejoin instant (`u64::MAX` when it never
    /// rejoins). Idempotent — exactly one observer emits.
    pub(crate) fn note_eviction(&self, peer: ProcId) {
        {
            let mut seen = self.member_seen.lock();
            if seen.dead & (1 << peer.0) != 0 {
                return;
            }
            seen.dead |= 1 << peer.0;
        }
        let ms = &self.membership;
        let at_ns = self
            .cfg
            .faults
            .crash_of(peer.0)
            .expect("evicted peer has a crash schedule")
            .at_ns;
        let detect_ns = ms.detect_ns(peer.0).expect("evicted peer has a detect instant");
        let epoch = ms.eviction_epoch(peer.0).expect("evicted peer has an epoch");
        let t_at = SimTime(at_ns * sim_core::PS_PER_NS);
        let t_detect = SimTime(detect_ns * sim_core::PS_PER_NS);
        for (name, ts, ep) in [
            ("pe-dead", t_at, epoch - 1),
            ("evict", t_detect, epoch),
            ("view-change", t_detect, epoch),
        ] {
            self.obs.fault_tally_at(name, "membership", ts);
            if self.obs.spans_on() {
                self.obs.instant(
                    self.pe_track(peer),
                    name,
                    ts,
                    obs::Payload::Member { pe: peer.0, epoch: ep },
                );
            }
        }
        // The dead node really is demoted on every protocol, so tally
        // the demotes — this also keeps the promote<=demote counter
        // invariant when post-rejoin successes close lapsed breakers.
        let token = OpToken { id: 0, sampled: true };
        for p in Protocol::ALL {
            self.obs_health(peer, t_detect, "demote", p, token);
        }
        let until = ms.rejoin_ns(peer.0).unwrap_or(u64::MAX);
        self.health.mark_dead(self.node_idx(peer), until);
    }

    /// First-observer bookkeeping for `subject`'s rejoin: emit the
    /// `rejoin` instant, charge the symmetric-heap re-registration
    /// cost to the observing op, and drive the warm-up probe through
    /// the breaker's half-open state so the `probe`/`promote` pair
    /// lands in the trace. A rejoin whose death was never observed is
    /// equally invisible (nothing was demoted or emitted).
    fn note_rejoin(self: &Arc<Self>, ctx: &TaskCtx, subject: ProcId) {
        let ms = &self.membership;
        let Some(rejoin_ns) = ms.rejoin_ns(subject.0) else {
            return;
        };
        {
            let mut seen = self.member_seen.lock();
            if seen.dead & (1 << subject.0) == 0 || seen.rejoined & (1 << subject.0) != 0 {
                return;
            }
            seen.rejoined |= 1 << subject.0;
        }
        let t_rejoin = SimTime(rejoin_ns * sim_core::PS_PER_NS);
        self.obs.fault_tally_at("rejoin", "membership", t_rejoin);
        if self.obs.spans_on() {
            self.obs.instant(
                self.pe_track(subject),
                "rejoin",
                t_rejoin,
                obs::Payload::Member {
                    pe: subject.0,
                    epoch: ms.epoch_at(rejoin_ns),
                },
            );
        }
        // symmetric-heap re-registration: descriptor re-exchange + MR
        // re-registration, charged to the op that re-admits the peer
        ctx.advance(SimDuration::from_ns(REJOIN_REREG_NS));
        // Warm-up probe through the real breaker: mark_dead left the
        // node's breakers Open{until: rejoin}, which has now lapsed, so
        // consulting the probe protocol admits the half-open trial.
        let node = self.node_idx(subject);
        let token = OpToken { id: 0, sampled: true };
        let now_ns = ctx.now().0 / sim_core::PS_PER_NS;
        self.health.mark_rejoined(node, Protocol::HostRdma, rejoin_ns);
        if let Route::Probe { first: true } =
            self.health.consult(node, Protocol::HostRdma, now_ns)
        {
            self.obs_health(subject, ctx.now(), "probe", Protocol::HostRdma, token);
            ctx.advance(SimDuration::from_ns(REJOIN_PROBE_NS));
            if self
                .health
                .record_success(node, Protocol::HostRdma, ctx.now().0 / sim_core::PS_PER_NS)
                .is_some()
            {
                self.obs_health(subject, ctx.now(), "promote", Protocol::HostRdma, token);
            }
        }
    }

    /// Record one injected transient fault: tally (Counters+) and a
    /// `fault` instant on the PE's track (Spans, sampled ops).
    pub(crate) fn obs_fault(
        &self,
        me: ProcId,
        ts: SimTime,
        kind: &'static str,
        protocol: &'static str,
        token: OpToken,
    ) {
        self.obs.fault_tally_at("injected", protocol, ts);
        if self.obs.spans_on() && token.sampled {
            self.obs.instant(
                self.pe_track(me),
                "fault",
                ts,
                obs::Payload::Fault {
                    kind,
                    protocol,
                    op_id: token.id,
                },
            );
        }
    }

    /// Record one retry decision (attempt number + chosen backoff).
    pub(crate) fn obs_retry(
        &self,
        me: ProcId,
        ts: SimTime,
        protocol: &'static str,
        attempt: u32,
        backoff_ns: u64,
        token: OpToken,
    ) {
        self.obs.fault_tally_at("retried", protocol, ts);
        if self.obs.spans_on() && token.sampled {
            self.obs.instant(
                self.pe_track(me),
                "retry",
                ts,
                obs::Payload::Retry {
                    protocol,
                    attempt,
                    backoff_ns,
                    op_id: token.id,
                },
            );
        }
    }

    /// Record one event-context chunk retry (attempt number + backoff).
    /// Distinct from [`Self::obs_retry`] so traces and gdrprof can tell
    /// chunk-level replays apart from whole-op post retries.
    pub(crate) fn obs_chunk_retry(
        &self,
        me: ProcId,
        ts: SimTime,
        protocol: &'static str,
        attempt: u32,
        backoff_ns: u64,
        token: OpToken,
    ) {
        self.obs.fault_tally_at("chunk-retried", protocol, ts);
        if self.obs.spans_on() && token.sampled {
            self.obs.instant(
                self.pe_track(me),
                "chunk-retry",
                ts,
                obs::Payload::Retry {
                    protocol,
                    attempt,
                    backoff_ns,
                    op_id: token.id,
                },
            );
        }
    }

    /// Record a partial delivery: some chunks of `token`'s transfer
    /// exhausted their retries, so only `delivered` of `total` bytes
    /// landed and the op is returning `TransferError::PartialDelivery`.
    pub(crate) fn obs_partial(
        &self,
        me: ProcId,
        ts: SimTime,
        protocol: &'static str,
        delivered: u64,
        total: u64,
        token: OpToken,
    ) {
        self.obs.fault_tally_at("partial", protocol, ts);
        if self.obs.spans_on() && token.sampled {
            self.obs.instant(
                self.pe_track(me),
                "partial-delivery",
                ts,
                obs::Payload::PartialDelivery {
                    protocol,
                    delivered,
                    total,
                    op_id: token.id,
                },
            );
        }
    }

    /// Record a protocol fallback as a first-class decision: the
    /// dispatcher re-routed `op` from `from` to `to` because the
    /// preferred protocol is faulted or capability-disabled.
    pub(crate) fn obs_fallback(
        &self,
        me: ProcId,
        ts: SimTime,
        op: &'static str,
        from: &'static str,
        to: &'static str,
        token: OpToken,
    ) {
        self.obs.fault_tally_at("fallback", from, ts);
        if self.obs.spans_on() && token.sampled {
            self.obs.instant(
                self.pe_track(me),
                "fallback",
                ts,
                obs::Payload::Fallback {
                    op,
                    from,
                    to,
                    op_id: token.id,
                },
            );
        }
    }

    fn node_idx(&self, p: ProcId) -> usize {
        self.cluster.topo().node_of(p).index()
    }

    /// Record a health-breaker transition or probe admission
    /// (`demote` / `probe` / `promote`) for `proto` on `me`'s node:
    /// exact counter (Counters+) plus an instant on the PE's track
    /// when the triggering op is sampled (Spans).
    pub(crate) fn obs_health(
        &self,
        me: ProcId,
        ts: SimTime,
        event: &'static str,
        proto: Protocol,
        token: OpToken,
    ) {
        self.obs.fault_tally_at(event, proto.name(), ts);
        if self.obs.spans_on() && token.sampled {
            self.obs.instant(
                self.pe_track(me),
                event,
                ts,
                obs::Payload::Health {
                    protocol: proto.name(),
                    op_id: token.id,
                },
            );
        }
    }

    /// Feed one injected fault on `proto` into the health breaker of
    /// `me`'s node, reporting the `demote` when it opens the circuit.
    pub(crate) fn health_on_failure(&self, me: ProcId, ts: SimTime, proto: Protocol, token: OpToken) {
        let now_ns = ts.0 / sim_core::PS_PER_NS;
        if self
            .health
            .record_failure(self.node_idx(me), proto, now_ns)
            .is_some()
        {
            self.obs_health(me, ts, "demote", proto, token);
        }
    }

    /// Feed one clean post on `proto` into the health breaker of `me`'s
    /// node, reporting the `promote` when it closes the circuit.
    pub(crate) fn health_on_success(&self, me: ProcId, ts: SimTime, proto: Protocol, token: OpToken) {
        let now_ns = ts.0 / sim_core::PS_PER_NS;
        if self
            .health
            .record_success(self.node_idx(me), proto, now_ns)
            .is_some()
        {
            self.obs_health(me, ts, "promote", proto, token);
        }
    }

    /// Consult the health breaker for `proto` at dispatch time: true
    /// means the protocol is demoted and selection must fall back. A
    /// lapsed cooldown admits the calling op as the half-open probe
    /// (reported once per cooldown as a `probe` instant).
    pub(crate) fn health_avoid(&self, me: ProcId, ts: SimTime, proto: Protocol, token: OpToken) -> bool {
        let now_ns = ts.0 / sim_core::PS_PER_NS;
        match self.health.consult(self.node_idx(me), proto, now_ns) {
            Route::Use => false,
            Route::Probe { first } => {
                if first {
                    self.obs_health(me, ts, "probe", proto, token);
                }
                false
            }
            Route::Avoid => true,
        }
    }

    /// Emit the flow-end instant for `token` at `ts` on `track` (used by
    /// blocking protocols where the op's return *is* its completion).
    pub(crate) fn flow_end_at(&self, track: TrackId, ts: SimTime, token: OpToken) {
        if !token.sampled || !self.obs.spans_on() {
            return;
        }
        self.obs
            .instant(track, "op-flow", ts, obs::Payload::FlowEnd { id: token.id });
    }

    /// Arrange for the flow-end instant of `token` to fire on `track`
    /// when `comp` reaches `threshold` — the non-blocking counterpart of
    /// [`Self::flow_end_at`], used where delivery completes inside a
    /// scheduler callback long after the op call returned.
    pub(crate) fn flow_end_on(
        self: &Arc<Self>,
        ctx: &sim_core::TaskCtx,
        comp: &Completion,
        threshold: u64,
        track: TrackId,
        token: OpToken,
    ) {
        if !token.sampled || !self.obs.spans_on() {
            return;
        }
        let m = self.clone();
        let comp = comp.clone();
        ctx.with_sched(|s| {
            s.call_on(
                &comp,
                threshold,
                Box::new(move |s| {
                    m.obs.instant(
                        track,
                        "op-flow",
                        s.now(),
                        obs::Payload::FlowEnd { id: token.id },
                    );
                }),
            );
        });
    }

    /// Text observability report: latency histograms, hardware
    /// utilization, and the event-engine counters.
    pub fn obs_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = self.obs.summary();
        let es = self.sim.stats();
        let _ = writeln!(
            s,
            "engine: {} events executed, heap high-water {}, \
             {} completions signalled, {} time-advance stalls",
            es.events_executed, es.max_heap_len, es.completions_signalled, es.time_advance_stalls
        );
        s
    }

    /// Write the Chrome `trace_event` JSON for this machine's recording.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.obs.chrome_trace())
    }

    /// If `GDR_SHMEM_TRACE` names a file and span recording is on, write
    /// the Chrome trace there and return the path (driver convenience).
    pub fn write_trace_if_requested(&self) -> Option<std::path::PathBuf> {
        if !self.obs.spans_on() {
            return None;
        }
        let path = std::path::PathBuf::from(std::env::var_os("GDR_SHMEM_TRACE")?);
        match self.write_chrome_trace(&path) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("obs: failed to write trace to {}: {e}", path.display());
                None
            }
        }
    }

    /// Polling interval as a duration.
    pub fn poll_interval(&self) -> SimDuration {
        SimDuration::from_ns(self.cfg.poll_interval_ns)
    }

    /// Launch one task per PE; each receives a [`Pe`] handle. Virtual
    /// time persists across consecutive `run` calls on one machine.
    pub fn run<T, F>(self: &Arc<Self>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Pe) -> T + Send + Sync,
    {
        let me = self.clone();
        self.sim.run(self.n_pes(), move |ctx| {
            let id = ProcId(ctx.rank() as u32);
            let mut pe = Pe::new(me.clone(), ctx, id);
            f(&mut pe)
        })
    }
}

impl std::fmt::Debug for ShmemMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShmemMachine({} PEs, design {})",
            self.n_pes(),
            self.cfg.design.name()
        )
    }
}
