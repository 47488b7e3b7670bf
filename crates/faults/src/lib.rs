//! # faults — deterministic seeded fault plans
//!
//! A [`FaultPlan`] describes every anomaly the simulated stack can
//! inject, all derived from one seed so that identical plans replay
//! identical fault sequences in virtual time:
//!
//! - transient RDMA completion errors (CQE flush / retry-exceeded) at a
//!   per-post probability, with a modeled error-detection latency;
//! - late local completions (the CQE is delivered late by a fixed extra
//!   delay, at a per-post probability);
//! - per-link degradation and blackout windows (a bandwidth multiplier
//!   or a full outage over a virtual-time interval), targeting HCA TX
//!   links or a GPU's PCIe links;
//! - proxy-agent stalls (wakeups scheduled inside a window are delayed
//!   by an extra amount — a long stall models a crash + restart);
//! - a "GDR disabled on node N" capability fault (bitmask);
//! - correlated burst windows: a virtual-time interval during which
//!   *every* post drawn — pipeline chunks, proxy relays, serve-get
//!   replies, sync-area flag writes — fails at once, exercising
//!   recovery under simultaneous exhaustion;
//! - fail-stop crash faults (`crash=pe:at_ns[:rejoin_ns]`): a PE's
//!   HCA/proxy/GPU activity dies at a virtual instant and optionally
//!   rejoins later — detection, eviction, and rejoin semantics live in
//!   the core membership layer;
//! - network-partition faults (`partition=split:mask:start:end` /
//!   `partition=cut:a:b:start:end`): a per-pair reachability fault over
//!   a virtual-time window. A *split* severs every link between the
//!   masked PEs and the rest (quorum fencing and heal-merge semantics
//!   live in the core membership layer); a *cut* severs only the
//!   direct/GDR fabric from PE `a` toward PE `b`, leaving the
//!   proxy/host-staged paths reachable (protocol selection reroutes).
//!
//! The plan is `Copy` (every repeatable dimension is a [`Bounded`]
//! inline list, no heap) so it can live inside the runtime's
//! `RuntimeConfig` without disturbing the `let cfg = *self.cfg()` idiom. Randomness is a pure hash of
//! `(seed, stream, counter)` — no RNG state, so concurrent consumers
//! stay deterministic as long as each keeps its own program-ordered
//! counter.

use std::fmt::{self, Display, Formatter};
use std::ops::Deref;
use std::str::FromStr;

/// Maximum link-fault windows in one plan.
pub const MAX_LINK_WINDOWS: usize = 4;
/// Maximum proxy-stall windows in one plan.
pub const MAX_PROXY_STALLS: usize = 4;
/// Maximum correlated burst windows in one plan.
pub const MAX_BURST_WINDOWS: usize = 4;
/// Maximum fail-stop crash faults in one plan.
pub const MAX_CRASHES: usize = 2;
/// Maximum network-partition faults in one plan.
pub const MAX_PARTITIONS: usize = 2;

/// An inline list of at most `N` entries — `Copy` and heap-free, so a
/// [`FaultPlan`] holding one per repeatable dimension stays `Copy`.
/// Slots past the length always hold `T::default()`, so the derived
/// `==` compares the entries only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounded<T, const N: usize> {
    items: [T; N],
    len: u8,
}

impl<T: Copy + Default, const N: usize> Default for Bounded<T, N> {
    fn default() -> Self {
        Bounded {
            items: [T::default(); N],
            len: 0,
        }
    }
}

impl<T: Copy + Default, const N: usize> Bounded<T, N> {
    /// Append `x`; `false`, and no change, when the list is full.
    fn try_push(&mut self, x: T) -> bool {
        let n = self.len as usize;
        if n == N {
            return false;
        }
        self.items[n] = x;
        self.len += 1;
        true
    }

    /// Append `x`, panicking past capacity with `what` named: the
    /// builders' one panic the representation forces (the grammar
    /// reports a full list as a [`PlanError`]).
    pub(crate) fn push(&mut self, x: T, what: &str) {
        assert!(self.try_push(x), "too many {what} (max {N})");
    }

    /// Remove entry `i`, keeping the order of the rest.
    pub fn remove(&mut self, i: usize) -> T {
        let n = self.len as usize;
        assert!(i < n, "remove index {i} past length {n}");
        let x = self.items[i];
        self.items.copy_within(i + 1..n, i);
        self.items[n - 1] = T::default();
        self.len -= 1;
        x
    }
}

impl<T, const N: usize> Deref for Bounded<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a Bounded<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Stream salt for the dedicated sync-area flag-write CQE stream:
/// `sync_flag_put` / `sync_data_put` posts draw from
/// `stream = poster | SYNC_STREAM` with their own program-ordered
/// counter, so arming sync faults never perturbs the RMA post streams
/// (existing seed trajectories stay byte-identical).
pub const SYNC_STREAM: u64 = 0x5359_4E43_0000_0000;

/// Which family of links a [`LinkWindow`] targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkScope {
    /// The TX link of HCA `index`, counted over the whole cluster
    /// (`index == ALL` for every HCA). A node holds several HCAs, so
    /// this is not a node index: on a two-HCA node, HCA 1 is node 0's
    /// second adapter.
    #[default]
    HcaTx,
    /// All five PCIe links of GPU `index`, counted over the whole
    /// cluster like an HCA index (`index == ALL` for every GPU).
    GpuPcie,
}

/// Wildcard index: the window applies to every link in its scope.
pub const ALL: u32 = u32::MAX;

/// One degradation or blackout window on a link.
///
/// `bw_permille` scales the link's effective bandwidth for transfers
/// that start inside `[start_ns, end_ns)`; `0` is a blackout — the
/// transfer cannot start until the window ends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkWindow {
    pub scope: LinkScope,
    /// Cluster-wide HCA index (HcaTx) or GPU index (GpuPcie); [`ALL`]
    /// for every link.
    pub index: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bandwidth multiplier in permille (0 = blackout, 1000 = unchanged).
    pub bw_permille: u16,
}

/// One proxy-agent stall window: wakeups scheduled on `node` inside
/// `[start_ns, end_ns)` are delayed by `extra_ns` (crash + restart is
/// a long stall).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStall {
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub extra_ns: u64,
}

/// One correlated failure burst: every CQE draw inside
/// `[start_ns, end_ns)` fails, regardless of `cqe_permille` — modeling
/// a fabric hiccup that defeats every in-flight post at once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BurstWindow {
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One fail-stop crash fault: PE `pe`'s HCA/proxy/GPU activity dies at
/// virtual instant `at_ns`. `rejoin_ns == 0` means the PE never comes
/// back; otherwise it rejoins (with symmetric-heap re-registration and
/// a breaker warm-up probe) at `rejoin_ns`. Detection, eviction, and
/// the epoch-numbered membership view derived from these faults live in
/// `crates/core/src/membership.rs` — the plan only carries the schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashFault {
    pub pe: u32,
    pub at_ns: u64,
    /// Rejoin instant; 0 = fail-stop forever.
    pub rejoin_ns: u64,
}

/// Which reachability shape a [`PartitionFault`] imposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionKind {
    /// A clean two-sided split: every link between the PEs in `mask`
    /// and the PEs outside it is severed for the window. The membership
    /// layer fences the minority side (quorum rule) and heals the views
    /// back together after the window ends.
    #[default]
    Split,
    /// An asymmetric cut: only the direct/GDR fabric from PE `a`
    /// toward PE `b` is severed; the proxy and host-staged paths stay
    /// reachable, so protocol selection reroutes instead of erroring.
    /// Sever both directions with two `cut` tokens.
    Cut,
}

/// One network-partition fault over `[start_ns, end_ns)`.
///
/// For [`PartitionKind::Split`], `mask` is the bitmask of PEs on the
/// severed side (`a`/`b` unused); for [`PartitionKind::Cut`], `a`/`b`
/// name the ordered severed pair (`mask` unused). Detection, quorum
/// fencing, and heal-merge semantics live in
/// `crates/core/src/membership.rs` — the plan only carries the window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionFault {
    pub kind: PartitionKind,
    /// Split: bitmask of PEs on the severed (candidate-minority) side.
    pub mask: u64,
    /// Cut: source PE of the severed direct path.
    pub a: u32,
    /// Cut: destination PE of the severed direct path.
    pub b: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A complete, seeded fault plan. `FaultPlan::default()` injects
/// nothing; [`FaultPlan::active`] is the cheap hot-path gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw in the plan.
    pub seed: u64,
    /// Per-RDMA-post probability of a transient CQE error, in permille.
    pub cqe_permille: u16,
    /// Modeled latency between posting and detecting a failed CQE.
    pub cqe_detect_ns: u64,
    /// Bounded retry budget for transient errors.
    pub max_retries: u32,
    /// Exponential backoff base (doubled per attempt) and cap.
    pub backoff_base_ns: u64,
    pub backoff_cap_ns: u64,
    /// Per-op completion timeout in virtual time; 0 disables timeouts.
    pub op_timeout_ns: u64,
    /// Bitmask of nodes whose GDR capability is disabled (no HCA
    /// peer-mapping of GPU memory: direct-GDR gather/scatter unusable).
    pub gdr_disabled_nodes: u64,
    /// Per-post probability of a late local completion, in permille.
    pub late_permille: u16,
    /// Extra delivery delay of a late completion.
    pub late_extra_ns: u64,
    pub link_windows: Bounded<LinkWindow, MAX_LINK_WINDOWS>,
    pub proxy_stalls: Bounded<ProxyStall, MAX_PROXY_STALLS>,
    pub burst_windows: Bounded<BurstWindow, MAX_BURST_WINDOWS>,
    /// Fail-stop crash schedule (see [`CrashFault`]).
    pub crashes: Bounded<CrashFault, MAX_CRASHES>,
    /// Network-partition schedule (see [`PartitionFault`]).
    pub partitions: Bounded<PartitionFault, MAX_PARTITIONS>,
    /// Sliding virtual-time window over which the health tracker counts
    /// failures per protocol (see `crates/core/src/health.rs`).
    pub health_window_ns: u64,
    /// Failures inside the window that trip the circuit breaker.
    pub health_threshold: u32,
    /// Cooldown before a demoted protocol is probed half-open.
    pub health_cooldown_ns: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            cqe_permille: 0,
            cqe_detect_ns: 5_000,
            max_retries: 4,
            backoff_base_ns: 2_000,
            backoff_cap_ns: 64_000,
            op_timeout_ns: 0,
            gdr_disabled_nodes: 0,
            late_permille: 0,
            late_extra_ns: 20_000,
            link_windows: Bounded::default(),
            proxy_stalls: Bounded::default(),
            burst_windows: Bounded::default(),
            crashes: Bounded::default(),
            partitions: Bounded::default(),
            health_window_ns: 200_000,
            health_threshold: 3,
            health_cooldown_ns: 500_000,
        }
    }
}

/// splitmix64 — the finalizer used for all plan draws.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless deterministic hash of `(seed, stream, counter)`.
pub fn mix(seed: u64, stream: u64, counter: u64) -> u64 {
    splitmix(splitmix(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)) ^ counter)
}

impl FaultPlan {
    /// True when any injection is configured (hot-path gate).
    pub fn active(&self) -> bool {
        self.cqe_permille > 0
            || self.late_permille > 0
            || self.gdr_disabled_nodes != 0
            || !self.link_windows.is_empty()
            || !self.proxy_stalls.is_empty()
            || self.op_timeout_ns > 0
            || !self.burst_windows.is_empty()
            || !self.crashes.is_empty()
            || !self.partitions.is_empty()
    }

    /// True when CQE draws can ever fail (per-post permille or a burst
    /// window): the arming gate for every post/chunk/sync retry engine.
    /// When false, every draw short-circuits and unfaulted runs keep
    /// their exact pre-fault event order.
    pub fn cqe_armed(&self) -> bool {
        self.cqe_permille > 0 || !self.burst_windows.is_empty()
    }

    /// Builder: seed every draw in the plan.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: transient CQE error rate in permille.
    pub fn with_cqe_errors(mut self, permille: u16) -> Self {
        self.cqe_permille = permille;
        self
    }

    /// Builder: late-local-completion rate and extra delay.
    pub fn with_late_completions(mut self, permille: u16, extra_ns: u64) -> Self {
        self.late_permille = permille;
        self.late_extra_ns = extra_ns;
        self
    }

    /// Builder: disable GDR on `node`. Panics, naming the node, past
    /// node 63: the set is a 64-bit node mask.
    pub fn with_gdr_disabled(mut self, node: u32) -> Self {
        assert!(node < 64, "gdr-off node {node} past the node mask (max 63)");
        self.gdr_disabled_nodes |= 1u64 << node;
        self
    }

    /// Builder: per-op timeout.
    pub fn with_op_timeout_ns(mut self, ns: u64) -> Self {
        self.op_timeout_ns = ns;
        self
    }

    /// Builder: retry budget and backoff shape.
    pub fn with_retry(mut self, max_retries: u32, base_ns: u64, cap_ns: u64) -> Self {
        self.max_retries = max_retries;
        self.backoff_base_ns = base_ns;
        self.backoff_cap_ns = cap_ns;
        self
    }

    /// Builder: append a link window (panics past capacity).
    pub fn with_link_window(mut self, w: LinkWindow) -> Self {
        self.link_windows.push(w, "link windows");
        self
    }

    /// Builder: append a proxy stall window.
    pub fn with_proxy_stall(mut self, s: ProxyStall) -> Self {
        self.proxy_stalls.push(s, "proxy stalls");
        self
    }

    /// Builder: append a correlated burst window.
    pub fn with_burst_window(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.burst_windows
            .push(BurstWindow { start_ns, end_ns }, "burst windows");
        self
    }

    /// Builder: append a fail-stop crash fault (`rejoin_ns == 0` means
    /// the PE never rejoins).
    pub fn with_crash(mut self, pe: u32, at_ns: u64, rejoin_ns: u64) -> Self {
        self.crashes.push(
            CrashFault {
                pe,
                at_ns,
                rejoin_ns,
            },
            "crash faults",
        );
        self
    }

    /// The crash fault scheduled for `pe`, if any ([`FaultPlan::check`]
    /// allows one per PE).
    pub fn crash_of(&self, pe: u32) -> Option<CrashFault> {
        self.crashes.iter().copied().find(|c| c.pe == pe)
    }

    /// Is `pe` fail-stopped at virtual time `now_ns` (crashed, and not
    /// yet rejoined)?
    pub fn crashed(&self, pe: u32, now_ns: u64) -> bool {
        self.crash_of(pe)
            .is_some_and(|c| now_ns >= c.at_ns && (c.rejoin_ns == 0 || now_ns < c.rejoin_ns))
    }

    /// Builder: append a two-sided split partition — every link between
    /// the PEs in `mask` and the PEs outside it is severed for
    /// `[start_ns, end_ns)`.
    pub fn with_partition_split(self, mask: u64, start_ns: u64, end_ns: u64) -> Self {
        let kind = PartitionKind::Split;
        self.with_partition(PartitionFault {
            kind,
            mask,
            a: 0,
            b: 0,
            start_ns,
            end_ns,
        })
    }

    /// Builder: append an asymmetric cut — only the direct/GDR fabric
    /// from PE `a` toward PE `b` is severed for `[start_ns, end_ns)`.
    pub fn with_partition_cut(self, a: u32, b: u32, start_ns: u64, end_ns: u64) -> Self {
        let kind = PartitionKind::Cut;
        self.with_partition(PartitionFault {
            kind,
            mask: 0,
            a,
            b,
            start_ns,
            end_ns,
        })
    }

    fn with_partition(mut self, p: PartitionFault) -> Self {
        self.partitions.push(p, "partition faults");
        self
    }

    /// The split partition whose window covers `now_ns`, if any (at
    /// most one concurrent split is meaningful; the first wins).
    pub fn split_at(&self, now_ns: u64) -> Option<PartitionFault> {
        self.partitions
            .iter()
            .copied()
            .find(|p| p.kind == PartitionKind::Split && now_ns >= p.start_ns && now_ns < p.end_ns)
    }

    /// Is the direct/GDR fabric from PE `a` toward PE `b` cut at
    /// virtual time `now_ns`? Cuts are ordered — `cut=0:1:...` severs
    /// only 0→1 posts.
    pub fn cut_active(&self, a: u32, b: u32, now_ns: u64) -> bool {
        self.partitions.iter().any(|p| {
            p.kind == PartitionKind::Cut
                && p.a == a
                && p.b == b
                && now_ns >= p.start_ns
                && now_ns < p.end_ns
        })
    }

    /// Builder: health-tracker shape (sliding window, failure
    /// threshold, half-open cooldown).
    pub fn with_health(mut self, window_ns: u64, threshold: u32, cooldown_ns: u64) -> Self {
        self.health_window_ns = window_ns;
        self.health_threshold = threshold;
        self.health_cooldown_ns = cooldown_ns;
        self
    }

    /// Is virtual time `now_ns` inside a correlated burst window?
    pub fn in_burst(&self, now_ns: u64) -> bool {
        self.burst_windows
            .iter()
            .any(|w| now_ns >= w.start_ns && now_ns < w.end_ns)
    }

    /// Is GDR capability-disabled on `node`?
    pub fn gdr_disabled(&self, node: usize) -> bool {
        node < 64 && self.gdr_disabled_nodes & (1u64 << node) != 0
    }

    /// Does the `counter`-th post on `stream` (a poster id — keep the
    /// counter program-ordered per stream) fail with a transient CQE
    /// error?
    pub fn cqe_fails(&self, stream: u64, counter: u64) -> bool {
        self.cqe_permille > 0
            && mix(self.seed, stream.wrapping_add(0x0C9E), counter) % 1000
                < self.cqe_permille as u64
    }

    /// The transient error kind reported for the `counter`-th failed
    /// post on `stream` — alternates deterministically between the two
    /// CQE error classes the IB spec surfaces for transient faults.
    pub fn cqe_kind(&self, stream: u64, counter: u64) -> &'static str {
        if mix(self.seed, stream.wrapping_add(0x1D0B), counter) & 1 == 0 {
            "cqe-flush-err"
        } else {
            "cqe-retry-exceeded"
        }
    }

    /// Is the `counter`-th local completion on `stream` delivered late?
    pub fn completion_late(&self, stream: u64, counter: u64) -> bool {
        self.late_permille > 0
            && mix(self.seed, stream.wrapping_add(0x7A7E), counter) % 1000
                < self.late_permille as u64
    }

    /// Backoff before retry `attempt` (1-based) of `op`: exponential in
    /// the attempt, capped, plus deterministic jitter in `[0, base)`.
    pub fn backoff_ns(&self, op: u64, attempt: u32) -> u64 {
        let base = self.backoff_base_ns.max(1);
        let exp = ((base as u128) << attempt.min(64)).min(self.backoff_cap_ns as u128) as u64;
        let jitter = mix(self.seed, op.wrapping_add(0xB0FF), attempt as u64) % base;
        exp + jitter
    }

    /// Extra wakeup delay for a proxy wakeup scheduled on `node` at
    /// virtual time `now_ns` (0 when no stall window covers it).
    pub fn proxy_stall_extra_ns(&self, node: usize, now_ns: u64) -> u64 {
        let mut extra = 0u64;
        for s in &self.proxy_stalls {
            if s.node as usize == node && now_ns >= s.start_ns && now_ns < s.end_ns {
                extra = extra.max(s.extra_ns);
            }
        }
        extra
    }

    /// End of the stall window covering `node` at `now_ns`, together
    /// with its extra delay — the restart-aware view of a stall. `None`
    /// when no window covers the instant. Among overlapping windows the
    /// one with the largest extra wins (ties: the later end), matching
    /// [`FaultPlan::proxy_stall_extra_ns`].
    pub fn proxy_stall_window_ns(&self, node: usize, now_ns: u64) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64)> = None;
        for s in &self.proxy_stalls {
            if s.node as usize == node && now_ns >= s.start_ns && now_ns < s.end_ns {
                let cand = (s.end_ns, s.extra_ns);
                best = Some(match best {
                    Some((e, x)) if (x, e) >= (cand.1, cand.0) => (e, x),
                    _ => cand,
                });
            }
        }
        best
    }

    /// Parse a plan literal, panicking with the [`PlanError`]: the
    /// shorthand for `s.parse::<FaultPlan>()` (see [`FaultPlan`]'s
    /// `FromStr`) where the text is known to be well-formed. Like
    /// `from_str` it checks syntax only; [`FaultPlan::check`] holds the
    /// values and the job.
    pub fn parse(s: &str) -> FaultPlan {
        s.parse().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether a job of shape `job` can run this plan: every rule about
    /// what a plan may hold, the grammar's syntax aside. A plan that
    /// passes runs every fault it names; one that fails is rejected
    /// whole, naming its first offending token, never clamped or run as
    /// a smaller plan.
    ///
    /// - Values: the permilles (`cqe`, `late`, a link's `bw_permille`)
    ///   are at most 1000; `backoff` and each `health` field are at
    ///   least 1; every window (link, stall, burst, partition) is
    ///   non-empty; a rejoin comes after its crash; a split mask is
    ///   non-zero and a cut names two distinct PEs.
    /// - The job: crash PEs, cut PEs and split-mask bits lie inside it,
    ///   and a split leaves PEs on both sides; a PE crashes at most
    ///   once; stall nodes and `gdr-off` bits name its nodes; a
    ///   `link=hca` index names one of its HCAs and a `link=pcie` index
    ///   one of its GPUs (or is `*`); crash and partition plans need a
    ///   job of at most 64 PEs (membership views are 64-bit masks).
    pub fn check(&self, job: &JobShape) -> Result<(), PlanError> {
        const PERMILLE: &str = "a permille must be at most 1000";
        const EMPTY: &str = "the window is empty (start_ns must be before end_ns)";
        const MASKS: &str = "membership views are 64-bit PE masks";
        let (nodes, pes) = (job.nodes, job.pes);
        let cqe = self.cqe_permille;
        ensure(cqe <= 1000, format_args!("cqe={cqe}"), PERMILLE)?;
        let late = self.late_permille;
        ensure(late <= 1000, format_args!("late={late}"), PERMILLE)?;
        let base = self.backoff_base_ns;
        ensure(
            base >= 1,
            format_args!("backoff={base}"),
            "must be at least 1",
        )?;
        let health = (
            self.health_window_ns,
            self.health_threshold,
            self.health_cooldown_ns,
        );
        ensure(
            health.0 >= 1 && health.1 >= 1 && health.2 >= 1,
            format_args!("health={}:{}:{}", health.0, health.1, health.2),
            "each field must be at least 1",
        )?;
        let gdr_off = self.gdr_disabled_nodes;
        ensure(
            nodes >= 64 || gdr_off >> nodes == 0,
            format_args!("gdr-off={gdr_off}"),
            format_args!("the mask names a node outside the {nodes}-node job"),
        )?;
        for w in &self.link_windows {
            ensure(w.bw_permille <= 1000, w, PERMILLE)?;
            ensure(w.start_ns < w.end_ns, w, EMPTY)?;
            let (count, what) = match w.scope {
                LinkScope::HcaTx => (job.hcas, "HCA"),
                LinkScope::GpuPcie => (job.gpus, "GPU"),
            };
            ensure(
                w.index == ALL || (w.index as usize) < count,
                w,
                format_args!("{what} {} is outside the job's {count} {what}s", w.index),
            )?;
        }
        for s in &self.proxy_stalls {
            ensure(s.start_ns < s.end_ns, s, EMPTY)?;
            ensure(
                (s.node as usize) < nodes,
                s,
                format_args!("node {} is outside the {nodes}-node job", s.node),
            )?;
        }
        for b in &self.burst_windows {
            ensure(b.start_ns < b.end_ns, b, EMPTY)?;
        }
        let outside = |pe: u32| format!("PE {pe} is outside the {pes}-PE job");
        for (i, c) in self.crashes.iter().enumerate() {
            ensure(
                c.rejoin_ns == 0 || c.rejoin_ns > c.at_ns,
                c,
                "rejoin_ns must be 0 (never) or after at_ns",
            )?;
            ensure(pes <= 64, c, format_args!("{MASKS}, the job has {pes} PEs"))?;
            if c.pe as usize >= pes {
                return Err(PlanError::new(c, outside(c.pe)));
            }
            ensure(
                self.crashes[..i].iter().all(|o| o.pe != c.pe),
                c,
                format_args!("PE {} crashes twice (at most one crash per PE)", c.pe),
            )?;
        }
        let all = if pes >= 64 {
            u64::MAX
        } else {
            (1u64 << pes) - 1
        };
        for p in &self.partitions {
            ensure(p.start_ns < p.end_ns, p, EMPTY)?;
            ensure(pes <= 64, p, format_args!("{MASKS}, the job has {pes} PEs"))?;
            match p.kind {
                PartitionKind::Split => {
                    ensure(p.mask != 0, p, "the split mask names no PE")?;
                    ensure(
                        p.mask & !all == 0,
                        p,
                        format_args!("the split mask names a PE outside the {pes}-PE job"),
                    )?;
                    ensure(p.mask != all, p, "the split leaves no PE on the other side")?;
                }
                PartitionKind::Cut => {
                    ensure(p.a != p.b, p, "a cut must name two distinct PEs")?;
                    if let Some(&pe) = [p.a, p.b].iter().find(|&&pe| pe as usize >= pes) {
                        return Err(PlanError::new(p, outside(pe)));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `Ok` when `ok` holds, else the [`PlanError`] of `token` and `what`
/// (both rendered only on failure).
fn ensure(ok: bool, token: impl Display, what: impl Display) -> Result<(), PlanError> {
    if ok {
        Ok(())
    } else {
        Err(PlanError::new(token, what))
    }
}

/// The shape of the job a plan runs on: what [`FaultPlan::check`] holds
/// a plan's PE, node, HCA and GPU numbers against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobShape {
    pub nodes: usize,
    pub pes: usize,
    /// HCAs in the whole cluster: the range of a `link=hca` index.
    pub hcas: usize,
    /// GPUs in the whole cluster: the range of a `link=pcie` index.
    pub gpus: usize,
}

/// Why a plan was rejected, by the grammar or by [`FaultPlan::check`]:
/// the offending token, as the grammar writes it, and what is wrong
/// with it. Renders as `token: what`, e.g. `crash=5:1000: PE 5 is
/// outside the 2-PE job`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError {
    pub token: String,
    pub what: String,
}

impl PlanError {
    fn new(token: impl Display, what: impl Display) -> PlanError {
        PlanError {
            token: token.to_string(),
            what: what.to_string(),
        }
    }
}

impl Display for PlanError {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.token, self.what)
    }
}

impl std::error::Error for PlanError {}

/// Parse a plan from whitespace-separated `key=value` tokens, the
/// `GDR_SHMEM_FAULTS` grammar:
///
/// ```text
/// seed=42 cqe=100 cqe-detect=5000 retries=4 backoff=2000
/// backoff-cap=64000 timeout=2000000 gdr-off=2 late=50
/// late-extra=20000 link=hca:0:1000000:2000000:0
/// stall=0:0:5000000:200000
/// ```
///
/// `gdr-off` is a node bitmask; `link` is
/// `scope:index:start_ns:end_ns:bw_permille` (scope `hca`|`pcie`,
/// index a cluster-wide HCA or GPU number, or `*`); `stall` is
/// `node:start_ns:end_ns:extra_ns`; `burst` is `start_ns:end_ns` (a
/// correlated failure burst); `health` is
/// `window_ns:threshold:cooldown_ns` (circuit-breaker shape for
/// health-driven protocol demotion); `crash` is `pe:at_ns[:rejoin_ns]`
/// (fail-stop crash of a PE, optionally rejoining later; omitted or 0
/// rejoin = dead forever); `partition` is
/// `split:<mask>:<start_ns>:<end_ns>` (two-sided split severing the
/// masked PEs from the rest) or `cut:<a>:<b>:<start_ns>:<end_ns>`
/// (asymmetric cut of the direct fabric from `a` toward `b` only).
///
/// This is the syntax alone: a known key, the right number of fields,
/// each a number that fits its field, and no more entries than a list
/// holds. An empty text is the default plan. Every rule about the
/// values and the job is [`FaultPlan::check`]'s.
impl FromStr for FaultPlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<FaultPlan, PlanError> {
        let mut p = FaultPlan::default();
        for tok in s.split_whitespace() {
            let Some((key, v)) = tok.split_once('=') else {
                return Err(PlanError::new(tok, "not a key=value token"));
            };
            let f = |form| Fields {
                tok,
                form,
                rest: v.split(':').peekable(),
            };
            match key {
                "seed" => p.seed = f("seed=<u64>").one(key)?,
                "cqe" => p.cqe_permille = f("cqe=<permille>").one(key)?,
                "cqe-detect" => p.cqe_detect_ns = f("cqe-detect=<ns>").one(key)?,
                "retries" => p.max_retries = f("retries=<count>").one(key)?,
                "backoff" => p.backoff_base_ns = f("backoff=<ns>").one(key)?,
                "backoff-cap" => p.backoff_cap_ns = f("backoff-cap=<ns>").one(key)?,
                "timeout" => p.op_timeout_ns = f("timeout=<ns>").one(key)?,
                "gdr-off" => p.gdr_disabled_nodes = f("gdr-off=<node bitmask>").one(key)?,
                "late" => p.late_permille = f("late=<permille>").one(key)?,
                "late-extra" => p.late_extra_ns = f("late-extra=<ns>").one(key)?,
                "link" => {
                    let mut f = f("link=<hca|pcie>:<index|*>:<start_ns>:<end_ns>:<bw_permille>");
                    let scope = match f.text()? {
                        "hca" => LinkScope::HcaTx,
                        "pcie" => LinkScope::GpuPcie,
                        _ => return Err(f.fail("scope must be hca|pcie")),
                    };
                    let index = if f.rest.next_if_eq(&"*").is_some() {
                        ALL
                    } else {
                        f.num("index")?
                    };
                    let w = LinkWindow {
                        scope,
                        index,
                        start_ns: f.num("start_ns")?,
                        end_ns: f.num("end_ns")?,
                        bw_permille: f.num("bw_permille")?,
                    };
                    f.push(&mut p.link_windows, w, "link windows")?;
                }
                "stall" => {
                    let mut f = f("stall=<node>:<start_ns>:<end_ns>:<extra_ns>");
                    let s = ProxyStall {
                        node: f.num("node")?,
                        start_ns: f.num("start_ns")?,
                        end_ns: f.num("end_ns")?,
                        extra_ns: f.num("extra_ns")?,
                    };
                    f.push(&mut p.proxy_stalls, s, "proxy stalls")?;
                }
                "burst" => {
                    let mut f = f("burst=<start_ns>:<end_ns>");
                    let b = BurstWindow {
                        start_ns: f.num("start_ns")?,
                        end_ns: f.num("end_ns")?,
                    };
                    f.push(&mut p.burst_windows, b, "burst windows")?;
                }
                "health" => {
                    let mut f = f("health=<window_ns>:<threshold>:<cooldown_ns>");
                    p.health_window_ns = f.num("window_ns")?;
                    p.health_threshold = f.num("threshold")?;
                    p.health_cooldown_ns = f.num("cooldown_ns")?;
                    f.end()?;
                }
                "crash" => {
                    let mut f = f("crash=pe:at_ns[:rejoin_ns]");
                    let (pe, at_ns) = (f.num("pe")?, f.num("at_ns")?);
                    let rejoin_ns = if f.rest.peek().is_some() {
                        f.num("rejoin_ns")?
                    } else {
                        0
                    };
                    let c = CrashFault {
                        pe,
                        at_ns,
                        rejoin_ns,
                    };
                    f.push(&mut p.crashes, c, "crash faults")?;
                }
                "partition" => {
                    let mut f = f("partition=split:<mask>:<start_ns>:<end_ns> \
                                   | partition=cut:<a>:<b>:<start_ns>:<end_ns>");
                    let (kind, mask, a, b) = match f.text()? {
                        "split" => (PartitionKind::Split, f.num("mask")?, 0, 0),
                        "cut" => (PartitionKind::Cut, 0, f.num("a")?, f.num("b")?),
                        _ => return Err(f.fail("shape must be split|cut")),
                    };
                    let x = PartitionFault {
                        kind,
                        mask,
                        a,
                        b,
                        start_ns: f.num("start_ns")?,
                        end_ns: f.num("end_ns")?,
                    };
                    f.push(&mut p.partitions, x, "partition faults")?;
                }
                _ => {
                    return Err(PlanError::new(
                        tok,
                        format_args!(
                            "unknown key {key:?} (known keys: seed cqe cqe-detect retries \
                             backoff backoff-cap timeout gdr-off late late-extra link stall \
                             burst health crash partition)"
                        ),
                    ))
                }
            }
        }
        Ok(p)
    }
}

/// The `:`-separated fields of one `key=value` plan token, read in
/// order. A malformed token is a [`PlanError`] naming the token and the
/// expected form: a chaos repro with a typo must fail loudly and
/// legibly.
struct Fields<'a> {
    tok: &'a str,
    form: &'static str,
    rest: std::iter::Peekable<std::str::Split<'a, char>>,
}

impl<'a> Fields<'a> {
    fn fail(&self, what: &str) -> PlanError {
        PlanError::new(self.tok, format_args!("{what} (expected {})", self.form))
    }

    fn text(&mut self) -> Result<&'a str, PlanError> {
        self.rest.next().ok_or_else(|| self.fail("too few fields"))
    }

    /// The next field as a `T`: a value past `T`'s range is malformed,
    /// never truncated.
    fn num<T: FromStr>(&mut self, what: &str) -> Result<T, PlanError> {
        let s = self.text()?;
        s.parse().map_err(|_| {
            self.fail(&format!(
                "{what} must be a number that fits {}",
                std::any::type_name::<T>()
            ))
        })
    }

    fn end(mut self) -> Result<(), PlanError> {
        match self.rest.next() {
            Some(_) => Err(self.fail("too many fields")),
            None => Ok(()),
        }
    }

    /// The whole value of the single-field key `key`.
    fn one<T: FromStr>(mut self, key: &str) -> Result<T, PlanError> {
        let x = self.num(key)?;
        self.end()?;
        Ok(x)
    }

    /// End the token and append its entry `x` to `list`: one entry past
    /// the list's capacity is malformed, naming the dimension `what`.
    fn push<T: Copy + Default, const N: usize>(
        self,
        list: &mut Bounded<T, N>,
        x: T,
        what: &str,
    ) -> Result<(), PlanError> {
        let tok = self.tok;
        self.end()?;
        ensure(
            list.try_push(x),
            tok,
            format_args!("too many {what} (max {N})"),
        )
    }
}

/// Each entry renders as its token in the grammar [`FaultPlan`]'s
/// `FromStr` reads.
impl Display for LinkWindow {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let scope = match self.scope {
            LinkScope::HcaTx => "hca",
            LinkScope::GpuPcie => "pcie",
        };
        write!(f, "link={scope}:")?;
        if self.index == ALL {
            write!(f, "*")?;
        } else {
            write!(f, "{}", self.index)?;
        }
        write!(f, ":{}:{}:{}", self.start_ns, self.end_ns, self.bw_permille)
    }
}

impl Display for ProxyStall {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let ProxyStall {
            node,
            start_ns,
            end_ns,
            extra_ns,
        } = self;
        write!(f, "stall={node}:{start_ns}:{end_ns}:{extra_ns}")
    }
}

impl Display for BurstWindow {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write!(f, "burst={}:{}", self.start_ns, self.end_ns)
    }
}

impl Display for CrashFault {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write!(f, "crash={}:{}", self.pe, self.at_ns)?;
        if self.rejoin_ns != 0 {
            write!(f, ":{}", self.rejoin_ns)?;
        }
        Ok(())
    }
}

impl Display for PartitionFault {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let (start, end) = (self.start_ns, self.end_ns);
        match self.kind {
            PartitionKind::Split => write!(f, "partition=split:{}:{start}:{end}", self.mask),
            PartitionKind::Cut => write!(f, "partition=cut:{}:{}:{start}:{end}", self.a, self.b),
        }
    }
}

/// Emit the plan in the exact `GDR_SHMEM_FAULTS` grammar that
/// [`FaultPlan`]'s `FromStr` reads: `seed=` always (replay identity),
/// every other scalar only when it differs from [`FaultPlan::default`],
/// then the window lists in declaration order. Because parsing starts
/// from the default plan, `parse(&plan.to_string()) == plan` holds for
/// any plan — the round trip the shrinker and the committed repro files
/// depend on.
impl Display for FaultPlan {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let d = FaultPlan::default();
        write!(f, "seed={}", self.seed)?;
        if self.cqe_permille != d.cqe_permille {
            write!(f, " cqe={}", self.cqe_permille)?;
        }
        if self.cqe_detect_ns != d.cqe_detect_ns {
            write!(f, " cqe-detect={}", self.cqe_detect_ns)?;
        }
        if self.max_retries != d.max_retries {
            write!(f, " retries={}", self.max_retries)?;
        }
        if self.backoff_base_ns != d.backoff_base_ns {
            write!(f, " backoff={}", self.backoff_base_ns)?;
        }
        if self.backoff_cap_ns != d.backoff_cap_ns {
            write!(f, " backoff-cap={}", self.backoff_cap_ns)?;
        }
        if self.op_timeout_ns != d.op_timeout_ns {
            write!(f, " timeout={}", self.op_timeout_ns)?;
        }
        if self.gdr_disabled_nodes != d.gdr_disabled_nodes {
            write!(f, " gdr-off={}", self.gdr_disabled_nodes)?;
        }
        if self.late_permille != d.late_permille {
            write!(f, " late={}", self.late_permille)?;
        }
        if self.late_extra_ns != d.late_extra_ns {
            write!(f, " late-extra={}", self.late_extra_ns)?;
        }
        for w in &self.link_windows {
            write!(f, " {w}")?;
        }
        for s in &self.proxy_stalls {
            write!(f, " {s}")?;
        }
        for b in &self.burst_windows {
            write!(f, " {b}")?;
        }
        for c in &self.crashes {
            write!(f, " {c}")?;
        }
        for p in &self.partitions {
            write!(f, " {p}")?;
        }
        if (
            self.health_window_ns,
            self.health_threshold,
            self.health_cooldown_ns,
        ) != (d.health_window_ns, d.health_threshold, d.health_cooldown_ns)
        {
            write!(
                f,
                " health={}:{}:{}",
                self.health_window_ns, self.health_threshold, self.health_cooldown_ns
            )?;
        }
        Ok(())
    }
}

/// Virtual-time horizon of generated plans: every window a generated
/// plan contains ends before this instant, so campaign workloads that
/// idle past it observe a fault-free fabric (the breaker-recovery
/// oracle depends on faults actually ending).
pub const GEN_HORIZON_NS: u64 = 2_000_000;

impl FaultPlan {
    /// Enumerate the `trial`-th randomized plan of a chaos campaign: a
    /// pure function of `(campaign_seed, trial)` (stateless [`mix`]
    /// draws, no RNG object), covering every fault dimension the plan
    /// grammar can express — CQE error rates, detection latency, retry
    /// and backoff budgets, per-op timeouts, GDR capability masks, late
    /// completions, link degradation/blackout windows, proxy stalls,
    /// correlated bursts, and the health-breaker shape. All windows end
    /// inside [`GEN_HORIZON_NS`] and every magnitude is bounded so a
    /// generated plan can delay and fail traffic but never wedge a
    /// workload past its quiesce deadline.
    pub fn generate(campaign_seed: u64, trial: u64) -> FaultPlan {
        // dimension draws live on their own salted streams so adding a
        // dimension never reshuffles the existing ones
        let d = |salt: u64| mix(campaign_seed, 0x4745_4E00 + salt, trial);
        let mut p = FaultPlan::default().with_seed(d(1));
        // transient CQE errors: off in ~2/7 of plans, else up to 400‰
        let cqe = [0u16, 0, 25, 60, 120, 250, 400][(d(2) % 7) as usize];
        if cqe > 0 {
            p = p.with_cqe_errors(cqe);
        }
        p.cqe_detect_ns = 1_000 + d(3) % 7_000;
        let retries = (d(4) % 6) as u32; // 0..=5
        let base = 500 + d(5) % 3_500;
        p = p.with_retry(retries, base, base * (4 + d(6) % 28));
        if d(7) % 10 < 3 {
            p.op_timeout_ns = 100_000 + d(8) % 1_900_000;
        }
        if d(9) % 4 == 0 {
            // capability fault on node 0, node 1, or both
            p.gdr_disabled_nodes = 1 + d(10) % 3;
        }
        if d(11) % 3 == 0 {
            p = p.with_late_completions((10 + d(12) % 190) as u16, 5_000 + d(13) % 45_000);
        }
        for i in 0..d(14) % 3 {
            let start = d(20 + i * 4) % (GEN_HORIZON_NS * 3 / 4);
            let scope = if d(21 + i * 4) & 1 == 0 {
                LinkScope::HcaTx
            } else {
                LinkScope::GpuPcie
            };
            let index = match d(22 + i * 4) % 3 {
                0 => 0,
                1 => 1,
                _ => ALL,
            };
            p = p.with_link_window(LinkWindow {
                scope,
                index,
                start_ns: start,
                end_ns: start + 50_000 + d(23 + i * 4) % 450_000,
                bw_permille: [0u16, 250, 500][(d(24 + i * 4) % 3) as usize],
            });
        }
        if d(40) % 3 == 0 {
            let start = d(41) % 1_000_000;
            p = p.with_proxy_stall(ProxyStall {
                node: (d(42) % 2) as u32,
                start_ns: start,
                end_ns: start + 100_000 + d(43) % 300_000,
                extra_ns: 50_000 + d(44) % 250_000,
            });
        }
        for i in 0..d(50) % 3 {
            let start = d(60 + i * 2) % (GEN_HORIZON_NS * 3 / 4);
            p = p.with_burst_window(start, start + 20_000 + d(61 + i * 2) % 130_000);
        }
        p.with_health(
            50_000 + d(70) % 250_000,
            2 + (d(71) % 4) as u32,
            100_000 + d(72) % 500_000,
        )
    }

    /// [`FaultPlan::generate`] plus the fail-stop crash dimension, for
    /// campaigns that opt into membership churn (`gdrchaos run
    /// --crash`). Kept out of the base generator so pre-crash campaign
    /// seeds keep their byte-identical trajectories; the crash draws
    /// ride fresh salts (80+) so every other dimension of the plan is
    /// exactly what `generate` would have produced. Roughly one trial
    /// in three crashes a PE, and a generated crash always rejoins
    /// before [`GEN_HORIZON_NS`] so the breaker-recovery oracle still
    /// observes a fully healed fabric at quiesce.
    pub fn generate_with_crashes(campaign_seed: u64, trial: u64) -> FaultPlan {
        let d = |salt: u64| mix(campaign_seed, 0x4745_4E00 + salt, trial);
        let mut p = Self::generate(campaign_seed, trial);
        if d(80) % 3 == 0 {
            let pe = (d(81) % 2) as u32;
            let at = 50_000 + d(82) % 1_000_000;
            let rejoin = at + 300_000 + d(83) % (GEN_HORIZON_NS - at - 300_000);
            p = p.with_crash(pe, at, rejoin);
        }
        p
    }

    /// [`FaultPlan::generate`] plus the network-partition dimension,
    /// for campaigns that opt into reachability churn (`gdrchaos run
    /// --partition`). Kept out of the base generator so pre-partition
    /// campaign seeds keep their byte-identical trajectories; the
    /// partition draws ride fresh salts (90+) so every other dimension
    /// is exactly what `generate` would have produced. Roughly one
    /// trial in three draws a partition — a two-sided split of PE 1
    /// (exercising quorum fencing and heal-merge) or an asymmetric cut
    /// between PEs 0 and 1 (exercising reachability-aware rerouting).
    /// Windows are long enough for the fence to land inside them
    /// (detection bound 150 µs) and end early enough that the heal
    /// merge completes before [`GEN_HORIZON_NS`], so the quiesced
    /// fabric every oracle inspects is fully healed.
    pub fn generate_with_partitions(campaign_seed: u64, trial: u64) -> FaultPlan {
        let d = |salt: u64| mix(campaign_seed, 0x4745_4E00 + salt, trial);
        let mut p = Self::generate(campaign_seed, trial);
        if d(90) % 3 == 0 {
            let start = 100_000 + d(91) % 600_000;
            let end = start + 200_000 + d(92) % 700_000;
            if d(93) & 1 == 0 {
                p = p.with_partition_split(0b10, start, end);
            } else {
                let a = (d(94) % 2) as u32;
                p = p.with_partition_cut(a, 1 - a, start, end);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inter-node pair: two nodes of one PE, two HCAs and two GPUs
    /// each.
    const PAIR: JobShape = JobShape {
        nodes: 2,
        pes: 2,
        hcas: 4,
        gpus: 4,
    };

    /// The error `plan` meets on the pair, from the grammar or from
    /// [`FaultPlan::check`].
    fn rejection(plan: &str) -> PlanError {
        let checked = plan
            .parse::<FaultPlan>()
            .and_then(|p| p.check(&PAIR).map(|()| p));
        checked.expect_err(plan)
    }

    #[test]
    fn default_plan_is_inactive() {
        let p = FaultPlan::default();
        assert!(!p.active());
        assert!(!p.cqe_fails(0, 0));
        assert!(!p.completion_late(0, 0));
        assert!(!p.gdr_disabled(0));
        assert_eq!(p.proxy_stall_extra_ns(0, 123), 0);
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::default().with_seed(7).with_cqe_errors(500);
        let b = FaultPlan::default().with_seed(7).with_cqe_errors(500);
        let c = FaultPlan::default().with_seed(8).with_cqe_errors(500);
        let fa: Vec<bool> = (0..64).map(|i| a.cqe_fails(3, i)).collect();
        let fb: Vec<bool> = (0..64).map(|i| b.cqe_fails(3, i)).collect();
        let fc: Vec<bool> = (0..64).map(|i| c.cqe_fails(3, i)).collect();
        assert_eq!(fa, fb, "same seed must replay identically");
        assert_ne!(fa, fc, "different seeds must diverge");
    }

    #[test]
    fn cqe_rate_is_roughly_honored() {
        let p = FaultPlan::default().with_seed(42).with_cqe_errors(100);
        let n = 10_000u64;
        let hits = (0..n).filter(|&i| p.cqe_fails(1, i)).count();
        let rate = hits as f64 / n as f64;
        assert!((0.07..0.13).contains(&rate), "10% permille drew {rate}");
    }

    #[test]
    fn backoff_grows_and_caps_with_jitter_below_base() {
        let p = FaultPlan::default().with_retry(8, 1_000, 32_000);
        let b1 = p.backoff_ns(9, 1);
        let b3 = p.backoff_ns(9, 3);
        let b20 = p.backoff_ns(9, 20);
        assert!((2_000..3_000).contains(&b1), "{b1}");
        assert!((8_000..9_000).contains(&b3), "{b3}");
        assert!(b20 <= 33_000, "cap + jitter bound: {b20}");
        assert_eq!(b1, p.backoff_ns(9, 1), "backoff must be deterministic");
        assert_ne!(
            p.backoff_ns(9, 1) - 2_000,
            p.backoff_ns(10, 1) - 2_000,
            "jitter should vary by op (collision vanishingly unlikely)"
        );
    }

    #[test]
    fn gdr_disable_bitmask() {
        let p = FaultPlan::default()
            .with_gdr_disabled(1)
            .with_gdr_disabled(3);
        assert!(!p.gdr_disabled(0));
        assert!(p.gdr_disabled(1));
        assert!(!p.gdr_disabled(2));
        assert!(p.gdr_disabled(3));
        assert!(p.active());
        let top = FaultPlan::default().with_gdr_disabled(63);
        assert!(top.gdr_disabled(63) && !top.gdr_disabled(0));
    }

    #[test]
    #[should_panic(expected = "gdr-off node 64 past the node mask (max 63)")]
    fn gdr_disable_past_the_mask_panics_instead_of_aliasing() {
        FaultPlan::default().with_gdr_disabled(64);
    }

    #[test]
    fn proxy_stall_windows_cover_only_their_interval() {
        let p = FaultPlan::default().with_proxy_stall(ProxyStall {
            node: 1,
            start_ns: 1_000,
            end_ns: 2_000,
            extra_ns: 500_000,
        });
        assert_eq!(p.proxy_stall_extra_ns(1, 999), 0);
        assert_eq!(p.proxy_stall_extra_ns(1, 1_000), 500_000);
        assert_eq!(p.proxy_stall_extra_ns(1, 1_999), 500_000);
        assert_eq!(p.proxy_stall_extra_ns(1, 2_000), 0);
        assert_eq!(p.proxy_stall_extra_ns(0, 1_500), 0, "wrong node");
    }

    #[test]
    fn stall_window_lookup_names_the_covering_window() {
        let p = FaultPlan::default()
            .with_proxy_stall(ProxyStall {
                node: 1,
                start_ns: 1_000,
                end_ns: 2_000,
                extra_ns: 500_000,
            })
            .with_proxy_stall(ProxyStall {
                node: 1,
                start_ns: 1_500,
                end_ns: 5_000,
                extra_ns: 900_000,
            });
        assert_eq!(p.proxy_stall_window_ns(1, 999), None);
        assert_eq!(p.proxy_stall_window_ns(1, 1_200), Some((2_000, 500_000)));
        // overlapping windows: the larger extra wins, same as the
        // extra_ns lookup
        assert_eq!(p.proxy_stall_window_ns(1, 1_700), Some((5_000, 900_000)));
        assert_eq!(
            p.proxy_stall_extra_ns(1, 1_700),
            p.proxy_stall_window_ns(1, 1_700)
                .expect("a stall window on node 1 must cover 1700ns")
                .1
        );
        assert_eq!(p.proxy_stall_window_ns(0, 1_200), None, "wrong node");
        assert_eq!(p.proxy_stall_window_ns(1, 5_000), None);
    }

    #[test]
    fn env_grammar_round_trips() {
        let p = FaultPlan::parse(
            "seed=42 cqe=100 cqe-detect=7000 retries=6 backoff=1500 \
             backoff-cap=48000 timeout=2000000 gdr-off=2 late=50 late-extra=9000 \
             link=hca:1:1000000:2000000:0 link=pcie:*:0:500000:250 \
             stall=0:0:5000000:200000",
        );
        assert_eq!(p.seed, 42);
        assert_eq!(p.cqe_permille, 100);
        assert_eq!(p.cqe_detect_ns, 7_000);
        assert_eq!(p.max_retries, 6);
        assert_eq!(p.backoff_base_ns, 1_500);
        assert_eq!(p.backoff_cap_ns, 48_000);
        assert_eq!(p.op_timeout_ns, 2_000_000);
        assert!(p.gdr_disabled(1) && !p.gdr_disabled(0));
        assert_eq!(p.late_permille, 50);
        assert_eq!(p.late_extra_ns, 9_000);
        assert_eq!(p.link_windows.len(), 2);
        assert_eq!(p.link_windows[0].scope, LinkScope::HcaTx);
        assert_eq!(p.link_windows[0].index, 1);
        assert_eq!(p.link_windows[0].bw_permille, 0);
        assert_eq!(p.link_windows[1].scope, LinkScope::GpuPcie);
        assert_eq!(p.link_windows[1].index, ALL);
        assert_eq!(p.link_windows[1].bw_permille, 250);
        assert_eq!(p.proxy_stalls.len(), 1);
        assert!(p.active());
    }

    #[test]
    #[should_panic(expected = "sede=42: unknown key \"sede\"")]
    fn unknown_keys_are_rejected_loudly() {
        FaultPlan::parse("sede=42");
    }

    #[test]
    fn burst_windows_cover_only_their_interval_and_arm_draws() {
        let p = FaultPlan::default().with_burst_window(1_000, 2_000);
        assert!(p.active(), "a burst window alone makes the plan active");
        assert!(p.cqe_armed(), "a burst window alone arms CQE draws");
        assert!(!p.in_burst(999));
        assert!(p.in_burst(1_000));
        assert!(p.in_burst(1_999));
        assert!(!p.in_burst(2_000));
        // permille draws stay independent of the window predicate
        assert!(!p.cqe_fails(0, 0), "cqe_permille is still 0");
        let clean = FaultPlan::default();
        assert!(!clean.cqe_armed() && !clean.in_burst(1_500));
    }

    #[test]
    fn burst_grammar_and_health_grammar_round_trip() {
        let p = FaultPlan::parse("burst=50000:90000 burst=200000:210000 health=100000:2:300000");
        assert_eq!(p.burst_windows.len(), 2);
        assert_eq!(
            p.burst_windows[0],
            BurstWindow {
                start_ns: 50_000,
                end_ns: 90_000
            }
        );
        assert_eq!(
            p.burst_windows[1],
            BurstWindow {
                start_ns: 200_000,
                end_ns: 210_000
            }
        );
        assert!(p.in_burst(60_000) && !p.in_burst(100_000) && p.in_burst(205_000));
        assert_eq!(p.health_window_ns, 100_000);
        assert_eq!(p.health_threshold, 2);
        assert_eq!(p.health_cooldown_ns, 300_000);
        assert!(p.active());
    }

    #[test]
    fn empty_burst_windows_are_rejected() {
        let e = FaultPlan::default().with_burst_window(5, 5).check(&PAIR);
        assert_eq!(
            e.unwrap_err().to_string(),
            "burst=5:5: the window is empty (start_ns must be before end_ns)"
        );
    }

    #[test]
    fn sync_stream_is_disjoint_from_poster_streams() {
        // the sync salt lives above any 32-bit poster id, so a sync
        // draw can never collide with (and perturb) an RMA post stream
        for poster in [0u64, 1, u32::MAX as u64] {
            assert_ne!(poster | SYNC_STREAM, poster);
        }
        let p = FaultPlan::default().with_seed(9).with_cqe_errors(500);
        let rma: Vec<bool> = (0..64).map(|i| p.cqe_fails(3, i)).collect();
        let sync: Vec<bool> = (0..64).map(|i| p.cqe_fails(3 | SYNC_STREAM, i)).collect();
        assert_ne!(rma, sync, "sync draws ride their own stream");
    }

    #[test]
    fn mix_avalanche_smoke() {
        // neighbouring counters must not correlate
        let xs: Vec<u64> = (0..32).map(|i| mix(1, 2, i)).collect();
        for w in xs.windows(2) {
            assert_ne!(w[0], w[1]);
            assert!((w[0] ^ w[1]).count_ones() > 8, "weak diffusion");
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        // property over the campaign generator's whole plan space: the
        // shrinker serializes candidates through this round trip, so a
        // single lossy field would silently change what gets replayed
        for trial in 0..512 {
            let p = FaultPlan::generate(0xC0FFEE, trial);
            let s = p.to_string();
            assert_eq!(FaultPlan::parse(&s), p, "lossy grammar for {s:?}");
            assert_eq!(p.check(&PAIR), Ok(()), "{s}");
        }
        // defaults collapse to the bare seed token
        assert_eq!(FaultPlan::default().to_string(), "seed=1");
        assert_eq!(FaultPlan::parse("seed=1"), FaultPlan::default());
        // hand-built corners: wildcard link index, every window kind
        let p = FaultPlan::default()
            .with_seed(99)
            .with_cqe_errors(333)
            .with_late_completions(50, 7_000)
            .with_gdr_disabled(0)
            .with_gdr_disabled(2)
            .with_op_timeout_ns(1_500_000)
            .with_retry(0, 900, 900)
            .with_link_window(LinkWindow {
                scope: LinkScope::GpuPcie,
                index: ALL,
                start_ns: 10,
                end_ns: 20,
                bw_permille: 0,
            })
            .with_proxy_stall(ProxyStall {
                node: 1,
                start_ns: 5,
                end_ns: 9,
                extra_ns: 4,
            })
            .with_burst_window(100, 200)
            .with_partition_split(0b110, 1_000, 2_000)
            .with_partition_cut(1, 0, 3_000, 4_000)
            .with_health(1, 1, 1);
        assert_eq!(FaultPlan::parse(&p.to_string()), p);
        // the crash and partition campaign generators' plan spaces
        // round-trip too (both campaigns shrink through this grammar)
        for generate in [
            FaultPlan::generate_with_crashes,
            FaultPlan::generate_with_partitions,
        ] {
            for trial in 0..512 {
                let p = generate(0xC0FFEE, trial);
                let s = p.to_string();
                assert_eq!(FaultPlan::parse(&s), p, "lossy grammar for {s:?}");
                assert_eq!(p.check(&PAIR), Ok(()), "{s}");
            }
        }
    }

    #[test]
    fn bounded_remove_keeps_order_and_resets_the_vacated_slot() {
        let mut l: Bounded<u32, 4> = Bounded::default();
        for x in [10, 20, 30] {
            l.push(x, "entries");
        }
        assert_eq!(l.remove(1), 20);
        assert_eq!(*l, [10, 30]);
        // the vacated slot reads default again, so a list that reached
        // the same entries another way compares equal
        let mut m: Bounded<u32, 4> = Bounded::default();
        m.push(10, "entries");
        m.push(30, "entries");
        assert_eq!(l, m);
        assert_eq!(l.remove(0), 10);
        assert_eq!(l.remove(0), 30);
        assert!(l.is_empty());
        assert_eq!(l, Bounded::default());
    }

    #[test]
    #[should_panic(expected = "too many crash faults (max 2)")]
    fn bounded_push_past_capacity_names_the_dimension() {
        FaultPlan::parse("crash=0:1 crash=1:1 crash=0:5");
    }

    #[test]
    #[should_panic(expected = "crash=4294967297:1000: pe must be a number that fits u32")]
    fn crash_pe_past_u32_is_rejected_not_truncated() {
        FaultPlan::parse("crash=4294967297:1000");
    }

    #[test]
    #[should_panic(expected = "partition=cut:4294967296:1:0:100: a must be a number that fits u32")]
    fn cut_pe_past_u32_is_rejected_not_truncated() {
        FaultPlan::parse("partition=cut:4294967296:1:0:100");
    }

    #[test]
    #[should_panic(expected = "retries=4294967297: retries must be a number that fits u32")]
    fn retries_past_u32_is_rejected_not_truncated() {
        FaultPlan::parse("retries=4294967297");
    }

    #[test]
    #[should_panic(
        expected = "health=1000:4294967299:1000: threshold must be a number that fits u32"
    )]
    fn health_threshold_past_u32_is_rejected_not_truncated() {
        FaultPlan::parse("health=1000:4294967299:1000");
    }

    #[test]
    #[should_panic(expected = "too many fields (expected burst=<start_ns>:<end_ns>)")]
    fn extra_fields_are_rejected() {
        FaultPlan::parse("burst=1:2:3");
    }

    #[test]
    fn generate_is_pure_and_trial_sensitive() {
        for trial in [0u64, 1, 17, 4096] {
            assert_eq!(
                FaultPlan::generate(7, trial),
                FaultPlan::generate(7, trial),
                "generate must be a pure function of (seed, trial)"
            );
        }
        let distinct: std::collections::HashSet<String> = (0..64)
            .map(|t| FaultPlan::generate(7, t).to_string())
            .collect();
        assert!(
            distinct.len() > 48,
            "trials barely vary: {}",
            distinct.len()
        );
        assert_ne!(FaultPlan::generate(7, 0), FaultPlan::generate(8, 0));
        // every generated window must close before the campaign horizon
        for trial in 0..256 {
            let p = FaultPlan::generate(3, trial);
            for w in &p.link_windows {
                assert!(w.end_ns <= GEN_HORIZON_NS);
            }
            for s in &p.proxy_stalls {
                assert!(s.end_ns <= GEN_HORIZON_NS);
            }
            for b in &p.burst_windows {
                assert!(b.end_ns <= GEN_HORIZON_NS);
            }
        }
    }

    #[test]
    fn crash_grammar_round_trips_and_predicates_cover_lifetime() {
        let p = FaultPlan::parse("crash=1:100000:600000 crash=0:50000");
        assert_eq!(p.crashes.len(), 2);
        assert_eq!(
            p.crash_of(1),
            Some(CrashFault {
                pe: 1,
                at_ns: 100_000,
                rejoin_ns: 600_000
            })
        );
        assert!(p.active(), "a crash alone makes the plan active");
        // pe 1 is dead exactly in [at, rejoin)
        assert!(!p.crashed(1, 99_999));
        assert!(p.crashed(1, 100_000));
        assert!(p.crashed(1, 599_999));
        assert!(!p.crashed(1, 600_000));
        // pe 0 never rejoins
        assert!(p.crashed(0, u64::MAX - 1));
        assert!(!p.crashed(2, 1_000_000), "unscheduled PE never crashes");
        assert_eq!(FaultPlan::parse(&p.to_string()), p);
        // rejoin-less display omits the third field
        assert_eq!(
            FaultPlan::default().with_crash(0, 5, 0).to_string(),
            "seed=1 crash=0:5"
        );
    }

    #[test]
    fn crash_rejoin_before_death_is_rejected() {
        let e = FaultPlan::default().with_crash(0, 100, 50).check(&PAIR);
        let e = e.unwrap_err().to_string();
        assert_eq!(
            e,
            "crash=0:100:50: rejoin_ns must be 0 (never) or after at_ns"
        );
    }

    #[test]
    fn generate_with_crashes_is_pure_and_leaves_base_dimensions_alone() {
        let mut saw_crash = false;
        for trial in 0..128 {
            let base = FaultPlan::generate(7, trial);
            let c = FaultPlan::generate_with_crashes(7, trial);
            assert_eq!(c, FaultPlan::generate_with_crashes(7, trial), "pure");
            // stripping the crash dimension recovers the base plan exactly
            let mut stripped = c;
            stripped.crashes = Bounded::default();
            assert_eq!(
                stripped, base,
                "crash draws must not reshuffle other dimensions"
            );
            for cr in &c.crashes {
                saw_crash = true;
                assert!(cr.pe < 2);
                assert!(cr.rejoin_ns > cr.at_ns, "generated crashes always rejoin");
                assert!(cr.rejoin_ns <= GEN_HORIZON_NS);
            }
        }
        assert!(saw_crash, "128 trials must draw at least one crash");
    }

    /// A value outside its key's range parses, and `check` rejects it
    /// naming the token; no builder clamps it into a different plan.
    #[test]
    fn out_of_range_values_are_rejected_not_clamped() {
        for (plan, what) in [
            ("cqe=5000", "a permille must be at most 1000"),
            ("late=2000", "a permille must be at most 1000"),
            ("link=hca:0:0:1000:4000", "a permille must be at most 1000"),
            ("health=0:3:1000", "each field must be at least 1"),
            ("health=1000:0:1000", "each field must be at least 1"),
            ("health=1000:3:0", "each field must be at least 1"),
            ("backoff=0", "must be at least 1"),
        ] {
            assert_eq!(rejection(plan).to_string(), format!("{plan}: {what}"));
        }
        let edge = "seed=1 cqe=1000 backoff=1 late=1000 link=hca:0:0:1000:1000 health=1:1:1";
        assert_eq!(FaultPlan::parse(edge).to_string(), edge);
        assert_eq!(FaultPlan::parse(edge).check(&PAIR), Ok(()));
        let unclamped = FaultPlan::default()
            .with_cqe_errors(5000)
            .with_retry(2, 0, 0)
            .with_health(0, 0, 0);
        assert_eq!(
            unclamped.to_string(),
            "seed=1 cqe=5000 retries=2 backoff=0 backoff-cap=0 health=0:0:0"
        );
        assert_eq!(unclamped.check(&PAIR).unwrap_err().token, "cqe=5000");
    }

    /// Plans that once panicked inside a builder or the machine build,
    /// ran as no-ops on hardware the pair lacks, or ran as a smaller
    /// plan: each is now a [`PlanError`] naming its token.
    #[test]
    fn every_plan_the_pair_cannot_run_is_a_plan_error() {
        let five_links = ["link=hca:0:0:10:0"; 5].join(" ");
        for (plan, token, what) in [
            // builder and parser panics
            ("burst=200:100", "burst=200:100", "the window is empty"),
            (
                "crash=1:5000:100",
                "crash=1:5000:100",
                "rejoin_ns must be 0 (never) or after",
            ),
            ("cqe", "cqe", "not a key=value token"),
            (
                "partition=split:0:0:5000000",
                "partition=split:0:0:5000000",
                "names no PE",
            ),
            (
                "partition=cut:0:0:0:5000000",
                "partition=cut:0:0:0:5000000",
                "two distinct PEs",
            ),
            (
                &five_links,
                "link=hca:0:0:10:0",
                "too many link windows (max 4)",
            ),
            // a machine-build panic in the link model
            (
                "link=hca:0:500000:100000:0",
                "link=hca:0:500000:100000:0",
                "the window is empty",
            ),
            // silent no-ops on hardware outside the pair
            (
                "stall=9:0:5000000:200000",
                "stall=9:0:5000000:200000",
                "node 9 is outside the 2-node job",
            ),
            (
                "stall=0:500000:100000:200000",
                "stall=0:500000:100000:200000",
                "the window is empty",
            ),
            (
                "link=hca:9:0:5000000:0",
                "link=hca:9:0:5000000:0",
                "HCA 9 is outside the job's 4 HCAs",
            ),
            (
                "link=pcie:4:0:5000000:0",
                "link=pcie:4:0:5000000:0",
                "GPU 4 is outside the job's 4 GPUs",
            ),
            (
                "partition=split:255:0:5000000",
                "partition=split:255:0:5000000",
                "outside the 2-PE job",
            ),
            (
                "partition=cut:0:7:0:5000000",
                "partition=cut:0:7:0:5000000",
                "PE 7 is outside the 2-PE job",
            ),
            (
                "gdr-off=4096",
                "gdr-off=4096",
                "a node outside the 2-node job",
            ),
            // plans that ran as a smaller plan
            (
                "partition=split:6:120000:500000",
                "partition=split:6:120000:500000",
                "outside the 2-PE job",
            ),
            (
                "partition=split:3:120000:500000",
                "partition=split:3:120000:500000",
                "no PE on the other side",
            ),
            (
                "crash=1:120000:500000 crash=1:900000",
                "crash=1:900000",
                "PE 1 crashes twice",
            ),
        ] {
            let e = rejection(plan);
            assert_eq!(e.token, token, "{plan}: {e}");
            assert!(e.what.contains(what), "{plan}: {e}");
        }
        // each hardware rule's edge runs: the last HCA, GPU, node and PE
        let edge = "gdr-off=3 link=hca:3:0:10:0 link=pcie:3:0:10:0 link=hca:*:0:10:500 \
                    stall=1:0:10:5 partition=cut:1:0:0:10 partition=split:2:0:10 crash=1:5";
        assert_eq!(FaultPlan::parse(edge).check(&PAIR), Ok(()));
    }

    #[test]
    fn membership_faults_need_a_job_that_holds_their_pes() {
        let e = FaultPlan::default().with_crash(70, 20_000, 0).check(&PAIR);
        assert_eq!(
            e.unwrap_err().to_string(),
            "crash=70:20000: PE 70 is outside the 2-PE job"
        );
        // past the 64-bit mask, aliasing bit 0, and one past the job
        for pe in [64, 2] {
            assert!(FaultPlan::default()
                .with_crash(pe, 1, 0)
                .check(&PAIR)
                .is_err());
        }
        let plan = FaultPlan::default()
            .with_crash(1, 100_000, 800_000)
            .with_crash(3, 200_000, 0);
        let job = |pes| JobShape { pes, ..PAIR };
        assert_eq!(plan.check(&job(8)), Ok(()));
        assert!(plan.check(&job(65)).unwrap_err().what.contains("64-bit"));
        let split = FaultPlan::default().with_partition_split(1, 0, 10);
        assert!(split.check(&job(65)).unwrap_err().what.contains("64-bit"));
        assert_eq!(split.check(&job(64)), Ok(()));
        // without membership faults a job may be any size
        assert_eq!(FaultPlan::default().check(&job(1024)), Ok(()));
    }

    #[test]
    #[should_panic(expected = "expected crash=pe:at_ns[:rejoin_ns]")]
    fn malformed_crash_names_key_and_form() {
        FaultPlan::parse("crash=1:oops");
    }

    #[test]
    fn partition_grammar_round_trips_and_predicates_cover_window() {
        let p = FaultPlan::parse("partition=split:2:100000:600000 partition=cut:0:1:50000:200000");
        assert_eq!(p.partitions.len(), 2);
        assert!(p.active(), "a partition alone makes the plan active");
        // the split covers exactly [start, end)
        assert_eq!(p.split_at(99_999), None);
        assert_eq!(
            p.split_at(100_000)
                .expect("split window must cover its start instant")
                .mask,
            0b10
        );
        assert!(p.split_at(599_999).is_some());
        assert_eq!(p.split_at(600_000), None);
        // the cut is ordered: 0→1 only, inside its window only
        assert!(!p.cut_active(0, 1, 49_999));
        assert!(p.cut_active(0, 1, 50_000));
        assert!(p.cut_active(0, 1, 199_999));
        assert!(!p.cut_active(0, 1, 200_000));
        assert!(!p.cut_active(1, 0, 100_000), "cuts are ordered");
        assert_eq!(FaultPlan::parse(&p.to_string()), p);
        assert_eq!(
            FaultPlan::default()
                .with_partition_split(1, 5, 9)
                .to_string(),
            "seed=1 partition=split:1:5:9"
        );
        assert_eq!(
            FaultPlan::default()
                .with_partition_cut(1, 0, 5, 9)
                .to_string(),
            "seed=1 partition=cut:1:0:5:9"
        );
    }

    #[test]
    #[should_panic(expected = "shape must be split|cut")]
    fn malformed_partition_names_key_and_form() {
        FaultPlan::parse("partition=half:1:2:3");
    }

    #[test]
    fn empty_partition_windows_are_rejected() {
        let e = FaultPlan::default()
            .with_partition_split(1, 7, 7)
            .check(&PAIR);
        let e = e.unwrap_err().to_string();
        assert_eq!(
            e,
            "partition=split:1:7:7: the window is empty (start_ns must be before end_ns)"
        );
    }

    #[test]
    fn generate_with_partitions_is_pure_and_leaves_base_dimensions_alone() {
        let (mut saw_split, mut saw_cut) = (false, false);
        for trial in 0..128 {
            let base = FaultPlan::generate(7, trial);
            let pp = FaultPlan::generate_with_partitions(7, trial);
            assert_eq!(pp, FaultPlan::generate_with_partitions(7, trial), "pure");
            // stripping the partition dimension recovers the base plan exactly
            let mut stripped = pp;
            stripped.partitions = Bounded::default();
            assert_eq!(
                stripped, base,
                "partition draws must not reshuffle other dimensions"
            );
            assert!(
                pp.crashes.is_empty(),
                "partition campaigns do not layer crash churn"
            );
            for f in &pp.partitions {
                match f.kind {
                    PartitionKind::Split => {
                        saw_split = true;
                        assert_eq!(f.mask, 0b10, "generated splits isolate PE 1");
                    }
                    PartitionKind::Cut => {
                        saw_cut = true;
                        assert!(f.a < 2 && f.b < 2 && f.a != f.b);
                    }
                }
                // room for the fence inside the window and the heal
                // merge before the horizon (membership bounds)
                assert!(f.end_ns > f.start_ns + 150_000);
                assert!(f.end_ns + 50_000 <= GEN_HORIZON_NS);
            }
        }
        assert!(saw_split, "128 trials must draw at least one split");
        assert!(saw_cut, "128 trials must draw at least one cut");
    }

    #[test]
    fn draws_are_pure_under_any_call_order() {
        // satellite: identical (seed, stream, counter) triples must
        // yield identical draws regardless of evaluation order or
        // interleaving across posters — the plan holds no hidden state
        let p = FaultPlan::default()
            .with_seed(1234)
            .with_cqe_errors(400)
            .with_late_completions(300, 10_000)
            .with_retry(6, 1_000, 32_000)
            .with_partition_split(0b10, 400, 900)
            .with_partition_cut(0, 1, 1_200, 2_400);
        let streams = [0u64, 1, 7, 3 | SYNC_STREAM];
        let mut forward = Vec::new();
        for &s in &streams {
            for c in 0..32u64 {
                forward.push((
                    p.cqe_fails(s, c),
                    p.completion_late(s, c),
                    p.backoff_ns(c, (c % 6) as u32),
                    p.split_at(c * 100).is_some(),
                    p.cut_active(0, 1, c * 100),
                ));
            }
        }
        // reversed order, interleaved across streams, with unrelated
        // draws injected between every probe
        let mut backward = vec![None; forward.len()];
        for c in (0..32u64).rev() {
            for (si, &s) in streams.iter().enumerate().rev() {
                let _ = p.cqe_fails(s ^ 0xDEAD, c + 1000); // noise draw
                backward[si * 32 + c as usize] = Some((
                    p.cqe_fails(s, c),
                    p.completion_late(s, c),
                    p.backoff_ns(c, (c % 6) as u32),
                    p.split_at(c * 100).is_some(),
                    p.cut_active(0, 1, c * 100),
                ));
                let _ = p.completion_late(s.wrapping_add(9), c); // noise
                let _ = p.cut_active(1, 0, c * 100); // noise probe
            }
        }
        let backward: Vec<_> = backward
            .into_iter()
            .map(|x| x.expect("every (stream, counter) slot was probed in the reversed pass"))
            .collect();
        assert_eq!(forward, backward, "draws must be order-independent");
    }
}
