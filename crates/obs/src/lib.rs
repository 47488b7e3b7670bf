//! Virtual-time tracing and metrics for the simulated OpenSHMEM stack.
//!
//! The runtime is a discrete-event simulation: every interesting moment
//! already has an exact virtual timestamp, so observability here is
//! *deterministic* — two runs of the same program produce byte-identical
//! traces. The subsystem records:
//!
//! * **op spans** — one per `shmem_put`/`get`/atomic/barrier, carrying
//!   the endpoints, memory domains, size, and the protocol that served it;
//! * **protocol-decision records** — for each RMA dispatch, which
//!   [`Protocol`] was chosen, which candidates were considered, and the
//!   threshold values consulted (the paper's §IV tuning knobs);
//! * **pipeline chunk spans** — per-chunk D2H / RDMA / wakeup stages of
//!   the pipelined GDR and proxy designs;
//! * **histograms** — log2-bucketed op latency per (protocol ×
//!   size-class);
//! * **hardware utilization** — bytes and busy-time per HCA TX engine
//!   and per GPU DMA engine, sampled at event granularity.
//!
//! Export formats: Chrome `trace_event` JSON ([`Recorder::chrome_trace`],
//! load in `chrome://tracing` / Perfetto; one "thread" per PE and per
//! hardware agent, timestamps in virtual microseconds) and a plain-text
//! summary ([`Recorder::summary`]).
//!
//! The level switch is [`ObsLevel`]: `Off` (default; the hot path is a
//! single relaxed atomic load and no allocation), `Counters` (histograms
//! and utilization counters), `Spans` (everything).
//!

pub mod chrome;
pub mod hist;
pub mod json;
pub mod plan;
pub mod thresholds;
pub mod window;

pub use hist::{Hist, Sketch};
pub use plan::Limits;
pub use thresholds::ThresholdTable;
pub use window::{SloParseError, SloPolicy, SloViolation, WindowSnap};

use parking_lot::Mutex;
use sim_core::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Callback invoked on every provisional SLO violation as the run's
/// feed watermark closes windows (see [`Recorder::set_violation_hook`]).
pub type SloHook = Box<dyn Fn(&SloViolation) + Send + Sync>;

/// How much the recorder captures. Order matters: each level is a
/// superset of the previous one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Record nothing; hot paths stay allocation-free.
    #[default]
    Off,
    /// Histograms, engine counters and hardware utilization only.
    Counters,
    /// Everything: counters plus per-op spans, decision records and
    /// pipeline chunk spans.
    Spans,
}

impl ObsLevel {
    /// Parse `"off"` / `"counters"` / `"spans"` (case-insensitive).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ObsLevel::Off),
            "counters" | "1" => Some(ObsLevel::Counters),
            "spans" | "2" | "full" | "trace" => Some(ObsLevel::Spans),
            _ => None,
        }
    }

    /// Read the `GDR_SHMEM_OBS` environment variable; unset or
    /// unrecognized values mean [`ObsLevel::Off`].
    pub fn from_env() -> ObsLevel {
        std::env::var("GDR_SHMEM_OBS")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or(ObsLevel::Off)
    }

    pub fn counters_on(self) -> bool {
        self >= ObsLevel::Counters
    }

    pub fn spans_on(self) -> bool {
        self >= ObsLevel::Spans
    }
}

/// Which logical agent a track belongs to. Tracks are exported sorted
/// by `(kind, index)` so registration order never shows in the output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrackKind {
    /// One per processing element (`pe/N`).
    Pe,
    /// One per node's proxy service thread (`proxy/N`).
    Proxy,
    /// One per HCA TX engine (`hca/N`).
    Hca,
    /// One per GPU's DMA/copy engines (`gpu-dma/N`).
    GpuDma,
    /// The event engine itself (`engine`).
    Engine,
    /// One per individual interconnect link (PCIe h2d/d2h/d2d/p2p
    /// directions, IB TX wire) — named tracks carrying per-reservation
    /// utilization samples. Declared last so link tracks sort after all
    /// agent tracks in the export.
    Link,
}

impl TrackKind {
    fn prefix(self) -> &'static str {
        match self {
            TrackKind::Pe => "pe",
            TrackKind::Proxy => "proxy",
            TrackKind::Hca => "hca",
            TrackKind::GpuDma => "gpu-dma",
            TrackKind::Engine => "engine",
            TrackKind::Link => "link",
        }
    }
}

/// Handle to a registered track; cheap to copy, stable for the life of
/// the recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackId(u32);

/// Fixed-capacity candidate list for a decision record (no allocation
/// on the record path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cands {
    items: [&'static str; Decision::MAX],
    len: u8,
}

impl Cands {
    pub fn push(&mut self, name: &'static str) {
        if (self.len as usize) < Decision::MAX {
            self.items[self.len as usize] = name;
            self.len += 1;
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.items[..self.len as usize].iter().copied()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.iter().any(|c| c == name)
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl FromIterator<&'static str> for Cands {
    fn from_iter<I: IntoIterator<Item = &'static str>>(it: I) -> Cands {
        let mut c = Cands::default();
        for n in it {
            c.push(n);
        }
        c
    }
}

/// Fixed-capacity list of `(threshold-name, value)` pairs consulted by
/// a protocol dispatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Thresholds {
    items: [(&'static str, u64); Decision::MAX],
    len: u8,
}

impl Thresholds {
    pub fn push(&mut self, name: &'static str, value: u64) {
        if (self.len as usize) < Decision::MAX {
            self.items[self.len as usize] = (name, value);
            self.len += 1;
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.items[..self.len as usize].iter().copied()
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One protocol-dispatch decision: what was asked for, what was
/// considered, what won.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Decision {
    /// `"put"`, `"get"`, `"atomic"`, ...
    pub op: &'static str,
    pub size: u64,
    pub src_pe: u32,
    pub dst_pe: u32,
    /// Source buffer lives in device memory.
    pub src_dev: bool,
    /// Destination buffer lives in device memory.
    pub dst_dev: bool,
    pub same_node: bool,
    /// `Protocol::name()` of the winner.
    pub chosen: &'static str,
    pub candidates: Cands,
    pub thresholds: Thresholds,
    /// Per-op correlation id ([`Payload::Op`]'s `op_id`; `0` when the
    /// decision is uncorrelated).
    pub op_id: u64,
    /// Log2 size class of `size` ([`hist::bucket_index`]); the key the
    /// quantile sketches and crossover profiler bin by.
    pub size_class: u8,
    /// Socket relation of the device end of the transfer relative to the
    /// HCA that would service it: `"intra-socket"`, `"inter-socket"`, or
    /// `"host"` when no device memory is involved (paper Table III).
    pub socket_rel: &'static str,
    /// Where the consulted threshold values came from: `"builtin"` for
    /// the compiled-in tuned table, `"thresholds-v1"` when a
    /// [`ThresholdTable`] artifact was loaded into the config.
    pub tsource: &'static str,
}

impl Decision {
    /// Capacity of the candidate / threshold lists.
    pub const MAX: usize = 4;
}

/// Structured, fixed-size payload attached to an event. `&'static str`
/// fields keep the record path allocation-free.
// `Decision` carries fixed-capacity candidate/threshold arrays inline
// for the same reason — boxing it would put an allocation on the
// dispatch hot path, which costs more than the per-event bytes here.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    None,
    /// A completed RMA/sync operation (span on a PE track). `op_id` is
    /// the per-op correlation id tying the span to its chunk stages and
    /// flow events (`0` for uncorrelated spans such as barriers).
    Op {
        op: &'static str,
        protocol: &'static str,
        size: u64,
        src_pe: u32,
        dst_pe: u32,
        src_dev: bool,
        dst_dev: bool,
        same_node: bool,
        op_id: u64,
    },
    /// A protocol-dispatch decision (instant on a PE track).
    Decision(Decision),
    /// One pipeline-chunk stage (span on a PE/proxy track), correlated
    /// to its originating op by `op_id`.
    Chunk {
        protocol: &'static str,
        stage: &'static str,
        index: u32,
        size: u64,
        op_id: u64,
    },
    /// Proxy service-thread activity (span on a proxy track).
    Proxy {
        kind: &'static str,
        size: u64,
        origin_pe: u32,
    },
    /// A hardware transfer occupying an engine (span on a HW track).
    Xfer { size: u64 },
    /// Cumulative byte count on a hardware track (Chrome counter sample).
    Bytes { bytes: u64, total: u64 },
    /// Origin end of a flow arrow (Chrome `"s"` event): emitted on the
    /// initiating PE's track when an op starts.
    FlowStart { id: u64 },
    /// Terminating end of a flow arrow (Chrome `"f"` event): emitted on
    /// the track where the op's payload finally completed.
    FlowEnd { id: u64 },
    /// Per-link utilization sample (Chrome counter sample on a
    /// [`TrackKind::Link`] track): cumulative bytes and busy time plus
    /// the instantaneous queue depth at the reservation's start.
    LinkSample { total: u64, busy_ps: u64, queue: u32 },
    /// An injected fault detected on an op's service path (instant on
    /// the servicing track): `kind` names the anomaly
    /// (`"cqe-flush-err"`, `"cqe-retry-exceeded"`, `"op-timeout"`, ...).
    Fault {
        kind: &'static str,
        protocol: &'static str,
        op_id: u64,
    },
    /// One bounded-backoff retry after a transient fault (instant):
    /// `attempt` is 1-based, `backoff_ns` the virtual-time delay paid
    /// before this attempt.
    Retry {
        protocol: &'static str,
        attempt: u32,
        backoff_ns: u64,
        op_id: u64,
    },
    /// A fallback protocol decision (instant): the op re-routed from
    /// `from` to `to` because of a persistent or capability fault.
    Fallback {
        op: &'static str,
        from: &'static str,
        to: &'static str,
        op_id: u64,
    },
    /// A chunked transfer gave up part-way (instant on the origin PE
    /// track): `delivered` of `total` bytes landed before per-chunk
    /// retries exhausted; the op surfaced
    /// `TransferError::PartialDelivery`.
    PartialDelivery {
        protocol: &'static str,
        delivered: u64,
        total: u64,
        op_id: u64,
    },
    /// A health-breaker event (instant on the acting PE's track): the
    /// instant's *name* is the transition — `"demote"` (circuit opened,
    /// protocol routed around), `"probe"` (half-open trial admitted
    /// after cooldown) or `"promote"` (circuit closed again). `op_id`
    /// correlates to the op whose draw triggered the transition.
    Health {
        protocol: &'static str,
        op_id: u64,
    },
    /// A membership lifecycle event (instant on the affected PE's
    /// track): the instant's *name* is the transition — `"pe-dead"`
    /// (crash instant), `"evict"` / `"view-change"` (lease-expiry
    /// detection applies the epoch bump) or `"rejoin"` (the PE is
    /// re-admitted for point-to-point traffic). `epoch` is the view
    /// epoch in force right after the transition.
    Member { pe: u32, epoch: u64 },
}

/// One recorded event. `dur == 0` renders as an instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub ts: SimTime,
    pub dur: SimDuration,
    pub name: &'static str,
    pub payload: Payload,
}

struct Track {
    kind: TrackKind,
    index: u32,
    name: String,
    events: Vec<Event>,
}

/// Accumulated utilization for one hardware agent.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentCounters {
    pub ops: u64,
    pub bytes: u64,
    pub busy: SimDuration,
}

#[derive(Default)]
struct Tables {
    tracks: Vec<Track>,
    by_key: BTreeMap<(TrackKind, u32), u32>,
}

/// The event/metric store. Created once per [`ShmemMachine`] and shared
/// (via [`Sink`]) with the hardware layers. All methods are safe to
/// call from PE threads and from engine callbacks.
///
/// [`ShmemMachine`]: ../shmem_gdr/machine/struct.ShmemMachine.html
pub struct Recorder {
    level: ObsLevel,
    /// Span-sampling factor: op-correlated span data (op spans, decision
    /// records, flows, chunk spans) is recorded for 1 in `sample` ops
    /// per PE. Counters and histograms stay exact regardless.
    sample: u64,
    tables: Mutex<Tables>,
    hists: Mutex<BTreeMap<(&'static str, u8), Hist>>,
    /// Quantile sketches keyed `(op, protocol, size-class)` — the
    /// tail-latency (p50/p99/p999) substrate. Exact like the
    /// histograms: active from [`ObsLevel::Counters`] up, never
    /// sampled.
    sketches: Mutex<BTreeMap<(&'static str, &'static str, u8), hist::Sketch>>,
    agents: Mutex<BTreeMap<(TrackKind, u32), AgentCounters>>,
    /// Exact fault-machinery counters keyed `(what, protocol)` where
    /// `what` is `"injected"`, `"retried"`, `"recovered"`,
    /// `"exhausted"`, `"fallback"`, — for event-context chunk posts —
    /// `"chunk-retried"`, `"chunk-recovered"`, `"partial"`,
    /// `"proxy-restart"`, or — for the health breaker — `"demote"`,
    /// `"probe"` and `"promote"`. Active from [`ObsLevel::Counters`]
    /// up, never sampled.
    faults: Mutex<BTreeMap<(&'static str, &'static str), u64>>,
    /// The windowed metrics plane (`None` unless constructed with
    /// [`Recorder::with_windows`]): per-window latency/link/fault
    /// rollups and the SLO watchdog state. Feeds go through the
    /// `*_at` method variants, which carry the virtual timestamp the
    /// whole-run aggregates don't need.
    windows: Mutex<Option<window::WindowPlane>>,
    /// In-run SLO violation hook (the health-breaker bridge). Fired
    /// *after* the windows lock is released, so the hook may call any
    /// recorder method except the `*_at` feeders.
    slo_hook: Mutex<Option<SloHook>>,
    /// Cheap predicate mirroring `slo_hook.is_some()` so the feed path
    /// skips provisional window evaluation when nobody listens.
    has_hook: AtomicBool,
}

impl Recorder {
    pub fn new(level: ObsLevel) -> Arc<Recorder> {
        Self::with_sample(level, 1)
    }

    /// As [`Recorder::new`] with a span-sampling factor: op-correlated
    /// spans are recorded for 1 in `sample` ops (deterministically, by
    /// per-PE op sequence number). `sample <= 1` records everything.
    pub fn with_sample(level: ObsLevel, sample: u64) -> Arc<Recorder> {
        Arc::new(Recorder {
            level,
            sample: sample.max(1),
            tables: Mutex::new(Tables::default()),
            hists: Mutex::new(BTreeMap::new()),
            sketches: Mutex::new(BTreeMap::new()),
            agents: Mutex::new(BTreeMap::new()),
            faults: Mutex::new(BTreeMap::new()),
            windows: Mutex::new(None),
            slo_hook: Mutex::new(None),
            has_hook: AtomicBool::new(false),
        })
    }

    /// As [`Recorder::with_sample`] with the windowed metrics plane
    /// armed: `window_us > 0` (at [`ObsLevel::Counters`] up) rolls
    /// latency sketches, link utilization and fault/health tallies per
    /// `window_us`-wide virtual-time window, and the Chrome export
    /// gains a `metrics` track of `window-snapshot` (and, with an
    /// [`SloPolicy`] set, `slo-violation`) instants. `window_us == 0`
    /// behaves exactly like [`Recorder::with_sample`].
    pub fn with_windows(level: ObsLevel, sample: u64, window_us: u32) -> Arc<Recorder> {
        let r = Self::with_sample(level, sample);
        if window_us > 0 && level.counters_on() {
            *r.windows.lock() = Some(window::WindowPlane::new(window_us));
        }
        r
    }

    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// The span-sampling factor (1 = record every op).
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// Deterministic 1-in-N sampling predicate on a per-PE op sequence
    /// number.
    pub fn op_sampled(&self, seq: u64) -> bool {
        self.sample <= 1 || seq.is_multiple_of(self.sample)
    }

    pub fn counters_on(&self) -> bool {
        self.level.counters_on()
    }

    pub fn spans_on(&self) -> bool {
        self.level.spans_on()
    }

    /// Whether the windowed metrics plane is armed.
    pub fn windowing_on(&self) -> bool {
        self.windows.lock().is_some()
    }

    /// Install (replace) the SLO policy evaluated at each window close.
    /// A no-op unless the plane is armed ([`Recorder::with_windows`]).
    pub fn set_slo(&self, policy: SloPolicy) {
        if let Some(p) = self.windows.lock().as_mut() {
            p.set_policy(policy);
        }
    }

    /// Register the in-run SLO violation hook. It fires once per
    /// violation when the feed watermark crosses a window boundary —
    /// a *provisional* evaluation; the exported snapshot is the exact
    /// final rollup and may differ for windows that received late
    /// samples. The hook must not call the recorder's `*_at` feeders
    /// (anything else is fine).
    pub fn set_violation_hook(&self, hook: SloHook) {
        *self.slo_hook.lock() = Some(hook);
        self.has_hook.store(true, Ordering::Relaxed);
    }

    /// The exact per-window rollup (empty when the plane is off).
    pub fn window_report(&self) -> Vec<WindowSnap> {
        self.windows.lock().as_ref().map(|p| p.report()).unwrap_or_default()
    }

    /// Run `f` against the window plane (if armed), then fire the
    /// violation hook for whatever provisional closures `f` returned —
    /// with the windows lock already released, so the hook can safely
    /// re-enter the recorder's counter paths.
    fn feed_window(&self, f: impl FnOnce(&mut window::WindowPlane, bool) -> Vec<SloViolation>) {
        let eval = self.has_hook.load(Ordering::Relaxed);
        let provisional = {
            let mut g = self.windows.lock();
            match g.as_mut() {
                Some(p) => f(p, eval),
                None => return,
            }
        };
        if provisional.is_empty() {
            return;
        }
        let hook = self.slo_hook.lock();
        if let Some(h) = hook.as_ref() {
            for v in &provisional {
                h(v);
            }
        }
    }

    /// Register (or look up) the track for `(kind, index)`.
    pub fn track(&self, kind: TrackKind, index: u32) -> TrackId {
        let mut t = self.tables.lock();
        if let Some(&id) = t.by_key.get(&(kind, index)) {
            return TrackId(id);
        }
        let id = t.tracks.len() as u32;
        let name = if kind == TrackKind::Engine {
            "engine".to_string()
        } else {
            format!("{}/{}", kind.prefix(), index)
        };
        t.tracks.push(Track {
            kind,
            index,
            name,
            events: Vec::new(),
        });
        t.by_key.insert((kind, index), id);
        TrackId(id)
    }

    /// As [`Recorder::track`] with an explicit human-readable name (used
    /// for link tracks, whose identity — `pcie/gpu0/h2d`, `ib/hca1/tx` —
    /// is not derivable from `(kind, index)` alone). The name of the
    /// first registration wins.
    pub fn track_named(&self, kind: TrackKind, index: u32, name: &str) -> TrackId {
        let mut t = self.tables.lock();
        if let Some(&id) = t.by_key.get(&(kind, index)) {
            return TrackId(id);
        }
        let id = t.tracks.len() as u32;
        t.tracks.push(Track {
            kind,
            index,
            name: name.to_string(),
            events: Vec::new(),
        });
        t.by_key.insert((kind, index), id);
        TrackId(id)
    }

    /// Record a span `[start, end)`; only at [`ObsLevel::Spans`].
    pub fn span(&self, track: TrackId, name: &'static str, start: SimTime, end: SimTime, payload: Payload) {
        if !self.spans_on() {
            return;
        }
        self.push(
            track,
            Event {
                ts: start,
                dur: end.since(start),
                name,
                payload,
            },
        );
    }

    /// Record an instant event; only at [`ObsLevel::Spans`].
    pub fn instant(&self, track: TrackId, name: &'static str, ts: SimTime, payload: Payload) {
        if !self.spans_on() {
            return;
        }
        self.push(
            track,
            Event {
                ts,
                dur: SimDuration::ZERO,
                name,
                payload,
            },
        );
    }

    /// Record a protocol-dispatch decision on `track`.
    pub fn decision(&self, track: TrackId, ts: SimTime, d: Decision) {
        self.instant(track, "protocol-decision", ts, Payload::Decision(d));
    }

    fn push(&self, track: TrackId, ev: Event) {
        let mut t = self.tables.lock();
        t.tracks[track.0 as usize].events.push(ev);
    }

    /// Feed an op latency into the per-(protocol × size-class)
    /// histogram; active from [`ObsLevel::Counters`] up.
    pub fn latency(&self, protocol: &'static str, size: u64, dur: SimDuration) {
        if !self.counters_on() {
            return;
        }
        let class = hist::bucket_index(size) as u8;
        self.hists
            .lock()
            .entry((protocol, class))
            .or_default()
            .record(dur.as_ps());
    }

    /// As [`Recorder::latency`], additionally feeding the
    /// per-(op × protocol × size-class) quantile sketch; active from
    /// [`ObsLevel::Counters`] up.
    pub fn op_latency(&self, op: &'static str, protocol: &'static str, size: u64, dur: SimDuration) {
        if !self.counters_on() {
            return;
        }
        let class = hist::bucket_index(size) as u8;
        let ps = dur.as_ps();
        self.hists.lock().entry((protocol, class)).or_default().record(ps);
        self.sketches
            .lock()
            .entry((op, protocol, class))
            .or_default()
            .record(ps);
    }

    /// As [`Recorder::op_latency`], additionally feeding the windowed
    /// metrics plane with the op's completion instant `end` (the
    /// window an op belongs to is the one it *finished* in).
    pub fn op_latency_at(
        &self,
        op: &'static str,
        protocol: &'static str,
        size: u64,
        dur: SimDuration,
        end: SimTime,
    ) {
        if !self.counters_on() {
            return;
        }
        self.op_latency(op, protocol, size, dur);
        let class = hist::bucket_index(size) as u8;
        self.feed_window(|p, eval| p.feed_latency(op, protocol, class, dur.as_ps(), end.as_ps(), eval));
    }

    /// Account `bytes` moved (busy for `busy`) on hardware agent
    /// `(kind, index)`; active from [`ObsLevel::Counters`] up. At
    /// [`ObsLevel::Spans`] it also emits a cumulative-bytes counter
    /// sample at `ts` on the agent's track.
    pub fn agent_bytes(&self, kind: TrackKind, index: u32, ts: SimTime, bytes: u64, busy: SimDuration) {
        if !self.counters_on() {
            return;
        }
        let total = {
            let mut a = self.agents.lock();
            let c = a.entry((kind, index)).or_default();
            c.ops += 1;
            c.bytes += bytes;
            c.busy += busy;
            c.bytes
        };
        if self.spans_on() {
            let track = self.track(kind, index);
            self.push(
                track,
                Event {
                    ts,
                    dur: SimDuration::ZERO,
                    name: "bytes",
                    payload: Payload::Bytes { bytes, total },
                },
            );
        }
    }

    /// Per-link utilization sample, fed from a [`sim_core::Link`]
    /// observer. Exact byte/busy/reservation counters accumulate from
    /// [`ObsLevel::Counters`] up (never sampled); at [`ObsLevel::Spans`]
    /// it also emits a counter sample on the link's named track.
    pub fn link_sample(&self, index: u32, name: &str, ev: &sim_core::LinkEvent) {
        if !self.counters_on() {
            return;
        }
        {
            let mut a = self.agents.lock();
            let c = a.entry((TrackKind::Link, index)).or_default();
            c.ops += 1;
            c.bytes += ev.bytes;
            c.busy += ev.depart.since(ev.start);
        }
        self.feed_window(|p, eval| {
            p.feed_link(
                index,
                name,
                ev.start.as_ps(),
                ev.bytes,
                ev.depart.since(ev.start).as_ps(),
                ev.queue_depth,
                eval,
            )
        });
        if self.spans_on() {
            let track = self.track_named(TrackKind::Link, index, name);
            self.push(
                track,
                Event {
                    ts: ev.start,
                    dur: SimDuration::ZERO,
                    name: "link",
                    payload: Payload::LinkSample {
                        total: ev.bytes_total,
                        busy_ps: ev.busy_total.as_ps(),
                        queue: ev.queue_depth,
                    },
                },
            );
        }
    }

    /// Bump the exact fault counter `(what, protocol)`; active from
    /// [`ObsLevel::Counters`] up. `what` is one of `"injected"`,
    /// `"retried"`, `"recovered"`, `"exhausted"`, `"fallback"`,
    /// `"chunk-retried"`, `"chunk-recovered"`, `"partial"`,
    /// `"proxy-restart"`, `"demote"`, `"probe"`, `"promote"`.
    pub fn fault_tally(&self, what: &'static str, protocol: &'static str) {
        if !self.counters_on() {
            return;
        }
        *self.faults.lock().entry((what, protocol)).or_insert(0) += 1;
    }

    /// As [`Recorder::fault_tally`], additionally feeding the windowed
    /// metrics plane with the tally's virtual instant `ts`.
    pub fn fault_tally_at(&self, what: &'static str, protocol: &'static str, ts: SimTime) {
        if !self.counters_on() {
            return;
        }
        self.fault_tally(what, protocol);
        self.feed_window(|p, eval| p.feed_fault(what, protocol, ts.as_ps(), eval));
    }

    /// Snapshot of the fault counters, keyed `(what, protocol)`.
    pub fn fault_counters(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        self.faults.lock().clone()
    }

    /// Snapshot the events of one track (test/inspection helper).
    pub fn events_of(&self, kind: TrackKind, index: u32) -> Vec<Event> {
        let t = self.tables.lock();
        t.by_key
            .get(&(kind, index))
            .map(|&id| t.tracks[id as usize].events.clone())
            .unwrap_or_default()
    }

    /// Visit every event of every track in deterministic `(kind, index)`
    /// order.
    pub fn for_each_event(&self, mut f: impl FnMut(TrackKind, u32, &Event)) {
        let t = self.tables.lock();
        let mut order: Vec<&Track> = t.tracks.iter().collect();
        order.sort_by_key(|tr| (tr.kind, tr.index));
        for tr in order {
            for ev in &tr.events {
                f(tr.kind, tr.index, ev);
            }
        }
    }

    /// Total number of recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tables.lock().tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Number of protocol-decision records across all tracks.
    pub fn decision_count(&self) -> usize {
        let t = self.tables.lock();
        t.tracks
            .iter()
            .flat_map(|tr| tr.events.iter())
            .filter(|e| matches!(e.payload, Payload::Decision(_)))
            .count()
    }

    /// Snapshot of the latency histograms, keyed by
    /// `(protocol, size-class)` where the class is the log2 bucket index
    /// of the op size ([`hist::bucket_index`]).
    pub fn histograms(&self) -> BTreeMap<(&'static str, u8), Hist> {
        self.hists.lock().clone()
    }

    /// Snapshot of the quantile sketches, keyed by
    /// `(op, protocol, size-class)`.
    pub fn quantile_sketches(&self) -> BTreeMap<(&'static str, &'static str, u8), hist::Sketch> {
        self.sketches.lock().clone()
    }

    /// Snapshot of the hardware utilization counters.
    pub fn agent_counters(&self) -> BTreeMap<(TrackKind, u32), AgentCounters> {
        self.agents.lock().clone()
    }

    /// Export everything as Chrome `trace_event` JSON. With the
    /// windowed plane armed, a synthetic `metrics` track carries one
    /// `window-snapshot` instant per non-empty window (at the window's
    /// closing edge) followed by its `slo-violation` instants.
    pub fn chrome_trace(&self) -> String {
        let mut metrics = Vec::new();
        for snap in self.window_report() {
            metrics.push(chrome::MetricEvent {
                ts_ps: snap.end_ps,
                name: "window-snapshot",
                args: snap.args_json(),
            });
            for v in &snap.violations {
                metrics.push(chrome::MetricEvent {
                    ts_ps: v.ts_ps,
                    name: "slo-violation",
                    args: v.args_json(),
                });
            }
        }
        let t = self.tables.lock();
        let mut order: Vec<&Track> = t.tracks.iter().collect();
        order.sort_by_key(|tr| (tr.kind, tr.index));
        chrome::export_with_metrics(
            &order.iter().map(|tr| (tr.name.as_str(), &tr.events[..])).collect::<Vec<_>>(),
            &metrics,
        )
    }

    /// Plain-text summary: histograms and hardware utilization.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== observability summary (level {:?}) ==", self.level);
        let hists = self.hists.lock();
        if !hists.is_empty() {
            let _ = writeln!(out, "-- op latency by (protocol, size-class) --");
            for ((proto, class), h) in hists.iter() {
                let _ = writeln!(
                    out,
                    "{proto:<18} {:<14} n={:<6} min={} p50~{} max={}",
                    hist::size_class_label(*class),
                    h.count,
                    SimDuration::from_ps(h.min()),
                    SimDuration::from_ps(h.approx_median()),
                    SimDuration::from_ps(h.max()),
                );
            }
        }
        let sketches = self.sketches.lock();
        if !sketches.is_empty() {
            let _ = writeln!(out, "-- op latency quantiles (op, protocol, size-class) --");
            for ((op, proto, class), s) in sketches.iter() {
                let _ = writeln!(
                    out,
                    "{op:<10} {proto:<18} {:<14} n={:<6} p50={} p99={} p999={}",
                    hist::size_class_label(*class),
                    s.count,
                    SimDuration::from_ps(s.p50()),
                    SimDuration::from_ps(s.p99()),
                    SimDuration::from_ps(s.p999()),
                );
            }
        }
        let agents = self.agents.lock();
        if !agents.is_empty() {
            let _ = writeln!(out, "-- hardware utilization --");
            for ((kind, idx), c) in agents.iter() {
                let _ = writeln!(
                    out,
                    "{}/{idx:<4} ops={:<7} bytes={:<12} busy={}",
                    kind.prefix(),
                    c.ops,
                    c.bytes,
                    c.busy
                );
            }
        }
        let faults = self.faults.lock();
        if !faults.is_empty() {
            let _ = writeln!(out, "-- fault machinery --");
            for ((what, proto), n) in faults.iter() {
                let _ = writeln!(out, "{what:<10} {proto:<20} {n}");
            }
        }
        let n = self.event_count();
        if n > 0 {
            let _ = writeln!(out, "-- {n} events on {} tracks --", self.tables.lock().tracks.len());
        }
        out
    }
}

/// A late-bound, cloneable handle hardware layers hold so a machine can
/// attach its [`Recorder`] after construction. Unattached (or attached
/// at [`ObsLevel::Off`]) the per-event cost is one atomic load.
#[derive(Clone, Default)]
pub struct Sink {
    inner: Arc<OnceLock<Arc<Recorder>>>,
}

impl Sink {
    pub fn new() -> Sink {
        Sink::default()
    }

    /// Attach a recorder. The first attach wins; later calls are no-ops
    /// (a machine attaches exactly once, at build time).
    pub fn attach(&self, rec: Arc<Recorder>) {
        let _ = self.inner.set(rec);
    }

    /// The recorder, if one is attached and recording at all.
    pub fn get(&self) -> Option<&Recorder> {
        self.inner
            .get()
            .map(|r| r.as_ref())
            .filter(|r| r.level() != ObsLevel::Off)
    }

    /// The recorder, if counters (or more) are being collected.
    pub fn counters(&self) -> Option<&Recorder> {
        self.get().filter(|r| r.counters_on())
    }

    /// The recorder, if full span recording is on.
    pub fn spans(&self) -> Option<&Recorder> {
        self.get().filter(|r| r.spans_on())
    }
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.get() {
            Some(r) => write!(f, "Sink({:?})", r.level()),
            None => write!(f, "Sink(unattached)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_order_and_parse() {
        assert!(ObsLevel::Spans > ObsLevel::Counters);
        assert!(ObsLevel::Counters > ObsLevel::Off);
        assert_eq!(ObsLevel::parse("SPANS"), Some(ObsLevel::Spans));
        assert_eq!(ObsLevel::parse("counters"), Some(ObsLevel::Counters));
        assert_eq!(ObsLevel::parse("off"), Some(ObsLevel::Off));
        assert_eq!(ObsLevel::parse("bogus"), None);
    }

    #[test]
    fn off_records_nothing() {
        let r = Recorder::new(ObsLevel::Off);
        let t = r.track(TrackKind::Pe, 0);
        r.span(t, "put", SimTime::ZERO, SimTime::ZERO + SimDuration::from_us(1), Payload::None);
        r.latency("direct-gdr", 8, SimDuration::from_us(1));
        r.agent_bytes(TrackKind::Hca, 0, SimTime::ZERO, 64, SimDuration::from_us(1));
        assert_eq!(r.event_count(), 0);
        assert!(r.histograms().is_empty());
        assert!(r.agent_counters().is_empty());
    }

    #[test]
    fn counters_level_skips_spans_but_keeps_metrics() {
        let r = Recorder::new(ObsLevel::Counters);
        let t = r.track(TrackKind::Pe, 0);
        r.span(t, "put", SimTime::ZERO, SimTime::ZERO + SimDuration::from_us(1), Payload::None);
        r.latency("direct-gdr", 8, SimDuration::from_us(1));
        r.agent_bytes(TrackKind::Hca, 0, SimTime::ZERO, 64, SimDuration::from_us(1));
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.histograms().len(), 1);
        assert_eq!(r.agent_counters()[&(TrackKind::Hca, 0)].bytes, 64);
    }

    #[test]
    fn op_latency_fills_hists_and_sketches() {
        let off = Recorder::new(ObsLevel::Off);
        off.op_latency("put", "direct-gdr", 64, SimDuration::from_us(1));
        assert!(off.quantile_sketches().is_empty());

        let c = Recorder::new(ObsLevel::Counters);
        c.op_latency("put", "direct-gdr", 64, SimDuration::from_us(1));
        c.op_latency("put", "direct-gdr", 64, SimDuration::from_us(3));
        c.op_latency("get", "direct-gdr", 64, SimDuration::from_us(2));
        assert_eq!(c.histograms().len(), 1, "hists key on (protocol, class)");
        let sk = c.quantile_sketches();
        assert_eq!(sk.len(), 2, "sketches key on (op, protocol, class)");
        let put = &sk[&("put", "direct-gdr", hist::bucket_index(64) as u8)];
        assert_eq!(put.count, 2);
        assert!(put.p99() >= put.p50());
        assert!(c.summary().contains("p999="));
    }

    #[test]
    fn sink_is_inert_until_attached() {
        let s = Sink::new();
        assert!(s.get().is_none());
        s.attach(Recorder::new(ObsLevel::Off));
        assert!(s.get().is_none(), "Off attach stays inert");
        let s2 = Sink::new();
        s2.attach(Recorder::new(ObsLevel::Spans));
        assert!(s2.spans().is_some());
    }

    #[test]
    fn decision_records_are_counted() {
        let r = Recorder::new(ObsLevel::Spans);
        let t = r.track(TrackKind::Pe, 3);
        let mut d = Decision {
            op: "put",
            size: 4096,
            src_pe: 3,
            dst_pe: 1,
            src_dev: true,
            dst_dev: true,
            same_node: false,
            chosen: "pipeline-gdr-write",
            ..Default::default()
        };
        d.candidates.push("direct-gdr");
        d.candidates.push("pipeline-gdr-write");
        d.thresholds.push("gdr_put_limit", 2048);
        r.decision(t, SimTime::ZERO, d);
        assert_eq!(r.decision_count(), 1);
        assert!(d.candidates.contains("direct-gdr"));
        assert_eq!(d.thresholds.iter().next(), Some(("gdr_put_limit", 2048)));
    }

    #[test]
    fn sampling_predicate_is_deterministic_one_in_n() {
        let r = Recorder::with_sample(ObsLevel::Spans, 4);
        assert_eq!(r.sample(), 4);
        let picks: Vec<bool> = (0..8).map(|s| r.op_sampled(s)).collect();
        assert_eq!(picks, [true, false, false, false, true, false, false, false]);
        let r1 = Recorder::new(ObsLevel::Spans);
        assert!((0..100).all(|s| r1.op_sampled(s)), "sample=1 records every op");
    }

    #[test]
    fn link_samples_keep_exact_counters_and_span_gating() {
        let ev = sim_core::LinkEvent {
            start: SimTime::ZERO,
            depart: SimTime::ZERO + SimDuration::from_us(3),
            arrive: SimTime::ZERO + SimDuration::from_us(4),
            bytes: 1000,
            queue_depth: 2,
            bytes_total: 5000,
            busy_total: SimDuration::from_us(9),
        };
        let c = Recorder::new(ObsLevel::Counters);
        c.link_sample(7, "pcie/gpu0/h2d", &ev);
        let agg = c.agent_counters()[&(TrackKind::Link, 7)];
        assert_eq!((agg.ops, agg.bytes), (1, 1000));
        assert_eq!(agg.busy, SimDuration::from_us(3));
        assert_eq!(c.event_count(), 0, "no events below Spans");

        let s = Recorder::new(ObsLevel::Spans);
        s.link_sample(7, "pcie/gpu0/h2d", &ev);
        assert_eq!(s.event_count(), 1);
        let got = s.events_of(TrackKind::Link, 7);
        assert_eq!(
            got[0].payload,
            Payload::LinkSample { total: 5000, busy_ps: 9_000_000, queue: 2 }
        );
    }

    #[test]
    fn fault_counters_are_exact_and_level_gated() {
        let off = Recorder::new(ObsLevel::Off);
        off.fault_tally("injected", "direct-gdr");
        assert!(off.fault_counters().is_empty());

        let c = Recorder::new(ObsLevel::Counters);
        c.fault_tally("injected", "direct-gdr");
        c.fault_tally("injected", "direct-gdr");
        c.fault_tally("recovered", "direct-gdr");
        c.fault_tally("fallback", "pipeline-gdr-write");
        let f = c.fault_counters();
        assert_eq!(f[&("injected", "direct-gdr")], 2);
        assert_eq!(f[&("recovered", "direct-gdr")], 1);
        assert_eq!(f[&("fallback", "pipeline-gdr-write")], 1);
        assert!(c.summary().contains("fault machinery"));
    }

    #[test]
    fn tracks_export_sorted_by_kind_then_index() {
        let r = Recorder::new(ObsLevel::Spans);
        // register out of order
        let h = r.track(TrackKind::Hca, 1);
        let p1 = r.track(TrackKind::Pe, 1);
        let p0 = r.track(TrackKind::Pe, 0);
        for t in [h, p1, p0] {
            r.instant(t, "x", SimTime::ZERO, Payload::None);
        }
        let mut seen = Vec::new();
        r.for_each_event(|k, i, _| seen.push((k, i)));
        assert_eq!(
            seen,
            vec![(TrackKind::Pe, 0), (TrackKind::Pe, 1), (TrackKind::Hca, 1)]
        );
    }
}
