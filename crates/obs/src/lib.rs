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
//!   [`Protocol`](plan::Protocol) was chosen, which candidates were
//!   considered, and the threshold values consulted (the paper's §IV
//!   tuning knobs);
//! * **pipeline chunk spans** — per-chunk D2H / RDMA / wakeup stages of
//!   the pipelined GDR and proxy designs;
//! * **latency quantile sketches** — op latency per (op × protocol ×
//!   size-class), with exact count, min and max;
//! * **hardware utilization** — bytes and busy-time per HCA TX engine
//!   and per GPU DMA engine, sampled at event granularity.
//!
//! Export formats: Chrome `trace_event` JSON ([`Recorder::chrome_trace`],
//! load in `chrome://tracing` / Perfetto; one "thread" per PE and per
//! hardware agent, timestamps in virtual microseconds) and a plain-text
//! summary ([`Recorder::summary`]). [`chrome::decode`] reads a Chrome
//! trace back into the same [`Event`]s, so the recorder's types are the
//! one trace schema the analyzer (`obs-analyze`) reads, in-process or
//! from a file.
//!
//! The level switch is [`ObsLevel`]: `Off` (default; the hot path is a
//! single level check and no allocation), `Counters` (latency sketches
//! and utilization counters), `Spans` (everything). No level samples:
//! what a level records, it records for every op.
//!

pub mod chrome;
pub mod hist;
pub mod json;
pub mod plan;
pub mod thresholds;
pub mod window;

pub use hist::Sketch;
pub use plan::Limits;
pub use thresholds::ThresholdTable;
pub use window::{SloParseError, SloPolicy, SloViolation, WindowSnap};

use sim_core::{SimDuration, SimTime};
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Named tracks of events in export order: tracks by `(kind, index)`,
/// each track's events stably sorted by timestamp
/// ([`Recorder::ordered_tracks`]).
pub type Tracks<'a> = Vec<(String, Vec<Event<'a>>)>;

/// Picoseconds as (virtual) microseconds, the unit every exported
/// document uses.
pub fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// How much the recorder captures. Order matters: each level is a
/// superset of the previous one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Record nothing; hot paths stay allocation-free.
    #[default]
    Off,
    /// Latency sketches, engine counters and hardware utilization only.
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
pub struct Cands<'a> {
    items: [&'a str; Decision::MAX],
    len: u8,
}

impl<'a> Cands<'a> {
    pub fn push(&mut self, name: &'a str) {
        if (self.len as usize) < Decision::MAX {
            self.items[self.len as usize] = name;
            self.len += 1;
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
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

impl<'a> FromIterator<&'a str> for Cands<'a> {
    fn from_iter<I: IntoIterator<Item = &'a str>>(it: I) -> Cands<'a> {
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
pub struct Thresholds<'a> {
    items: [(&'a str, u64); Decision::MAX],
    len: u8,
}

impl<'a> Thresholds<'a> {
    pub fn push(&mut self, name: &'a str, value: u64) {
        if (self.len as usize) < Decision::MAX {
            self.items[self.len as usize] = (name, value);
            self.len += 1;
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'a str, u64)> + '_ {
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
pub struct Decision<'a> {
    /// `"put"`, `"get"`, `"atomic"`, ...
    pub op: &'a str,
    pub size: u64,
    pub src_pe: u32,
    pub dst_pe: u32,
    /// Source buffer lives in device memory.
    pub src_dev: bool,
    /// Destination buffer lives in device memory.
    pub dst_dev: bool,
    pub same_node: bool,
    /// `Protocol::name()` of the winner.
    pub chosen: &'a str,
    pub candidates: Cands<'a>,
    pub thresholds: Thresholds<'a>,
    /// Per-op correlation id ([`Payload::Op`]'s `op_id`; `0` when the
    /// decision is uncorrelated).
    pub op_id: u64,
    /// Log2 size class of `size` ([`hist::bucket_index`]); the key the
    /// quantile sketches and crossover profiler bin by.
    pub size_class: u8,
    /// Socket relation of the device end of the transfer relative to the
    /// HCA that would service it: `"intra-socket"`, `"inter-socket"`, or
    /// `"host"` when no device memory is involved (paper Table III).
    pub socket_rel: &'a str,
    /// Where the consulted threshold values came from: `"builtin"` for
    /// the compiled-in tuned table, `"thresholds-v1"` when a
    /// [`ThresholdTable`] artifact was loaded into the config.
    pub tsource: &'a str,
}

impl Decision<'_> {
    /// Capacity of the candidate / threshold lists.
    pub const MAX: usize = 4;
}

/// Structured, fixed-size payload attached to an event. Names are
/// borrowed: the recorder stores `'static` ones, which keeps the record
/// path allocation-free, and a decoded trace borrows them from its
/// parsed document ([`chrome::decode`]).
// `Decision` carries fixed-capacity candidate/threshold arrays inline
// for the same reason — boxing it would put an allocation on the
// dispatch hot path, which costs more than the per-event bytes here.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload<'a> {
    None,
    /// A completed RMA/sync operation (span on a PE track). `op_id` is
    /// the per-op correlation id tying the span to its chunk stages and
    /// flow events (`0` for uncorrelated spans such as barriers).
    Op {
        op: &'a str,
        protocol: &'a str,
        size: u64,
        src_pe: u32,
        dst_pe: u32,
        src_dev: bool,
        dst_dev: bool,
        same_node: bool,
        op_id: u64,
    },
    /// A protocol-dispatch decision (instant on a PE track).
    Decision(Decision<'a>),
    /// One pipeline-chunk stage (span on a PE/proxy track), correlated
    /// to its originating op by `op_id`.
    Chunk {
        protocol: &'a str,
        stage: &'a str,
        index: u32,
        size: u64,
        op_id: u64,
    },
    /// Proxy service-thread activity (span on a proxy track).
    Proxy {
        kind: &'a str,
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
        kind: &'a str,
        protocol: &'a str,
        op_id: u64,
    },
    /// One bounded-backoff retry after a transient fault (instant):
    /// `attempt` is 1-based, `backoff_ns` the virtual-time delay paid
    /// before this attempt.
    Retry {
        protocol: &'a str,
        attempt: u32,
        backoff_ns: u64,
        op_id: u64,
    },
    /// A fallback protocol decision (instant): the op re-routed from
    /// `from` to `to` because of a persistent or capability fault.
    Fallback {
        op: &'a str,
        from: &'a str,
        to: &'a str,
        op_id: u64,
    },
    /// A chunked transfer gave up part-way (instant on the origin PE
    /// track): `delivered` of `total` bytes landed before per-chunk
    /// retries exhausted; the op surfaced
    /// `TransferError::PartialDelivery`.
    PartialDelivery {
        protocol: &'a str,
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
        protocol: &'a str,
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

impl<'a> Payload<'a> {
    /// The second key of the fault counter a [`FaultEvent`] with this
    /// payload bumps: the payload's protocol, a fallback's `from`, or
    /// [`MEMBERSHIP`]. `None` for a payload no fault event carries.
    pub fn fault_key(&self) -> Option<&'a str> {
        match *self {
            Payload::Fault { protocol, .. }
            | Payload::Retry { protocol, .. }
            | Payload::PartialDelivery { protocol, .. }
            | Payload::Health { protocol, .. } => Some(protocol),
            Payload::Fallback { from, .. } => Some(from),
            Payload::Member { .. } => Some(MEMBERSHIP),
            _ => None,
        }
    }
}

/// The fault-counter key of every membership and partition event.
pub const MEMBERSHIP: &str = "membership";

/// Declares [`FaultEvent`] from its table: one row per event, its
/// variant, the instant's name and the counter it bumps.
macro_rules! fault_events {
    ($($event:ident: $name:literal => $tally:literal,)*) => {
        /// The fault and lifecycle events that are both a trace instant
        /// and a fault counter: the one table that names them, for the
        /// runtime that records them ([`Recorder::fault_event`]) and for
        /// every reader that counts them (`docs/OBSERVABILITY.md` lists
        /// it with the report field each one feeds). Rows are in the
        /// order `gdrprof` reports their counts.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub enum FaultEvent {
            $($event,)*
        }

        impl FaultEvent {
            pub const ALL: [FaultEvent; 16] = [$(FaultEvent::$event,)*];

            /// The instant's name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(FaultEvent::$event => $name,)*
                }
            }

            /// The fault counter it bumps. The counter's second key is
            /// [`Payload::fault_key`].
            pub const fn tally(self) -> &'static str {
                match self {
                    $(FaultEvent::$event => $tally,)*
                }
            }

            /// The event an instant named `name` records.
            pub fn of(name: &str) -> Option<FaultEvent> {
                match name {
                    $($name => Some(FaultEvent::$event),)*
                    _ => None,
                }
            }

            /// The event that bumps the counter `what` (`None` for the
            /// tally-only counters of [`Recorder::fault_tally`]).
            pub fn of_tally(what: &str) -> Option<FaultEvent> {
                match what {
                    $($tally => Some(FaultEvent::$event),)*
                    _ => None,
                }
            }
        }
    };
}

fault_events! {
    Fault: "fault" => "injected",
    ProxyRestart: "proxy-restart" => "proxy-restart",
    Retry: "retry" => "retried",
    Fallback: "fallback" => "fallback",
    ChunkRetry: "chunk-retry" => "chunk-retried",
    PartialDelivery: "partial-delivery" => "partial",
    Demote: "demote" => "demote",
    Probe: "probe" => "probe",
    Promote: "promote" => "promote",
    PeDead: "pe-dead" => "pe-dead",
    Evict: "evict" => "evict",
    ViewChange: "view-change" => "view-change",
    Rejoin: "rejoin" => "rejoin",
    Partition: "partition" => "partition",
    Fence: "fence" => "fence",
    Heal: "heal" => "heal",
}

/// One recorded event. `dur == 0` renders as an instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event<'a> {
    pub ts: SimTime,
    pub dur: SimDuration,
    pub name: &'a str,
    pub payload: Payload<'a>,
}

struct Track {
    kind: TrackKind,
    index: u32,
    name: String,
    events: Vec<Event<'static>>,
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
/// (via [`Sink`]) with the hardware layers. Every method may be called
/// from PE code and from engine callbacks alike.
///
/// [`ShmemMachine`]: ../shmem_gdr/machine/struct.ShmemMachine.html
pub struct Recorder {
    level: ObsLevel,
    tables: RefCell<Tables>,
    /// Quantile sketches keyed `(op, protocol, size-class)` — the one
    /// op-latency store (min, p50/p99/p999, max); active from
    /// [`ObsLevel::Counters`] up.
    sketches: RefCell<BTreeMap<(&'static str, &'static str, u8), hist::Sketch>>,
    agents: RefCell<BTreeMap<(TrackKind, u32), AgentCounters>>,
    /// Exact fault-machinery counters keyed `(what, protocol)`: a
    /// [`FaultEvent::tally`] or a tally-only counter
    /// ([`Recorder::fault_tally`]). Active from [`ObsLevel::Counters`]
    /// up.
    faults: RefCell<BTreeMap<(&'static str, &'static str), u64>>,
    /// The windowed metrics plane (`None` unless constructed with
    /// [`Recorder::with_windows`]): per-window latency/link/fault
    /// rollups and the SLO watchdog state. Each feed carries the
    /// virtual timestamp that places it in a window.
    windows: RefCell<Option<window::WindowPlane>>,
}

impl Recorder {
    pub fn new(level: ObsLevel) -> Rc<Recorder> {
        Rc::new(Recorder {
            level,
            tables: RefCell::new(Tables::default()),
            sketches: RefCell::new(BTreeMap::new()),
            agents: RefCell::new(BTreeMap::new()),
            faults: RefCell::new(BTreeMap::new()),
            windows: RefCell::new(None),
        })
    }

    /// As [`Recorder::new`] with the windowed metrics plane armed:
    /// `window_us > 0` (at [`ObsLevel::Counters`] up) rolls latency
    /// sketches, link utilization and fault/health tallies per
    /// `window_us`-wide virtual-time window, and the Chrome export
    /// gains a `metrics` track of `window-snapshot` (and, with an
    /// [`SloPolicy`] set, `slo-violation`) instants. `window_us == 0`
    /// behaves exactly like [`Recorder::new`].
    pub fn with_windows(level: ObsLevel, window_us: u32) -> Rc<Recorder> {
        let r = Self::new(level);
        if window_us > 0 && level.counters_on() {
            *r.windows.borrow_mut() = Some(window::WindowPlane::new(window_us));
        }
        r
    }

    pub fn level(&self) -> ObsLevel {
        self.level
    }

    pub fn counters_on(&self) -> bool {
        self.level.counters_on()
    }

    pub fn spans_on(&self) -> bool {
        self.level.spans_on()
    }

    /// Whether the windowed metrics plane is armed.
    pub fn windowing_on(&self) -> bool {
        self.windows.borrow().is_some()
    }

    /// Install (replace) the SLO policy checked against each window at
    /// export.
    /// A no-op unless the plane is armed ([`Recorder::with_windows`]).
    pub fn set_slo(&self, policy: SloPolicy) {
        if let Some(p) = self.windows.borrow_mut().as_mut() {
            p.set_policy(policy);
        }
    }

    /// The exact per-window rollup (empty when the plane is off).
    pub fn window_report(&self) -> Vec<WindowSnap<'static>> {
        self.windows.borrow().as_ref().map(|p| p.report()).unwrap_or_default()
    }

    /// Run `f` against the window plane, if it is armed.
    fn feed_window(&self, f: impl FnOnce(&mut window::WindowPlane)) {
        if let Some(p) = self.windows.borrow_mut().as_mut() {
            f(p);
        }
    }

    /// Register (or look up) the track for `(kind, index)`.
    pub fn track(&self, kind: TrackKind, index: u32) -> TrackId {
        let mut t = self.tables.borrow_mut();
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
        let mut t = self.tables.borrow_mut();
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
    pub fn span(&self, track: TrackId, name: &'static str, start: SimTime, end: SimTime, payload: Payload<'static>) {
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
    pub fn instant(&self, track: TrackId, name: &'static str, ts: SimTime, payload: Payload<'static>) {
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
    pub fn decision(&self, track: TrackId, ts: SimTime, d: Decision<'static>) {
        self.instant(track, "protocol-decision", ts, Payload::Decision(d));
    }

    fn push(&self, track: TrackId, ev: Event<'static>) {
        let mut t = self.tables.borrow_mut();
        t.tracks[track.0 as usize].events.push(ev);
    }

    /// Feed an op latency into the per-(op × protocol × size-class)
    /// quantile sketch; active from [`ObsLevel::Counters`] up.
    pub fn op_latency(&self, op: &'static str, protocol: &'static str, size: u64, dur: SimDuration) {
        if !self.counters_on() {
            return;
        }
        let class = hist::bucket_index(size) as u8;
        self.sketches
            .borrow_mut()
            .entry((op, protocol, class))
            .or_default()
            .record(dur.as_ps());
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
        self.feed_window(|p| p.feed_latency(op, protocol, class, dur.as_ps(), end.as_ps()));
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
            let mut a = self.agents.borrow_mut();
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
    /// [`ObsLevel::Counters`] up; at [`ObsLevel::Spans`]
    /// it also emits a counter sample on the link's named track.
    pub fn link_sample(&self, index: u32, name: &str, ev: &sim_core::LinkEvent) {
        if !self.counters_on() {
            return;
        }
        {
            let mut a = self.agents.borrow_mut();
            let c = a.entry((TrackKind::Link, index)).or_default();
            c.ops += 1;
            c.bytes += ev.bytes;
            c.busy += ev.depart.since(ev.start);
        }
        self.feed_window(|p| {
            p.feed_link(
                index,
                name,
                ev.start.as_ps(),
                ev.bytes,
                ev.depart.since(ev.start).as_ps(),
                ev.queue_depth,
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

    /// Record one [`FaultEvent`]: bump its counter `(event.tally(),
    /// payload's protocol)` like [`Recorder::fault_tally`], then, when
    /// spans are on, push its instant on `track`.
    pub fn fault_event(&self, track: TrackId, ts: SimTime, event: FaultEvent, payload: Payload<'static>) {
        let protocol = payload
            .fault_key()
            .unwrap_or_else(|| panic!("{event:?} recorded with a {payload:?} payload"));
        self.fault_tally(event.tally(), protocol, ts);
        self.instant(track, event.name(), ts, payload);
    }

    /// Bump the exact fault counter `(what, protocol)` and feed the
    /// windowed metrics plane with its virtual instant `ts`; active from
    /// [`ObsLevel::Counters`] up. A [`FaultEvent`] bumps its counter
    /// through [`Recorder::fault_event`]; this is for the tally-only
    /// counters `"exhausted"`, `"recovered"`, `"timeout"` and
    /// `"chunk-recovered"` (docs/OBSERVABILITY.md lists them all).
    pub fn fault_tally(&self, what: &'static str, protocol: &'static str, ts: SimTime) {
        if !self.counters_on() {
            return;
        }
        *self.faults.borrow_mut().entry((what, protocol)).or_insert(0) += 1;
        self.feed_window(|p| p.feed_fault(what, protocol, ts.as_ps()));
    }

    /// Snapshot of the fault counters, keyed `(what, protocol)`.
    pub fn fault_counters(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        self.faults.borrow().clone()
    }

    /// Snapshot the events of one track (test/inspection helper).
    pub fn events_of(&self, kind: TrackKind, index: u32) -> Vec<Event<'static>> {
        let t = self.tables.borrow();
        t.by_key
            .get(&(kind, index))
            .map(|&id| t.tracks[id as usize].events.clone())
            .unwrap_or_default()
    }

    /// Total number of recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tables.borrow().tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Number of protocol-decision records across all tracks.
    pub fn decision_count(&self) -> usize {
        let t = self.tables.borrow();
        t.tracks
            .iter()
            .flat_map(|tr| tr.events.iter())
            .filter(|e| matches!(e.payload, Payload::Decision(_)))
            .count()
    }

    /// Snapshot of the quantile sketches, keyed by
    /// `(op, protocol, size-class)` where the class is the log2 bucket
    /// index of the op size ([`hist::bucket_index`]).
    pub fn quantile_sketches(&self) -> BTreeMap<(&'static str, &'static str, u8), hist::Sketch> {
        self.sketches.borrow().clone()
    }

    /// Snapshot of the hardware utilization counters.
    pub fn agent_counters(&self) -> BTreeMap<(TrackKind, u32), AgentCounters> {
        self.agents.borrow().clone()
    }

    /// Every track's name and events in export order: tracks by
    /// `(kind, index)`, so registration order never shows, and each
    /// track's events stably sorted by timestamp, so simultaneous events
    /// keep their record order. The one ordering both
    /// [`Recorder::chrome_trace`] and in-process analysis read.
    pub fn ordered_tracks(&self) -> Tracks<'static> {
        let t = self.tables.borrow();
        export_order(&t)
            .into_iter()
            .map(|(name, events)| (name.to_string(), events.into_iter().copied().collect()))
            .collect()
    }

    /// Export everything as Chrome `trace_event` JSON. With the
    /// windowed plane armed, a synthetic `metrics` track carries one
    /// `window-snapshot` instant per non-empty window (at the window's
    /// closing edge) followed by its `slo-violation` instants.
    pub fn chrome_trace(&self) -> String {
        let t = self.tables.borrow();
        chrome::export(&export_order(&t), &self.window_report())
    }

    /// Plain-text summary: op latency, hardware utilization and fault
    /// counters.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== observability summary (level {:?}) ==", self.level);
        let sketches = self.sketches.borrow();
        if !sketches.is_empty() {
            let _ = writeln!(out, "-- op latency (op, protocol, size-class) --");
            for ((op, proto, class), s) in sketches.iter() {
                let _ = writeln!(
                    out,
                    "{op:<10} {proto:<18} {:<14} n={:<6} min={} p50={} p99={} p999={} max={}",
                    hist::size_class_label(*class),
                    s.count,
                    SimDuration::from_ps(s.min()),
                    SimDuration::from_ps(s.p50()),
                    SimDuration::from_ps(s.p99()),
                    SimDuration::from_ps(s.p999()),
                    SimDuration::from_ps(s.max()),
                );
            }
        }
        let agents = self.agents.borrow();
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
        let faults = self.faults.borrow();
        if !faults.is_empty() {
            let _ = writeln!(out, "-- fault machinery --");
            for ((what, proto), n) in faults.iter() {
                let _ = writeln!(out, "{what:<10} {proto:<20} {n}");
            }
        }
        let n = self.event_count();
        if n > 0 {
            let _ = writeln!(out, "-- {n} events on {} tracks --", self.tables.borrow().tracks.len());
        }
        out
    }
}

/// The export order of [`Recorder::ordered_tracks`], borrowed.
fn export_order(t: &Tables) -> Vec<(&str, Vec<&Event<'static>>)> {
    let mut order: Vec<&Track> = t.tracks.iter().collect();
    order.sort_by_key(|tr| (tr.kind, tr.index));
    order
        .into_iter()
        .map(|tr| {
            let mut events: Vec<&Event<'static>> = tr.events.iter().collect();
            events.sort_by_key(|e| e.ts);
            (tr.name.as_str(), events)
        })
        .collect()
}

/// A late-bound, cloneable handle hardware layers hold so a machine can
/// attach its [`Recorder`] after construction. Unattached (or attached
/// at [`ObsLevel::Off`]) the per-event cost is one pointer and level
/// check.
#[derive(Clone, Default)]
pub struct Sink {
    inner: Rc<OnceCell<Rc<Recorder>>>,
}

impl Sink {
    pub fn new() -> Sink {
        Sink::default()
    }

    /// Attach a recorder. The first attach wins; later calls are no-ops
    /// (a machine attaches exactly once, at build time).
    pub fn attach(&self, rec: Rc<Recorder>) {
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
        r.op_latency("put", "direct-gdr", 8, SimDuration::from_us(1));
        r.agent_bytes(TrackKind::Hca, 0, SimTime::ZERO, 64, SimDuration::from_us(1));
        assert_eq!(r.event_count(), 0);
        assert!(r.quantile_sketches().is_empty());
        assert!(r.agent_counters().is_empty());
    }

    #[test]
    fn counters_level_skips_spans_but_keeps_metrics() {
        let r = Recorder::new(ObsLevel::Counters);
        let t = r.track(TrackKind::Pe, 0);
        r.span(t, "put", SimTime::ZERO, SimTime::ZERO + SimDuration::from_us(1), Payload::None);
        r.op_latency("put", "direct-gdr", 8, SimDuration::from_us(1));
        r.agent_bytes(TrackKind::Hca, 0, SimTime::ZERO, 64, SimDuration::from_us(1));
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.quantile_sketches().len(), 1);
        assert_eq!(r.agent_counters()[&(TrackKind::Hca, 0)].bytes, 64);
    }

    #[test]
    fn op_latency_fills_sketches() {
        let off = Recorder::new(ObsLevel::Off);
        off.op_latency("put", "direct-gdr", 64, SimDuration::from_us(1));
        assert!(off.quantile_sketches().is_empty());

        let c = Recorder::new(ObsLevel::Counters);
        c.op_latency("put", "direct-gdr", 64, SimDuration::from_us(1));
        c.op_latency("put", "direct-gdr", 64, SimDuration::from_us(3));
        c.op_latency("get", "direct-gdr", 64, SimDuration::from_us(2));
        let sk = c.quantile_sketches();
        assert_eq!(sk.len(), 2, "sketches key on (op, protocol, class)");
        let put = &sk[&("put", "direct-gdr", hist::bucket_index(64) as u8)];
        assert_eq!(put.count, 2);
        assert!(put.p99() >= put.p50());
        assert!(c.summary().contains("p999="));
    }

    #[test]
    fn summary_quantiles_stay_within_min_and_max() {
        let r = Recorder::new(ObsLevel::Counters);
        r.op_latency("put", "pipeline-gdr-write", 1 << 20, SimDuration::from_ps(162_819_000));
        for ns in [900, 1_100, 1_300, 40_000] {
            r.op_latency("get", "direct-gdr", 8, SimDuration::from_ns(ns));
        }
        r.op_latency("quiet", "quiet", 0, SimDuration::ZERO);
        let summary = r.summary();
        let lines: Vec<&str> = summary.lines().filter(|l| l.contains("min=")).collect();
        assert_eq!(lines.len(), 3, "{summary}");
        for line in lines {
            // `key=1.234us` (or an estimate, `key~1.234us`) in order
            let q: Vec<f64> = ["min", "p50", "p99", "p999", "max"]
                .iter()
                .filter_map(|key| {
                    let v = line.split_whitespace().find_map(|w| {
                        w.strip_prefix(key)?.strip_prefix(['=', '~'])
                    })?;
                    Some(v.strip_suffix("us")?.parse().expect("microseconds"))
                })
                .collect();
            assert!(q.len() >= 3, "min, a quantile and max in {line:?}");
            assert!(q.windows(2).all(|w| w[0] <= w[1]), "quantiles out of order: {line}");
        }
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
        off.fault_tally("injected", "direct-gdr", SimTime::ZERO);
        assert!(off.fault_counters().is_empty());

        let c = Recorder::new(ObsLevel::Counters);
        c.fault_tally("injected", "direct-gdr", SimTime::ZERO);
        c.fault_tally("injected", "direct-gdr", SimTime::ZERO);
        c.fault_tally("recovered", "direct-gdr", SimTime::ZERO);
        c.fault_tally("fallback", "pipeline-gdr-write", SimTime::ZERO);
        let f = c.fault_counters();
        assert_eq!(f[&("injected", "direct-gdr")], 2);
        assert_eq!(f[&("recovered", "direct-gdr")], 1);
        assert_eq!(f[&("fallback", "pipeline-gdr-write")], 1);
        assert!(c.summary().contains("fault machinery"));
    }

    #[test]
    fn fault_event_tallies_then_records_an_instant() {
        let payload = Payload::Fallback { op: "put", from: "direct-gdr", to: "proxy-pipeline", op_id: 7 };
        for (level, instants) in [(ObsLevel::Off, 0), (ObsLevel::Counters, 0), (ObsLevel::Spans, 1)] {
            let r = Recorder::new(level);
            let t = r.track(TrackKind::Pe, 0);
            r.fault_event(t, SimTime::ZERO, FaultEvent::Fallback, payload);
            let want = if level.counters_on() { Some(&1) } else { None };
            assert_eq!(r.fault_counters().get(&("fallback", "direct-gdr")), want, "{level:?}");
            let events = r.events_of(TrackKind::Pe, 0);
            assert_eq!(events.len(), instants, "{level:?}");
            assert!(events.iter().all(|e| e.name == "fallback" && e.payload == payload));
        }
        let r = Recorder::new(ObsLevel::Counters);
        r.fault_event(r.track(TrackKind::Pe, 1), SimTime::ZERO, FaultEvent::Heal, Payload::Member { pe: 1, epoch: 2 });
        assert_eq!(r.fault_counters()[&("heal", "membership")], 1);
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
        let names: Vec<String> = r.ordered_tracks().into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["pe/0", "pe/1", "hca/1"]);
    }
}
