//! Critical-path, utilization, and protocol analysis of one trace.

use crate::trace::{span_us, Trace};
use obs::json::{ObjWriter, Value};
use obs::{us, FaultEvent, Payload, MEMBERSHIP};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Schema marker written by [`Report::to_json`].
pub const REPORT_SCHEMA: &str = "gdrprof-report-v2";
/// Previous schema, still accepted by [`Report::from_json`] (missing
/// quantile sections rehydrate empty).
pub const REPORT_SCHEMA_V1: &str = "gdrprof-report-v1";

/// RMA/sync operations that carry a correlation id and participate in
/// the flow-linkage metric. Collectives (barrier etc.) are excluded:
/// they have no single remote completion to flow to.
pub const RMA_OPS: &[&str] = &["put", "get", "put-nbi", "get-nbi", "put-signal", "atomic"];

/// One operation's reconstructed critical path: from the origin call to
/// the last correlated activity (chunk span or remote-completion flow
/// end), with per-stage busy time (interval union, so overlapping
/// chunks of one stage are not double-counted).
#[derive(Clone, Debug)]
pub struct OpPath {
    pub op_id: u64,
    pub op: String,
    pub protocol: String,
    pub size: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// stage name -> busy microseconds (union of that stage's chunks).
    pub stages: BTreeMap<String, f64>,
}

impl OpPath {
    pub fn total_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Aggregate critical-path statistics for one `op/protocol` pair.
#[derive(Clone, Debug, Default)]
pub struct ProtoStat {
    pub count: u64,
    pub bytes: u64,
    pub total_us: f64,
    pub min_us: f64,
    pub max_us: f64,
    pub stages: BTreeMap<String, f64>,
}

impl ProtoStat {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }
}

/// Tail-latency quantiles for one `op × protocol × size-class` cell,
/// from a deterministic log-linear sketch over the ops' critical-path
/// times ([`obs::hist::Sketch`], ≤ 6.25 % relative error).
#[derive(Clone, Debug, Default)]
pub struct QuantileStat {
    /// Log2 size class of the cell ([`obs::hist::bucket_index`]).
    pub class: u8,
    pub count: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
}

/// Utilization summary of one hardware link track.
#[derive(Clone, Debug, Default)]
pub struct LinkStat {
    pub samples: u64,
    /// Cumulative bytes over the whole trace (final sample's total).
    pub bytes: u64,
    /// Cumulative busy time (final sample's total).
    pub busy_us: f64,
    pub peak_queue: u32,
    /// Contention windows: maximal runs of consecutive samples whose
    /// queue depth is >= 2 (a reservation had to wait).
    pub contended_windows: u64,
    pub contended_us: f64,
}

/// A report section that counts fault events: its JSON object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// Per protocol: faults injected, retries, fallbacks away from it,
    /// chunk replays and partial deliveries.
    Faults,
    /// Per protocol: the circuit breaker's demotes, probes and promotes.
    Health,
    /// The fail-stop membership lifecycle.
    Membership,
    /// The network-partition lifecycle.
    Partitions,
}

impl Section {
    /// In report order.
    pub const ALL: [Section; 4] = [
        Section::Faults,
        Section::Health,
        Section::Membership,
        Section::Partitions,
    ];

    /// The JSON object's name.
    pub const fn name(self) -> &'static str {
        match self {
            Section::Faults => "faults",
            Section::Health => "health",
            Section::Membership => "membership",
            Section::Partitions => "partitions",
        }
    }

    /// One entry per protocol; otherwise the section is one entry, whose
    /// counts are keyed [`MEMBERSHIP`].
    pub const fn per_protocol(self) -> bool {
        matches!(self, Section::Faults | Section::Health)
    }

    /// The events this section counts, in table order, with their fields.
    pub fn events(self) -> impl Iterator<Item = (FaultEvent, ReportField)> {
        FaultEvent::ALL
            .into_iter()
            .filter_map(move |e| report_field(e).filter(|f| f.section == self).map(|f| (e, f)))
    }
}

/// Where a fault event's count sits in the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportField {
    pub section: Section,
    /// The JSON field; the text report labels it with dashes.
    pub field: &'static str,
    /// Absent from report files older than the field, which read it as 0.
    pub additive: bool,
}

/// The report field that counts each fault event, or `None` for an event
/// no field counts. The one place a report field is tied to an event:
/// [`analyze`] counts, and [`Report::to_json`] and [`Report::from_json`]
/// write and read, through it.
pub const fn report_field(event: FaultEvent) -> Option<ReportField> {
    use FaultEvent::*;
    use Section::*;
    let (section, field, additive) = match event {
        Fault => (Faults, "injected", false),
        ProxyRestart => return None,
        Retry => (Faults, "retried", false),
        Fallback => (Faults, "fallbacks", false),
        ChunkRetry => (Faults, "chunk_retried", true),
        PartialDelivery => (Faults, "partials", true),
        Demote => (Health, "demotes", false),
        Probe => (Health, "probes", false),
        Promote => (Health, "promotes", false),
        PeDead => (Membership, "pe_dead", true),
        Evict => (Membership, "evicts", true),
        ViewChange => (Membership, "view_changes", true),
        Rejoin => (Membership, "rejoins", true),
        Partition => (Partitions, "partitions", true),
        Fence => (Partitions, "fences", true),
        Heal => (Partitions, "heals", true),
    };
    Some(ReportField { section, field, additive })
}

/// Everything `gdrprof` reports about one trace.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub trace_span_us: f64,
    pub ops_analyzed: u64,
    pub flow_started: u64,
    pub flow_matched: u64,
    /// `op/protocol` -> aggregate critical-path stats.
    pub protocols: BTreeMap<String, ProtoStat>,
    /// `op/protocol/cNN` (zero-padded size class) -> p50/p99/p999.
    pub quantiles: BTreeMap<String, QuantileStat>,
    /// `op/chosen-protocol` -> decision count.
    pub decisions: BTreeMap<String, u64>,
    /// `(event, protocol | MEMBERSHIP)` -> instants counted, keyed like
    /// the recorder's fault counters; [`report_field`] names the field
    /// each count is (empty on clean runs).
    pub counts: BTreeMap<(FaultEvent, String), u64>,
    /// protocol -> distinct ops that saw an injected fault.
    pub faulted_ops: BTreeMap<String, u64>,
    /// protocol -> of those, the ops that recovered: their op span
    /// exists or, for an op without one, its last fault was retried.
    pub recovered_ops: BTreeMap<String, u64>,
    /// protocol -> bytes delivered and bytes requested across its
    /// partial-delivery outcomes.
    pub partial_bytes: BTreeMap<String, (u64, u64)>,
    /// Highest view epoch seen on any membership instant.
    pub view_epoch: u64,
    /// Worst observed view-convergence time: max over crashed PEs of
    /// (eviction instant − `pe-dead` instant), microseconds. The
    /// membership layer bounds this by `DETECT_BOUND_NS`; a growth here
    /// between runs means detection latency regressed.
    pub view_convergence_us: f64,
    /// Highest view epoch seen on any partition instant.
    pub partition_epoch: u64,
    /// Worst observed heal convergence: max over fenced splits of
    /// (heal instant − fence instant), microseconds. The membership
    /// layer bounds this by the split window length plus
    /// `HEAL_BOUND_NS`; a growth here between runs means the merge
    /// landed later than it used to.
    pub heal_convergence_us: f64,
    /// link track name -> utilization stats.
    pub links: BTreeMap<String, LinkStat>,
    /// Windowed-metrics snapshots present in the trace (0 when the
    /// plane was off).
    pub windows: u64,
    /// SLO watchdog violations recorded across those windows.
    pub slo_violations: u64,
    /// Per-op detail, sorted by op id.
    pub paths: Vec<OpPath>,
}

impl Report {
    /// Fraction of analyzed op spans whose flow start has a matching
    /// flow end (0..=1; 1.0 when there is nothing to link).
    pub fn flow_linkage(&self) -> f64 {
        ratio(self.flow_matched as f64, self.ops_analyzed as f64, 1.0)
    }

    /// How many `event` instants were counted under `key` (a protocol or
    /// [`MEMBERSHIP`]).
    pub fn count(&self, event: FaultEvent, key: &str) -> u64 {
        self.counts.get(&(event, key.to_string())).copied().unwrap_or(0)
    }

    /// The keys of `section`'s entries: the protocols with a count of one
    /// of its events ([`MEMBERSHIP`] for a section of one entry).
    pub fn keys(&self, section: Section) -> BTreeSet<&str> {
        let counted = |e: &FaultEvent| report_field(*e).is_some_and(|f| f.section == section);
        self.counts.keys().filter(|(e, _)| counted(e)).map(|(_, k)| k.as_str()).collect()
    }

    /// Fraction of `protocol`'s faulted ops that recovered (1.0 when
    /// nothing was faulted).
    pub fn recovery_rate(&self, protocol: &str) -> f64 {
        let (recovered, faulted) = (get(&self.recovered_ops, protocol), get(&self.faulted_ops, protocol));
        ratio(recovered as f64, faulted as f64, 1.0)
    }

    /// Fraction of `protocol`'s breaker demotions the run recovered from
    /// (1.0 when the breaker never opened). A rate below 1.0 means the
    /// protocol was still demoted when the trace ended.
    pub fn promote_rate(&self, protocol: &str) -> f64 {
        let demotes = self.count(FaultEvent::Demote, protocol);
        ratio(self.count(FaultEvent::Promote, protocol).min(demotes) as f64, demotes as f64, 1.0)
    }

    /// Bytes delivered and requested across `protocol`'s partial
    /// deliveries.
    pub fn partial(&self, protocol: &str) -> (u64, u64) {
        self.partial_bytes.get(protocol).copied().unwrap_or_default()
    }
}

/// `num / den`, or `none` when `den` is not positive.
pub(crate) fn ratio(num: f64, den: f64, none: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        none
    }
}

/// A per-protocol count, 0 for a protocol the map lacks.
fn get(map: &BTreeMap<String, u64>, protocol: &str) -> u64 {
    map.get(protocol).copied().unwrap_or(0)
}

/// Total length of the union of `[start, end)` intervals.
fn interval_union(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Analyze one trace into a [`Report`].
pub fn analyze(tr: &Trace) -> Report {
    let mut rep = Report {
        trace_span_us: tr.end_us(),
        windows: tr.windows.len() as u64,
        slo_violations: tr.windows.iter().map(|w| w.violations.len() as u64).sum(),
        ..Report::default()
    };

    // flow endpoints and chunk stages by correlation id, and the ids of
    // the ops that completed (their op span exists)
    let mut started: BTreeSet<u64> = BTreeSet::new();
    let mut ended: BTreeMap<u64, f64> = BTreeMap::new();
    let mut chunks_by_op: BTreeMap<u64, Vec<(&str, f64, f64)>> = BTreeMap::new();
    let mut completed: BTreeSet<u64> = BTreeSet::new();
    for (_, e) in tr.events() {
        let (start, end) = span_us(e);
        match e.payload {
            Payload::FlowStart { id } => {
                started.insert(id);
            }
            Payload::FlowEnd { id } => {
                let t = ended.entry(id).or_insert(start);
                *t = t.max(start);
            }
            Payload::Chunk { stage, op_id, .. } if !e.dur.is_zero() && op_id != 0 => {
                chunks_by_op.entry(op_id).or_default().push((stage, start, end));
            }
            Payload::Op { op_id, .. } if !e.dur.is_zero() && op_id != 0 => {
                completed.insert(op_id);
            }
            _ => {}
        }
    }

    let mut faulted_by_proto: BTreeMap<&str, BTreeSet<u64>> = BTreeMap::new();
    // op id -> (time, was it a retry) of its last `fault`/`retry` instant
    let mut last_try: BTreeMap<u64, (f64, bool)> = BTreeMap::new();
    let mut dead_ts: BTreeMap<u32, f64> = BTreeMap::new();
    let mut fence_ts: BTreeMap<u32, f64> = BTreeMap::new();
    // link track name -> (ts, cumulative bytes, cumulative busy us, queue)
    let mut links: BTreeMap<&str, Vec<(f64, u64, f64, u32)>> = BTreeMap::new();
    for (track, e) in tr.events() {
        let (ts, span_end) = span_us(e);
        match (e.name, e.payload) {
            // an op that took no time exports as an instant, not a span
            (_, Payload::Op { op, protocol, size, op_id, .. }) if !e.dur.is_zero() && RMA_OPS.contains(&op) => {
                rep.ops_analyzed += 1;
                let mut end = span_end;
                let mut stages: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
                if op_id != 0 {
                    if started.contains(&op_id) {
                        rep.flow_started += 1;
                        if let Some(&fe) = ended.get(&op_id) {
                            rep.flow_matched += 1;
                            end = end.max(fe);
                        }
                    }
                    for &(stage, from, to) in chunks_by_op.get(&op_id).into_iter().flatten() {
                        end = end.max(to);
                        stages.entry(stage).or_default().push((from, to));
                    }
                }
                let stages: BTreeMap<String, f64> = if stages.is_empty() {
                    // chunkless protocols are a single hardware leg
                    [("direct".to_string(), us(e.dur.as_ps()))].into()
                } else {
                    stages
                        .into_iter()
                        .map(|(k, iv)| (k.to_string(), interval_union(iv)))
                        .collect()
                };
                let path = OpPath {
                    op_id,
                    op: op.to_string(),
                    protocol: protocol.to_string(),
                    size,
                    start_us: ts,
                    end_us: end,
                    stages,
                };
                let st = rep.protocols.entry(format!("{op}/{protocol}")).or_default();
                let t = path.total_us();
                if st.count == 0 {
                    st.min_us = t;
                    st.max_us = t;
                } else {
                    st.min_us = st.min_us.min(t);
                    st.max_us = st.max_us.max(t);
                }
                st.count += 1;
                st.bytes += path.size;
                st.total_us += t;
                for (s, us) in &path.stages {
                    *st.stages.entry(s.clone()).or_insert(0.0) += us;
                }
                rep.paths.push(path);
            }
            ("protocol-decision", Payload::Decision(d)) => {
                *rep.decisions.entry(format!("{}/{}", d.op, d.chosen)).or_insert(0) += 1;
            }
            ("link", Payload::LinkSample { total, busy_ps, queue }) => {
                links.entry(track).or_default().push((ts, total, us(busy_ps), queue));
            }
            // a fault event: its count, and the measures no count gives
            (name, payload) => {
                let (Some(event), Some(key)) = (FaultEvent::of(name), payload.fault_key()) else {
                    continue;
                };
                let section = report_field(event).map(|f| f.section);
                if section.is_some() {
                    *rep.counts.entry((event, key.to_string())).or_insert(0) += 1;
                }
                match (event, payload) {
                    (
                        FaultEvent::Fault | FaultEvent::Retry,
                        Payload::Fault { op_id, .. } | Payload::Retry { op_id, .. },
                    ) if op_id != 0 => {
                        if event == FaultEvent::Fault {
                            faulted_by_proto.entry(key).or_default().insert(op_id);
                        }
                        let last = last_try.entry(op_id).or_insert((ts, false));
                        if ts >= last.0 {
                            *last = (ts, event == FaultEvent::Retry);
                        }
                    }
                    (FaultEvent::PartialDelivery, Payload::PartialDelivery { delivered, total, .. }) => {
                        let bytes = rep.partial_bytes.entry(key.to_string()).or_default();
                        bytes.0 += delivered;
                        bytes.1 += total;
                    }
                    // a lifecycle's last epoch, and its worst time from
                    // a PE's first pe-dead (fence) to its evict (heal)
                    (_, Payload::Member { pe, epoch }) => {
                        let (last_epoch, since, worst) = match section {
                            Some(Section::Membership) => {
                                (&mut rep.view_epoch, &mut dead_ts, &mut rep.view_convergence_us)
                            }
                            Some(Section::Partitions) => (
                                &mut rep.partition_epoch,
                                &mut fence_ts,
                                &mut rep.heal_convergence_us,
                            ),
                            _ => continue,
                        };
                        *last_epoch = (*last_epoch).max(epoch);
                        match event {
                            FaultEvent::PeDead | FaultEvent::Fence => {
                                since.entry(pe).or_insert(ts);
                            }
                            FaultEvent::Evict | FaultEvent::Heal => {
                                if let Some(&t0) = since.get(&pe) {
                                    *worst = worst.max(ts - t0);
                                }
                            }
                            _ => {}
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    rep.paths.sort_by_key(|p| p.op_id);

    // tail-latency quantiles: sketch critical-path times (in ns, so the
    // log-linear buckets resolve sub-microsecond ops) per op × protocol
    // × size-class
    let mut sketches: BTreeMap<(String, String, u8), obs::hist::Sketch> = BTreeMap::new();
    for p in &rep.paths {
        let class = obs::hist::bucket_index(p.size) as u8;
        sketches
            .entry((p.op.clone(), p.protocol.clone(), class))
            .or_default()
            .record((p.total_us() * 1000.0).round() as u64);
    }
    for ((op, proto, class), s) in sketches {
        rep.quantiles.insert(
            format!("{op}/{proto}/c{class:02}"),
            QuantileStat {
                class,
                count: s.count,
                p50_us: s.p50() as f64 / 1000.0,
                p99_us: s.p99() as f64 / 1000.0,
                p999_us: s.p999() as f64 / 1000.0,
            },
        );
    }

    // a faulted op recovered when its op span exists; an op without
    // one (a sync-area post) when its last fault was retried, i.e. its
    // last `fault`/`retry` instant is a retry
    let retried = |id: &u64| last_try.get(id).is_some_and(|&(_, retried)| retried);
    let recovered = |id: &u64| completed.contains(id) || retried(id);
    for (proto, ops) in faulted_by_proto {
        rep.faulted_ops.insert(proto.to_string(), ops.len() as u64);
        let recovered = ops.iter().filter(|id| recovered(id)).count();
        rep.recovered_ops.insert(proto.to_string(), recovered as u64);
    }

    for (name, mut pts) in links {
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut ls = LinkStat {
            samples: pts.len() as u64,
            ..LinkStat::default()
        };
        let mut run_start: Option<f64> = None;
        let mut last_ts = 0.0f64;
        for (ts, bytes_total, busy_us, queue) in pts {
            ls.bytes = ls.bytes.max(bytes_total);
            ls.busy_us = ls.busy_us.max(busy_us);
            ls.peak_queue = ls.peak_queue.max(queue);
            if queue >= 2 {
                run_start.get_or_insert(ts);
            } else if let Some(s) = run_start.take() {
                ls.contended_windows += 1;
                ls.contended_us += last_ts - s;
            }
            last_ts = ts;
        }
        if let Some(s) = run_start {
            ls.contended_windows += 1;
            ls.contended_us += last_ts - s;
        }
        rep.links.insert(name.to_string(), ls);
    }
    rep
}

impl Report {
    /// Human-readable rendering (the `gdrprof analyze` default output).
    pub fn text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "gdrprof report");
        let _ = writeln!(s, "trace-span-us: {:.3}", self.trace_span_us);
        let _ = writeln!(s, "ops-analyzed: {}", self.ops_analyzed);
        let _ = writeln!(
            s,
            "flow-linkage: {:.1}% ({}/{})",
            self.flow_linkage() * 100.0,
            self.flow_matched,
            self.ops_analyzed
        );
        let _ = writeln!(s, "\ncritical path by op/protocol:");
        for (k, st) in &self.protocols {
            let _ = writeln!(
                s,
                "  {k:<28} count {:<5} bytes {:<10} mean {:.3}us  min {:.3}us  max {:.3}us",
                st.count, st.bytes, st.mean_us(), st.min_us, st.max_us
            );
            for (stage, us) in &st.stages {
                let _ = writeln!(s, "    stage {stage:<10} {us:.3}us");
            }
        }
        if !self.quantiles.is_empty() {
            let _ = writeln!(s, "\nlatency quantiles by op/protocol/size-class:");
            for (k, q) in &self.quantiles {
                let _ = writeln!(
                    s,
                    "  {k:<34} n {:<5} p50 {:.3}us  p99 {:.3}us  p999 {:.3}us",
                    q.count, q.p50_us, q.p99_us, q.p999_us
                );
            }
        }
        let _ = writeln!(s, "\nprotocol decisions:");
        for (k, n) in &self.decisions {
            let _ = writeln!(s, "  {k:<28} {n}");
        }
        let faults = self.keys(Section::Faults);
        if !faults.is_empty() {
            let _ = writeln!(s, "\nfault injection:");
            for k in faults {
                let n = |event| self.count(event, k);
                let _ = writeln!(
                    s,
                    "  {k:<28} injected {:<5} retried {:<5} fallbacks {:<5} \
                     recovered {}/{} ({:.1}%)",
                    n(FaultEvent::Fault),
                    n(FaultEvent::Retry),
                    n(FaultEvent::Fallback),
                    get(&self.recovered_ops, k),
                    get(&self.faulted_ops, k),
                    self.recovery_rate(k) * 100.0
                );
                let chunk_retried = n(FaultEvent::ChunkRetry);
                let partials = n(FaultEvent::PartialDelivery);
                if chunk_retried > 0 || partials > 0 {
                    let (delivered, total) = self.partial(k);
                    let _ = writeln!(
                        s,
                        "  {:<28} chunk-retries {:<5} partial-deliveries {:<5} \
                         ({delivered}/{total} bytes landed)",
                        "", chunk_retried, partials
                    );
                }
            }
        }
        let health = self.keys(Section::Health);
        if !health.is_empty() {
            let _ = writeln!(s, "\nprotocol health:");
            for k in health {
                let counts = self.counts_text(Section::Health, k);
                let rate = self.promote_rate(k) * 100.0;
                let _ = writeln!(s, "  {k:<28} {counts}promote-rate {rate:.1}%");
            }
        }
        let lifecycle = |event| self.count(event, MEMBERSHIP);
        if lifecycle(FaultEvent::PeDead) > 0 || lifecycle(FaultEvent::Rejoin) > 0 {
            let counts = self.counts_text(Section::Membership, MEMBERSHIP);
            let _ = writeln!(s, "\nmembership:");
            let _ = writeln!(s, "  {counts}last-epoch {}", self.view_epoch);
            let _ = writeln!(
                s,
                "  view-convergence {:.3}us (worst observed)",
                self.view_convergence_us
            );
        }
        if Section::Partitions.events().any(|(e, _)| lifecycle(e) > 0)
            || self.partition_epoch > 0
            || self.heal_convergence_us != 0.0
        {
            let counts = self.counts_text(Section::Partitions, MEMBERSHIP);
            let _ = writeln!(s, "\npartitions:");
            let _ = writeln!(s, "  {counts}last-epoch {}", self.partition_epoch);
            let _ = writeln!(
                s,
                "  heal-convergence {:.3}us (worst observed)",
                self.heal_convergence_us
            );
        }
        if self.windows > 0 {
            let _ = writeln!(
                s,
                "\nwindowed metrics: {} windows, {} slo-violations",
                self.windows, self.slo_violations
            );
        }
        let _ = writeln!(s, "\nlink utilization:");
        for (k, ls) in &self.links {
            let pct = if self.trace_span_us > 0.0 {
                ls.busy_us / self.trace_span_us * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                s,
                "  {k:<20} bytes {:<12} busy {:.3}us ({pct:.1}% of trace)  peak-queue {}  \
                 contended {} windows / {:.3}us",
                ls.bytes, ls.busy_us, ls.peak_queue, ls.contended_windows, ls.contended_us
            );
        }
        s
    }

    /// Machine-readable rendering: the `gdrprof-report-v2` JSON object.
    /// Field order and float formatting are deterministic, so identical
    /// traces produce byte-identical reports.
    pub fn to_json(&self) -> String {
        let stages = |o: &mut ObjWriter, stages: &BTreeMap<String, f64>| {
            o.obj_field("stages", |sj| {
                for (stage, us) in stages {
                    sj.num_field(stage, *us);
                }
            });
        };
        obs::json::object(|o| {
            o.str_field("schema", REPORT_SCHEMA);
            o.num_field("trace_span_us", self.trace_span_us);
            o.u64_field("ops_analyzed", self.ops_analyzed);
            o.obj_field("flow", |f| {
                f.u64_field("started", self.flow_started)
                    .u64_field("matched", self.flow_matched)
                    .num_field("linkage", self.flow_linkage());
            });
            o.obj_field("protocols", |p| {
                for (k, st) in &self.protocols {
                    p.obj_field(k, |e| {
                        e.u64_field("count", st.count)
                            .u64_field("bytes", st.bytes)
                            .num_field("mean_us", st.mean_us())
                            .num_field("min_us", st.min_us)
                            .num_field("max_us", st.max_us);
                        stages(e, &st.stages);
                    });
                }
            });
            // v2: per-op×protocol×size-class tail latencies (empty
            // object when the trace had no analyzable ops)
            o.obj_field("quantiles", |qj| {
                for (k, q) in &self.quantiles {
                    qj.obj_field(k, |e| {
                        e.u64_field("class", q.class as u64)
                            .u64_field("count", q.count)
                            .num_field("p50_us", q.p50_us)
                            .num_field("p99_us", q.p99_us)
                            .num_field("p999_us", q.p999_us);
                    });
                }
            });
            o.obj_field("decisions", |d| {
                for (k, n) in &self.decisions {
                    d.u64_field(k, *n);
                }
            });
            // always present (no entry, or all zeros, on clean runs) so
            // consumers can key on them without schema sniffing
            for section in Section::ALL {
                o.obj_field(section.name(), |sj| {
                    if section.per_protocol() {
                        for k in self.keys(section) {
                            sj.obj_field(k, |e| self.write_entry(e, section, k));
                        }
                    } else {
                        self.write_entry(sj, section, MEMBERSHIP);
                    }
                });
            }
            o.obj_field("links", |l| {
                for (k, ls) in &self.links {
                    l.obj_field(k, |e| {
                        e.u64_field("samples", ls.samples)
                            .u64_field("bytes", ls.bytes)
                            .num_field("busy_us", ls.busy_us)
                            .u64_field("peak_queue", ls.peak_queue as u64)
                            .u64_field("contended_windows", ls.contended_windows)
                            .num_field("contended_us", ls.contended_us);
                    });
                }
            });
            // additive: windowed-metrics summary (zeros when the
            // metrics plane was off), for the SLO diff gate
            o.obj_field("timeline", |tj| {
                tj.u64_field("windows", self.windows).u64_field("violations", self.slo_violations);
            });
            // per-op critical paths, for downstream tooling
            o.arr_field("ops", &self.paths, |e, p| {
                e.u64_field("op_id", p.op_id);
                e.str_field("op", &p.op).str_field("protocol", &p.protocol);
                e.u64_field("size", p.size);
                e.num_field("start_us", p.start_us)
                    .num_field("end_us", p.end_us)
                    .num_field("total_us", p.total_us());
                stages(e, &p.stages);
            });
        })
    }

    /// Rehydrate a report from its JSON form. Accepts both
    /// `gdrprof-report-v2` and legacy `gdrprof-report-v1` documents —
    /// sections v1 lacks (quantiles) come back empty. Per-op paths are
    /// not rehydrated (they are an export-only detail). Every failure
    /// names the field that was missing or mistyped.
    pub fn from_json(v: &Value) -> Result<Report, String> {
        match v.get("schema").and_then(Value::as_str) {
            Some(REPORT_SCHEMA) | Some(REPORT_SCHEMA_V1) => {}
            Some(other) => {
                return Err(format!(
                    "report: schema {other:?}, expected {REPORT_SCHEMA:?} or {REPORT_SCHEMA_V1:?}"
                ))
            }
            None => return Err("report: missing \"schema\" field".to_string()),
        }
        let mut rep = Report {
            trace_span_us: f64_of(v, "trace_span_us", "report")?,
            ops_analyzed: u64_of(v, "ops_analyzed", "report")?,
            ..Report::default()
        };
        if let Some(flow) = section(v, "flow", "report")? {
            rep.flow_started = u64_of(flow, "started", "report.flow")?;
            rep.flow_matched = u64_of(flow, "matched", "report.flow")?;
        }
        let protocols = v
            .get("protocols")
            .ok_or("report: missing \"protocols\" object")?
            .as_obj()
            .ok_or("report: \"protocols\" is not an object")?;
        for (k, p) in protocols {
            let ctx = format!("report.protocols.{k}");
            let count = u64_of(p, "count", &ctx)?;
            let mut stages = BTreeMap::new();
            if let Some(sj) = section(p, "stages", &ctx)?.and_then(Value::as_obj) {
                for (stage, us) in sj {
                    stages.insert(
                        stage.clone(),
                        us.as_f64()
                            .ok_or_else(|| format!("{ctx}.stages.{stage}: not a number"))?,
                    );
                }
            }
            rep.protocols.insert(
                k.clone(),
                ProtoStat {
                    count,
                    bytes: u64_of(p, "bytes", &ctx)?,
                    total_us: f64_of(p, "mean_us", &ctx)? * count as f64,
                    min_us: f64_of(p, "min_us", &ctx)?,
                    max_us: f64_of(p, "max_us", &ctx)?,
                    stages,
                },
            );
        }
        // v2-only section: absent on v1 documents, rehydrates empty
        for (k, q, ctx) in entries(v, "quantiles")? {
            let quantile = QuantileStat {
                class: narrow_of(q, "class", &ctx)?,
                count: u64_of(q, "count", &ctx)?,
                p50_us: f64_of(q, "p50_us", &ctx)?,
                p99_us: f64_of(q, "p99_us", &ctx)?,
                p999_us: f64_of(q, "p999_us", &ctx)?,
            };
            rep.quantiles.insert(k.clone(), quantile);
        }
        for (k, n, what) in entries(v, "decisions")? {
            let n = n.as_f64().ok_or_else(|| format!("{what}: not a number"))?;
            rep.decisions.insert(k.clone(), count(n, &what)?);
        }
        // absent from report files older than the section: no entry, or
        // all zeros
        for section in Section::ALL {
            let name = section.name();
            if section.per_protocol() {
                for (k, e, ctx) in entries(v, name)? {
                    rep.read_entry(e, section, k, &ctx)?;
                }
            } else if let Some(sv) = self::section(v, name, "report")? {
                rep.read_entry(sv, section, MEMBERSHIP, &format!("report.{name}"))?;
            }
        }
        // additive: absent from pre-windowing report files, defaults 0
        if let Some(tl) = section(v, "timeline", "report")? {
            rep.windows = or_0(tl, "windows", "report.timeline", u64_of)?;
            rep.slo_violations = or_0(tl, "violations", "report.timeline", u64_of)?;
        }
        // links ride along so the contention delta gate can compare
        // report files, not just raw traces
        for (k, l, ctx) in entries(v, "links")? {
            let link = LinkStat {
                samples: u64_of(l, "samples", &ctx)?,
                bytes: u64_of(l, "bytes", &ctx)?,
                busy_us: f64_of(l, "busy_us", &ctx)?,
                peak_queue: narrow_of(l, "peak_queue", &ctx)?,
                contended_windows: u64_of(l, "contended_windows", &ctx)?,
                contended_us: f64_of(l, "contended_us", &ctx)?,
            };
            rep.links.insert(k.clone(), link);
        }
        Ok(rep)
    }

    /// `name n` for each of `section`'s counts under `key`, the fields'
    /// text labels: `demotes 1     probes 0     promotes 0     `.
    fn counts_text(&self, section: Section, key: &str) -> String {
        let label = |f: ReportField| f.field.replace('_', "-");
        section.events().map(|(e, f)| format!("{} {:<5} ", label(f), self.count(e, key))).collect()
    }

    /// Write `section`'s entry for `key`: each event's count in table
    /// order, the faulted and recovered ops after the retries, the
    /// partial-delivery bytes after the partials, then the section's
    /// rate or last epoch and convergence time.
    fn write_entry(&self, o: &mut ObjWriter, section: Section, key: &str) {
        for (event, f) in section.events() {
            o.u64_field(f.field, self.count(event, key));
            match event {
                FaultEvent::Retry => {
                    o.u64_field("faulted_ops", get(&self.faulted_ops, key))
                        .u64_field("recovered", get(&self.recovered_ops, key));
                }
                FaultEvent::PartialDelivery => {
                    let (delivered, total) = self.partial(key);
                    o.u64_field("partial_delivered", delivered).u64_field("partial_total", total);
                }
                _ => {}
            }
        }
        match section {
            Section::Faults => o.num_field("recovery_rate", self.recovery_rate(key)),
            Section::Health => o.num_field("promote_rate", self.promote_rate(key)),
            Section::Membership => o
                .u64_field("last_epoch", self.view_epoch)
                .num_field("convergence_us", self.view_convergence_us),
            Section::Partitions => o
                .u64_field("last_epoch", self.partition_epoch)
                .num_field("heal_convergence_us", self.heal_convergence_us),
        };
    }

    /// Read what [`Report::write_entry`] wrote (the rates are derived,
    /// not read). A field absent from older report files reads 0.
    fn read_entry(&mut self, v: &Value, section: Section, key: &str, ctx: &str) -> Result<(), String> {
        for (event, f) in section.events() {
            let n = if f.additive {
                or_0(v, f.field, ctx, u64_of)?
            } else {
                u64_of(v, f.field, ctx)?
            };
            self.counts.insert((event, key.to_string()), n);
            match event {
                FaultEvent::Retry => {
                    self.faulted_ops.insert(key.to_string(), u64_of(v, "faulted_ops", ctx)?);
                    self.recovered_ops.insert(key.to_string(), u64_of(v, "recovered", ctx)?);
                }
                FaultEvent::PartialDelivery => {
                    let delivered = or_0(v, "partial_delivered", ctx, u64_of)?;
                    let total = or_0(v, "partial_total", ctx, u64_of)?;
                    self.partial_bytes.insert(key.to_string(), (delivered, total));
                }
                _ => {}
            }
        }
        match section {
            Section::Membership => {
                self.view_epoch = or_0(v, "last_epoch", ctx, u64_of)?;
                self.view_convergence_us = or_0(v, "convergence_us", ctx, f64_of)?;
            }
            Section::Partitions => {
                self.partition_epoch = or_0(v, "last_epoch", ctx, u64_of)?;
                self.heal_convergence_us = or_0(v, "heal_convergence_us", ctx, f64_of)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// As [`Report::from_json`] on an unparsed document.
    pub fn from_json_str(doc: &str) -> Result<Report, String> {
        let v = obs::json::parse(doc).map_err(|e| format!("report: not JSON: {e}"))?;
        Report::from_json(&v)
    }
}

/// The number `v[key]`; `ctx` names `v` in the error.
fn f64_of(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing field {key:?}"))?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: field {key:?} is not a number"))
}

/// A count is a whole number, never negative.
fn count(n: f64, what: &str) -> Result<u64, String> {
    if n >= 0.0 && n.fract() == 0.0 {
        Ok(n as u64)
    } else {
        Err(format!("{what} is not a count"))
    }
}

/// The count `v[key]`.
fn u64_of(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    count(f64_of(v, key, ctx)?, &format!("{ctx}: field {key:?}"))
}

/// A count read into a narrower field must fit it, not wrap.
fn narrow_of<T: TryFrom<u64>>(v: &Value, key: &str, ctx: &str) -> Result<T, String> {
    T::try_from(u64_of(v, key, ctx)?)
        .map_err(|_| format!("{ctx}: field {key:?} is not a count of its width"))
}

/// An additive field, absent from older report files: absent reads 0,
/// present must still read as `read` reads it.
fn or_0<T: Default>(
    v: &Value,
    key: &str,
    ctx: &str,
    read: fn(&Value, &str, &str) -> Result<T, String>,
) -> Result<T, String> {
    v.get(key).map_or(Ok(T::default()), |_| read(v, key, ctx))
}

/// The entries of the keyed section `name`, each with its error context
/// `report.<name>.<key>`; none when the section is absent.
fn entries<'v>(v: &'v Value, name: &str) -> Result<Vec<(&'v String, &'v Value, String)>, String> {
    let entries = section(v, name, "report")?.and_then(Value::as_obj).into_iter().flatten();
    Ok(entries.map(|(k, e)| (k, e, format!("report.{name}.{k}"))).collect())
}

/// An additive section: absent reads empty, present must be an object
/// (a mistyped one must not read as empty).
fn section<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<Option<&'v Value>, String> {
    match v.get(key) {
        Some(s) if s.as_obj().is_none() => Err(format!("{ctx}: {key:?} is not an object")),
        s => Ok(s),
    }
}
