//! Critical-path, utilization, and protocol analysis of one trace.

use crate::trace::{span_us, Trace};
use obs::json::{ObjWriter, Value};
use obs::{us, Payload};
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

/// Fault-injection / recovery summary for one protocol (from the
/// `fault`/`retry`/`fallback` instants a faulted run records).
#[derive(Clone, Debug, Default)]
pub struct FaultStat {
    /// Transient faults injected (events).
    pub injected: u64,
    /// Retry decisions taken (events).
    pub retried: u64,
    /// Distinct ops that saw at least one injected fault.
    pub faulted_ops: u64,
    /// Of those, ops that still completed (their op span exists).
    pub recovered: u64,
    /// Fallback re-routes away from this protocol.
    pub fallbacks: u64,
    /// Event-context chunk replays (chunk-retry instants).
    pub chunk_retried: u64,
    /// Partial-delivery outcomes (ops that gave up mid-transfer).
    pub partials: u64,
    /// Bytes delivered across those partial outcomes.
    pub partial_delivered: u64,
    /// Bytes requested across those partial outcomes.
    pub partial_total: u64,
}

impl FaultStat {
    /// Fraction of faulted ops that still completed (1.0 when nothing
    /// was faulted).
    pub fn recovery_rate(&self) -> f64 {
        if self.faulted_ops == 0 {
            1.0
        } else {
            self.recovered as f64 / self.faulted_ops as f64
        }
    }
}

/// Circuit-breaker lifecycle summary for one protocol (from the
/// `demote`/`probe`/`promote` instants the health monitor records).
#[derive(Clone, Debug, Default)]
pub struct HealthStat {
    /// Breaker openings: the protocol was routed away from.
    pub demotes: u64,
    /// Half-open trial admissions after cooldown.
    pub probes: u64,
    /// Breaker closings: the protocol was re-admitted for good.
    pub promotes: u64,
}

impl HealthStat {
    /// Fraction of demotions the run recovered from (1.0 when the
    /// breaker never opened). A rate below 1.0 means at least one
    /// protocol was still demoted when the trace ended.
    pub fn promote_rate(&self) -> f64 {
        if self.demotes == 0 {
            1.0
        } else {
            (self.promotes.min(self.demotes)) as f64 / self.demotes as f64
        }
    }
}

/// Fail-stop membership summary (from the `pe-dead`/`evict`/
/// `view-change`/`rejoin` instants the membership layer records under
/// a `crash=` fault plan). All-zero on crash-free traces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemberStat {
    /// Crash detections (`pe-dead` instants).
    pub pe_dead: u64,
    /// Evictions applied to the view.
    pub evicts: u64,
    /// View-epoch bumps observed.
    pub view_changes: u64,
    /// Rejoin re-admissions (symmetric-heap re-registration done).
    pub rejoins: u64,
    /// Highest view epoch seen on any membership instant.
    pub last_epoch: u64,
    /// Worst observed view-convergence time: max over crashed PEs of
    /// (eviction instant − `pe-dead` instant), microseconds. The
    /// membership layer bounds this by `DETECT_BOUND_NS`; a growth here
    /// between runs means detection latency regressed.
    pub convergence_us: f64,
}

/// Network-partition lifecycle summary (from the `partition`/`fence`/
/// `heal` instants the membership layer records under a `partition=`
/// fault plan). All-zero on partition-free traces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionStat {
    /// Partition onsets observed (`partition` instants: split window
    /// starts and first-reroute cut detections).
    pub partitions: u64,
    /// Quorum fences applied to the view (`fence` instants).
    pub fences: u64,
    /// View merges after the split closed (`heal` instants).
    pub heals: u64,
    /// Highest view epoch seen on any partition instant.
    pub last_epoch: u64,
    /// Worst observed heal convergence: max over fenced splits of
    /// (heal instant − fence instant), microseconds. The membership
    /// layer bounds this by the split window length plus
    /// `HEAL_BOUND_NS`; a growth here between runs means the merge
    /// landed later than it used to.
    pub heal_convergence_us: f64,
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
    /// protocol -> fault-injection/recovery stats (empty on clean runs).
    pub faults: BTreeMap<String, FaultStat>,
    /// protocol -> circuit-breaker lifecycle stats (empty when the
    /// health monitor never transitioned).
    pub health: BTreeMap<String, HealthStat>,
    /// Fail-stop membership lifecycle summary (all-zero on crash-free
    /// traces).
    pub membership: MemberStat,
    /// Network-partition lifecycle summary (all-zero on partition-free
    /// traces).
    pub partitions: PartitionStat,
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
        if self.ops_analyzed == 0 {
            1.0
        } else {
            self.flow_matched as f64 / self.ops_analyzed as f64
        }
    }
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
            // fault machinery: per-protocol injected/retried counts, plus
            // the recovery rate below — of the distinct ops that saw a
            // fault, how many still completed
            ("fault", Payload::Fault { protocol, op_id, .. }) => {
                rep.faults.entry(protocol.to_string()).or_default().injected += 1;
                if op_id != 0 {
                    faulted_by_proto.entry(protocol).or_default().insert(op_id);
                }
            }
            ("retry", Payload::Retry { protocol, .. }) => {
                rep.faults.entry(protocol.to_string()).or_default().retried += 1;
            }
            ("chunk-retry", Payload::Retry { protocol, .. }) => {
                rep.faults.entry(protocol.to_string()).or_default().chunk_retried += 1;
            }
            ("partial-delivery", Payload::PartialDelivery { protocol, delivered, total, .. }) => {
                let st = rep.faults.entry(protocol.to_string()).or_default();
                st.partials += 1;
                st.partial_delivered += delivered;
                st.partial_total += total;
            }
            ("fallback", Payload::Fallback { from, .. }) => {
                rep.faults.entry(from.to_string()).or_default().fallbacks += 1;
            }
            (event @ ("demote" | "probe" | "promote"), Payload::Health { protocol, .. }) => {
                let st = rep.health.entry(protocol.to_string()).or_default();
                match event {
                    "demote" => st.demotes += 1,
                    "probe" => st.probes += 1,
                    _ => st.promotes += 1,
                }
            }
            // membership lifecycle: event counts plus the observed
            // view-convergence time — per crashed PE, eviction instant
            // minus the first pe-dead instant; report the worst
            (event @ ("pe-dead" | "evict" | "view-change" | "rejoin"), Payload::Member { pe, epoch }) => {
                let st = &mut rep.membership;
                match event {
                    "pe-dead" => {
                        st.pe_dead += 1;
                        dead_ts.entry(pe).or_insert(ts);
                    }
                    "evict" => {
                        st.evicts += 1;
                        if let Some(&t0) = dead_ts.get(&pe) {
                            st.convergence_us = st.convergence_us.max(ts - t0);
                        }
                    }
                    "view-change" => st.view_changes += 1,
                    _ => st.rejoins += 1,
                }
                st.last_epoch = st.last_epoch.max(epoch);
            }
            // partition lifecycle: event counts plus the observed heal
            // convergence — per fenced minority, heal instant minus the
            // fence instant; report the worst
            (event @ ("partition" | "fence" | "heal"), Payload::Member { pe, epoch }) => {
                let st = &mut rep.partitions;
                match event {
                    "partition" => st.partitions += 1,
                    "fence" => {
                        st.fences += 1;
                        fence_ts.entry(pe).or_insert(ts);
                    }
                    _ => {
                        st.heals += 1;
                        if let Some(&t0) = fence_ts.get(&pe) {
                            st.heal_convergence_us = st.heal_convergence_us.max(ts - t0);
                        }
                    }
                }
                st.last_epoch = st.last_epoch.max(epoch);
            }
            ("link", Payload::LinkSample { total, busy_ps, queue }) => {
                links.entry(track).or_default().push((ts, total, us(busy_ps), queue));
            }
            _ => {}
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

    for (proto, ops) in faulted_by_proto {
        let st = rep.faults.entry(proto.to_string()).or_default();
        st.faulted_ops = ops.len() as u64;
        st.recovered = ops.iter().filter(|id| completed.contains(id)).count() as u64;
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
        if !self.faults.is_empty() {
            let _ = writeln!(s, "\nfault injection:");
            for (k, f) in &self.faults {
                let _ = writeln!(
                    s,
                    "  {k:<28} injected {:<5} retried {:<5} fallbacks {:<5} \
                     recovered {}/{} ({:.1}%)",
                    f.injected,
                    f.retried,
                    f.fallbacks,
                    f.recovered,
                    f.faulted_ops,
                    f.recovery_rate() * 100.0
                );
                if f.chunk_retried > 0 || f.partials > 0 {
                    let _ = writeln!(
                        s,
                        "  {:<28} chunk-retries {:<5} partial-deliveries {:<5} \
                         ({}/{} bytes landed)",
                        "", f.chunk_retried, f.partials, f.partial_delivered, f.partial_total
                    );
                }
            }
        }
        if !self.health.is_empty() {
            let _ = writeln!(s, "\nprotocol health:");
            for (k, h) in &self.health {
                let _ = writeln!(
                    s,
                    "  {k:<28} demotes {:<5} probes {:<5} promotes {:<5} \
                     promote-rate {:.1}%",
                    h.demotes,
                    h.probes,
                    h.promotes,
                    h.promote_rate() * 100.0
                );
            }
        }
        if self.membership.pe_dead > 0 || self.membership.rejoins > 0 {
            let m = &self.membership;
            let _ = writeln!(s, "\nmembership:");
            let _ = writeln!(
                s,
                "  pe-dead {:<5} evicts {:<5} view-changes {:<5} rejoins {:<5} last-epoch {}",
                m.pe_dead, m.evicts, m.view_changes, m.rejoins, m.last_epoch
            );
            let _ = writeln!(s, "  view-convergence {:.3}us (worst observed)", m.convergence_us);
        }
        if self.partitions != PartitionStat::default() {
            let p = &self.partitions;
            let _ = writeln!(s, "\npartitions:");
            let _ = writeln!(
                s,
                "  partitions {:<5} fences {:<5} heals {:<5} last-epoch {}",
                p.partitions, p.fences, p.heals, p.last_epoch
            );
            let _ = writeln!(
                s,
                "  heal-convergence {:.3}us (worst observed)",
                p.heal_convergence_us
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
        let mut out = String::with_capacity(1024);
        let mut o = ObjWriter::new(&mut out);
        o.str_field("schema", REPORT_SCHEMA);
        o.num_field("trace_span_us", self.trace_span_us);
        o.u64_field("ops_analyzed", self.ops_analyzed);
        {
            let buf = o.raw_field("flow");
            let mut f = ObjWriter::new(buf);
            f.u64_field("started", self.flow_started)
                .u64_field("matched", self.flow_matched)
                .num_field("linkage", self.flow_linkage());
            f.finish();
        }
        {
            let buf = o.raw_field("protocols");
            let mut p = ObjWriter::new(buf);
            for (k, st) in &self.protocols {
                let buf = p.raw_field(k);
                let mut e = ObjWriter::new(buf);
                e.u64_field("count", st.count)
                    .u64_field("bytes", st.bytes)
                    .num_field("mean_us", st.mean_us())
                    .num_field("min_us", st.min_us)
                    .num_field("max_us", st.max_us);
                {
                    let buf = e.raw_field("stages");
                    let mut sj = ObjWriter::new(buf);
                    for (stage, us) in &st.stages {
                        sj.num_field(stage, *us);
                    }
                    sj.finish();
                }
                e.finish();
            }
            p.finish();
        }
        {
            // v2: per-op×protocol×size-class tail latencies (empty
            // object when the trace had no analyzable ops)
            let buf = o.raw_field("quantiles");
            let mut qj = ObjWriter::new(buf);
            for (k, q) in &self.quantiles {
                let buf = qj.raw_field(k);
                let mut e = ObjWriter::new(buf);
                e.u64_field("class", q.class as u64)
                    .u64_field("count", q.count)
                    .num_field("p50_us", q.p50_us)
                    .num_field("p99_us", q.p99_us)
                    .num_field("p999_us", q.p999_us);
                e.finish();
            }
            qj.finish();
        }
        {
            let buf = o.raw_field("decisions");
            let mut d = ObjWriter::new(buf);
            for (k, n) in &self.decisions {
                d.u64_field(k, *n);
            }
            d.finish();
        }
        {
            // always present (empty object on clean runs) so consumers
            // can key on it without schema sniffing
            let buf = o.raw_field("faults");
            let mut fj = ObjWriter::new(buf);
            for (k, f) in &self.faults {
                let buf = fj.raw_field(k);
                let mut e = ObjWriter::new(buf);
                e.u64_field("injected", f.injected)
                    .u64_field("retried", f.retried)
                    .u64_field("faulted_ops", f.faulted_ops)
                    .u64_field("recovered", f.recovered)
                    .u64_field("fallbacks", f.fallbacks)
                    .u64_field("chunk_retried", f.chunk_retried)
                    .u64_field("partials", f.partials)
                    .u64_field("partial_delivered", f.partial_delivered)
                    .u64_field("partial_total", f.partial_total)
                    .num_field("recovery_rate", f.recovery_rate());
                e.finish();
            }
            fj.finish();
        }
        {
            // like "faults": always present, empty object when the
            // breaker never moved
            let buf = o.raw_field("health");
            let mut hj = ObjWriter::new(buf);
            for (k, h) in &self.health {
                let buf = hj.raw_field(k);
                let mut e = ObjWriter::new(buf);
                e.u64_field("demotes", h.demotes)
                    .u64_field("probes", h.probes)
                    .u64_field("promotes", h.promotes)
                    .num_field("promote_rate", h.promote_rate());
                e.finish();
            }
            hj.finish();
        }
        {
            // additive: fail-stop membership lifecycle (all zeros on
            // crash-free traces), for the membership diff gate
            let buf = o.raw_field("membership");
            let mut mj = ObjWriter::new(buf);
            mj.u64_field("pe_dead", self.membership.pe_dead)
                .u64_field("evicts", self.membership.evicts)
                .u64_field("view_changes", self.membership.view_changes)
                .u64_field("rejoins", self.membership.rejoins)
                .u64_field("last_epoch", self.membership.last_epoch)
                .num_field("convergence_us", self.membership.convergence_us);
            mj.finish();
        }
        {
            // additive: partition lifecycle (all zeros on partition-free
            // traces), for the partition diff gate
            let buf = o.raw_field("partitions");
            let mut pj = ObjWriter::new(buf);
            pj.u64_field("partitions", self.partitions.partitions)
                .u64_field("fences", self.partitions.fences)
                .u64_field("heals", self.partitions.heals)
                .u64_field("last_epoch", self.partitions.last_epoch)
                .num_field("heal_convergence_us", self.partitions.heal_convergence_us);
            pj.finish();
        }
        {
            let buf = o.raw_field("links");
            let mut l = ObjWriter::new(buf);
            for (k, ls) in &self.links {
                let buf = l.raw_field(k);
                let mut e = ObjWriter::new(buf);
                e.u64_field("samples", ls.samples)
                    .u64_field("bytes", ls.bytes)
                    .num_field("busy_us", ls.busy_us)
                    .u64_field("peak_queue", ls.peak_queue as u64)
                    .u64_field("contended_windows", ls.contended_windows)
                    .num_field("contended_us", ls.contended_us);
                e.finish();
            }
            l.finish();
        }
        {
            // additive: windowed-metrics summary (zeros when the
            // metrics plane was off), for the SLO diff gate
            let buf = o.raw_field("timeline");
            let mut tj = ObjWriter::new(buf);
            tj.u64_field("windows", self.windows)
                .u64_field("violations", self.slo_violations);
            tj.finish();
        }
        {
            // per-op critical paths, for downstream tooling
            let buf = o.raw_field("ops");
            buf.push('[');
            for (i, p) in self.paths.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut e = ObjWriter::new(buf);
                e.u64_field("op_id", p.op_id);
                e.str_field("op", &p.op).str_field("protocol", &p.protocol);
                e.u64_field("size", p.size);
                e.num_field("start_us", p.start_us)
                    .num_field("end_us", p.end_us)
                    .num_field("total_us", p.total_us());
                {
                    let buf = e.raw_field("stages");
                    let mut sj = ObjWriter::new(buf);
                    for (stage, us) in &p.stages {
                        sj.num_field(stage, *us);
                    }
                    sj.finish();
                }
                e.finish();
            }
            buf.push(']');
        }
        o.finish();
        out
    }

    /// Rehydrate a report from its JSON form. Accepts both
    /// `gdrprof-report-v2` and legacy `gdrprof-report-v1` documents —
    /// sections v1 lacks (quantiles) come back empty. Per-op paths are
    /// not rehydrated (they are an export-only detail). Every failure
    /// names the field that was missing or mistyped.
    pub fn from_json(v: &Value) -> Result<Report, String> {
        fn f64_of(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
            v.get(key)
                .ok_or_else(|| format!("{ctx}: missing field {key:?}"))?
                .as_f64()
                .ok_or_else(|| format!("{ctx}: field {key:?} is not a number"))
        }
        fn u64_of(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
            f64_of(v, key, ctx).map(|n| n as u64)
        }
        // an additive field, absent from older report files: absent
        // reads 0, present must still be a number
        fn or_0(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
            v.get(key).map_or(Ok(0.0), |_| f64_of(v, key, ctx))
        }
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
        if let Some(flow) = v.get("flow") {
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
            if let Some(sj) = p.get("stages").and_then(Value::as_obj) {
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
        if let Some(quants) = v.get("quantiles").and_then(Value::as_obj) {
            for (k, q) in quants {
                let ctx = format!("report.quantiles.{k}");
                rep.quantiles.insert(
                    k.clone(),
                    QuantileStat {
                        class: u64_of(q, "class", &ctx)? as u8,
                        count: u64_of(q, "count", &ctx)?,
                        p50_us: f64_of(q, "p50_us", &ctx)?,
                        p99_us: f64_of(q, "p99_us", &ctx)?,
                        p999_us: f64_of(q, "p999_us", &ctx)?,
                    },
                );
            }
        }
        if let Some(decisions) = v.get("decisions").and_then(Value::as_obj) {
            for (k, n) in decisions {
                rep.decisions.insert(
                    k.clone(),
                    n.as_f64()
                        .ok_or_else(|| format!("report.decisions.{k}: not a number"))?
                        as u64,
                );
            }
        }
        // absent from pre-fault report files; treat that as empty
        if let Some(faults) = v.get("faults").and_then(Value::as_obj) {
            for (k, f) in faults {
                let ctx = format!("report.faults.{k}");
                rep.faults.insert(
                    k.clone(),
                    FaultStat {
                        injected: u64_of(f, "injected", &ctx)?,
                        retried: u64_of(f, "retried", &ctx)?,
                        faulted_ops: u64_of(f, "faulted_ops", &ctx)?,
                        recovered: u64_of(f, "recovered", &ctx)?,
                        fallbacks: u64_of(f, "fallbacks", &ctx)?,
                        // additive fields: absent from pre-partial-delivery
                        // report files, default to zero so old goldens load
                        chunk_retried: or_0(f, "chunk_retried", &ctx)? as u64,
                        partials: or_0(f, "partials", &ctx)? as u64,
                        partial_delivered: or_0(f, "partial_delivered", &ctx)? as u64,
                        partial_total: or_0(f, "partial_total", &ctx)? as u64,
                    },
                );
            }
        }
        // absent from pre-breaker report files; treat as empty
        if let Some(health) = v.get("health").and_then(Value::as_obj) {
            for (k, h) in health {
                let ctx = format!("report.health.{k}");
                rep.health.insert(
                    k.clone(),
                    HealthStat {
                        demotes: u64_of(h, "demotes", &ctx)?,
                        probes: u64_of(h, "probes", &ctx)?,
                        promotes: u64_of(h, "promotes", &ctx)?,
                    },
                );
            }
        }
        // additive: absent from pre-fail-stop report files, all-zero
        if let Some(m) = v.get("membership") {
            let ctx = "report.membership";
            rep.membership = MemberStat {
                pe_dead: or_0(m, "pe_dead", ctx)? as u64,
                evicts: or_0(m, "evicts", ctx)? as u64,
                view_changes: or_0(m, "view_changes", ctx)? as u64,
                rejoins: or_0(m, "rejoins", ctx)? as u64,
                last_epoch: or_0(m, "last_epoch", ctx)? as u64,
                convergence_us: or_0(m, "convergence_us", ctx)?,
            };
        }
        // additive: absent from pre-partition report files, all-zero
        if let Some(p) = v.get("partitions") {
            let ctx = "report.partitions";
            rep.partitions = PartitionStat {
                partitions: or_0(p, "partitions", ctx)? as u64,
                fences: or_0(p, "fences", ctx)? as u64,
                heals: or_0(p, "heals", ctx)? as u64,
                last_epoch: or_0(p, "last_epoch", ctx)? as u64,
                heal_convergence_us: or_0(p, "heal_convergence_us", ctx)?,
            };
        }
        // additive: absent from pre-windowing report files, defaults 0
        if let Some(tl) = v.get("timeline") {
            rep.windows = or_0(tl, "windows", "report.timeline")? as u64;
            rep.slo_violations = or_0(tl, "violations", "report.timeline")? as u64;
        }
        // links ride along so the contention delta gate can compare
        // report files, not just raw traces
        if let Some(links) = v.get("links").and_then(Value::as_obj) {
            for (k, l) in links {
                let ctx = format!("report.links.{k}");
                rep.links.insert(
                    k.clone(),
                    LinkStat {
                        samples: u64_of(l, "samples", &ctx)?,
                        bytes: u64_of(l, "bytes", &ctx)?,
                        busy_us: f64_of(l, "busy_us", &ctx)?,
                        peak_queue: u64_of(l, "peak_queue", &ctx)? as u32,
                        contended_windows: u64_of(l, "contended_windows", &ctx)?,
                        contended_us: f64_of(l, "contended_us", &ctx)?,
                    },
                );
            }
        }
        Ok(rep)
    }

    /// As [`Report::from_json`] on an unparsed document.
    pub fn from_json_str(doc: &str) -> Result<Report, String> {
        let v = obs::json::parse(doc).map_err(|e| format!("report: not JSON: {e}"))?;
        Report::from_json(&v)
    }
}
