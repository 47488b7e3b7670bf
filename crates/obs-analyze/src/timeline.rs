//! Per-window time series over a windowed trace (`gdrprof timeline`).
//!
//! The windowed metrics plane (`GDR_SHMEM_OBS_WINDOW_US`) emits one
//! `window-snapshot` instant per virtual-time window; this module turns
//! those into a latency/contention/fault time series, flags
//! change-points where the per-window p99 or contended fraction jumps,
//! and aligns fault bursts and circuit-breaker lifecycles
//! (demote → probe → promote) against the series. Traces recorded
//! without the plane can still be timelined by deriving the windows
//! from the raw spans with an explicit `--window <us>`.

use crate::trace::{span_us, Trace};
use obs::json::ObjWriter;
use obs::{us, Payload};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema marker written by [`Timeline::to_json`].
pub const TIMELINE_SCHEMA: &str = "gdrprof-timeline-v1";

/// A p99 step counts as a change-point when the larger side is at
/// least this multiple of the smaller...
const P99_JUMP_RATIO: f64 = 1.5;
/// ...and the absolute step is at least this many microseconds (so
/// sub-microsecond noise on tiny ops never flags).
const P99_JUMP_ABS_US: f64 = 1.0;
/// A contended-fraction step of at least this much (either direction)
/// is a change-point on its own.
const CONTENDED_JUMP: f64 = 0.25;

/// One window of the time series.
#[derive(Clone, Debug, Default)]
pub struct TimelineRow {
    pub window: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Completed ops whose latency landed in this window.
    pub ops: u64,
    /// Worst per-cell p99 in this window (max over the window's
    /// op × protocol × size-class cells; 0 when no ops completed).
    pub p99_us: f64,
    /// Worst per-link contended fraction (samples with queue depth
    /// >= 2 over all samples) in this window.
    pub contended_frac: f64,
    /// Transient faults injected in this window.
    pub faults: u64,
    /// Retry decisions (whole-op and chunk replays) in this window.
    pub retries: u64,
    pub demotes: u64,
    pub probes: u64,
    pub promotes: u64,
    /// SLO watchdog violations indexed to this window.
    pub violations: u64,
    /// The p99 or contended fraction jumped relative to the previous
    /// active window (see the module constants for the rule).
    pub change_point: bool,
}

/// A maximal run of consecutive windows with injected faults.
#[derive(Clone, Debug)]
pub struct FaultBurst {
    pub first: u64,
    pub last: u64,
    /// A change-point was flagged inside the burst or in the window
    /// immediately after it (retried ops may complete one window late).
    pub aligned: bool,
}

/// One circuit-breaker lifecycle, expressed in window indices.
#[derive(Clone, Debug)]
pub struct Lifecycle {
    pub protocol: String,
    pub demote: u64,
    /// First half-open probe after the demotion, if any.
    pub probe: Option<u64>,
    /// Promotion that closed the lifecycle, if any.
    pub promote: Option<u64>,
}

/// The assembled time series.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    pub width_us: f64,
    pub rows: Vec<TimelineRow>,
    pub bursts: Vec<FaultBurst>,
    pub lifecycles: Vec<Lifecycle>,
    /// True when the rows were derived from raw spans (`--window`)
    /// rather than read from `window-snapshot` records.
    pub derived: bool,
}

impl Timeline {
    /// Total SLO violations across the series.
    pub fn violations(&self) -> u64 {
        self.rows.iter().map(|r| r.violations).sum()
    }

    /// Windows flagged as change-points.
    pub fn change_points(&self) -> u64 {
        self.rows.iter().filter(|r| r.change_point).count() as u64
    }
}

/// Flag change-points: compare each window's p99 against the previous
/// window that completed ops (empty windows don't reset the baseline),
/// and each window's contended fraction against the immediately
/// preceding row.
fn flag_change_points(rows: &mut [TimelineRow]) {
    let mut prev_p99: Option<f64> = None;
    let mut prev_cf = 0.0f64;
    for row in rows.iter_mut() {
        let mut cp = false;
        if row.ops > 0 {
            if let Some(pp) = prev_p99 {
                let hi = row.p99_us.max(pp);
                let lo = row.p99_us.min(pp);
                if hi - lo >= P99_JUMP_ABS_US && (lo <= 0.0 || hi / lo >= P99_JUMP_RATIO) {
                    cp = true;
                }
            }
            prev_p99 = Some(row.p99_us);
        }
        if (row.contended_frac - prev_cf).abs() >= CONTENDED_JUMP {
            cp = true;
        }
        prev_cf = row.contended_frac;
        row.change_point = cp;
    }
}

/// Group consecutive faulted windows into bursts and check alignment
/// with the flagged change-points.
fn find_bursts(rows: &[TimelineRow]) -> Vec<FaultBurst> {
    let cps: Vec<u64> = rows.iter().filter(|r| r.change_point).map(|r| r.window).collect();
    let mut bursts: Vec<FaultBurst> = Vec::new();
    let mut run: Option<(u64, u64)> = None;
    for r in rows {
        if r.faults > 0 {
            run = match run {
                Some((f, l)) if r.window == l + 1 => Some((f, r.window)),
                Some((f, l)) => {
                    bursts.push(FaultBurst { first: f, last: l, aligned: false });
                    Some((r.window, r.window))
                }
                None => Some((r.window, r.window)),
            };
        } else if let Some((f, l)) = run.take() {
            bursts.push(FaultBurst { first: f, last: l, aligned: false });
        }
    }
    if let Some((f, l)) = run {
        bursts.push(FaultBurst { first: f, last: l, aligned: false });
    }
    for b in &mut bursts {
        b.aligned = cps.iter().any(|&w| w >= b.first && w <= b.last + 1);
    }
    bursts
}

/// Reconstruct demote → probe → promote lifecycles per protocol from
/// the raw breaker instants, expressed in window indices.
fn find_lifecycles(tr: &Trace, width_us: f64) -> Vec<Lifecycle> {
    let mut events: Vec<(f64, &str, &str)> = tr
        .events()
        .filter_map(|(_, e)| match (e.name, e.payload) {
            (event @ ("demote" | "probe" | "promote"), Payload::Health { protocol, .. }) => {
                Some((span_us(e).0, event, protocol))
            }
            _ => None,
        })
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut open: BTreeMap<&str, usize> = BTreeMap::new();
    let mut out: Vec<Lifecycle> = Vec::new();
    for (ts, event, protocol) in events {
        let w = (ts / width_us) as u64;
        match event {
            "demote" => {
                open.insert(protocol, out.len());
                out.push(Lifecycle {
                    protocol: protocol.to_string(),
                    demote: w,
                    probe: None,
                    promote: None,
                });
            }
            "probe" => {
                if let Some(&i) = open.get(protocol) {
                    out[i].probe.get_or_insert(w);
                }
            }
            _ => {
                if let Some(i) = open.remove(protocol) {
                    out[i].promote = Some(w);
                }
            }
        }
    }
    out
}

/// Build rows from the recorder's `window-snapshot` records.
fn rows_from_snapshots(tr: &Trace) -> Vec<TimelineRow> {
    let mut rows: Vec<TimelineRow> = Vec::with_capacity(tr.windows.len());
    for w in &tr.windows {
        let mut row = TimelineRow {
            window: w.index,
            start_us: us(w.start_ps),
            end_us: us(w.end_ps),
            ..TimelineRow::default()
        };
        for c in &w.cells {
            row.ops += c.count;
            if c.count > 0 {
                row.p99_us = row.p99_us.max(us(c.p99_ps));
            }
        }
        for l in &w.links {
            if l.samples > 0 {
                row.contended_frac = row.contended_frac.max(l.queued as f64 / l.samples as f64);
            }
        }
        for f in &w.faults {
            match f.what {
                "injected" => row.faults += f.n,
                "retried" | "chunk-retried" => row.retries += f.n,
                "demote" => row.demotes += f.n,
                "probe" => row.probes += f.n,
                "promote" => row.promotes += f.n,
                _ => {}
            }
        }
        rows.push(row);
    }
    for v in tr.windows.iter().flat_map(|w| &w.violations) {
        if let Some(row) = rows.iter_mut().find(|r| r.window == v.window) {
            row.violations += 1;
        }
    }
    rows
}

/// Derive rows from the raw spans and instants of a trace recorded
/// without the metrics plane. Latencies bucket by op-span *end* (the
/// plane feeds at completion time); the per-window p99 is a single
/// sketch over all the window's ops rather than a per-cell maximum.
fn rows_from_raw(tr: &Trace, width_us: f64) -> Vec<TimelineRow> {
    fn row(acc: &mut BTreeMap<u64, TimelineRow>, w: u64, width_us: f64) -> &mut TimelineRow {
        acc.entry(w).or_insert_with(|| TimelineRow {
            window: w,
            start_us: w as f64 * width_us,
            end_us: (w + 1) as f64 * width_us,
            ..TimelineRow::default()
        })
    }
    let w_of = |ts: f64| (ts / width_us) as u64;
    let mut acc: BTreeMap<u64, TimelineRow> = BTreeMap::new();
    let mut sketches: BTreeMap<u64, obs::hist::Sketch> = BTreeMap::new();
    // per-link counts of (total, queued) samples per window
    let mut link_counts: BTreeMap<(u64, &str), (u64, u64)> = BTreeMap::new();
    for (track, e) in tr.events() {
        let (ts, end) = span_us(e);
        match (e.name, e.payload) {
            (_, Payload::Op { .. }) if !e.dur.is_zero() => {
                let w = w_of(end);
                row(&mut acc, w, width_us).ops += 1;
                sketches
                    .entry(w)
                    .or_default()
                    .record((us(e.dur.as_ps()) * 1000.0).round() as u64);
            }
            ("fault", Payload::Fault { .. }) => row(&mut acc, w_of(ts), width_us).faults += 1,
            ("retry" | "chunk-retry", Payload::Retry { .. }) => row(&mut acc, w_of(ts), width_us).retries += 1,
            (event @ ("demote" | "probe" | "promote"), Payload::Health { .. }) => {
                let r = row(&mut acc, w_of(ts), width_us);
                match event {
                    "demote" => r.demotes += 1,
                    "probe" => r.probes += 1,
                    _ => r.promotes += 1,
                }
            }
            ("link", Payload::LinkSample { queue, .. }) => {
                let c = link_counts.entry((w_of(ts), track)).or_insert((0, 0));
                c.0 += 1;
                if queue >= 2 {
                    c.1 += 1;
                }
            }
            _ => {}
        }
    }
    for ((w, _), (samples, queued)) in link_counts {
        let r = row(&mut acc, w, width_us);
        if samples > 0 {
            r.contended_frac = r.contended_frac.max(queued as f64 / samples as f64);
        }
    }
    for v in tr.windows.iter().flat_map(|w| &w.violations) {
        row(&mut acc, v.window, width_us).violations += 1;
    }
    let mut rows: Vec<TimelineRow> = acc.into_values().collect();
    for (w, s) in sketches {
        if let Some(r) = rows.iter_mut().find(|r| r.window == w) {
            r.p99_us = s.p99() as f64 / 1000.0;
        }
    }
    rows
}

/// Assemble the timeline. With `width_us` the rows are derived from
/// raw events regardless of any snapshot records; without it the
/// trace must carry `window-snapshot` records.
pub fn timeline(tr: &Trace, width_us: Option<u32>) -> Result<Timeline, String> {
    let (rows, width, derived) = match width_us {
        Some(w) if w > 0 => (rows_from_raw(tr, w as f64), w as f64, true),
        Some(_) => return Err("--window must be a positive number of microseconds".into()),
        None => {
            if tr.windows.is_empty() {
                return Err(
                    "trace has no window-snapshot records (run with \
                     GDR_SHMEM_OBS_WINDOW_US set, or pass --window <us> to derive)"
                        .into(),
                );
            }
            let w = us(tr.windows[0].end_ps) - us(tr.windows[0].start_ps);
            (rows_from_snapshots(tr), w, false)
        }
    };
    let mut rows = rows;
    flag_change_points(&mut rows);
    let bursts = find_bursts(&rows);
    let lifecycles = find_lifecycles(tr, width);
    Ok(Timeline {
        width_us: width,
        rows,
        bursts,
        lifecycles,
        derived,
    })
}

impl Timeline {
    /// Human-readable rendering (the `gdrprof timeline` default
    /// output). Line shapes are stable — CI greps them.
    pub fn text(&self) -> String {
        let mut s = String::new();
        let derived = if self.derived { ", derived" } else { "" };
        let _ = writeln!(
            s,
            "gdrprof timeline (width {:.0}us, {} windows{derived})",
            self.width_us,
            self.rows.len()
        );
        for r in &self.rows {
            let mark = if r.change_point { "  CHANGE-POINT" } else { "" };
            let _ = writeln!(
                s,
                "  w{:03} [{:.0}..{:.0}us] ops {:<5} p99 {:.3}us  contended {:.1}%  \
                 faults {:<4} retries {:<4} viol {}{mark}",
                r.window,
                r.start_us,
                r.end_us,
                r.ops,
                r.p99_us,
                r.contended_frac * 100.0,
                r.faults,
                r.retries,
                r.violations,
            );
        }
        for b in &self.bursts {
            let align = if b.aligned {
                "aligned with a p99/contention change-point".to_string()
            } else {
                "no aligned change-point".to_string()
            };
            let _ = writeln!(s, "fault burst: windows {}..{}, {align}", b.first, b.last);
        }
        for lc in &self.lifecycles {
            let probe = match lc.probe {
                Some(w) => format!("probe @w{w}"),
                None => "probe -".to_string(),
            };
            let promote = match lc.promote {
                Some(w) => format!("promote @w{w}"),
                None => "promote -".to_string(),
            };
            let _ = writeln!(
                s,
                "lifecycle {}: demote @w{} {probe} {promote}",
                lc.protocol, lc.demote
            );
        }
        let total = self.violations();
        if total > 0 {
            let hit: Vec<u64> = self
                .rows
                .iter()
                .filter(|r| r.violations > 0)
                .map(|r| r.window)
                .collect();
            let _ = writeln!(
                s,
                "slo-violations: {total} in {} windows (first w{}, last w{})",
                hit.len(),
                hit[0],
                hit[hit.len() - 1]
            );
        } else {
            let _ = writeln!(s, "slo-violations: 0");
        }
        s
    }

    /// Machine-readable rendering: the `gdrprof-timeline-v1` JSON
    /// object. Deterministic field order and float formatting, so
    /// identical traces produce byte-identical documents.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut o = ObjWriter::new(&mut out);
        o.str_field("schema", TIMELINE_SCHEMA);
        o.num_field("width_us", self.width_us);
        o.u64_field("windows", self.rows.len() as u64);
        o.u64_field("violations", self.violations());
        o.u64_field("change_points", self.change_points());
        o.bool_field("derived", self.derived);
        {
            let buf = o.raw_field("rows");
            buf.push('[');
            for (i, r) in self.rows.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut e = ObjWriter::new(buf);
                e.u64_field("window", r.window)
                    .num_field("start_us", r.start_us)
                    .num_field("end_us", r.end_us)
                    .u64_field("ops", r.ops)
                    .num_field("p99_us", r.p99_us)
                    .num_field("contended_frac", r.contended_frac)
                    .u64_field("faults", r.faults)
                    .u64_field("retries", r.retries)
                    .u64_field("demotes", r.demotes)
                    .u64_field("probes", r.probes)
                    .u64_field("promotes", r.promotes)
                    .u64_field("violations", r.violations)
                    .bool_field("change_point", r.change_point);
                e.finish();
            }
            buf.push(']');
        }
        {
            let buf = o.raw_field("bursts");
            buf.push('[');
            for (i, b) in self.bursts.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut e = ObjWriter::new(buf);
                e.u64_field("first", b.first)
                    .u64_field("last", b.last)
                    .bool_field("aligned", b.aligned);
                e.finish();
            }
            buf.push(']');
        }
        {
            let buf = o.raw_field("lifecycles");
            buf.push('[');
            for (i, lc) in self.lifecycles.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut e = ObjWriter::new(buf);
                e.str_field("protocol", &lc.protocol);
                e.u64_field("demote", lc.demote);
                match lc.probe {
                    Some(w) => {
                        e.u64_field("probe", w);
                    }
                    None => e.raw_field("probe").push_str("null"),
                }
                match lc.promote {
                    Some(w) => {
                        e.u64_field("promote", w);
                    }
                    None => e.raw_field("promote").push_str("null"),
                }
                e.finish();
            }
            buf.push(']');
        }
        o.finish();
        out
    }
}
