//! Per-window time series over a windowed trace (`gdrprof timeline`).
//!
//! The windowed metrics plane (`GDR_SHMEM_OBS_WINDOW_US`) emits one
//! `window-snapshot` instant per virtual-time window; this module turns
//! those into a latency/contention/fault time series, flags
//! change-points where the per-window p99 or contended fraction jumps,
//! and aligns fault bursts and circuit-breaker lifecycles
//! (demote → probe → promote) against the series. With an explicit
//! `--window <us>` the windows come from running the same plane over
//! the trace's spans and instants instead, so a trace recorded without
//! the plane, or at another width, still has a timeline, and one
//! recorded at that width gets the rows its snapshots give.

use crate::trace::Trace;
use obs::hist::bucket_index;
use obs::window::WindowPlane;
use obs::{us, FaultEvent, Payload, WindowSnap};
use std::borrow::Cow;
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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineRow {
    pub window: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Correlated RMA ops that completed in this window.
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
    /// Recorded SLO watchdog violations whose instant (the close of
    /// the window they were found in) falls in this window.
    pub violations: u64,
    /// The p99 or contended fraction jumped relative to the previous
    /// active window (see the module constants for the rule).
    pub change_point: bool,
}

/// The row column a fault event counts into, if any.
fn column(event: FaultEvent) -> Option<fn(&mut TimelineRow) -> &mut u64> {
    Some(match event {
        FaultEvent::Fault => |r| &mut r.faults,
        FaultEvent::Retry | FaultEvent::ChunkRetry => |r| &mut r.retries,
        FaultEvent::Demote => |r| &mut r.demotes,
        FaultEvent::Probe => |r| &mut r.probes,
        FaultEvent::Promote => |r| &mut r.promotes,
        _ => return None,
    })
}

/// A maximal run of consecutive windows with injected faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultBurst {
    pub first: u64,
    pub last: u64,
    /// A change-point was flagged inside the burst or in the window
    /// immediately after it (retried ops may complete one window late).
    pub aligned: bool,
}

/// One circuit-breaker lifecycle, expressed in window indices.
#[derive(Clone, Debug, PartialEq)]
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
    /// True when the rows come from the plane run over the trace
    /// (`--window`) rather than from its `window-snapshot` records.
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
/// the raw breaker instants, each placed in window `ts / width` as the
/// plane places what it is fed.
fn find_lifecycles(tr: &Trace, width_ps: u64) -> Vec<Lifecycle> {
    let mut events: Vec<(u64, FaultEvent, &str)> = tr
        .events()
        .filter_map(|(_, e)| match (e.name, e.payload) {
            (name, Payload::Health { protocol, .. }) => match FaultEvent::of(name)? {
                event @ (FaultEvent::Demote | FaultEvent::Probe | FaultEvent::Promote) => {
                    Some((e.ts.as_ps(), event, protocol))
                }
                _ => None,
            },
            _ => None,
        })
        .collect();
    events.sort_by_key(|&(ts, ..)| ts);
    let mut open: BTreeMap<&str, usize> = BTreeMap::new();
    let mut out: Vec<Lifecycle> = Vec::new();
    for (ts, event, protocol) in events {
        let w = ts / width_ps;
        match event {
            FaultEvent::Demote => {
                open.insert(protocol, out.len());
                out.push(Lifecycle {
                    protocol: protocol.to_string(),
                    demote: w,
                    probe: None,
                    promote: None,
                });
            }
            FaultEvent::Probe => {
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

/// Run the recorder's windowed metrics plane over the trace, fed what
/// the run fed it: each correlated op span's latency at its end (the
/// runtime records a span for exactly the ops it feeds, and no other
/// span carries an op id), each link sample's reservation (bytes and
/// busy time are the deltas of its track's cumulative totals) and each
/// fault-event instant's tally.
fn derive<'a>(tr: &Trace<'a>, width_us: u32) -> Vec<WindowSnap<'a>> {
    let mut plane = WindowPlane::new(width_us);
    for (index, (track, events)) in tr.tracks.iter().enumerate() {
        let mut totals = (0, 0);
        for e in events {
            let ts = e.ts.as_ps();
            match e.payload {
                Payload::Op { op, protocol, size, op_id, .. } if op_id != 0 => {
                    let (class, dur) = (bucket_index(size) as u8, e.dur.as_ps());
                    plane.feed_latency(op, protocol, class, dur, ts.saturating_add(dur));
                }
                Payload::LinkSample { total, busy_ps, queue } => {
                    let (bytes, busy) = (total.saturating_sub(totals.0), busy_ps.saturating_sub(totals.1));
                    plane.feed_link(index as u32, track, ts, bytes, busy, queue);
                    totals = (total, busy_ps);
                }
                payload => {
                    if let (Some(event), Some(key)) = (FaultEvent::of(e.name), payload.fault_key()) {
                        plane.feed_fault(event.tally(), key, ts);
                    }
                }
            }
        }
    }
    plane.report()
}

/// One row per window snapshot, plus the trace's recorded SLO
/// violations, each in the `width_ps` window that holds its instant
/// (the close of the window it was found in).
fn rows(snaps: &[WindowSnap], tr: &Trace, width_ps: u64) -> Vec<TimelineRow> {
    let row = |window, start_ps, end_ps| TimelineRow {
        window,
        start_us: us(start_ps),
        end_us: us(end_ps),
        ..TimelineRow::default()
    };
    let mut rows: BTreeMap<u64, TimelineRow> = BTreeMap::new();
    for w in snaps {
        let r = rows.entry(w.index).or_insert_with(|| row(w.index, w.start_ps, w.end_ps));
        for c in &w.cells {
            r.ops += c.count;
            if c.count > 0 {
                r.p99_us = r.p99_us.max(us(c.p99_ps));
            }
        }
        for l in &w.links {
            if l.samples > 0 {
                r.contended_frac = r.contended_frac.max(l.queued as f64 / l.samples as f64);
            }
        }
        for f in &w.faults {
            if let Some(col) = FaultEvent::of_tally(f.what).and_then(column) {
                *col(r) += f.n;
            }
        }
    }
    for v in tr.windows.iter().flat_map(|w| &w.violations) {
        let index = v.ts_ps.saturating_sub(1) / width_ps;
        let start_ps = index * width_ps;
        let r = rows.entry(index).or_insert_with(|| row(index, start_ps, start_ps.saturating_add(width_ps)));
        r.violations += 1;
    }
    rows.into_values().collect()
}

/// Assemble the timeline. With `width_us` the rows come from the plane
/// run over the trace at that width ([`derive`]), whatever snapshot
/// records it carries; without it the trace must carry
/// `window-snapshot` records.
pub fn timeline(tr: &Trace, width_us: Option<u32>) -> Result<Timeline, String> {
    let (snaps, width_ps) = match (width_us, tr.windows.first()) {
        (Some(0), _) => return Err("--window must be a positive number of microseconds".into()),
        (Some(w), _) => (Cow::Owned(derive(tr, w)), w as u64 * 1_000_000),
        (None, Some(w)) if w.end_ps > w.start_ps => (Cow::Borrowed(&tr.windows[..]), w.end_ps - w.start_ps),
        (None, Some(_)) => return Err("window-snapshot records of zero width".into()),
        (None, None) => {
            return Err("trace has no window-snapshot records (run with \
                 GDR_SHMEM_OBS_WINDOW_US set, or pass --window <us> to derive)"
                .into())
        }
    };
    let mut rows = rows(&snaps, tr, width_ps);
    flag_change_points(&mut rows);
    let bursts = find_bursts(&rows);
    Ok(Timeline {
        width_us: us(width_ps),
        rows,
        bursts,
        lifecycles: find_lifecycles(tr, width_ps),
        derived: width_us.is_some(),
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
        obs::json::object(|o| {
            o.str_field("schema", TIMELINE_SCHEMA);
            o.num_field("width_us", self.width_us);
            o.u64_field("windows", self.rows.len() as u64);
            o.u64_field("violations", self.violations());
            o.u64_field("change_points", self.change_points());
            o.bool_field("derived", self.derived);
            o.arr_field("rows", &self.rows, |e, r| {
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
            });
            o.arr_field("bursts", &self.bursts, |e, b| {
                e.u64_field("first", b.first)
                    .u64_field("last", b.last)
                    .bool_field("aligned", b.aligned);
            });
            o.arr_field("lifecycles", &self.lifecycles, |e, lc| {
                e.str_field("protocol", &lc.protocol)
                    .u64_field("demote", lc.demote)
                    .opt_num_field("probe", lc.probe.map(|w| w as f64))
                    .opt_num_field("promote", lc.promote.map(|w| w as f64));
            });
        })
    }
}
