//! Virtual-time windowed metrics plane and its SLO watchdog.
//!
//! The whole-run aggregates ([`Recorder::quantile_sketches`],
//! link/fault counters) average away anything time-local: a burst
//! window, a demotion episode, a traffic shift. This module rolls the
//! same metrics **per fixed-width virtual-time window** instead:
//!
//! * a [`WindowPlane`] buckets op latencies, link reservations and
//!   fault/health tallies by `ts / width` into `WindowAccum`s;
//! * a declarative [`SloPolicy`] (budget grammar below) is evaluated
//!   against each window, yielding typed [`SloViolation`]s;
//! * at export time [`WindowPlane::report`] recomputes every window
//!   snapshot from the accumulated data — a pure function of the
//!   recorded stream, so two identical runs serialize byte-identical
//!   `window-snapshot` / `slo-violation` trace records.
//!
//! Budget grammar (`GDR_SHMEM_OBS_SLO`; clauses split on `;` or `,`):
//!
//! ```text
//! p99:<op>/<protocol>/<class>=<budget_us>   p99 per cell ('*' wildcards; class cNN, NN or '*')
//! contended:<link-substr>=<max_frac>        queued-sample fraction per matching link
//! recovery:<protocol>=<min_frac>            recovered/injected per protocol
//! promote:<protocol>=<min_frac>             promotes/demotes per protocol
//! ```
//!
//! [`Recorder::quantile_sketches`]: crate::Recorder::quantile_sketches

use crate::hist::Sketch;
use crate::json;
use crate::{us, FaultEvent};
use std::collections::BTreeMap;

/// One clause of an [`SloPolicy`].
#[derive(Clone, Debug, PartialEq)]
pub enum SloClause {
    /// `p99:<op>/<protocol>/<class>=<budget_us>` — the window's p99
    /// critical-path latency for every matching
    /// (op × protocol × size-class) cell must stay at or under the
    /// budget (virtual microseconds). `*` matches any op/protocol;
    /// `class` is `cNN`, a plain number, or `*`.
    P99 {
        op: String,
        protocol: String,
        class: Option<u8>,
        budget_us: f64,
    },
    /// `contended:<link-substr>=<max_frac>` — the fraction of a
    /// matching link's reservations that queued behind another
    /// (queue depth ≥ 2) must stay at or under `max_frac`. The key is
    /// a substring of the link track name (`*` matches every link).
    Contended { link: String, max_frac: f64 },
    /// `recovery:<protocol>=<min_frac>` — `recovered / injected` for a
    /// matching protocol must stay at or above `min_frac` (windows
    /// with no injected faults pass vacuously).
    Recovery { protocol: String, min_frac: f64 },
    /// `promote:<protocol>=<min_frac>` — `promotes / demotes` for a
    /// matching protocol must stay at or above `min_frac` (windows
    /// with no demotions pass vacuously).
    Promote { protocol: String, min_frac: f64 },
}

/// Why an SLO spec string failed to parse. Rendered with the offending
/// clause so `GDR_SHMEM_OBS_SLO` typos fail loudly and precisely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SloParseError {
    /// A clause without `=<value>`.
    MissingBudget(String),
    /// A clause without a `kind:` prefix, or an unrecognized kind.
    UnknownKind(String),
    /// A `p99:` key that is not `<op>/<protocol>/<class>`.
    BadCellKey(String),
    /// A size class that is not `cNN`, a number, or `*`.
    BadClass(String),
    /// A budget value that is not a finite number.
    BadNumber(String),
}

impl std::fmt::Display for SloParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloParseError::MissingBudget(c) => write!(f, "slo clause {c:?}: missing '=<budget>'"),
            SloParseError::UnknownKind(c) => write!(
                f,
                "slo clause {c:?}: unknown kind (expected p99:/contended:/recovery:/promote:)"
            ),
            SloParseError::BadCellKey(c) => {
                write!(f, "slo clause {c:?}: p99 key must be <op>/<protocol>/<class>")
            }
            SloParseError::BadClass(c) => {
                write!(f, "slo clause {c:?}: size class must be cNN, a number, or '*'")
            }
            SloParseError::BadNumber(c) => write!(f, "slo clause {c:?}: budget is not a number"),
        }
    }
}

impl std::error::Error for SloParseError {}

/// A declarative set of per-window budgets, evaluated at every window
/// close. Parse one from the grammar with [`SloPolicy::parse`], or
/// build clauses programmatically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloPolicy {
    pub clauses: Vec<SloClause>,
}

fn parse_class(s: &str, clause: &str) -> Result<Option<u8>, SloParseError> {
    if s == "*" {
        return Ok(None);
    }
    let digits = s.strip_prefix('c').unwrap_or(s);
    digits
        .parse::<u8>()
        .map(Some)
        .map_err(|_| SloParseError::BadClass(clause.to_string()))
}

impl SloPolicy {
    pub fn new() -> SloPolicy {
        SloPolicy::default()
    }

    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Parse the budget grammar (see the module docs). Empty clauses
    /// are skipped, so trailing separators are harmless.
    pub fn parse(spec: &str) -> Result<SloPolicy, SloParseError> {
        let mut clauses = Vec::new();
        for raw in spec.split([';', ',']) {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            let (head, val) = clause
                .split_once('=')
                .ok_or_else(|| SloParseError::MissingBudget(clause.to_string()))?;
            let value: f64 = val
                .trim()
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| SloParseError::BadNumber(clause.to_string()))?;
            let (kind, key) = head
                .split_once(':')
                .ok_or_else(|| SloParseError::UnknownKind(clause.to_string()))?;
            let key = key.trim();
            match kind.trim() {
                "p99" => {
                    let mut parts = key.split('/');
                    match (parts.next(), parts.next(), parts.next(), parts.next()) {
                        (Some(op), Some(proto), Some(cls), None) => clauses.push(SloClause::P99 {
                            op: op.to_string(),
                            protocol: proto.to_string(),
                            class: parse_class(cls, clause)?,
                            budget_us: value,
                        }),
                        _ => return Err(SloParseError::BadCellKey(clause.to_string())),
                    }
                }
                "contended" => clauses.push(SloClause::Contended {
                    link: key.to_string(),
                    max_frac: value,
                }),
                "recovery" => clauses.push(SloClause::Recovery {
                    protocol: key.to_string(),
                    min_frac: value,
                }),
                "promote" => clauses.push(SloClause::Promote {
                    protocol: key.to_string(),
                    min_frac: value,
                }),
                _ => return Err(SloParseError::UnknownKind(clause.to_string())),
            }
        }
        Ok(SloPolicy { clauses })
    }
}

/// One budget breach in one window. `kind` is `"p99"`, `"contended"`,
/// `"recovery"` or `"promote"`; the cell/link fields that don't apply
/// to the kind are empty strings. `ts_ps` is the closing edge of the
/// violating window — the virtual instant the watchdog fires at.
#[derive(Clone, Debug, PartialEq)]
pub struct SloViolation<'a> {
    pub window: u64,
    pub ts_ps: u64,
    pub kind: &'a str,
    pub op: String,
    pub protocol: String,
    pub class: String,
    pub link: String,
    pub actual: f64,
    pub budget: f64,
}

impl SloViolation<'_> {
    /// The Chrome-trace `args` object of the `slo-violation` instant.
    pub fn args_json(&self) -> String {
        json::object(|o| {
            o.u64_field("window", self.window)
                .str_field("kind", self.kind)
                .str_field("op", &self.op)
                .str_field("protocol", &self.protocol)
                .str_field("class", &self.class)
                .str_field("link", &self.link)
                .num_field("actual", self.actual)
                .num_field("budget", self.budget);
        })
    }
}

/// Per-window accumulation for one (op × protocol × size-class) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSnap<'a> {
    pub op: &'a str,
    pub protocol: &'a str,
    pub class: u8,
    pub count: u64,
    pub p50_ps: u64,
    pub p99_ps: u64,
}

/// Per-window accumulation for one link track.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkSnap {
    pub link: String,
    pub bytes: u64,
    pub busy_ps: u64,
    /// Reservations that started inside the window.
    pub samples: u64,
    /// Reservations that queued behind another (queue depth ≥ 2).
    pub queued: u64,
}

/// Per-window fault/health tally (`what` is a
/// [`Recorder::fault_tally`] key — `"injected"`, `"demote"`, ...).
///
/// [`Recorder::fault_tally`]: crate::Recorder::fault_tally
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSnap<'a> {
    pub what: &'a str,
    pub protocol: &'a str,
    pub n: u64,
}

/// One closed window, ready for export: the deterministic final rollup
/// of everything that landed in `[start_ps, end_ps)`, plus the SLO
/// violations the policy finds in it.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnap<'a> {
    pub index: u64,
    pub start_ps: u64,
    pub end_ps: u64,
    pub cells: Vec<CellSnap<'a>>,
    pub links: Vec<LinkSnap>,
    pub faults: Vec<FaultSnap<'a>>,
    pub violations: Vec<SloViolation<'a>>,
}

impl WindowSnap<'_> {
    /// The Chrome-trace `args` object of the `window-snapshot` instant.
    pub fn args_json(&self) -> String {
        json::object(|o| {
            o.u64_field("window", self.index)
                .num_field("start_us", us(self.start_ps))
                .num_field("end_us", us(self.end_ps));
            o.arr_field("cells", &self.cells, |w, c| {
                w.str_field("op", c.op)
                    .str_field("protocol", c.protocol)
                    .u64_field("class", c.class as u64)
                    .u64_field("count", c.count)
                    .num_field("p50_us", us(c.p50_ps))
                    .num_field("p99_us", us(c.p99_ps));
            });
            o.arr_field("links", &self.links, |w, l| {
                w.str_field("link", &l.link)
                    .u64_field("bytes", l.bytes)
                    .num_field("busy_us", us(l.busy_ps))
                    .u64_field("samples", l.samples)
                    .u64_field("queued", l.queued);
            });
            o.arr_field("faults", &self.faults, |w, fa| {
                w.str_field("what", fa.what)
                    .str_field("protocol", fa.protocol)
                    .u64_field("n", fa.n);
            });
        })
    }
}

struct LinkWin {
    name: String,
    bytes: u64,
    busy_ps: u64,
    samples: u64,
    queued: u64,
}

/// Everything that landed in one window, keyed for deterministic
/// iteration.
#[derive(Default)]
struct WindowAccum {
    cells: BTreeMap<(&'static str, &'static str, u8), Sketch>,
    links: BTreeMap<u32, LinkWin>,
    faults: BTreeMap<(&'static str, &'static str), u64>,
}

fn pat(pattern: &str, value: &str) -> bool {
    pattern == "*" || pattern == value
}

fn eval_window(policy: &SloPolicy, idx: u64, width_ps: u64, acc: &WindowAccum) -> Vec<SloViolation<'static>> {
    let end_ps = (idx + 1) * width_ps;
    let mut out = Vec::new();
    for clause in &policy.clauses {
        match clause {
            SloClause::P99 {
                op,
                protocol,
                class,
                budget_us,
            } => {
                for ((cop, cproto, ccls), sk) in &acc.cells {
                    if !pat(op, cop) || !pat(protocol, cproto) {
                        continue;
                    }
                    if let Some(c) = class {
                        if c != ccls {
                            continue;
                        }
                    }
                    let p99_us = us(sk.p99());
                    if p99_us > *budget_us {
                        out.push(SloViolation {
                            window: idx,
                            ts_ps: end_ps,
                            kind: "p99",
                            op: cop.to_string(),
                            protocol: cproto.to_string(),
                            class: format!("c{ccls:02}"),
                            link: String::new(),
                            actual: p99_us,
                            budget: *budget_us,
                        });
                    }
                }
            }
            SloClause::Contended { link, max_frac } => {
                for lw in acc.links.values() {
                    if lw.samples == 0 || !(link == "*" || lw.name.contains(link.as_str())) {
                        continue;
                    }
                    let frac = lw.queued as f64 / lw.samples as f64;
                    if frac > *max_frac {
                        out.push(SloViolation {
                            window: idx,
                            ts_ps: end_ps,
                            kind: "contended",
                            op: String::new(),
                            protocol: String::new(),
                            class: String::new(),
                            link: lw.name.clone(),
                            actual: frac,
                            budget: *max_frac,
                        });
                    }
                }
            }
            SloClause::Recovery { protocol, min_frac } => {
                for (&(what, proto), &injected) in &acc.faults {
                    if what != FaultEvent::Fault.tally() || injected == 0 || !pat(protocol, proto) {
                        continue;
                    }
                    let recovered = acc.faults.get(&("recovered", proto)).copied().unwrap_or(0);
                    let rate = recovered as f64 / injected as f64;
                    if rate < *min_frac {
                        out.push(SloViolation {
                            window: idx,
                            ts_ps: end_ps,
                            kind: "recovery",
                            op: String::new(),
                            protocol: proto.to_string(),
                            class: String::new(),
                            link: String::new(),
                            actual: rate,
                            budget: *min_frac,
                        });
                    }
                }
            }
            SloClause::Promote { protocol, min_frac } => {
                for (&(what, proto), &demotes) in &acc.faults {
                    if what != FaultEvent::Demote.tally() || demotes == 0 || !pat(protocol, proto) {
                        continue;
                    }
                    let promotes = acc.faults.get(&(FaultEvent::Promote.tally(), proto)).copied().unwrap_or(0);
                    let rate = promotes.min(demotes) as f64 / demotes as f64;
                    if rate < *min_frac {
                        out.push(SloViolation {
                            window: idx,
                            ts_ps: end_ps,
                            kind: "promote",
                            op: String::new(),
                            protocol: proto.to_string(),
                            class: String::new(),
                            link: String::new(),
                            actual: rate,
                            budget: *min_frac,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The windowed metrics plane: buckets the recorder's metric stream by
/// fixed-width virtual-time windows. Owned by the recorder in its own
/// `RefCell`. [`WindowPlane::report`] is the export-time rollup and the
/// one place the [`SloPolicy`] is evaluated.
pub struct WindowPlane {
    width_ps: u64,
    policy: SloPolicy,
    open: BTreeMap<u64, WindowAccum>,
}

impl WindowPlane {
    /// `width_us` must be nonzero (the recorder gates on it).
    pub fn new(width_us: u32) -> WindowPlane {
        WindowPlane {
            width_ps: width_us.max(1) as u64 * 1_000_000,
            policy: SloPolicy::default(),
            open: BTreeMap::new(),
        }
    }

    pub fn width_ps(&self) -> u64 {
        self.width_ps
    }

    pub fn set_policy(&mut self, policy: SloPolicy) {
        self.policy = policy;
    }

    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Feed one op-latency sample completed at `ts_ps`.
    pub fn feed_latency(
        &mut self,
        op: &'static str,
        protocol: &'static str,
        class: u8,
        dur_ps: u64,
        ts_ps: u64,
    ) {
        self.open
            .entry(ts_ps / self.width_ps)
            .or_default()
            .cells
            .entry((op, protocol, class))
            .or_default()
            .record(dur_ps);
    }

    /// Feed one fault/health tally stamped at `ts_ps`.
    pub fn feed_fault(&mut self, what: &'static str, protocol: &'static str, ts_ps: u64) {
        *self
            .open
            .entry(ts_ps / self.width_ps)
            .or_default()
            .faults
            .entry((what, protocol))
            .or_insert(0) += 1;
    }

    /// Feed one link reservation that started at `ts_ps`.
    pub fn feed_link(
        &mut self,
        index: u32,
        name: &str,
        ts_ps: u64,
        bytes: u64,
        busy_ps: u64,
        queue: u32,
    ) {
        let lw = self
            .open
            .entry(ts_ps / self.width_ps)
            .or_default()
            .links
            .entry(index)
            .or_insert_with(|| LinkWin {
                name: name.to_string(),
                bytes: 0,
                busy_ps: 0,
                samples: 0,
                queued: 0,
            });
        lw.bytes += bytes;
        lw.busy_ps += busy_ps;
        lw.samples += 1;
        if queue >= 2 {
            lw.queued += 1;
        }
    }

    /// The exact final rollup: every non-empty window in index order,
    /// with the policy evaluated against the complete window contents.
    /// Pure and idempotent — late samples are in their true window.
    pub fn report(&self) -> Vec<WindowSnap<'static>> {
        self.open
            .iter()
            .map(|(&idx, acc)| WindowSnap {
                index: idx,
                start_ps: idx * self.width_ps,
                end_ps: (idx + 1) * self.width_ps,
                cells: acc
                    .cells
                    .iter()
                    .map(|(&(op, protocol, class), sk)| CellSnap {
                        op,
                        protocol,
                        class,
                        count: sk.count,
                        p50_ps: sk.p50(),
                        p99_ps: sk.p99(),
                    })
                    .collect(),
                links: acc
                    .links
                    .values()
                    .map(|l| LinkSnap {
                        link: l.name.clone(),
                        bytes: l.bytes,
                        busy_ps: l.busy_ps,
                        samples: l.samples,
                        queued: l.queued,
                    })
                    .collect(),
                faults: acc
                    .faults
                    .iter()
                    .map(|(&(what, protocol), &n)| FaultSnap { what, protocol, n })
                    .collect(),
                violations: eval_window(&self.policy, idx, self.width_ps, acc),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000_000; // ps per us

    #[test]
    fn policy_grammar_round_trips() {
        let p = SloPolicy::parse("p99:put/*/c14=25.5; contended:ib=0.4, recovery:*=0.9;promote:direct-gdr=1").unwrap();
        assert_eq!(p.clauses.len(), 4);
        assert_eq!(
            p.clauses[0],
            SloClause::P99 {
                op: "put".into(),
                protocol: "*".into(),
                class: Some(14),
                budget_us: 25.5
            }
        );
        assert_eq!(
            p.clauses[1],
            SloClause::Contended { link: "ib".into(), max_frac: 0.4 }
        );
        assert_eq!(
            p.clauses[2],
            SloClause::Recovery { protocol: "*".into(), min_frac: 0.9 }
        );
        assert_eq!(
            p.clauses[3],
            SloClause::Promote { protocol: "direct-gdr".into(), min_frac: 1.0 }
        );
        // bare-number and wildcard classes parse too
        let q = SloPolicy::parse("p99:*/*/14=1;p99:get/direct-gdr/*=2").unwrap();
        assert_eq!(q.clauses.len(), 2);
        // trailing separators are harmless
        assert!(SloPolicy::parse("p99:put/*/*=5;").is_ok());
        assert!(SloPolicy::parse("").unwrap().is_empty());
    }

    #[test]
    fn policy_grammar_fails_loudly() {
        assert_eq!(
            SloPolicy::parse("p99:put/*/*"),
            Err(SloParseError::MissingBudget("p99:put/*/*".into()))
        );
        assert_eq!(
            SloPolicy::parse("p98:put/*/*=1"),
            Err(SloParseError::UnknownKind("p98:put/*/*=1".into()))
        );
        assert_eq!(
            SloPolicy::parse("latency=1"),
            Err(SloParseError::UnknownKind("latency=1".into()))
        );
        assert_eq!(
            SloPolicy::parse("p99:put/direct-gdr=1"),
            Err(SloParseError::BadCellKey("p99:put/direct-gdr=1".into()))
        );
        assert_eq!(
            SloPolicy::parse("p99:put/*/xl=1"),
            Err(SloParseError::BadClass("p99:put/*/xl=1".into()))
        );
        assert_eq!(
            SloPolicy::parse("contended:ib=lots"),
            Err(SloParseError::BadNumber("contended:ib=lots".into()))
        );
        // errors render the offending clause
        let msg = SloPolicy::parse("p98:x=1").unwrap_err().to_string();
        assert!(msg.contains("p98:x=1"), "{msg}");
    }

    #[test]
    fn windows_bucket_by_virtual_time() {
        let mut p = WindowPlane::new(50);
        p.feed_latency("put", "direct-gdr", 14, 3 * US, 10 * US);
        p.feed_latency("put", "direct-gdr", 14, 5 * US, 60 * US);
        p.feed_latency("get", "direct-gdr", 14, 7 * US, 60 * US);
        p.feed_fault("injected", "direct-gdr", 55 * US);
        p.feed_link(0, "ib/hca0/tx", 12 * US, 4096, US, 2);
        let snaps = p.report();
        assert_eq!(snaps.len(), 2);
        assert_eq!((snaps[0].index, snaps[0].start_ps, snaps[0].end_ps), (0, 0, 50 * US));
        assert_eq!(snaps[0].cells.len(), 1);
        assert_eq!(snaps[0].cells[0].count, 1);
        assert_eq!(snaps[0].links.len(), 1);
        assert_eq!((snaps[0].links[0].samples, snaps[0].links[0].queued), (1, 1));
        assert_eq!(snaps[1].index, 1);
        assert_eq!(snaps[1].cells.len(), 2, "cells key on (op, protocol, class)");
        assert_eq!(snaps[1].faults, vec![FaultSnap { what: "injected", protocol: "direct-gdr", n: 1 }]);
    }

    #[test]
    fn report_is_idempotent_and_handles_late_samples() {
        let mut p = WindowPlane::new(50);
        p.feed_latency("put", "direct-gdr", 14, US, 60 * US);
        // a late sample for window 0, fed after one for window 1
        p.feed_latency("put", "direct-gdr", 14, US, 10 * US);
        let a = p.report();
        let b = p.report();
        assert_eq!(a, b, "report is a pure function of the accumulated stream");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].cells[0].count, 1, "late sample landed in its true window");
    }

    #[test]
    fn slo_violations_fire_only_in_breaching_windows() {
        let mut p = WindowPlane::new(50);
        p.set_policy(SloPolicy::parse("p99:put/*/*=10").unwrap());
        p.feed_latency("put", "direct-gdr", 14, 2 * US, 10 * US); // ok
        p.feed_latency("put", "direct-gdr", 14, 80 * US, 60 * US); // breach
        p.feed_latency("get", "direct-gdr", 14, 80 * US, 60 * US); // op mismatch
        let snaps = p.report();
        assert!(snaps[0].violations.is_empty(), "no violation inside budget");
        assert_eq!(snaps[1].violations.len(), 1);
        let v = &snaps[1].violations[0];
        assert_eq!((v.kind, v.window), ("p99", 1));
        assert_eq!(v.protocol, "direct-gdr");
        assert_eq!(v.class, "c14");
        assert_eq!(v.ts_ps, 2 * 50 * US, "violation stamps the window close");
        assert!(v.actual > v.budget);
    }

    #[test]
    fn contended_recovery_and_promote_clauses_evaluate() {
        let mut p = WindowPlane::new(50);
        p.set_policy(SloPolicy::parse("contended:ib=0.4;recovery:*=0.9;promote:*=0.5").unwrap());
        // 2 of 3 reservations queued -> 0.66 > 0.4
        p.feed_link(0, "ib/hca0/tx", 10 * US, 100, US, 1);
        p.feed_link(0, "ib/hca0/tx", 11 * US, 100, US, 2);
        p.feed_link(0, "ib/hca0/tx", 12 * US, 100, US, 3);
        // pcie link also contended but the clause only matches "ib"
        p.feed_link(1, "pcie/gpu0/h2d", 10 * US, 100, US, 5);
        // 1 of 2 injected recovered -> 0.5 < 0.9
        p.feed_fault("injected", "direct-gdr", 10 * US);
        p.feed_fault("injected", "direct-gdr", 11 * US);
        p.feed_fault("recovered", "direct-gdr", 12 * US);
        // demote without promote -> 0.0 < 0.5
        p.feed_fault("demote", "direct-gdr", 13 * US);
        let snaps = p.report();
        let kinds: Vec<&str> = snaps[0].violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, ["contended", "recovery", "promote"]);
        assert_eq!(snaps[0].violations[0].link, "ib/hca0/tx");
        assert_eq!(snaps[0].violations[1].actual, 0.5);
        assert_eq!(snaps[0].violations[2].actual, 0.0);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let mut p = WindowPlane::new(50);
            p.set_policy(SloPolicy::parse("p99:put/*/*=1").unwrap());
            p.feed_latency("put", "direct-gdr", 14, 3 * US, 10 * US);
            p.feed_link(0, "ib/hca0/tx", 12 * US, 4096, US, 2);
            p.feed_fault("injected", "direct-gdr", 13 * US);
            let s = p.report();
            (s[0].args_json(), s[0].violations[0].args_json())
        };
        assert_eq!(build(), build());
        let (snap, viol) = build();
        assert!(snap.contains("\"window\":0"), "{snap}");
        assert!(snap.contains("\"cells\":[{\"op\":\"put\""), "{snap}");
        assert!(snap.contains("\"links\":[{\"link\":\"ib/hca0/tx\""), "{snap}");
        assert!(snap.contains("\"faults\":[{\"what\":\"injected\""), "{snap}");
        assert!(viol.contains("\"kind\":\"p99\""), "{viol}");
        assert!(viol.contains("\"budget\":1"), "{viol}");
    }
}
