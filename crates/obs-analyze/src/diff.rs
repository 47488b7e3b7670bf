//! A/B comparison of two reports with a regression threshold.
//!
//! `gdrprof diff baseline.json candidate.json --threshold 10` compares
//! mean critical-path latency per `op/protocol` key and flags any key
//! whose candidate mean exceeds the baseline by more than the threshold
//! percentage. Every other comparison is one entry of [`GATES`], and
//! each regressed gate trips the exit code of its [`EXITS`] entry, so
//! the process exit code gates CI on the result. Adding a gate means
//! adding one `GATES` entry (and, for a new exit code, one `EXITS`
//! entry).

use crate::report::{ratio, ProtoStat, Report, Section};
use obs::json::ObjWriter;
use obs::{FaultEvent, MEMBERSHIP};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One `op/protocol` key present in either report.
#[derive(Clone, Debug)]
pub struct DiffRow {
    pub key: String,
    /// Mean critical-path us in the baseline; `None` if the key is new.
    pub a_mean_us: Option<f64>,
    /// Mean critical-path us in the candidate; `None` if it vanished.
    pub b_mean_us: Option<f64>,
    /// Percent change (positive = slower), when both sides exist.
    pub delta_pct: Option<f64>,
    pub regressed: bool,
    /// When the row regressed and both sides carry per-stage busy time:
    /// the pipeline stage whose per-op mean grew the most — where the
    /// regression actually lives (d2h staging? rdma leg? wakeup?).
    pub stage: Option<StageDelta>,
}

/// Stage-level attribution of a regressed row.
#[derive(Clone, Debug)]
pub struct StageDelta {
    pub stage: String,
    /// Baseline per-op mean busy us for this stage.
    pub a_us: f64,
    /// Candidate per-op mean busy us.
    pub b_us: f64,
}

/// A gate's reading of one report, per row key: whether the report saw
/// the gate's activity there, the share or measure, and the count (0
/// for a share).
type Readings<'a> = BTreeMap<&'a str, (bool, f64, u64)>;

/// A share gate's readings of one report section, from its keys.
fn shares<'a>(
    keys: impl IntoIterator<Item = &'a str>,
    f: impl Fn(&'a str) -> (bool, f64),
) -> Readings<'a> {
    let reading = |k| {
        let (on, share) = f(k);
        (on, share, 0)
    };
    keys.into_iter().map(|k| (k, reading(k))).collect()
}

/// How a gate's rows regress and render. `Rate` and `Cost` are the
/// *share* gates: one row per key active on either side, a 0..=1 value
/// that regresses when it moves the wrong way by more than the
/// threshold, in percentage points.
#[derive(Debug)]
pub enum Kind {
    /// A share where a drop regresses; a key a report lacks reads as 1.
    Rate,
    /// A share where a rise regresses; a key a report lacks reads as 0.
    Cost,
    /// One row per run pair, present when either side is active: a
    /// measure plus a count. A larger count regresses; so does a measure
    /// more than the threshold percent above a nonzero baseline, when
    /// the measure gates at all.
    Pair {
        measure_gates: bool,
        /// Text of one side of the row, from its measure and count.
        side: fn(f64, u64) -> String,
    },
}

/// One regression gate of `gdrprof diff`.
#[derive(Debug)]
pub struct Gate {
    /// Section of the `gdrprof-diff-v1` JSON.
    pub name: &'static str,
    /// Title of the text section.
    pub title: &'static str,
    /// Exit code a regressed row trips (an [`EXITS`] entry).
    pub exit: u8,
    /// A row's JSON fields, each written as `a_<field>` and `b_<field>`:
    /// the share or measure, then a pair gate's count.
    pub json: &'static [&'static str],
    pub kind: Kind,
    read: for<'a> fn(&'a Report) -> Readings<'a>,
}

/// Every gate beside the latency rows, in report order.
pub static GATES: [Gate; 7] = [
    // the fraction of faulted ops that still completed
    Gate {
        name: "recovery",
        title: "recovery-rate:",
        exit: 4,
        json: &["rate"],
        kind: Kind::Rate,
        read: |r| {
            let faulted = |k| r.faulted_ops.get(k).is_some_and(|&n| n > 0);
            shares(r.keys(Section::Faults), |k| (faulted(k), r.recovery_rate(k)))
        },
    },
    // the fraction of the requested bytes that landed across partials
    Gate {
        name: "partial",
        title: "partial-delivery (bytes landed):",
        exit: 4,
        json: &["fraction"],
        kind: Kind::Rate,
        read: |r| {
            shares(r.keys(Section::Faults), |k| {
                let (delivered, total) = r.partial(k);
                let landed = ratio(delivered as f64, total as f64, 1.0);
                (r.count(FaultEvent::PartialDelivery, k) > 0, landed)
            })
        },
    },
    // the fraction of breaker demotions promoted back before the end
    Gate {
        name: "health",
        title: "promote-rate (demotions recovered):",
        exit: 4,
        json: &["rate"],
        kind: Kind::Rate,
        read: |r| {
            let demoted = |k| r.count(FaultEvent::Demote, k) > 0;
            shares(r.keys(Section::Health), |k| (demoted(k), r.promote_rate(k)))
        },
    },
    // the fraction of the trace a link spent with queue depth >= 2: a
    // throughput early-warning, distinct from a latency regression
    Gate {
        name: "contention",
        title: "link-contention (fraction of trace contended):",
        exit: 5,
        json: &["frac"],
        kind: Kind::Cost,
        read: |r| {
            shares(r.links.keys().map(String::as_str), |k| {
                let l = &r.links[k];
                let frac = ratio(l.contended_us, r.trace_span_us, 0.0);
                (l.contended_windows > 0, frac)
            })
        },
    },
    // budgets the windowed metrics plane saw violated: a count gate
    Gate {
        name: "slo",
        title: "slo-violations (windowed metrics):",
        exit: 6,
        json: &["windows", "violations"],
        kind: Kind::Pair {
            measure_gates: false,
            side: |windows, n| format!("{n:<5} in {:<4} windows", windows as u64),
        },
        read: |r| {
            let slo = (r.windows > 0, r.windows as f64, r.slo_violations);
            [("violations", slo)].into()
        },
    },
    // the worst view-convergence time of the fail-stop view, and the
    // evictions never followed by a rejoin
    Gate {
        name: "membership",
        title: "membership (fail-stop view):",
        exit: 7,
        json: &["convergence_us", "unrecovered"],
        kind: Kind::Pair {
            measure_gates: true,
            side: |us, n| format!("{us:.3}us / {n} unrecovered"),
        },
        read: |r| {
            let n = |event| r.count(event, MEMBERSHIP);
            let unrecovered = n(FaultEvent::Evict).saturating_sub(n(FaultEvent::Rejoin));
            let view = (n(FaultEvent::PeDead) > 0, r.view_convergence_us, unrecovered);
            [("view-convergence", view)].into()
        },
    },
    // the worst heal-convergence time of the quorum-fenced view, and the
    // fences never followed by a heal
    Gate {
        name: "partition",
        title: "partitions (quorum-fenced view):",
        exit: 8,
        json: &["heal_us", "unhealed"],
        kind: Kind::Pair {
            measure_gates: true,
            side: |us, n| format!("{us:.3}us / {n} unhealed"),
        },
        read: |r| {
            let n = |event| r.count(event, MEMBERSHIP);
            let unhealed = n(FaultEvent::Fence).saturating_sub(n(FaultEvent::Heal));
            let heal = (n(FaultEvent::Fence) > 0, r.heal_convergence_us, unhealed);
            [("heal-convergence", heal)].into()
        },
    },
];

/// A `gdrprof diff` exit code for regressions.
#[derive(Debug)]
pub struct Exit {
    pub code: u8,
    /// The `gdrprof-diff-v1` field counting its regressed rows.
    pub counter: &'static str,
    /// The `gdrprof --help` line.
    pub usage: &'static str,
    /// The stderr message.
    pub message: &'static str,
}

/// The exit code the latency rows trip.
const LATENCY_EXIT: u8 = 4;

/// Exit codes 4..=8 in precedence order: a diff exits with the first
/// one that has a regressed row.
pub static EXITS: [Exit; 5] = [
    Exit {
        code: LATENCY_EXIT,
        counter: "latency_regressions",
        usage: "diff found a latency/recovery regression over the threshold",
        message: "regression over threshold",
    },
    Exit {
        code: 5,
        counter: "contention_regressions",
        usage: "diff found a contention-only regression",
        message: "link-contention regression over threshold",
    },
    Exit {
        code: 6,
        counter: "slo_regressions",
        usage: "diff found an SLO-violation-count regression",
        message: "slo-violation-count regression",
    },
    Exit {
        code: 7,
        counter: "membership_regressions",
        usage: "diff found a membership (fail-stop view) regression",
        message: "membership (fail-stop view) regression",
    },
    Exit {
        code: 8,
        counter: "partition_regressions",
        usage: "diff found a partition (quorum-fenced view) regression",
        message: "partition (quorum-fenced view) regression",
    },
];

/// One row of a gate: a protocol or link for a share gate, the
/// measure's label for a pair gate.
#[derive(Clone, Debug)]
pub struct GateRow {
    pub key: String,
    /// Baseline share or measure.
    pub a: f64,
    /// Candidate share or measure.
    pub b: f64,
    /// Baseline count (pair gates; 0 for share gates).
    pub a_count: u64,
    /// Candidate count.
    pub b_count: u64,
    pub regressed: bool,
}

impl Gate {
    fn rows(&self, a: &Report, b: &Report, threshold_pct: f64) -> Vec<GateRow> {
        let (ra, rb) = ((self.read)(a), (self.read)(b));
        let active = ra.iter().chain(&rb).filter(|(_, r)| r.0);
        let keys: BTreeSet<&str> = active.map(|(k, _)| *k).collect();
        let absent = if let Kind::Rate = self.kind { 1.0 } else { 0.0 };
        let side = |r: &Readings, k: &str| r.get(k).map_or((absent, 0), |&(_, v, n)| (v, n));
        let row = |k: &str| {
            let ((a, a_count), (b, b_count)) = (side(&ra, k), side(&rb, k));
            let regressed = match self.kind {
                Kind::Rate => (a - b) * 100.0 > threshold_pct,
                Kind::Cost => (b - a) * 100.0 > threshold_pct,
                // the measure regresses relative to the baseline, like
                // the latency rows; the count on any growth
                Kind::Pair { measure_gates, .. } => {
                    let slower = measure_gates && a > 0.0 && (b - a) / a * 100.0 > threshold_pct;
                    slower || b_count > a_count
                }
            };
            let key = k.to_string();
            GateRow {
                key,
                a,
                b,
                a_count,
                b_count,
                regressed,
            }
        };
        keys.into_iter().map(row).collect()
    }

    /// One row's JSON object's fields.
    fn row_json(&self, e: &mut ObjWriter, r: &GateRow) {
        let value = self.json[0];
        e.num_field(&format!("a_{value}"), r.a);
        e.num_field(&format!("b_{value}"), r.b);
        if let Some(count) = self.json.get(1) {
            e.u64_field(&format!("a_{count}"), r.a_count);
            e.u64_field(&format!("b_{count}"), r.b_count);
        }
        e.bool_field("regressed", r.regressed);
    }
}

#[derive(Clone, Debug)]
pub struct DiffReport {
    pub threshold_pct: f64,
    pub rows: Vec<DiffRow>,
    /// Every [`GATES`] entry with its rows, in table order; a gate whose
    /// activity neither side recorded has none.
    pub gates: Vec<(&'static Gate, Vec<GateRow>)>,
}

impl DiffReport {
    /// The rows of the gate named `name` (a [`GATES`] entry).
    pub fn gate(&self, name: &str) -> &[GateRow] {
        let found = self.gates.iter().find(|(g, _)| g.name == name);
        &found.expect("a gate named in GATES").1
    }

    /// Regressed rows that trip exit `code`; the latency rows trip 4.
    pub fn regressions_in(&self, code: u8) -> usize {
        let gated = self.gates.iter().filter(|(g, _)| g.exit == code);
        let gated = gated.flat_map(|(_, rows)| rows.iter().map(|r| r.regressed));
        let latency = self
            .rows
            .iter()
            .map(|r| r.regressed && code == LATENCY_EXIT);
        gated.chain(latency).filter(|&regressed| regressed).count()
    }

    pub fn regressions(&self) -> usize {
        EXITS.iter().map(|e| self.regressions_in(e.code)).sum()
    }

    /// The exit `gdrprof diff` returns: the first [`EXITS`] entry with a
    /// regressed row, `None` when nothing regressed.
    pub fn exit(&self) -> Option<&'static Exit> {
        EXITS.iter().find(|e| self.regressions_in(e.code) > 0)
    }

    pub fn text(&self) -> String {
        let mut s = String::new();
        let mark = |regressed| if regressed { "  REGRESSED" } else { "" };
        let _ = writeln!(
            s,
            "gdrprof diff (regression threshold {:.1}%)",
            self.threshold_pct
        );
        for r in &self.rows {
            let fmt_side = |m: Option<f64>| match m {
                Some(us) => format!("{us:.3}us"),
                None => "-".to_string(),
            };
            let delta = match r.delta_pct {
                Some(d) => format!("{d:+.1}%"),
                None => "n/a".to_string(),
            };
            let _ = writeln!(
                s,
                "  {:<28} a {:<12} b {:<12} {delta}{}",
                r.key,
                fmt_side(r.a_mean_us),
                fmt_side(r.b_mean_us),
                mark(r.regressed),
            );
            if let Some(sd) = &r.stage {
                let _ = writeln!(
                    s,
                    "  {:<28} stage {:<10} a {:.3}us  b {:.3}us per op",
                    "", sd.stage, sd.a_us, sd.b_us,
                );
            }
        }
        for (g, rows) in &self.gates {
            if !rows.is_empty() {
                let _ = writeln!(s, "{}", g.title);
            }
            for r in rows {
                let (a, b) = match g.kind {
                    Kind::Pair { side, .. } => (side(r.a, r.a_count), side(r.b, r.b_count)),
                    // a share row has six spaces between its columns
                    Kind::Rate | Kind::Cost => (
                        format!("{:>6.1}%    ", r.a * 100.0),
                        format!("{:>6.1}%", r.b * 100.0),
                    ),
                };
                let _ = writeln!(s, "  {:<28} a {a}  b {b}{}", r.key, mark(r.regressed));
            }
        }
        let _ = writeln!(s, "regressions: {}", self.regressions());
        s
    }

    /// Machine-readable rendering of the diff (`gdrprof diff --json`).
    /// Deterministic field order and float formatting, like
    /// [`Report::to_json`].
    pub fn to_json(&self) -> String {
        obs::json::object(|o| {
            o.str_field("schema", "gdrprof-diff-v1");
            o.num_field("threshold_pct", self.threshold_pct);
            o.arr_field("rows", &self.rows, |e, r| {
                e.str_field("key", &r.key)
                    .opt_num_field("a_mean_us", r.a_mean_us)
                    .opt_num_field("b_mean_us", r.b_mean_us)
                    .opt_num_field("delta_pct", r.delta_pct)
                    .bool_field("regressed", r.regressed);
                if let Some(sd) = &r.stage {
                    e.obj_field("stage", |sj| {
                        sj.str_field("stage", &sd.stage)
                            .num_field("a_us", sd.a_us)
                            .num_field("b_us", sd.b_us);
                    });
                }
            });
            // a share gate is always an object keyed by its rows; a pair
            // gate appears only when it has its row
            for (g, rows) in &self.gates {
                match g.kind {
                    Kind::Pair { .. } => {
                        for r in rows {
                            o.obj_field(g.name, |e| g.row_json(e, r));
                        }
                    }
                    Kind::Rate | Kind::Cost => {
                        o.obj_field(g.name, |gj| {
                            for r in rows {
                                gj.obj_field(&r.key, |e| g.row_json(e, r));
                            }
                        });
                    }
                }
            }
            for e in &EXITS {
                o.u64_field(e.counter, self.regressions_in(e.code) as u64);
            }
            o.u64_field("regressions", self.regressions() as u64);
        })
    }
}

/// Per-op mean busy time of each stage for one `op/protocol` aggregate.
fn stage_means(st: &ProtoStat) -> Vec<(String, f64)> {
    if st.count == 0 {
        return Vec::new();
    }
    st.stages
        .iter()
        .map(|(k, us)| (k.clone(), us / st.count as f64))
        .collect()
}

/// Attribute a regressed row to the pipeline stage whose per-op mean
/// grew the most between baseline and candidate. `None` when neither
/// side recorded stage detail or no stage actually grew.
fn attribute_stage(a: Option<&ProtoStat>, b: Option<&ProtoStat>) -> Option<StageDelta> {
    let (a, b) = match (a, b) {
        (Some(a), Some(b)) => (a, b),
        _ => return None,
    };
    let am: BTreeMap<String, f64> = stage_means(a).into_iter().collect();
    let mut best: Option<StageDelta> = None;
    for (stage, b_us) in stage_means(b) {
        let a_us = am.get(&stage).copied().unwrap_or(0.0);
        let grew = b_us - a_us;
        if grew <= 0.0 {
            continue;
        }
        let better = match &best {
            Some(cur) => grew > cur.b_us - cur.a_us,
            None => true,
        };
        if better {
            best = Some(StageDelta { stage, a_us, b_us });
        }
    }
    best
}

/// Compare `b` (the candidate) against `a` (the baseline): mean
/// critical-path latency per `op/protocol`, then every [`GATES`] entry.
pub fn diff(a: &Report, b: &Report, threshold_pct: f64) -> DiffReport {
    let keys: BTreeSet<&String> = a.protocols.keys().chain(b.protocols.keys()).collect();
    let rows = keys
        .into_iter()
        .map(|k| {
            let am = a.protocols.get(k).map(|s| s.mean_us());
            let bm = b.protocols.get(k).map(|s| s.mean_us());
            let delta_pct = match (am, bm) {
                (Some(am), Some(bm)) if am > 0.0 => Some((bm - am) / am * 100.0),
                _ => None,
            };
            let regressed = delta_pct.is_some_and(|d| d > threshold_pct);
            let stage = if regressed {
                attribute_stage(a.protocols.get(k), b.protocols.get(k))
            } else {
                None
            };
            DiffRow {
                key: k.clone(),
                a_mean_us: am,
                b_mean_us: bm,
                delta_pct,
                regressed,
                stage,
            }
        })
        .collect();
    DiffReport {
        threshold_pct,
        rows,
        gates: GATES
            .iter()
            .map(|g| (g, g.rows(a, b, threshold_pct)))
            .collect(),
    }
}
