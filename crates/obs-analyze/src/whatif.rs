//! What-if decision replay: re-route every recorded protocol decision
//! under an alternate `thresholds-v1` table and predict the aggregate
//! latency change, without re-running the workload.
//!
//! The replay calls the runtime's own dispatch table
//! ([`obs::plan::plan`]) on the route rebuilt from the decision
//! record's inputs (size, buffer config, locality, socket relation,
//! candidate set). The baseline table is harvested from the
//! thresholds the recorded decisions actually consulted, so replaying
//! a trace against its own table predicts a delta of exactly zero —
//! the identity check `ci.sh` gates on. Re-routed decisions are priced
//! from the observed per-protocol latency curves of the same trace:
//! exact size-class mean when the alternate protocol was observed at
//! that size, a fitted/scaled estimate otherwise, and an explicit
//! `unpriced` count when the trace offers no evidence at all.

use crate::trace::Trace;
use obs::json::ObjWriter;
use obs::plan::{plan, Design, Limits, Op, Route};
use obs::{Decision, ThresholdTable};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema marker of [`WhatifReport::to_json`].
pub const WHATIF_SCHEMA: &str = "gdrprof-whatif-v1";

/// One re-routed `(op, size, from, to)` aggregate.
#[derive(Clone, Debug)]
pub struct WhatifRow {
    pub op: String,
    pub size: u64,
    pub from: String,
    pub to: String,
    pub count: u64,
    /// Total predicted latency change for these decisions (positive =
    /// the alternate table is slower); `None` when the trace offers no
    /// price for the alternate protocol near this size.
    pub delta_us: Option<f64>,
}

/// Aggregate prediction of one replay.
#[derive(Clone, Debug, Default)]
pub struct WhatifReport {
    /// Decisions the replay could model (multi-candidate cells with a
    /// completed op).
    pub replayed: u64,
    /// Of those, decisions the alternate table re-routes.
    pub changed: u64,
    /// Re-routed decisions the trace could not price (the alternate
    /// protocol was never observed for that op) — excluded from the
    /// delta, reported so a zero is never silently hollow.
    pub unpriced: u64,
    /// Recorded decisions whose replayed baseline choice disagrees
    /// with what the dispatch actually chose (faulted/demoted runs);
    /// diagnostic only — deltas compare replay vs replay, so a
    /// mismatch cannot fake a zero delta.
    pub model_mismatch: u64,
    /// The harvested baseline table entries (name, value).
    pub base: Vec<(String, u64)>,
    /// The overlaid entries from the `--thresholds` file.
    pub applied: Vec<(String, u64)>,
    /// Re-routes aggregated by `(op, size, from, to)`.
    pub rows: Vec<WhatifRow>,
    /// Sum of all priced row deltas, in microseconds.
    pub predicted_delta_us: f64,
}

/// The protocol the dispatch table picks for one recorded decision
/// under `limits`. Only Enhanced-GDR cells between two PEs record more
/// than one candidate, and single-candidate cells have nothing to
/// re-route, so the route is rebuilt for that design; ops the table
/// does not plan keep the recorded choice.
fn replan(d: &Decision, limits: &Limits) -> String {
    let op = match d.op {
        "put" | "put-nbi" | "put-signal" => Op::Put,
        "get" | "get-nbi" => Op::Get,
        _ => return d.chosen.to_string(),
    };
    let route = Route {
        design: Design::EnhancedGdr,
        self_op: false,
        same_node: d.same_node,
        src_dev: d.src_dev,
        dst_dev: d.dst_dev,
        // socket_rel describes the device end; for a device
        // destination that is the destination GPU vs the HCA writing
        // into it — the P2P write direction the paper's proxy protocol
        // exists to avoid (§III-C)
        dst_gpu_intra_socket: !d.dst_dev || d.socket_rel == "intra-socket",
        proxy_enabled: d.candidates.contains("proxy-pipeline"),
    };
    match plan(op, &route, d.size, limits) {
        Ok(p) => p.healthy.0.name().to_string(),
        Err(_) => d.chosen.to_string(),
    }
}

/// Per-size-class evidence for one `(op, protocol)`: mean size and
/// mean critical-path latency.
type ClassMeans = BTreeMap<u8, (f64, f64)>;

/// Observed per-protocol latency evidence: for each `(op, protocol)`,
/// mean size and mean critical-path latency per log2 size class.
struct Prices(BTreeMap<(String, String), ClassMeans>);

impl Prices {
    fn collect(tr: &Trace) -> Prices {
        let rep = crate::analyze(tr);
        type ClassSums = BTreeMap<u8, (f64, f64, u64)>;
        let mut acc: BTreeMap<(String, String), ClassSums> = BTreeMap::new();
        for p in &rep.paths {
            let class = obs::hist::bucket_index(p.size) as u8;
            let e = acc
                .entry((p.op.clone(), p.protocol.clone()))
                .or_default()
                .entry(class)
                .or_insert((0.0, 0.0, 0));
            e.0 += p.size as f64;
            e.1 += p.total_us();
            e.2 += 1;
        }
        Prices(
            acc.into_iter()
                .map(|(k, classes)| {
                    (
                        k,
                        classes
                            .into_iter()
                            .map(|(c, (s, us, n))| (c, (s / n as f64, us / n as f64)))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Predicted mean latency of `(op, protocol)` at `size`.
    /// Precedence: exact size-class mean > affine fit through the two
    /// nearest classes > single observed point scaled linearly above
    /// its size (flat below it) > `None` (unpriced).
    fn price(&self, op: &str, protocol: &str, size: u64) -> Option<f64> {
        let classes = self.0.get(&(op.to_string(), protocol.to_string()))?;
        let class = obs::hist::bucket_index(size) as u8;
        if let Some(&(_, us)) = classes.get(&class) {
            return Some(us);
        }
        let pts: Vec<(f64, f64)> = classes.values().copied().collect();
        match pts.len() {
            0 => None,
            1 => {
                let (s0, m0) = pts[0];
                Some(if (size as f64) <= s0 { m0 } else { m0 * size as f64 / s0 })
            }
            _ => {
                // the two classes nearest the target size bracket the
                // local slope best
                let mut by_dist: Vec<(f64, f64)> = pts;
                by_dist.sort_by(|a, b| {
                    let da = (a.0 - size as f64).abs();
                    let db = (b.0 - size as f64).abs();
                    da.total_cmp(&db)
                });
                let (s1, m1) = by_dist[0];
                let (s2, m2) = by_dist[1];
                if s1 == s2 {
                    return Some(m1);
                }
                let slope = (m2 - m1) / (s2 - s1);
                Some((m1 + slope * (size as f64 - s1)).max(0.0))
            }
        }
    }
}

/// Replay every decision of `tr` against `alt` overlaid on the
/// harvested baseline table.
pub fn whatif(tr: &Trace, alt: &ThresholdTable) -> WhatifReport {
    // harvest the baseline: the thresholds the decisions actually
    // consulted (first value seen wins — constant within a run),
    // compiled-in tuned values for the rest
    let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
    for d in tr.decisions() {
        for (name, v) in d.thresholds.iter() {
            seen.entry(name).or_insert(v);
        }
    }
    let mut base = Limits::TUNED;
    for (name, v) in &seen {
        // a name this build's table does not consult cannot move it
        let _ = base.set(name, *v);
    }
    let mut cand = base;
    alt.apply(&mut cand);

    let prices = Prices::collect(tr);
    let mut rep = WhatifReport {
        base: seen.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        applied: alt.iter().map(|(n, v)| (n.to_string(), v)).collect(),
        ..WhatifReport::default()
    };

    // (op, size, from, to) -> (count, priced delta sum, any unpriced)
    type RouteKey = (String, u64, String, String);
    let mut agg: BTreeMap<RouteKey, (u64, f64, bool)> = BTreeMap::new();
    for d in tr.decisions() {
        if d.candidates.len() <= 1 {
            continue;
        }
        rep.replayed += 1;
        let before = replan(d, &base);
        if before != d.chosen {
            rep.model_mismatch += 1;
        }
        let after = replan(d, &cand);
        if after == before {
            continue;
        }
        rep.changed += 1;
        let delta = match (
            prices.price(d.op, &before, d.size),
            prices.price(d.op, &after, d.size),
        ) {
            (Some(old), Some(new)) => Some(new - old),
            _ => {
                rep.unpriced += 1;
                None
            }
        };
        let e = agg
            .entry((d.op.to_string(), d.size, before, after))
            .or_insert((0, 0.0, false));
        e.0 += 1;
        match delta {
            Some(us) => e.1 += us,
            None => e.2 = true,
        }
    }
    for ((op, size, from, to), (count, delta, any_unpriced)) in agg {
        rep.predicted_delta_us += delta;
        rep.rows.push(WhatifRow {
            op,
            size,
            from,
            to,
            count,
            delta_us: if any_unpriced { None } else { Some(delta) },
        });
    }
    rep
}

impl WhatifReport {
    /// Human-readable rendering (the `gdrprof whatif` default).
    pub fn text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "gdrprof whatif (thresholds-v1 replay)");
        let fmt_table = |entries: &[(String, u64)]| {
            if entries.is_empty() {
                "(none)".to_string()
            } else {
                entries
                    .iter()
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        };
        let _ = writeln!(s, "baseline-thresholds: {}", fmt_table(&self.base));
        let _ = writeln!(s, "applied-thresholds: {}", fmt_table(&self.applied));
        let _ = writeln!(s, "decisions-replayed: {}", self.replayed);
        let _ = writeln!(s, "decisions-changed: {}", self.changed);
        let _ = writeln!(s, "decisions-unpriced: {}", self.unpriced);
        if self.model_mismatch > 0 {
            let _ = writeln!(s, "model-mismatch: {}", self.model_mismatch);
        }
        if !self.rows.is_empty() {
            let _ = writeln!(s, "re-routed:");
            for r in &self.rows {
                let delta = match r.delta_us {
                    Some(us) => format!("{us:+.3}us"),
                    None => "unpriced".to_string(),
                };
                let _ = writeln!(
                    s,
                    "  {:<10} {:>10}B  {} -> {}  x{}  {delta}",
                    r.op, r.size, r.from, r.to, r.count
                );
            }
        }
        let _ = writeln!(s, "predicted-delta-us: {:+.3}", self.predicted_delta_us);
        s
    }

    /// Machine-readable rendering; deterministic field order and float
    /// formatting.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut o = ObjWriter::new(&mut out);
        o.str_field("schema", WHATIF_SCHEMA);
        o.u64_field("replayed", self.replayed)
            .u64_field("changed", self.changed)
            .u64_field("unpriced", self.unpriced)
            .u64_field("model_mismatch", self.model_mismatch);
        let table_field = |o: &mut ObjWriter, key: &str, entries: &[(String, u64)]| {
            let buf = o.raw_field(key);
            let mut t = ObjWriter::new(buf);
            for (n, v) in entries {
                t.u64_field(n, *v);
            }
            t.finish();
        };
        table_field(&mut o, "base", &self.base);
        table_field(&mut o, "applied", &self.applied);
        {
            let buf = o.raw_field("rows");
            buf.push('[');
            for (i, r) in self.rows.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut e = ObjWriter::new(buf);
                e.str_field("op", &r.op)
                    .u64_field("size", r.size)
                    .str_field("from", &r.from)
                    .str_field("to", &r.to)
                    .u64_field("count", r.count);
                match r.delta_us {
                    Some(us) => {
                        e.num_field("delta_us", us);
                    }
                    None => e.raw_field("delta_us").push_str("null"),
                }
                e.finish();
            }
            buf.push(']');
        }
        o.num_field("predicted_delta_us", self.predicted_delta_us);
        o.finish();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(op: &'static str, size: u64, chosen: &'static str, cands: &[&'static str]) -> Decision<'static> {
        let mut d = Decision {
            op,
            chosen,
            size,
            src_dev: true,
            dst_dev: true,
            same_node: false,
            socket_rel: "intra-socket",
            candidates: cands.iter().copied().collect(),
            ..Decision::default()
        };
        d.thresholds.push("gdr_get_limit", 16384);
        d.thresholds.push("proxy_get_min", 524288);
        d
    }

    #[test]
    fn replay_rebuilds_the_route_from_the_record() {
        let t = Limits::TUNED;
        let cands = ["direct-gdr", "proxy-pipeline"];
        assert_eq!(
            replan(&dec("get", 4096, "direct-gdr", &cands), &t),
            "direct-gdr"
        );
        // above the direct limit but below the proxy floor: chunked
        // direct reads keep the direct-gdr label
        assert_eq!(
            replan(&dec("get-nbi", 65536, "direct-gdr", &cands), &t),
            "direct-gdr"
        );
        assert_eq!(
            replan(&dec("get", 1 << 20, "proxy-pipeline", &cands), &t),
            "proxy-pipeline"
        );
        // a record without the proxy among its candidates came from a
        // run that had it disabled
        assert_eq!(
            replan(&dec("get", 1 << 20, "direct-gdr", &cands[..1]), &t),
            "direct-gdr"
        );
        // ops the table does not plan keep the recorded choice
        assert_eq!(
            replan(&dec("atomic", 8, "hw-atomic", &["hw-atomic"]), &t),
            "hw-atomic"
        );

        let cands = ["direct-gdr", "pipeline-gdr-write", "proxy-pipeline"];
        let mut d = dec("put", 1 << 20, "pipeline-gdr-write", &cands);
        assert_eq!(replan(&d, &t), "pipeline-gdr-write");
        // socket_rel names the destination GPU's relation for a put
        d.socket_rel = "inter-socket";
        assert_eq!(replan(&d, &t), "proxy-pipeline");
        d.socket_rel = "intra-socket";
        d.src_dev = false;
        assert_eq!(
            replan(&dec("put-signal", 1 << 20, "direct-gdr", &cands), &t),
            "pipeline-gdr-write"
        );
        assert_eq!(replan(&d, &t), "direct-gdr");
    }
}
