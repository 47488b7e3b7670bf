//! Crossover profiling: where does the dispatch actually switch
//! protocols, and do the static thresholds sit where the measured
//! curves cross?
//!
//! The paper's hybrid design (§III) rests on per-configuration
//! crossover points: loopback vs IPC intra-node, direct GDR vs the
//! staged pipelines inter-node. `gdrprof crossover` reconstructs the
//! observed latency curve per *(op, pair-class, buffer-config,
//! socket-relation)* cell from one trace, locates every size at which
//! the chosen protocol switches, names the threshold table entry that
//! governed the switch (with provenance: builtin vs `thresholds-v1`),
//! and estimates where the curves *actually* cross — flagging entries
//! that sit more than 2x away from the evidence. `--suggest` exports
//! the estimates as a `thresholds-v1` artifact that
//! `RuntimeConfig::with_threshold_table` (or `GDR_SHMEM_THRESHOLDS`)
//! can load, closing the autotuning loop.

use crate::trace::Trace;
use obs::ThresholdTable;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema marker of [`CrossoverReport::to_json`].
pub const CROSSOVER_SCHEMA: &str = "gdrprof-crossover-v1";

/// Mean observed critical-path latency of the protocol the dispatch
/// chose for one message size within one group.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    pub size: u64,
    pub protocol: String,
    pub mean_us: f64,
    pub count: u64,
}

/// One observed protocol switch between adjacent measured sizes.
#[derive(Clone, Debug)]
pub struct CrossoverPoint {
    /// `op/pair-class/buffer-config/socket-relation`.
    pub group: String,
    /// Protocol chosen at and below `below_size`.
    pub from: String,
    /// Protocol chosen at and above `above_size`.
    pub to: String,
    pub below_size: u64,
    pub above_size: u64,
    /// The recorded threshold entry whose value falls inside the
    /// switch window — the entry that governed this crossover. `None`
    /// when no consulted threshold sits in the window (the switch came
    /// from a locality rule, not a size limit).
    pub threshold: Option<(String, u64)>,
    /// Threshold provenance of the decisions in this group:
    /// `"builtin"` or `"thresholds-v1"`.
    pub tsource: String,
    /// Estimated true crossover size: intersection of the two
    /// protocols' fitted latency lines, clamped to the observed switch
    /// window and rounded to a power of two. Falls back to the
    /// geometric mean of the window when either side has too few
    /// points to fit.
    pub suggested: u64,
    /// The governing threshold sits more than 2x away from the
    /// suggested crossover — the static table disagrees with the
    /// measured curves.
    pub misconfigured: bool,
}

/// Latency curves plus the crossover points extracted from them.
#[derive(Clone, Debug, Default)]
pub struct CrossoverReport {
    /// group -> curve points sorted by size.
    pub curves: BTreeMap<String, Vec<CurvePoint>>,
    pub crossovers: Vec<CrossoverPoint>,
}

/// Per-(group, size) accumulation: latency per protocol seen there,
/// plus the threshold set consulted (first decision wins — the set is
/// constant within a cell), in name order.
#[derive(Default)]
struct Cell<'t> {
    by_proto: BTreeMap<&'t str, (f64, u64)>,
    thresholds: Vec<(&'t str, u64)>,
    tsource: &'t str,
}

/// Round to the nearest power of two (geometric midpoint rule), so
/// suggested thresholds look like the hand-tuned ones they replace.
fn round_pow2(x: f64) -> u64 {
    if x < 1.5 {
        return 1;
    }
    let lo = 1u64 << (x as u64).ilog2();
    let hi = lo << 1;
    if x * x >= lo as f64 * hi as f64 {
        hi
    } else {
        lo
    }
}

/// Least-squares line through `(size, mean_us)` points: `(a, b)` of
/// `a + b*size`. `None` below two points or on a degenerate spread.
fn fit_line(pts: &[(f64, f64)]) -> Option<(f64, f64)> {
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let den = n * sxx - sx * sx;
    if den == 0.0 {
        return None;
    }
    let b = (n * sxy - sx * sy) / den;
    Some(((sy - b * sx) / n, b))
}

/// Estimate the true crossover size inside `[s1, s2]` from the two
/// protocols' fitted latency lines.
fn suggest(p1: &[(f64, f64)], p2: &[(f64, f64)], s1: u64, s2: u64) -> u64 {
    let geo = (s1 as f64 * s2 as f64).sqrt();
    let est = match (fit_line(p1), fit_line(p2)) {
        (Some((a1, b1)), Some((a2, b2))) if b1 != b2 => {
            let x = (a2 - a1) / (b1 - b2);
            if x.is_finite() {
                x.clamp(s1 as f64, s2 as f64)
            } else {
                geo
            }
        }
        _ => geo,
    };
    round_pow2(est)
}

/// Build the per-group latency curves and crossover points of one
/// trace. Joins decision records to reconstructed critical paths by
/// correlation id; decisions whose op never completed (or that predate
/// enriched records) are skipped.
pub fn crossover(tr: &Trace) -> CrossoverReport {
    let rep = crate::analyze(tr);
    let by_id: BTreeMap<u64, &crate::report::OpPath> =
        rep.paths.iter().map(|p| (p.op_id, p)).collect();

    let mut groups: BTreeMap<String, BTreeMap<u64, Cell>> = BTreeMap::new();
    for d in tr.decisions() {
        if d.op_id == 0 {
            continue;
        }
        let Some(path) = by_id.get(&d.op_id) else {
            continue;
        };
        let pair = if d.same_node { "intra-node" } else { "inter-node" };
        let bufs = match (d.src_dev, d.dst_dev) {
            (true, true) => "D-D",
            (true, false) => "D-H",
            (false, true) => "H-D",
            (false, false) => "H-H",
        };
        let rel = if d.socket_rel.is_empty() {
            "unknown"
        } else {
            d.socket_rel
        };
        let group = format!("{}/{pair}/{bufs}/{rel}", d.op);
        let cell = groups.entry(group).or_default().entry(d.size).or_default();
        let e = cell.by_proto.entry(d.chosen).or_insert((0.0, 0));
        e.0 += path.total_us();
        e.1 += 1;
        if cell.thresholds.is_empty() {
            // a decision lists them in consult order; the governing entry
            // below is the first inside the switch window in name order
            cell.thresholds = d.thresholds.iter().collect();
            cell.thresholds.sort_unstable();
        }
        if cell.tsource.is_empty() {
            cell.tsource = d.tsource;
        }
    }

    let mut out = CrossoverReport::default();
    for (group, cells) in &groups {
        // curve: per size, the protocol the dispatch actually chose
        // (majority across the cell's runs; ties break by name)
        let mut curve: Vec<CurvePoint> = Vec::new();
        for (&size, cell) in cells {
            let Some((proto, &(sum, count))) =
                cell.by_proto.iter().max_by_key(|&(&name, &(_, n))| (n, std::cmp::Reverse(name)))
            else {
                continue;
            };
            curve.push(CurvePoint {
                size,
                protocol: proto.to_string(),
                mean_us: sum / count as f64,
                count,
            });
        }

        // per-protocol latency points across the whole group, for fits
        let mut proto_pts: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
        for p in &curve {
            proto_pts
                .entry(p.protocol.as_str())
                .or_default()
                .push((p.size as f64, p.mean_us));
        }

        for w in curve.windows(2) {
            let (lo, hi) = (&w[0], &w[1]);
            if lo.protocol == hi.protocol {
                continue;
            }
            let cell = &cells[&lo.size];
            // the governing entry: a consulted threshold whose value
            // lies inside the switch window
            let threshold = cell
                .thresholds
                .iter()
                .chain(cells[&hi.size].thresholds.iter())
                .find(|(_, v)| *v >= lo.size && *v <= hi.size)
                .map(|&(name, v)| (name.to_string(), v));
            let suggested = suggest(
                &proto_pts[lo.protocol.as_str()],
                &proto_pts[hi.protocol.as_str()],
                lo.size,
                hi.size,
            );
            let misconfigured = threshold
                .as_ref()
                .is_some_and(|(_, v)| *v > 0 && (suggested > 2 * v || *v > 2 * suggested));
            out.crossovers.push(CrossoverPoint {
                group: group.clone(),
                from: lo.protocol.clone(),
                to: hi.protocol.clone(),
                below_size: lo.size,
                above_size: hi.size,
                threshold,
                tsource: cell.tsource.to_string(),
                suggested,
                misconfigured,
            });
        }
        out.curves.insert(group.clone(), curve);
    }
    out
}

impl CrossoverReport {
    /// Export the suggested crossover sizes as a `thresholds-v1` table
    /// (the `--suggest` artifact). When several crossovers implicate
    /// the same entry, the smallest suggestion wins — the conservative
    /// choice for a limit that gates a bandwidth-capped path.
    pub fn suggestions(&self) -> ThresholdTable {
        let mut t = ThresholdTable::new();
        for c in &self.crossovers {
            if let Some((name, _)) = &c.threshold {
                let cur = t.get(name);
                if cur.is_none() || cur.is_some_and(|v| c.suggested < v) {
                    // unknown names can't occur: recorded thresholds
                    // come from the dispatch's own table
                    let _ = t.set(name, c.suggested);
                }
            }
        }
        t
    }

    /// Human-readable rendering (the `gdrprof crossover` default).
    pub fn text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "gdrprof crossover");
        let _ = writeln!(s, "\nlatency curves by op/pair/buffers/socket-relation:");
        for (group, curve) in &self.curves {
            let _ = writeln!(s, "  {group}:");
            for p in curve {
                let _ = writeln!(
                    s,
                    "    {:>10}B  {:<20} mean {:.3}us  n {}",
                    p.size, p.protocol, p.mean_us, p.count
                );
            }
        }
        let _ = writeln!(s, "\ncrossover points:");
        if self.crossovers.is_empty() {
            let _ = writeln!(s, "  none observed (single-protocol curves)");
        }
        for c in &self.crossovers {
            let gov = match &c.threshold {
                Some((name, v)) => format!("threshold {name}={v}, {}", c.tsource),
                None => "no threshold in window: locality rule".to_string(),
            };
            let mark = if c.misconfigured { "  MISCONFIGURED" } else { "" };
            let _ = writeln!(
                s,
                "  crossover {}: {} -> {} between {}B and {}B ({gov}) suggested {}B{mark}",
                c.group, c.from, c.to, c.below_size, c.above_size, c.suggested
            );
        }
        s
    }

    /// Machine-readable rendering. Deterministic like
    /// [`crate::report::Report::to_json`]: identical traces produce
    /// byte-identical documents.
    pub fn to_json(&self) -> String {
        obs::json::object(|o| {
            o.str_field("schema", CROSSOVER_SCHEMA);
            o.obj_field("curves", |cj| {
                for (group, curve) in &self.curves {
                    cj.arr_field(group, curve, |e, p| {
                        e.u64_field("size", p.size)
                            .str_field("protocol", &p.protocol)
                            .num_field("mean_us", p.mean_us)
                            .u64_field("count", p.count);
                    });
                }
            });
            o.arr_field("crossovers", &self.crossovers, |e, c| {
                e.str_field("group", &c.group)
                    .str_field("from", &c.from)
                    .str_field("to", &c.to)
                    .u64_field("below_size", c.below_size)
                    .u64_field("above_size", c.above_size);
                match &c.threshold {
                    Some((name, v)) => {
                        e.str_field("threshold", name).u64_field("threshold_value", *v);
                    }
                    None => {
                        e.raw_field("threshold").push_str("null");
                    }
                }
                e.str_field("tsource", &c.tsource)
                    .u64_field("suggested", c.suggested)
                    .bool_field("misconfigured", c.misconfigured);
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_rounding_uses_geometric_midpoint() {
        assert_eq!(round_pow2(4096.0), 4096);
        assert_eq!(round_pow2(5000.0), 4096);
        // geometric midpoint of [4096, 8192] is ~5793
        assert_eq!(round_pow2(5900.0), 8192);
        assert_eq!(round_pow2(1.0), 1);
    }

    #[test]
    fn line_fit_recovers_exact_affine_points() {
        let pts = [(1024.0, 3.0), (2048.0, 5.0), (4096.0, 9.0)];
        let (a, b) = fit_line(&pts).expect("three points fit a line");
        assert!((a - 1.0).abs() < 1e-9, "intercept {a}");
        assert!((b - 1.0 / 512.0).abs() < 1e-12, "slope {b}");
        assert!(fit_line(&pts[..1]).is_none());
    }

    #[test]
    fn suggestion_clamps_to_the_observed_window() {
        // steep line crosses a flat one far left of the window: the
        // suggestion must stay inside [s1, s2]
        let cheap = [(1024.0, 1.0), (2048.0, 2.0)];
        let flat = [(4096.0, 1.5), (8192.0, 1.5)];
        let s = suggest(&cheap, &flat, 2048, 4096);
        assert!((2048..=4096).contains(&s), "suggested {s}");
    }
}
