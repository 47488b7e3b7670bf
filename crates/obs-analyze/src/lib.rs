//! # obs-analyze — trace analysis for the observability layer
//!
//! The recorder (`crates/obs`) records [`obs::Event`]s; this crate
//! analyzes them and answers the profiling questions the paper's
//! evaluation asks: where does each put/get spend its time (critical
//! path per op, split by pipeline stage), how busy is each PCIe/IB link
//! (utilization + contention windows), which protocol did the runtime
//! choose and how often, and did a change regress latency (A/B diff
//! with a threshold). On top of the per-op reconstruction sit the
//! autotuning substrate tools: the crossover profiler (observed
//! protocol-switch points vs the static threshold table, `crossover`)
//! and the what-if replayer (re-route recorded decisions under an
//! alternate `thresholds-v1` table and predict the latency delta,
//! `whatif`). The `gdrprof` binary is the CLI over it; CI uses its
//! machine-readable output (`BENCH_omb.json`).
//!
//! There is one trace schema, the recorder's: a [`Trace`] is the
//! exporter's tracks of `obs::Event`s plus the window snapshots.
//! In-process callers take it from the recorder ([`Trace::of`]);
//! `gdrprof` decodes it from an exported Chrome trace ([`Trace::decode`],
//! the exporter's inverse). JSON is an export format, not a step between
//! the recorder and the analyses.
//!
//! Everything here is deterministic: identical traces produce
//! byte-identical text and JSON reports (BTreeMap iteration, fixed
//! float formatting), so reports can be `cmp`'d in CI.

pub mod campaign;
pub mod crossover;
pub mod diff;
pub mod report;
pub mod timeline;
pub mod trace;
pub mod whatif;

pub use campaign::{CampaignSummary, CampaignViolation, CAMPAIGN_SCHEMA};
pub use crossover::{crossover, CrossoverPoint, CrossoverReport, CurvePoint};
pub use diff::{diff, DiffReport, DiffRow, Exit, GateRow, StageDelta, EXITS};
pub use report::{
    analyze, report_field, LinkStat, OpPath, ProtoStat, QuantileStat, Report, ReportField, Section,
    RMA_OPS,
};
pub use timeline::{timeline, FaultBurst, Lifecycle, Timeline, TimelineRow, TIMELINE_SCHEMA};
pub use trace::Trace;
pub use whatif::{whatif, WhatifReport, WhatifRow};

/// Parse, decode and analyze a Chrome trace document in one step.
pub fn analyze_str(doc: &str) -> Result<Report, String> {
    let value = obs::json::parse(doc)?;
    Ok(analyze(&Trace::decode(&value)?))
}

/// The check tests run on every traced recorder: the two ways into an
/// analysis agree. The exported document decodes and re-exports byte
/// for byte; since the recorder's document is the export of
/// [`Trace::of`], the decoded trace then equals the in-process one up to
/// the byte-counter deltas the export does not carry. `analyze`,
/// `crossover` and `timeline` (from the snapshots and from 50 µs
/// windows derived from the spans) must also render the same text and
/// JSON from both. And there is one windowing: on a span trace with
/// snapshots of width W, the plane run over the trace at W
/// (`timeline(tr, Some(W))`) gives the snapshots' rows, bursts and
/// lifecycles. Returns the in-process trace.
pub fn check_paths(rec: &obs::Recorder) -> Result<Trace<'static>, String> {
    let doc = rec.chrome_trace();
    let value = obs::json::parse(&doc)?;
    let decoded = Trace::decode(&value)?;
    let tracks: Vec<_> = decoded.tracks.iter().map(|(name, events)| (name.as_str(), events.iter().collect())).collect();
    if obs::chrome::export(&tracks, &decoded.windows) != doc {
        return Err("the decoded trace does not re-export to the recorder's document".into());
    }
    let of = Trace::of(rec);
    let render = |tr: &Trace| {
        let (r, x) = (analyze(tr), crossover(tr));
        let timelines = [None, Some(50)].map(|w| timeline(tr, w).map(|t| t.text() + &t.to_json()));
        (r.text() + &r.to_json() + &x.text() + &x.to_json(), timelines)
    };
    if render(&of) != render(&decoded) {
        return Err("the analyses differ between the in-process and the decoded trace".into());
    }
    if let (true, Some(w)) = (rec.spans_on(), of.windows.first()) {
        let width = ((w.end_ps - w.start_ps) / 1_000_000) as u32;
        let (recorded, derived) = (timeline(&of, None)?, timeline(&of, Some(width))?);
        let (r, d) = (&recorded, &derived);
        if r.rows != d.rows || r.bursts != d.bursts || r.lifecycles != d.lifecycles {
            return Err(format!(
                "the plane run over the trace at {width} us disagrees with its snapshots:\n{}{}",
                recorded.text(),
                derived.text()
            ));
        }
    }
    Ok(of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{FaultEvent, ObsLevel, Payload, Recorder, TrackKind};
    use sim_core::SimTime;
    use std::rc::Rc;

    fn t(us: u64) -> SimTime {
        SimTime(us * 1_000_000)
    }

    /// The in-process trace of `r`, checked against its decoded export.
    fn checked(r: &Recorder) -> Trace<'static> {
        check_paths(r).expect("the in-process and decoded traces agree")
    }

    fn report(r: &Recorder) -> Report {
        analyze(&checked(r))
    }

    /// A synthetic two-op trace: one small direct-GDR put (flow start +
    /// remote flow end), one pipelined put with overlapping d2h/rdma
    /// chunks, a decision record, and link counter samples.
    fn synthetic_trace() -> Rc<Recorder> {
        let r = Recorder::new(ObsLevel::Spans);
        let pe0 = r.track(TrackKind::Pe, 0);
        let pe1 = r.track(TrackKind::Pe, 1);
        let lk = r.track_named(TrackKind::Link, 0, "pcie/gpu0/d2h");

        // op 1: direct-gdr put, span 1..5us, remote completion at 9us
        r.instant(pe0, "op-flow", t(1), Payload::FlowStart { id: 101 });
        r.span(
            pe0,
            "put",
            t(1),
            t(5),
            Payload::Op {
                op: "put",
                protocol: "direct-gdr",
                size: 64,
                src_pe: 0,
                dst_pe: 1,
                src_dev: true,
                dst_dev: true,
                same_node: false,
                op_id: 101,
            },
        );
        r.instant(pe1, "op-flow", t(9), Payload::FlowEnd { id: 101 });

        // op 2: pipelined put with two d2h chunks (10..12, 11..14 —
        // overlapping, union 4us) and one rdma chunk ending at 20us
        r.instant(pe0, "op-flow", t(10), Payload::FlowStart { id: 102 });
        r.span(
            pe0,
            "put",
            t(10),
            t(15),
            Payload::Op {
                op: "put",
                protocol: "pipeline-gdr-write",
                size: 1 << 20,
                src_pe: 0,
                dst_pe: 1,
                src_dev: true,
                dst_dev: true,
                same_node: false,
                op_id: 102,
            },
        );
        for (i, (s, e)) in [(10u64, 12u64), (11, 14)].iter().enumerate() {
            r.span(
                pe0,
                "chunk-d2h",
                t(*s),
                t(*e),
                Payload::Chunk {
                    protocol: "pipeline-gdr-write",
                    stage: "d2h",
                    index: i as u32,
                    size: 1 << 19,
                    op_id: 102,
                },
            );
        }
        r.span(
            pe0,
            "chunk-rdma",
            t(14),
            t(20),
            Payload::Chunk {
                protocol: "pipeline-gdr-write",
                stage: "rdma",
                index: 1,
                size: 1 << 19,
                op_id: 102,
            },
        );
        r.instant(pe1, "op-flow", t(20), Payload::FlowEnd { id: 102 });

        let mut d = obs::Decision {
            op: "put",
            size: 64,
            src_pe: 0,
            dst_pe: 1,
            src_dev: true,
            dst_dev: true,
            same_node: false,
            chosen: "direct-gdr",
            ..Default::default()
        };
        d.candidates.push("direct-gdr");
        r.decision(pe0, t(1), d);

        // link samples: queue ramps to 2 (one contention window)
        for (us, total, busy, q) in [(2u64, 4096u64, 1u64, 1u32), (3, 8192, 2, 2), (4, 12288, 3, 1)]
        {
            r.instant(
                lk,
                "link",
                t(us),
                Payload::LinkSample {
                    total,
                    busy_ps: busy * 1_000_000,
                    queue: q,
                },
            );
        }
        r
    }

    #[test]
    fn analyzes_critical_paths_stages_and_flows() {
        let rep = report(&synthetic_trace());
        assert_eq!(rep.ops_analyzed, 2);
        assert_eq!(rep.flow_started, 2);
        assert_eq!(rep.flow_matched, 2);
        assert!((rep.flow_linkage() - 1.0).abs() < 1e-9);

        // direct put: critical path extends to the remote flow end
        let direct = &rep.protocols["put/direct-gdr"];
        assert_eq!(direct.count, 1);
        assert!((direct.mean_us() - 8.0).abs() < 1e-6, "{}", direct.mean_us());
        assert!((direct.stages["direct"] - 4.0).abs() < 1e-6);

        // pipelined put: end = last chunk end (20us), d2h union = 4us
        let pipe = &rep.protocols["put/pipeline-gdr-write"];
        assert!((pipe.mean_us() - 10.0).abs() < 1e-6, "{}", pipe.mean_us());
        assert!((pipe.stages["d2h"] - 4.0).abs() < 1e-6, "{:?}", pipe.stages);
        assert!((pipe.stages["rdma"] - 6.0).abs() < 1e-6);

        assert_eq!(rep.decisions["put/direct-gdr"], 1);

        let lk = &rep.links["pcie/gpu0/d2h"];
        assert_eq!(lk.samples, 3);
        assert_eq!(lk.bytes, 12288);
        assert_eq!(lk.peak_queue, 2);
        assert_eq!(lk.contended_windows, 1);
    }

    #[test]
    fn text_report_has_ci_anchor_lines() {
        let rep = report(&synthetic_trace());
        let txt = rep.text();
        assert!(txt.contains("ops-analyzed: 2"), "{txt}");
        assert!(txt.contains("critical path"), "{txt}");
        assert!(txt.contains("flow-linkage: 100.0%"), "{txt}");
    }

    #[test]
    fn json_report_is_deterministic_and_parses() {
        let rep = report(&synthetic_trace());
        let j1 = rep.to_json();
        let j2 = report(&synthetic_trace()).to_json();
        assert_eq!(j1, j2, "same trace must yield byte-identical JSON");
        let v = obs::json::parse(&j1).expect("report JSON must reparse");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("gdrprof-report-v2"),
            "missing or wrong \"schema\" field"
        );
        assert_eq!(
            v.get("ops_analyzed").and_then(|n| n.as_f64()),
            Some(2.0),
            "missing \"ops_analyzed\" field"
        );
        assert_eq!(
            v.get("flow")
                .and_then(|f| f.get("linkage"))
                .and_then(|n| n.as_f64()),
            Some(1.0),
            "missing \"flow.linkage\" field"
        );
        // v2: the quantiles section keys op/protocol/size-class cells
        let q = v
            .get("quantiles")
            .expect("missing \"quantiles\" object")
            .as_obj()
            .expect("\"quantiles\" is not an object");
        assert!(
            q.contains_key("put/direct-gdr/c07"),
            "expected put/direct-gdr/c07 in {:?}",
            q.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn v2_report_round_trips_through_from_json() {
        let rep = report(&synthetic_trace());
        let back =
            Report::from_json_str(&rep.to_json()).expect("v2 report must rehydrate");
        assert_eq!(back.ops_analyzed, rep.ops_analyzed);
        assert_eq!(back.flow_matched, rep.flow_matched);
        assert!((back.trace_span_us - rep.trace_span_us).abs() < 1e-9);
        assert_eq!(back.protocols.len(), rep.protocols.len());
        for (k, st) in &rep.protocols {
            let b = &back.protocols[k];
            assert_eq!(b.count, st.count, "{k}: count");
            assert!((b.mean_us() - st.mean_us()).abs() < 1e-9, "{k}: mean");
            assert_eq!(b.stages.len(), st.stages.len(), "{k}: stages");
        }
        assert_eq!(back.quantiles.len(), rep.quantiles.len());
        for (k, q) in &rep.quantiles {
            let b = &back.quantiles[k];
            assert_eq!((b.class, b.count), (q.class, q.count), "{k}");
            assert!((b.p99_us - q.p99_us).abs() < 1e-9, "{k}: p99");
        }
        assert_eq!(back.decisions, rep.decisions);
        assert_eq!(back.links.len(), rep.links.len());
    }

    #[test]
    fn v1_golden_reports_rehydrate_compatibly() {
        // the committed fixtures predate the v2 schema: they must keep
        // loading, with the v2-only sections empty
        for name in [
            "report_recovery_base",
            "report_recovery_regressed",
            "report_partial_base",
            "report_partial_regressed",
            "report_health_base",
            "report_health_regressed",
        ] {
            let path = format!(
                "{}/../../tests/golden/{name}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let doc = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let rep = Report::from_json_str(&doc)
                .unwrap_or_else(|e| panic!("{name} must rehydrate: {e}"));
            assert!(rep.ops_analyzed > 0, "{name}: ops_analyzed");
            assert!(!rep.protocols.is_empty(), "{name}: protocols");
            assert!(rep.quantiles.is_empty(), "{name}: v1 has no quantiles");
        }
        let base = Report::from_json_str(
            &std::fs::read_to_string(format!(
                "{}/../../tests/golden/report_recovery_base.json",
                env!("CARGO_MANIFEST_DIR")
            ))
            .expect("fixture must be readable"),
        )
        .expect("recovery_base must rehydrate");
        assert_eq!(base.ops_analyzed, 10);
        assert!((base.trace_span_us - 100.0).abs() < 1e-9);
        assert_eq!(base.faulted_ops["host-rdma"], 4);
    }

    #[test]
    fn from_json_errors_name_the_missing_field() {
        let err = Report::from_json_str(r#"{"schema":"gdrprof-report-v2"}"#)
            .expect_err("missing trace_span_us must fail");
        assert!(err.contains("trace_span_us"), "{err}");
        let err = Report::from_json_str(r#"{"trace_span_us":1}"#)
            .expect_err("missing schema must fail");
        assert!(err.contains("schema"), "{err}");
        let err = Report::from_json_str(r#"{"schema":"gdrprof-report-v9","trace_span_us":1}"#)
            .expect_err("unknown schema must fail");
        assert!(err.contains("gdrprof-report-v9"), "{err}");
        let err = Report::from_json_str(
            r#"{"schema":"gdrprof-report-v2","trace_span_us":1,"ops_analyzed":1,
               "protocols":{"put/x":{"count":"many"}}}"#,
        )
        .expect_err("mistyped count must fail");
        assert!(err.contains("count"), "{err}");
    }

    #[test]
    fn from_json_rejects_mistyped_additive_fields() {
        // additive sections read an absent field as 0, but a present
        // field that is not a number is an error naming it
        let doc = |section: &str| {
            format!(
                r#"{{"schema":"gdrprof-report-v2","trace_span_us":1,"ops_analyzed":1,"protocols":{{}},{section}}}"#
            )
        };
        let fault = |field: &str| {
            doc(&format!(
                r#""faults":{{"pipeline-gdr-write":{{"injected":1,"retried":1,"faulted_ops":1,
                   "recovered":0,"fallbacks":0{field}}}}}"#
            ))
        };
        let rep = Report::from_json_str(&fault("")).expect("absent additive fields read 0");
        assert_eq!(rep.count(FaultEvent::PartialDelivery, "pipeline-gdr-write"), 0);
        for (section, field) in [
            (fault(r#","chunk_retried":"x""#), "chunk_retried"),
            (fault(r#","partials":"oops""#), "partials"),
            (fault(r#","partial_delivered":[]"#), "partial_delivered"),
            (fault(r#","partial_total":{}"#), "partial_total"),
            (doc(r#""membership":{"pe_dead":"x"}"#), "pe_dead"),
            (doc(r#""membership":{"convergence_us":"x"}"#), "convergence_us"),
            (doc(r#""partitions":{"fences":"x"}"#), "fences"),
            (doc(r#""partitions":{"heal_convergence_us":"x"}"#), "heal_convergence_us"),
            (doc(r#""timeline":{"windows":"x"}"#), "windows"),
            (doc(r#""timeline":{"violations":"x"}"#), "violations"),
        ] {
            let err = Report::from_json_str(&section)
                .expect_err("a mistyped additive field must fail");
            assert!(
                err.contains(&format!("field \"{field}\" is not a number")),
                "{field}: {err}"
            );
        }
        // a present section of the wrong type is an error too: reading
        // it as empty would hide what the report recorded
        let protocols = |stages: &str| {
            format!(
                r#"{{"schema":"gdrprof-report-v2","trace_span_us":1,"ops_analyzed":1,
                   "protocols":{{"put/x":{{"count":1,"bytes":8,"mean_us":1,"min_us":1,
                   "max_us":1,"stages":{stages}}}}}}}"#
            )
        };
        for (doc, want) in [
            (doc(r#""faults":"oops""#), r#"report: "faults" is not an object"#),
            (doc(r#""membership":5"#), r#"report: "membership" is not an object"#),
            (doc(r#""links":[]"#), r#"report: "links" is not an object"#),
            (doc(r#""health":true"#), r#"report: "health" is not an object"#),
            (doc(r#""decisions":"x""#), r#"report: "decisions" is not an object"#),
            (doc(r#""quantiles":1"#), r#"report: "quantiles" is not an object"#),
            (doc(r#""partitions":[1]"#), r#"report: "partitions" is not an object"#),
            (doc(r#""timeline":"x""#), r#"report: "timeline" is not an object"#),
            (protocols("7"), r#"report.protocols.put/x: "stages" is not an object"#),
        ] {
            let err = Report::from_json_str(&doc).expect_err("a mistyped section must fail");
            assert_eq!(err, want);
        }
    }

    #[test]
    fn from_json_rejects_counts_that_are_not_counts() {
        let doc = |section: &str| {
            format!(
                r#"{{"schema":"gdrprof-report-v2","trace_span_us":1,"ops_analyzed":1,"protocols":{{}},{section}}}"#
            )
        };
        let fault = |injected: &str, faulted: &str| {
            doc(&format!(
                r#""faults":{{"host-rdma":{{"injected":{injected},"retried":0,
                   "faulted_ops":{faulted},"recovered":0,"fallbacks":0}}}}"#
            ))
        };
        let quantile = |class: &str| {
            doc(&format!(
                r#""quantiles":{{"put":{{"class":{class},"count":1,"p50_us":1,"p99_us":1,
                   "p999_us":1}}}}"#
            ))
        };
        let link = |peak: &str| {
            doc(&format!(
                r#""links":{{"hca0":{{"samples":1,"bytes":1,"busy_us":1,"peak_queue":{peak},
                   "contended_windows":0,"contended_us":0}}}}"#
            ))
        };
        Report::from_json_str(&fault("3", "2")).expect("whole non-negative counts load");
        Report::from_json_str(&quantile("255")).expect("a class that fits u8 loads");
        Report::from_json_str(&link("4294967295")).expect("a queue depth that fits u32 loads");
        for (doc, field) in [
            (fault("-3", "2"), "injected"),
            (fault("3", "2.5"), "faulted_ops"),
            (doc(r#""membership":{"evicts":-1}"#), "evicts"),
            (doc(r#""timeline":{"windows":0.5}"#), "windows"),
            (doc(r#""decisions":{"put/x":1.5}"#), "put/x"),
            // past the field's width: a u8 class, a u32 queue depth
            (quantile("256"), "class"),
            (link("4294967296"), "peak_queue"),
        ] {
            let err = Report::from_json_str(&doc).expect_err("a non-count must fail");
            assert!(err.contains(field) && err.contains("is not a count"), "{field}: {err}");
        }
    }

    /// An inter-node D-D get sweep with enriched decision records: two
    /// sizes served by direct-gdr, one by the proxy — a single
    /// crossover governed by `proxy_get_min`.
    fn synthetic_sweep_trace() -> Rc<Recorder> {
        let r = Recorder::new(ObsLevel::Spans);
        let pe0 = r.track(TrackKind::Pe, 0);
        for (i, (size, proto, dur)) in [
            (4096u64, "direct-gdr", 5u64),
            (65536, "direct-gdr", 20),
            (1 << 20, "proxy-pipeline", 100),
        ]
        .iter()
        .enumerate()
        {
            let op_id = 201 + i as u64;
            let start = 1 + 200 * i as u64;
            r.span(
                pe0,
                "get",
                t(start),
                t(start + dur),
                Payload::Op {
                    op: "get",
                    protocol: proto,
                    size: *size,
                    src_pe: 0,
                    dst_pe: 1,
                    src_dev: true,
                    dst_dev: true,
                    same_node: false,
                    op_id,
                },
            );
            let mut d = obs::Decision {
                op: "get",
                size: *size,
                src_pe: 0,
                dst_pe: 1,
                src_dev: true,
                dst_dev: true,
                same_node: false,
                chosen: proto,
                op_id,
                size_class: obs::hist::bucket_index(*size) as u8,
                socket_rel: "intra-socket",
                tsource: "builtin",
                ..Default::default()
            };
            d.candidates.push("direct-gdr");
            d.candidates.push("proxy-pipeline");
            d.thresholds.push("gdr_get_limit", 16384);
            d.thresholds.push("proxy_get_min", 524288);
            r.decision(pe0, t(start), d);
        }
        r
    }

    #[test]
    fn crossover_finds_the_governed_switch_point() {
        let tr = checked(&synthetic_sweep_trace());
        let x = crossover(&tr);
        let curve = &x.curves["get/inter-node/D-D/intra-socket"];
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].protocol, "direct-gdr");
        assert_eq!(curve[2].protocol, "proxy-pipeline");
        assert_eq!(x.crossovers.len(), 1);
        let c = &x.crossovers[0];
        assert_eq!((c.below_size, c.above_size), (65536, 1 << 20));
        assert_eq!(
            c.threshold.as_ref().map(|(n, v)| (n.as_str(), *v)),
            Some(("proxy_get_min", 524288)),
            "the entry inside the window governs the switch"
        );
        assert_eq!(c.tsource, "builtin");
        // proxy has one observed point: geometric-mean fallback lands
        // on sqrt(2^16 * 2^20) = 2^18
        assert_eq!(c.suggested, 262144);
        assert!(!c.misconfigured, "262144 vs 524288 is within 2x");
        let txt = x.text();
        assert!(txt.contains("crossover get/inter-node/D-D/intra-socket"), "{txt}");
        assert!(txt.contains("proxy_get_min=524288, builtin"), "{txt}");
        // byte-identical across two parses of the same document
        let again = crossover(&checked(&synthetic_sweep_trace()));
        assert_eq!(x.to_json(), again.to_json());
        assert_eq!(x.text(), again.text());
        // --suggest exports the estimate as a loadable thresholds-v1 table
        let sug = x.suggestions();
        assert_eq!(sug.get("proxy_get_min"), Some(262144));
        assert!(obs::ThresholdTable::from_json_str(&sug.to_json()).is_ok());
    }

    #[test]
    fn whatif_identity_table_predicts_zero_delta() {
        let tr = checked(&synthetic_sweep_trace());
        // same values the decisions recorded -> nothing re-routes
        let same = obs::ThresholdTable::from_json_str(
            r#"{"schema":"thresholds-v1","entries":{"gdr_get_limit":16384,"proxy_get_min":524288}}"#,
        )
        .expect("identity table must parse");
        let w = whatif(&tr, &same);
        assert_eq!(w.replayed, 3);
        assert_eq!(w.changed, 0);
        assert_eq!(w.model_mismatch, 0, "replay re-decides what the runtime decided");
        assert_eq!(w.predicted_delta_us, 0.0);
        assert!(w.text().contains("predicted-delta-us: +0.000"), "{}", w.text());
        // an empty overlay is the same identity
        let w2 = whatif(&tr, &obs::ThresholdTable::new());
        assert_eq!(w2.changed, 0);
        assert_eq!(w2.predicted_delta_us, 0.0);
    }

    #[test]
    fn whatif_degraded_table_predicts_positive_delta() {
        let tr = checked(&synthetic_sweep_trace());
        // kill direct gets entirely: everything >= 64B goes to the proxy
        let bad = obs::ThresholdTable::from_json_str(
            r#"{"schema":"thresholds-v1","entries":{"gdr_get_limit":0,"proxy_get_min":64}}"#,
        )
        .expect("degraded table must parse");
        let w = whatif(&tr, &bad);
        assert_eq!(w.changed, 2, "the two direct gets re-route");
        assert_eq!(w.unpriced, 0);
        // proxy observed only at 1MiB (100us, flat below): the small
        // gets pay (100-5) + (100-20)
        assert!(
            (w.predicted_delta_us - 175.0).abs() < 1e-6,
            "{}",
            w.predicted_delta_us
        );
        assert!(w.text().contains("predicted-delta-us: +175.000"), "{}", w.text());
        let v = obs::json::parse(&w.to_json()).expect("whatif JSON must reparse");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("gdrprof-whatif-v1")
        );
        assert_eq!(v.get("changed").and_then(|n| n.as_f64()), Some(2.0));
    }

    #[test]
    fn diff_gates_on_contention_fraction_regressions() {
        let a = report(&synthetic_trace());
        let mut b = a.clone();
        // candidate: same latencies, but the d2h link spends 35% more
        // of the trace contended
        b.links
            .get_mut("pcie/gpu0/d2h")
            .expect("link stat")
            .contended_us = a.trace_span_us * 0.40;
        let d = diff(&a, &b, 10.0);
        assert_eq!(d.regressions_in(5), 1);
        assert_eq!(d.regressions_in(4), 0, "contention-only regression");
        assert_eq!(d.regressions(), 1);
        let row = &d.gate("contention")[0];
        assert!(row.regressed && row.b > row.a);
        assert!(d.text().contains("link-contention"), "{}", d.text());
        // machine-readable: --json output splits the two gate counters
        let v = obs::json::parse(&d.to_json()).expect("diff JSON must reparse");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("gdrprof-diff-v1")
        );
        assert_eq!(
            v.get("contention_regressions").and_then(|n| n.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            v.get("latency_regressions").and_then(|n| n.as_f64()),
            Some(0.0)
        );
        // identity diff: the contended window exists on both sides but
        // nothing regresses
        let d2 = diff(&a, &a.clone(), 10.0);
        assert_eq!(d2.regressions(), 0);
        assert!(d2.gate("contention").iter().all(|r| !r.regressed));
    }

    #[test]
    fn malformed_documents_are_errors() {
        assert!(analyze_str("{\"traceEvents\":[").is_err());
        assert!(analyze_str("{}").is_err(), "missing traceEvents array");
        assert!(analyze_str("[]").is_err());
        // event without mandatory fields
        assert!(analyze_str(r#"{"traceEvents":[{"ts":1}]}"#).is_err());
    }

    /// The synthetic trace plus fault machinery: op 101 draws one
    /// transient fault and one retry before completing; an op that
    /// never completes (no span) draws a fault; one fallback re-routes
    /// a put away from direct-gdr.
    fn synthetic_faulted_trace() -> Rc<Recorder> {
        let r = Recorder::new(ObsLevel::Spans);
        let pe0 = r.track(TrackKind::Pe, 0);
        r.instant(pe0, "op-flow", t(1), Payload::FlowStart { id: 101 });
        r.instant(
            pe0,
            "fault",
            t(1),
            Payload::Fault {
                kind: "cqe-flush",
                protocol: "direct-gdr",
                op_id: 101,
            },
        );
        r.instant(
            pe0,
            "retry",
            t(2),
            Payload::Retry {
                protocol: "direct-gdr",
                attempt: 1,
                backoff_ns: 2_000,
                op_id: 101,
            },
        );
        r.span(
            pe0,
            "put",
            t(2),
            t(5),
            Payload::Op {
                op: "put",
                protocol: "direct-gdr",
                size: 64,
                src_pe: 0,
                dst_pe: 1,
                src_dev: true,
                dst_dev: true,
                same_node: false,
                op_id: 101,
            },
        );
        // op 103 faults and never completes (no op span)
        r.instant(
            pe0,
            "fault",
            t(6),
            Payload::Fault {
                kind: "retry-exceeded",
                protocol: "direct-gdr",
                op_id: 103,
            },
        );
        r.instant(
            pe0,
            "fallback",
            t(7),
            Payload::Fallback {
                op: "put",
                from: "direct-gdr",
                to: "proxy-pipeline",
                op_id: 104,
            },
        );
        r
    }

    #[test]
    fn fault_events_aggregate_into_recovery_stats() {
        let rep = report(&synthetic_faulted_trace());
        let n = |event| rep.count(event, "direct-gdr");
        assert_eq!(n(FaultEvent::Fault), 2);
        assert_eq!(n(FaultEvent::Retry), 1);
        assert_eq!(rep.faulted_ops["direct-gdr"], 2);
        assert_eq!(rep.recovered_ops["direct-gdr"], 1, "only op 101 completed");
        assert_eq!(n(FaultEvent::Fallback), 1);
        assert!((rep.recovery_rate("direct-gdr") - 0.5).abs() < 1e-9);
        let txt = rep.text();
        assert!(txt.contains("fault injection:"), "{txt}");
        // a clean trace keeps its text free of the fault section
        let clean = report(&synthetic_trace());
        assert!(!clean.text().contains("fault injection:"));
    }

    #[test]
    fn diff_gates_on_recovery_rate_regressions() {
        let mut a = report(&synthetic_faulted_trace());
        let mut b = a.clone();
        // candidate recovers none of its faulted ops
        b.recovered_ops.insert("direct-gdr".into(), 0);
        let d = diff(&a, &b, 10.0);
        assert_eq!(d.regressions(), 1);
        let row = &d.gate("recovery")[0];
        assert!(row.regressed && row.b < row.a);
        assert!(d.text().contains("recovery-rate:"), "{}", d.text());
        // equal rates: no regression
        let d2 = diff(&a, &a.clone(), 10.0);
        assert_eq!(d2.regressions(), 0);
        // a fault-free pair produces no recovery section at all
        a.counts.clear();
        let mut c = report(&synthetic_trace());
        c.counts.clear();
        let d3 = diff(&c, &c.clone(), 10.0);
        assert!(d3.gate("recovery").is_empty());
        assert!(!d3.text().contains("recovery-rate:"));
    }

    /// The faulted trace plus a full circuit-breaker lifecycle on
    /// direct-gdr (demote -> probe -> promote) and a second protocol
    /// that stays demoted (demote only).
    fn synthetic_health_trace() -> Rc<Recorder> {
        let r = Recorder::new(ObsLevel::Spans);
        let pe0 = r.track(TrackKind::Pe, 0);
        for (name, proto, us) in [
            ("demote", "direct-gdr", 3u64),
            ("probe", "direct-gdr", 8),
            ("promote", "direct-gdr", 9),
            ("demote", "host-rdma", 5),
        ] {
            r.instant(
                pe0,
                name,
                t(us),
                Payload::Health {
                    protocol: proto,
                    op_id: 100 + us,
                },
            );
        }
        r
    }

    #[test]
    fn health_events_aggregate_into_lifecycle_stats() {
        let rep = report(&synthetic_health_trace());
        let lifecycle = |k| Section::Health.events().map(|(e, _)| rep.count(e, k)).collect::<Vec<_>>();
        assert_eq!(lifecycle("direct-gdr"), [1, 1, 1]);
        assert!((rep.promote_rate("direct-gdr") - 1.0).abs() < 1e-9);
        assert_eq!(lifecycle("host-rdma"), [1, 0, 0]);
        assert!(rep.promote_rate("host-rdma").abs() < 1e-9, "never promoted back");
        let txt = rep.text();
        assert!(txt.contains("protocol health:"), "{txt}");
        assert!(txt.contains("promote-rate 100.0%"), "{txt}");
        // a trace without breaker activity keeps its text clean
        let clean = report(&synthetic_trace());
        assert!(clean.keys(Section::Health).is_empty());
        assert!(!clean.text().contains("protocol health:"));
        // and the JSON always carries the (possibly empty) health object
        let v = obs::json::parse(&clean.to_json()).unwrap();
        assert!(v.get("health").is_some());
        let v = obs::json::parse(&rep.to_json()).unwrap();
        let dg = v.get("health").unwrap().get("direct-gdr").unwrap();
        assert_eq!(dg.get("promote_rate").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn diff_gates_on_promote_rate_regressions() {
        let a = report(&synthetic_health_trace());
        let mut b = a.clone();
        // candidate never promotes direct-gdr back
        b.counts.insert((FaultEvent::Promote, "direct-gdr".into()), 0);
        let d = diff(&a, &b, 10.0);
        let row = d
            .gate("health")
            .iter()
            .find(|r| r.key == "direct-gdr")
            .unwrap();
        assert!(row.regressed && row.b < row.a);
        assert!(d.regressions() >= 1);
        assert!(d.text().contains("promote-rate"), "{}", d.text());
        // identical lifecycles: no regression from health rows
        let d2 = diff(&a, &a.clone(), 10.0);
        assert!(d2.gate("health").iter().all(|r| !r.regressed));
        // breaker-free pair produces no health section at all
        let c = report(&synthetic_trace());
        let d3 = diff(&c, &c.clone(), 10.0);
        assert!(d3.gate("health").is_empty());
        assert!(!d3.text().contains("promote-rate"));
    }

    #[test]
    fn regressed_rows_attribute_the_slowest_growing_stage() {
        let a = report(&synthetic_trace());
        let mut b = a.clone();
        // candidate: the pipeline's rdma stage doubles, dragging the
        // op mean over the threshold; d2h stays flat
        {
            let st = b.protocols.get_mut("put/pipeline-gdr-write").unwrap();
            st.total_us += 6.0;
            *st.stages.get_mut("rdma").unwrap() += 6.0;
        }
        let d = diff(&a, &b, 10.0);
        let row = d
            .rows
            .iter()
            .find(|r| r.key == "put/pipeline-gdr-write")
            .unwrap();
        assert!(row.regressed);
        let sd = row.stage.as_ref().expect("stage attribution");
        assert_eq!(sd.stage, "rdma");
        assert!((sd.b_us - sd.a_us - 6.0).abs() < 1e-6, "{sd:?}");
        assert!(d.text().contains("stage rdma"), "{}", d.text());
        // non-regressed rows carry no attribution
        assert!(d
            .rows
            .iter()
            .filter(|r| !r.regressed)
            .all(|r| r.stage.is_none()));
    }

    /// A windowed-metrics trace (50us windows), recorded the way the
    /// runtime records: each put feeds its latency and records its op
    /// span, and each fault event goes through `fault_event`. Three
    /// quiet baseline windows of 3us puts, a burst window (w3) where
    /// latencies jump 10x and faults inject, and a recovered window
    /// (w4). An SLO budget of p99 <= 20us is breached only in the burst
    /// window, and the breaker demotes in w3 and promotes back in w4.
    fn synthetic_windowed_trace() -> Rc<Recorder> {
        let r = Recorder::with_windows(
            ObsLevel::Spans,
            50,
            obs::SloPolicy::parse("p99:put/*/*=20").expect("policy must parse"),
        );
        let pe0 = r.track(TrackKind::Pe, 0);
        let mut op_id = 0;
        let mut put = |dur_us: u64, end_us: u64| {
            op_id += 1;
            let (dur, end) = (sim_core::SimDuration::from_us(dur_us), t(end_us));
            r.op_latency_at("put", "direct-gdr", 8192, dur, end);
            let payload = Payload::Op {
                op: "put",
                protocol: "direct-gdr",
                size: 8192,
                src_pe: 0,
                dst_pe: 1,
                src_dev: true,
                dst_dev: true,
                same_node: false,
                op_id,
            };
            r.span(pe0, "put", t(end_us - dur_us), end, payload);
            op_id
        };
        for w in 0..3u64 {
            for i in 0..3u64 {
                put(3, w * 50 + 10 + i * 10);
            }
        }
        for i in 0..3u64 {
            let (op_id, protocol) = (put(30, 160 + i * 10), "direct-gdr");
            let fault = Payload::Fault { kind: "cqe-flush", protocol, op_id };
            r.fault_event(pe0, t(160 + i * 10), FaultEvent::Fault, fault);
            let retry = Payload::Retry { protocol, attempt: 1, backoff_ns: 1_000, op_id };
            r.fault_event(pe0, t(161 + i * 10), FaultEvent::Retry, retry);
        }
        for (event, us) in [(FaultEvent::Demote, 165u64), (FaultEvent::Probe, 210), (FaultEvent::Promote, 215)] {
            r.fault_event(pe0, t(us), event, Payload::Health { protocol: "direct-gdr", op_id: 7 });
        }
        for i in 0..3u64 {
            put(3, 210 + i * 10);
        }
        r
    }

    #[test]
    fn timeline_flags_burst_change_points_and_lifecycles() {
        let tr = checked(&synthetic_windowed_trace());
        assert_eq!(tr.windows.len(), 5, "five touched windows");
        assert!(tr.windows.iter().any(|w| !w.violations.is_empty()));
        let tl = timeline(&tr, None).expect("snapshots present");
        assert!(!tl.derived);
        assert_eq!(tl.rows.len(), 5);
        let w3 = &tl.rows[3];
        assert_eq!(w3.window, 3);
        assert!(w3.change_point, "10x p99 jump must flag the burst window");
        assert_eq!((w3.faults, w3.retries, w3.demotes), (3, 3, 1));
        assert!(w3.violations >= 1, "budget breached in the burst window");
        assert!(tl.rows[4].change_point, "recovery back down also flags");
        assert_eq!((tl.rows[4].probes, tl.rows[4].promotes), (1, 1));
        assert!(
            tl.rows.iter().all(|r| r.violations == 0 || r.window == 3),
            "violations must stay inside the burst window"
        );
        assert_eq!(tl.bursts.len(), 1);
        assert_eq!((tl.bursts[0].first, tl.bursts[0].last), (3, 3));
        assert!(tl.bursts[0].aligned, "burst aligns with the change-point");
        assert_eq!(tl.lifecycles.len(), 1);
        let lc = &tl.lifecycles[0];
        assert_eq!(lc.protocol, "direct-gdr");
        assert_eq!((lc.demote, lc.probe, lc.promote), (3, Some(4), Some(4)));
        // byte-identical across two same-input assemblies
        let tl2 = timeline(
            &checked(&synthetic_windowed_trace()),
            None,
        )
        .expect("reassemble");
        assert_eq!(tl.to_json(), tl2.to_json());
        assert_eq!(tl.text(), tl2.text());
        let txt = tl.text();
        assert!(txt.contains("CHANGE-POINT"), "{txt}");
        assert!(
            txt.contains("fault burst: windows 3..3, aligned"),
            "{txt}"
        );
        assert!(
            txt.contains("lifecycle direct-gdr: demote @w3 probe @w4 promote @w4"),
            "{txt}"
        );
        let v = obs::json::parse(&tl.to_json()).expect("timeline JSON must reparse");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("gdrprof-timeline-v1")
        );
        assert_eq!(v.get("windows").and_then(|n| n.as_f64()), Some(5.0));
        // the plane run over the trace at the recorded width prints the
        // same series (`checked` holds every traced test to this), only
        // marked derived
        let derived = timeline(&tr, Some(50)).expect("an explicit width derives");
        assert!(derived.derived);
        assert_eq!(derived.text(), txt.replacen(" windows)", " windows, derived)", 1));
        assert_eq!(derived.to_json(), tl.to_json().replacen("\"derived\":false", "\"derived\":true", 1));
        // without the plane there are no snapshots to read, only a width
        // to derive at
        assert!(timeline(&checked(&synthetic_trace()), None).is_err());
    }

    #[test]
    fn derived_windows_carry_recorded_violations_by_their_instant() {
        let tr = checked(&synthetic_windowed_trace());
        // the burst window's violation fires at its close, 200 us: at
        // 100 us windows that instant, like the burst, is in w1
        let tl = timeline(&tr, Some(100)).expect("an explicit width derives");
        let hit: Vec<(u64, u64, u64)> = tl.rows.iter().map(|r| (r.window, r.faults, r.violations)).collect();
        assert_eq!(hit, [(0, 0, 0), (1, 3, 1), (2, 0, 0)]);
        assert!(tl.text().contains("slo-violations: 1 in 1 windows (first w1, last w1)"), "{}", tl.text());
    }

    #[test]
    fn zero_width_snapshots_are_an_error() {
        let snap = obs::WindowSnap {
            index: 0,
            start_ps: 0,
            end_ps: 0,
            cells: vec![],
            links: vec![],
            faults: vec![],
            violations: vec![],
        };
        let tr = Trace { tracks: vec![], windows: vec![snap] };
        assert_eq!(timeline(&tr, None).unwrap_err(), "window-snapshot records of zero width");
    }

    #[test]
    fn derived_windows_hold_the_last_picosecond() {
        // a decoded document can place a span anywhere in `u64`
        // picoseconds; its window still closes after it opens
        let payload = Payload::Op {
            op: "put",
            protocol: "direct-gdr",
            size: 8,
            src_pe: 0,
            dst_pe: 1,
            src_dev: true,
            dst_dev: true,
            same_node: false,
            op_id: 5,
        };
        let (ts, dur) = (SimTime(u64::MAX - 10), sim_core::SimDuration::from_ps(5));
        let span = obs::Event { ts, dur, name: "put", payload };
        let tr = Trace { tracks: vec![("pe/0".to_string(), vec![span])], windows: vec![] };
        let row = &timeline(&tr, Some(50)).expect("an explicit width derives").rows[0];
        assert_eq!((row.ops, row.end_us), (1, obs::us(u64::MAX)));
        assert!(row.start_us < row.end_us);
    }

    #[test]
    fn diff_gates_on_slo_violation_counts() {
        let a = report(&synthetic_windowed_trace());
        assert_eq!(a.windows, 5);
        assert!(a.slo_violations >= 1);
        // the windowed counters round-trip through the report JSON
        let back = Report::from_json_str(&a.to_json()).expect("report must rehydrate");
        assert_eq!(back.windows, a.windows);
        assert_eq!(back.slo_violations, a.slo_violations);
        let mut b = a.clone();
        b.slo_violations += 3;
        let d = diff(&a, &b, 10.0);
        assert_eq!(d.regressions_in(6), 1);
        assert_eq!(d.regressions_in(4), 0);
        assert_eq!(d.regressions_in(5), 0);
        let row = d.gate("slo").first().expect("slo section present");
        assert!(row.regressed && row.b_count > row.a_count);
        assert!(d.text().contains("slo-violations"), "{}", d.text());
        let v = obs::json::parse(&d.to_json()).expect("diff JSON must reparse");
        assert_eq!(v.get("slo_regressions").and_then(|n| n.as_f64()), Some(1.0));
        // fewer violations than baseline is not a regression
        let d2 = diff(&b, &a, 10.0);
        assert_eq!(d2.regressions_in(6), 0);
        // a windowless pair carries no slo section at all
        let c = report(&synthetic_trace());
        let d3 = diff(&c, &c.clone(), 10.0);
        assert!(d3.gate("slo").is_empty());
        assert!(!d3.text().contains("slo-violations"));
    }

    #[test]
    fn diff_flags_regressions_over_threshold() {
        let a = report(&synthetic_trace());
        let mut b = a.clone();
        // candidate: direct-gdr 50% slower
        b.protocols.get_mut("put/direct-gdr").unwrap().total_us *= 1.5;
        let d = diff(&a, &b, 10.0);
        assert_eq!(d.regressions(), 1);
        let row = d.rows.iter().find(|r| r.key == "put/direct-gdr").unwrap();
        assert!(row.regressed);
        assert!((row.delta_pct.unwrap() - 50.0).abs() < 1e-6);
        // within threshold: no regression
        let d2 = diff(&a, &b, 60.0);
        assert_eq!(d2.regressions(), 0);
        assert!(d2.text().contains("regressions: 0"));
    }
}
