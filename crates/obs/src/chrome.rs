//! Chrome `trace_event` JSON: [`export`] and [`decode`], its inverse.
//!
//! Output loads in `chrome://tracing` or Perfetto. Each recorder track
//! becomes one "thread" (tid) of a single process, named via `"M"`
//! metadata events; timestamps and durations are **virtual**
//! microseconds (`ts`/`dur` floats, picosecond-exact since 1 ps =
//! 1e-6 us). Spans are `"X"` complete events, decision records and
//! other instants are `"i"` thread-scoped instant events, and
//! hardware byte samples are `"C"` counter events. Window snapshots and
//! SLO violations are instants on a synthetic `metrics` track after all
//! the others.
//!
//! [`decode`] reads such a document back into the recorder's own
//! [`Event`]s and [`WindowSnap`]s, borrowing their names from the parsed
//! [`Value`]; exporting what it returns reproduces the document byte for
//! byte.

use crate::json::{write_str, ObjWriter, Value};
use crate::plan::Limits;
use crate::window::{CellSnap, FaultSnap, LinkSnap};
use crate::{us, Decision, Event, FaultEvent, Payload, SloViolation, Tracks, WindowSnap};
use sim_core::{SimDuration, SimTime};
use std::collections::BTreeMap;

fn write_args(o: &mut ObjWriter, p: &Payload) {
    match p {
        Payload::None => {}
        Payload::Op {
            op,
            protocol,
            size,
            src_pe,
            dst_pe,
            src_dev,
            dst_dev,
            same_node,
            op_id,
        } => {
            o.str_field("op", op)
                .str_field("protocol", protocol)
                .u64_field("size", *size)
                .u64_field("src_pe", *src_pe as u64)
                .u64_field("dst_pe", *dst_pe as u64)
                .bool_field("src_dev", *src_dev)
                .bool_field("dst_dev", *dst_dev)
                .bool_field("same_node", *same_node)
                .u64_field("op_id", *op_id);
        }
        Payload::Decision(d) => {
            o.str_field("op", d.op)
                .u64_field("size", d.size)
                .u64_field("size_class", d.size_class as u64)
                .u64_field("src_pe", d.src_pe as u64)
                .u64_field("dst_pe", d.dst_pe as u64)
                .bool_field("src_dev", d.src_dev)
                .bool_field("dst_dev", d.dst_dev)
                .bool_field("same_node", d.same_node)
                .str_field("socket_rel", d.socket_rel)
                .str_field("chosen", d.chosen)
                .u64_field("op_id", d.op_id)
                .str_field("tsource", d.tsource);
            {
                let buf = o.raw_field("candidates");
                buf.push('[');
                for (i, c) in d.candidates.iter().enumerate() {
                    if i > 0 {
                        buf.push(',');
                    }
                    write_str(buf, c);
                }
                buf.push(']');
            }
            o.obj_field("thresholds", |t| {
                for (name, v) in d.thresholds.iter() {
                    t.u64_field(name, v);
                }
            });
        }
        Payload::Chunk {
            protocol,
            stage,
            index,
            size,
            op_id,
        } => {
            o.str_field("protocol", protocol)
                .str_field("stage", stage)
                .u64_field("chunk", *index as u64)
                .u64_field("size", *size)
                .u64_field("op_id", *op_id);
        }
        Payload::Proxy {
            kind,
            size,
            origin_pe,
        } => {
            o.str_field("kind", kind)
                .u64_field("size", *size)
                .u64_field("origin_pe", *origin_pe as u64);
        }
        Payload::Xfer { size } => {
            o.u64_field("size", *size);
        }
        Payload::Bytes { bytes, total } => {
            o.u64_field("delta", *bytes).u64_field("bytes", *total);
        }
        Payload::FlowStart { id } | Payload::FlowEnd { id } => {
            o.u64_field("op_id", *id);
        }
        Payload::LinkSample { total, busy_ps, queue } => {
            o.u64_field("bytes", *total)
                .num_field("busy_us", us(*busy_ps))
                .u64_field("queue", *queue as u64);
        }
        Payload::Fault { kind, protocol, op_id } => {
            o.str_field("kind", kind)
                .str_field("protocol", protocol)
                .u64_field("op_id", *op_id);
        }
        Payload::Retry {
            protocol,
            attempt,
            backoff_ns,
            op_id,
        } => {
            o.str_field("protocol", protocol)
                .u64_field("attempt", *attempt as u64)
                .u64_field("backoff_ns", *backoff_ns)
                .u64_field("op_id", *op_id);
        }
        Payload::Fallback { op, from, to, op_id } => {
            o.str_field("op", op)
                .str_field("from", from)
                .str_field("to", to)
                .u64_field("op_id", *op_id);
        }
        Payload::PartialDelivery {
            protocol,
            delivered,
            total,
            op_id,
        } => {
            o.str_field("protocol", protocol)
                .u64_field("delivered", *delivered)
                .u64_field("total", *total)
                .u64_field("op_id", *op_id);
        }
        Payload::Health { protocol, op_id } => {
            o.str_field("protocol", protocol).u64_field("op_id", *op_id);
        }
        Payload::Member { pe, epoch } => {
            o.u64_field("pe", *pe as u64).u64_field("epoch", *epoch);
        }
    }
}

fn write_event(out: &mut String, tid: usize, ev: &Event) {
    let mut o = ObjWriter::new(out);
    o.num_field("pid", 1.0).num_field("tid", tid as f64);
    match ev.payload {
        Payload::Bytes { total, .. } => {
            // counter sample: Chrome plots args values over time
            o.str_field("ph", "C").str_field("name", ev.name);
            o.num_field("ts", us(ev.ts.as_ps()));
            o.obj_field("args", |a| {
                a.u64_field("bytes", total);
            });
        }
        Payload::LinkSample { .. } => {
            o.str_field("ph", "C").str_field("name", ev.name);
            o.num_field("ts", us(ev.ts.as_ps()));
            o.obj_field("args", |a| write_args(a, &ev.payload));
        }
        Payload::FlowStart { id } => {
            o.str_field("ph", "s")
                .str_field("cat", "flow")
                .str_field("name", ev.name)
                .u64_field("id", id);
            o.num_field("ts", us(ev.ts.as_ps()));
            o.obj_field("args", |a| write_args(a, &ev.payload));
        }
        Payload::FlowEnd { id } => {
            // bp:"e" binds the arrow to the enclosing slice's end
            o.str_field("ph", "f")
                .str_field("bp", "e")
                .str_field("cat", "flow")
                .str_field("name", ev.name)
                .u64_field("id", id);
            o.num_field("ts", us(ev.ts.as_ps()));
            o.obj_field("args", |a| write_args(a, &ev.payload));
        }
        _ if ev.dur.is_zero() => {
            o.str_field("ph", "i").str_field("s", "t").str_field("name", ev.name);
            o.num_field("ts", us(ev.ts.as_ps()));
            o.obj_field("args", |a| write_args(a, &ev.payload));
        }
        _ => {
            o.str_field("ph", "X").str_field("name", ev.name);
            o.num_field("ts", us(ev.ts.as_ps()));
            o.num_field("dur", us(ev.dur.as_ps()));
            o.obj_field("args", |a| write_args(a, &ev.payload));
        }
    }
    o.finish();
}

/// Export tracks, already in export order
/// ([`crate::Recorder::ordered_tracks`]), as a complete Chrome trace
/// document: `{"displayTimeUnit":"ns","traceEvents":[...]}`. With
/// `windows` non-empty a synthetic `metrics` track (tid =
/// `tracks.len()`) follows, carrying each window's `window-snapshot`
/// instant at the window's closing edge and then its `slo-violation`
/// instants; without, there is no such track.
pub fn export(tracks: &[(&str, Vec<&Event>)], windows: &[WindowSnap]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };
    let mut names: Vec<&str> = tracks.iter().map(|(name, _)| *name).collect();
    if !windows.is_empty() {
        names.push("metrics");
    }
    for (tid, name) in names.iter().enumerate() {
        sep(&mut out);
        let mut o = ObjWriter::new(&mut out);
        o.str_field("ph", "M").str_field("name", "thread_name");
        o.num_field("pid", 1.0).num_field("tid", tid as f64);
        o.obj_field("args", |a| {
            a.str_field("name", name);
        });
        o.finish();
    }
    for (tid, (_, events)) in tracks.iter().enumerate() {
        for ev in events {
            sep(&mut out);
            write_event(&mut out, tid, ev);
        }
    }
    for w in windows {
        let violations = w.violations.iter().map(|v| (v.ts_ps, "slo-violation", v.args_json()));
        for (ts_ps, name, args) in std::iter::once((w.end_ps, "window-snapshot", w.args_json())).chain(violations) {
            sep(&mut out);
            let mut o = ObjWriter::new(&mut out);
            o.num_field("pid", 1.0).num_field("tid", tracks.len() as f64);
            o.str_field("ph", "i").str_field("s", "t").str_field("name", name);
            o.num_field("ts", us(ts_ps));
            o.raw_field("args").push_str(&args);
            o.finish();
        }
    }
    out.push_str("\n]}");
    out
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn float(v: &Value, key: &str) -> f64 {
    num(v, key).unwrap_or(0.0)
}

fn uint(v: &Value, key: &str) -> u64 {
    float(v, key) as u64
}

fn flag(v: &Value, key: &str) -> bool {
    v.get(key).and_then(Value::as_bool).unwrap_or(false)
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Exported microseconds back to picoseconds. The writer prints the
/// shortest form that parses back to `ps / 1e6`, so this is exact below
/// about 2 000 s of virtual time.
fn ps(us: f64) -> u64 {
    (us * 1e6).round() as u64
}

fn decision(a: &Value) -> Decision<'_> {
    let mut d = Decision {
        op: text(a, "op"),
        size: uint(a, "size"),
        size_class: uint(a, "size_class") as u8,
        src_pe: uint(a, "src_pe") as u32,
        dst_pe: uint(a, "dst_pe") as u32,
        src_dev: flag(a, "src_dev"),
        dst_dev: flag(a, "dst_dev"),
        same_node: flag(a, "same_node"),
        socket_rel: text(a, "socket_rel"),
        chosen: text(a, "chosen"),
        op_id: uint(a, "op_id"),
        tsource: text(a, "tsource"),
        candidates: a
            .get("candidates")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_str)
            .collect(),
        ..Default::default()
    };
    // the object lists the thresholds by name; the recorder keeps them in
    // consult order, which follows `Limits::NAMES`
    let mut consulted: Vec<(&str, u64)> = a
        .get("thresholds")
        .and_then(Value::as_obj)
        .into_iter()
        .flatten()
        .filter_map(|(name, v)| Some((name.as_str(), v.as_f64()? as u64)))
        .collect();
    consulted.sort_by_key(|&(name, _)| Limits::NAMES.iter().position(|&n| n == name).unwrap_or(usize::MAX));
    for (name, v) in consulted {
        d.thresholds.push(name, v);
    }
    d
}

/// The payload an event's `args` encode: the inverse of [`write_args`].
/// A variant is known by a key only it writes. An instant the analyses
/// read — a decision or a [`FaultEvent`] — is known by its name as
/// well, so one that lacks that key still decodes, the field reading 0
/// or `""` like any other missing field.
fn payload<'v>(name: &str, a: &'v Value) -> Payload<'v> {
    let named = match name {
        "protocol-decision" => Some("chosen"),
        _ => FaultEvent::of(name).map(|event| match event {
            FaultEvent::Fault | FaultEvent::ProxyRestart => "kind",
            FaultEvent::Retry | FaultEvent::ChunkRetry => "attempt",
            FaultEvent::PartialDelivery => "delivered",
            FaultEvent::Fallback => "from",
            FaultEvent::Demote | FaultEvent::Probe | FaultEvent::Promote => "protocol",
            _ => "epoch",
        }),
    };
    let is = move |key: &str| a.get(key).is_some() || named == Some(key);
    let s = move |key: &str| text(a, key);
    let n = move |key: &str| uint(a, key);
    if is("chosen") {
        Payload::Decision(decision(a))
    } else if is("stage") {
        Payload::Chunk {
            protocol: s("protocol"),
            stage: s("stage"),
            index: n("chunk") as u32,
            size: n("size"),
            op_id: n("op_id"),
        }
    } else if is("attempt") {
        Payload::Retry {
            protocol: s("protocol"),
            attempt: n("attempt") as u32,
            backoff_ns: n("backoff_ns"),
            op_id: n("op_id"),
        }
    } else if is("delivered") {
        Payload::PartialDelivery {
            protocol: s("protocol"),
            delivered: n("delivered"),
            total: n("total"),
            op_id: n("op_id"),
        }
    } else if is("from") {
        Payload::Fallback { op: s("op"), from: s("from"), to: s("to"), op_id: n("op_id") }
    } else if is("epoch") {
        Payload::Member { pe: n("pe") as u32, epoch: n("epoch") }
    } else if is("origin_pe") {
        Payload::Proxy { kind: s("kind"), size: n("size"), origin_pe: n("origin_pe") as u32 }
    } else if is("kind") {
        Payload::Fault { kind: s("kind"), protocol: s("protocol"), op_id: n("op_id") }
    } else if is("op") {
        Payload::Op {
            op: s("op"),
            protocol: s("protocol"),
            size: n("size"),
            src_pe: n("src_pe") as u32,
            dst_pe: n("dst_pe") as u32,
            src_dev: flag(a, "src_dev"),
            dst_dev: flag(a, "dst_dev"),
            same_node: flag(a, "same_node"),
            op_id: n("op_id"),
        }
    } else if is("protocol") {
        Payload::Health { protocol: s("protocol"), op_id: n("op_id") }
    } else if is("size") {
        Payload::Xfer { size: n("size") }
    } else {
        Payload::None
    }
}

/// The inverse of [`WindowSnap::args_json`].
fn snapshot(a: &Value) -> WindowSnap<'_> {
    let list = |key: &str| a.get(key).and_then(Value::as_arr).unwrap_or_default();
    WindowSnap {
        index: uint(a, "window"),
        start_ps: ps(float(a, "start_us")),
        end_ps: ps(float(a, "end_us")),
        cells: list("cells")
            .iter()
            .map(|c| CellSnap {
                op: text(c, "op"),
                protocol: text(c, "protocol"),
                class: uint(c, "class") as u8,
                count: uint(c, "count"),
                p50_ps: ps(float(c, "p50_us")),
                p99_ps: ps(float(c, "p99_us")),
            })
            .collect(),
        links: list("links")
            .iter()
            .map(|l| LinkSnap {
                link: text(l, "link").to_string(),
                bytes: uint(l, "bytes"),
                busy_ps: ps(float(l, "busy_us")),
                samples: uint(l, "samples"),
                queued: uint(l, "queued"),
            })
            .collect(),
        faults: list("faults")
            .iter()
            .map(|f| FaultSnap { what: text(f, "what"), protocol: text(f, "protocol"), n: uint(f, "n") })
            .collect(),
        violations: Vec::new(),
    }
}

/// The inverse of [`SloViolation::args_json`], for the instant at `ts_ps`.
fn violation(ts_ps: u64, a: &Value) -> SloViolation<'_> {
    SloViolation {
        window: uint(a, "window"),
        ts_ps,
        kind: text(a, "kind"),
        op: text(a, "op").to_string(),
        protocol: text(a, "protocol").to_string(),
        class: text(a, "class").to_string(),
        link: text(a, "link").to_string(),
        actual: float(a, "actual"),
        budget: float(a, "budget"),
    }
}

/// Read an exported document back: the tracks in document order and
/// the window snapshots, each with the SLO violations that follow it.
/// The inverse of [`export`] — exporting the result reproduces the
/// document byte for byte — except that a counter sample carries only
/// its running total, so a decoded [`Payload::Bytes`] has a delta of 0.
/// Names borrow from `doc`.
///
/// Strict about structure, lenient about vocabulary: a missing
/// `traceEvents` array, an event without `ph`, `tid` or `ts`, or a flow
/// event without `id` is an error; a phase outside the exporter's is
/// skipped, and a missing field reads 0 or `""`.
pub fn decode(doc: &Value) -> Result<(Tracks<'_>, Vec<WindowSnap<'_>>), String> {
    let evs = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("document has no traceEvents array")?;
    let mut tracks: BTreeMap<u64, (String, Vec<Event>)> = BTreeMap::new();
    for e in evs.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("M")) {
        let tid = num(e, "tid").ok_or("metadata event without tid")? as u64;
        if let Some(name) = e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str) {
            tracks.insert(tid, (name.to_string(), Vec::new()));
        }
    }
    let mut windows: Vec<WindowSnap> = Vec::new();
    for e in evs {
        let ph = e.get("ph").and_then(Value::as_str).ok_or("event without ph")?;
        if ph == "M" {
            continue;
        }
        let tid = num(e, "tid").ok_or("event without tid")? as u64;
        let ts = ps(num(e, "ts").ok_or("event without ts")?);
        let dur = if ph == "X" { ps(float(e, "dur")) } else { 0 };
        let name = text(e, "name");
        let payload = match (ph, e.get("args")) {
            ("s" | "f", _) => {
                let id = num(e, "id").ok_or("flow event without id")? as u64;
                if ph == "s" {
                    Payload::FlowStart { id }
                } else {
                    Payload::FlowEnd { id }
                }
            }
            ("X" | "i" | "C", None) => Payload::None,
            ("i", Some(a)) if name == "window-snapshot" => {
                windows.push(snapshot(a));
                continue;
            }
            ("i", Some(a)) if name == "slo-violation" => {
                if let Some(w) = windows.last_mut() {
                    w.violations.push(violation(ts, a));
                }
                continue;
            }
            ("X" | "i", Some(a)) => payload(name, a),
            ("C", Some(a)) if name == "link" || a.get("busy_us").is_some() => Payload::LinkSample {
                total: uint(a, "bytes"),
                busy_ps: ps(float(a, "busy_us")),
                queue: uint(a, "queue") as u32,
            },
            ("C", Some(a)) => Payload::Bytes { bytes: 0, total: uint(a, "bytes") },
            _ => continue,
        };
        tracks
            .entry(tid)
            .or_insert_with(|| (format!("tid/{tid}"), Vec::new()))
            .1
            .push(Event { ts: SimTime(ts), dur: SimDuration::from_ps(dur), name, payload });
    }
    // the exporter's synthetic track: what it held is in `windows` now
    if !windows.is_empty() {
        tracks.retain(|_, (name, events)| name.as_str() != "metrics" || !events.is_empty());
    }
    windows.sort_by_key(|w| w.index);
    Ok((tracks.into_values().collect(), windows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::{Decision, ObsLevel, Recorder, TrackKind};
    use sim_core::{SimDuration, SimTime};

    /// Fetch a field, panicking with the field's name — not a bare
    /// `unwrap()` — when the exported document drops or retypes it.
    fn field<'a>(v: &'a json::Value, key: &str) -> &'a json::Value {
        v.get(key).unwrap_or_else(|| panic!("event missing field {key:?}"))
    }

    fn str_of<'a>(v: &'a json::Value, key: &str) -> &'a str {
        field(v, key)
            .as_str()
            .unwrap_or_else(|| panic!("field {key:?} is not a string"))
    }

    fn num_of(v: &json::Value, key: &str) -> f64 {
        field(v, key)
            .as_f64()
            .unwrap_or_else(|| panic!("field {key:?} is not a number"))
    }

    fn events(doc: &json::Value) -> &[json::Value] {
        field(doc, "traceEvents")
            .as_arr()
            .expect("traceEvents is not an array")
    }

    #[test]
    fn trace_parses_and_has_named_threads() {
        let r = Recorder::new(ObsLevel::Spans);
        let pe = r.track(TrackKind::Pe, 0);
        let t0 = SimTime::ZERO + SimDuration::from_us(2);
        r.span(
            pe,
            "put",
            t0,
            t0 + SimDuration::from_us(5),
            Payload::Op {
                op: "put",
                protocol: "direct-gdr",
                size: 128,
                src_pe: 0,
                dst_pe: 1,
                src_dev: true,
                dst_dev: true,
                same_node: false,
                op_id: 7,
            },
        );
        r.decision(
            pe,
            t0,
            Decision {
                op: "put",
                chosen: "direct-gdr",
                ..Default::default()
            },
        );
        r.agent_bytes(TrackKind::Hca, 0, t0, 128, SimDuration::from_us(1));

        let doc = json::parse(&r.chrome_trace()).expect("valid JSON");
        let evs = events(&doc);
        let metas: Vec<&str> = evs
            .iter()
            .filter(|e| str_of(e, "ph") == "M")
            .map(|e| str_of(field(e, "args"), "name"))
            .collect();
        assert_eq!(metas, ["pe/0", "hca/0"]);
        let span = evs.iter().find(|e| str_of(e, "ph") == "X").expect("one span");
        assert_eq!(num_of(span, "ts"), 2.0);
        assert_eq!(num_of(span, "dur"), 5.0);
        assert_eq!(str_of(field(span, "args"), "protocol"), "direct-gdr");
        assert!(evs.iter().any(|e| str_of(e, "ph") == "C"));
        assert!(evs.iter().any(|e| str_of(e, "name") == "protocol-decision"));
    }

    #[test]
    fn flow_and_link_events_export_with_expected_phases() {
        let r = Recorder::new(ObsLevel::Spans);
        let pe = r.track(TrackKind::Pe, 0);
        let t0 = SimTime::ZERO + SimDuration::from_us(1);
        let t1 = t0 + SimDuration::from_us(4);
        r.instant(pe, "op-flow", t0, Payload::FlowStart { id: 42 });
        r.instant(r.track(TrackKind::Pe, 1), "op-flow", t1, Payload::FlowEnd { id: 42 });
        let lk = r.track_named(TrackKind::Link, 3, "pcie/gpu0/d2h");
        r.instant(
            lk,
            "link",
            t0,
            Payload::LinkSample { total: 4096, busy_ps: 2_000_000, queue: 2 },
        );

        let doc = json::parse(&r.chrome_trace()).expect("valid JSON");
        let evs = events(&doc);
        let s = evs.iter().find(|e| str_of(e, "ph") == "s").expect("flow start");
        assert_eq!(str_of(s, "cat"), "flow");
        assert_eq!(num_of(s, "id"), 42.0);
        let f = evs.iter().find(|e| str_of(e, "ph") == "f").expect("flow end");
        assert_eq!(str_of(f, "bp"), "e");
        assert_eq!(num_of(f, "id"), 42.0);
        let c = evs
            .iter()
            .find(|e| str_of(e, "ph") == "C")
            .expect("link counter sample");
        let args = field(c, "args");
        assert_eq!(num_of(args, "bytes"), 4096.0);
        assert_eq!(num_of(args, "busy_us"), 2.0);
        assert_eq!(num_of(args, "queue"), 2.0);
        // the link track is named by its registration name
        assert!(evs
            .iter()
            .any(|e| str_of(e, "ph") == "M" && str_of(field(e, "args"), "name") == "pcie/gpu0/d2h"));
    }

    #[test]
    fn fault_retry_fallback_export_as_named_instants() {
        let r = Recorder::new(ObsLevel::Spans);
        let pe = r.track(TrackKind::Pe, 0);
        let t0 = SimTime::ZERO + SimDuration::from_us(1);
        r.instant(
            pe,
            "fault",
            t0,
            Payload::Fault { kind: "cqe-flush-err", protocol: "direct-gdr", op_id: 5 },
        );
        r.instant(
            pe,
            "retry",
            t0 + SimDuration::from_us(1),
            Payload::Retry { protocol: "direct-gdr", attempt: 1, backoff_ns: 4000, op_id: 5 },
        );
        r.instant(
            pe,
            "fallback",
            t0 + SimDuration::from_us(2),
            Payload::Fallback {
                op: "put",
                from: "direct-gdr",
                to: "host-pipeline-staged",
                op_id: 5,
            },
        );
        r.instant(
            pe,
            "chunk-retry",
            t0 + SimDuration::from_us(3),
            Payload::Retry { protocol: "pipeline-gdr-write", attempt: 1, backoff_ns: 4000, op_id: 6 },
        );
        r.instant(
            pe,
            "partial-delivery",
            t0 + SimDuration::from_us(4),
            Payload::PartialDelivery {
                protocol: "pipeline-gdr-write",
                delivered: 1 << 20,
                total: 4 << 20,
                op_id: 6,
            },
        );

        let doc = json::parse(&r.chrome_trace()).expect("valid JSON");
        let evs = events(&doc);
        let by_name = |n: &str| {
            evs.iter()
                .find(|e| str_of(e, "name") == n)
                .unwrap_or_else(|| panic!("missing {n} instant"))
        };
        let f = by_name("fault");
        assert_eq!(str_of(f, "ph"), "i");
        assert_eq!(str_of(field(f, "args"), "kind"), "cqe-flush-err");
        let rt = by_name("retry");
        assert_eq!(num_of(field(rt, "args"), "attempt"), 1.0);
        assert_eq!(num_of(field(rt, "args"), "backoff_ns"), 4000.0);
        let fb = by_name("fallback");
        assert_eq!(str_of(field(fb, "args"), "from"), "direct-gdr");
        assert_eq!(str_of(field(fb, "args"), "to"), "host-pipeline-staged");
        let cr = by_name("chunk-retry");
        assert_eq!(str_of(cr, "ph"), "i");
        assert_eq!(num_of(field(cr, "args"), "attempt"), 1.0);
        let pd = by_name("partial-delivery");
        assert_eq!(str_of(pd, "ph"), "i");
        assert_eq!(num_of(field(pd, "args"), "delivered"), 1048576.0);
        assert_eq!(num_of(field(pd, "args"), "total"), 4194304.0);
    }

    #[test]
    fn metrics_track_appends_after_all_tracks() {
        let slo = crate::SloPolicy::parse("p99:put/*/*=1").expect("valid policy");
        let r = Recorder::with_windows(ObsLevel::Spans, 50, slo);
        let pe = r.track(TrackKind::Pe, 0);
        let t0 = SimTime::ZERO + SimDuration::from_us(10);
        r.span(pe, "put", t0, t0 + SimDuration::from_us(3), Payload::None);
        r.op_latency_at("put", "direct-gdr", 8192, SimDuration::from_us(3), t0 + SimDuration::from_us(3));

        let doc = json::parse(&r.chrome_trace()).expect("valid JSON");
        let evs = events(&doc);
        // the synthetic track is named and carries the snapshot + violation
        assert!(evs
            .iter()
            .any(|e| str_of(e, "ph") == "M" && str_of(field(e, "args"), "name") == "metrics"));
        let snap = evs
            .iter()
            .find(|e| str_of(e, "name") == "window-snapshot")
            .expect("window snapshot instant");
        assert_eq!(str_of(snap, "ph"), "i");
        assert_eq!(num_of(snap, "ts"), 50.0, "snapshot sits at the window close");
        assert_eq!(num_of(field(snap, "args"), "window"), 0.0);
        let viol = evs
            .iter()
            .find(|e| str_of(e, "name") == "slo-violation")
            .expect("slo violation instant");
        assert_eq!(str_of(field(viol, "args"), "kind"), "p99");
        // without windowing the export has no metrics track at all
        let plain = Recorder::new(ObsLevel::Spans);
        let p0 = plain.track(TrackKind::Pe, 0);
        plain.span(p0, "put", t0, t0 + SimDuration::from_us(3), Payload::None);
        assert!(!plain.chrome_trace().contains("metrics"));
    }

    #[test]
    fn identical_recordings_export_identically() {
        let make = || {
            let r = Recorder::new(ObsLevel::Spans);
            let pe = r.track(TrackKind::Pe, 7);
            for i in 0..10u64 {
                let t = SimTime::ZERO + SimDuration::from_ns(i * 100);
                r.span(pe, "op", t, t + SimDuration::from_ns(50), Payload::None);
            }
            r.chrome_trace()
        };
        assert_eq!(make(), make());
    }

    /// One event of every payload variant, with no field at its default.
    fn every_variant() -> Tracks<'static> {
        let at = |us: u64| SimTime(us * 1_000_000 + 123_457);
        let span = |name, us, payload| Event { ts: at(us), dur: SimDuration::from_ps(2_345_679), name, payload };
        let instant = |name, us, payload| Event { ts: at(us), dur: SimDuration::ZERO, name, payload };
        let mut d = Decision {
            op: "put",
            size: 4096,
            src_pe: 2,
            dst_pe: 3,
            src_dev: true,
            same_node: true,
            chosen: "loopback-gdr",
            op_id: 9,
            size_class: 13,
            socket_rel: "inter-socket",
            tsource: "thresholds-v1",
            ..Default::default()
        };
        d.candidates = ["loopback-gdr", "ipc-copy", "shm-copy", "two-copy-staged"].into_iter().collect();
        // consult order is not name order: decoding must restore it
        d.thresholds.push("loopback_put_limit", 8192);
        d.thresholds.push("loopback_dd_limit", 16384);
        let op = Payload::Op {
            op: "put",
            protocol: "direct-gdr",
            size: 64,
            src_pe: 0,
            dst_pe: 1,
            src_dev: true,
            dst_dev: false,
            same_node: true,
            op_id: 7,
        };
        let chunk = Payload::Chunk { protocol: "pipeline-gdr-write", stage: "d2h", index: 3, size: 1024, op_id: 7 };
        let retry = |attempt| Payload::Retry { protocol: "direct-gdr", attempt, backoff_ns: 4000, op_id: 7 };
        let pe = vec![
            span("put", 1, op),
            instant("protocol-decision", 2, Payload::Decision(d)),
            span("chunk-d2h", 3, chunk),
            instant("op-flow", 4, Payload::FlowStart { id: 7 }),
            instant("op-flow", 5, Payload::FlowEnd { id: 7 }),
            instant("fault", 6, Payload::Fault { kind: "cqe-flush-err", protocol: "direct-gdr", op_id: 7 }),
            instant("proxy-restart", 7, Payload::Fault { kind: "proxy-restart", protocol: "proxy-pipeline", op_id: 8 }),
            instant("retry", 8, retry(1)),
            instant("chunk-retry", 9, retry(2)),
            instant("fallback", 10, Payload::Fallback { op: "put", from: "direct-gdr", to: "proxy-pipeline", op_id: 7 }),
            instant(
                "partial-delivery",
                11,
                Payload::PartialDelivery { protocol: "pipeline-gdr-write", delivered: 1 << 20, total: 4 << 20, op_id: 7 },
            ),
            instant("demote", 12, Payload::Health { protocol: "direct-gdr", op_id: 7 }),
            instant("pe-dead", 13, Payload::Member { pe: 1, epoch: 2 }),
            instant("tick", 14, Payload::None),
            span("tick", 15, Payload::None),
        ];
        let proxy = vec![span("proxy-put", 16, Payload::Proxy { kind: "put", size: 4096, origin_pe: 1 })];
        // an exported counter sample carries the running total, no delta
        let hca = vec![span("tx", 17, Payload::Xfer { size: 512 }), instant("bytes", 18, Payload::Bytes { bytes: 0, total: 4096 })];
        let link = vec![instant("link", 19, Payload::LinkSample { total: 8192, busy_ps: 3_000_001, queue: 2 })];
        vec![
            ("pe/0".to_string(), pe),
            ("proxy/0".to_string(), proxy),
            ("hca/0".to_string(), hca),
            ("pcie/gpu0/d2h".to_string(), link),
        ]
    }

    fn window() -> WindowSnap<'static> {
        WindowSnap {
            index: 3,
            start_ps: 150_000_000,
            end_ps: 200_000_000,
            cells: vec![CellSnap { op: "put", protocol: "direct-gdr", class: 13, count: 4, p50_ps: 2_718_282, p99_ps: 3_141_593 }],
            links: vec![LinkSnap { link: "ib/hca0/tx".to_string(), bytes: 65536, busy_ps: 12_345_679, samples: 9, queued: 2 }],
            faults: vec![FaultSnap { what: "injected", protocol: "direct-gdr", n: 3 }],
            violations: vec![SloViolation {
                window: 3,
                ts_ps: 200_000_000,
                kind: "p99",
                op: "put".to_string(),
                protocol: "direct-gdr".to_string(),
                class: "c13".to_string(),
                link: String::new(),
                actual: 3.25,
                budget: 2.5,
            }],
        }
    }

    fn view<'t>(tracks: &'t Tracks) -> Vec<(&'t str, Vec<&'t Event<'t>>)> {
        tracks.iter().map(|(name, events)| (name.as_str(), events.iter().collect())).collect()
    }

    #[test]
    fn decode_inverts_export() {
        let (tracks, windows) = (every_variant(), vec![window()]);
        let doc = export(&view(&tracks), &windows);
        let value = json::parse(&doc).expect("valid JSON");
        let (got_tracks, got_windows) = decode(&value).expect("an exported document decodes");
        assert_eq!(got_tracks, tracks);
        assert_eq!(got_windows, windows);
        assert_eq!(export(&view(&got_tracks), &got_windows), doc);
        // without windows there is no metrics track to drop or restore
        let plain = export(&view(&tracks), &[]);
        let value = json::parse(&plain).expect("valid JSON");
        assert_eq!(decode(&value).expect("decodes"), (tracks, Vec::new()));
    }

    #[test]
    fn decode_is_strict_about_structure_and_lenient_about_vocabulary() {
        let err = |doc: &str| decode(&json::parse(doc).expect("valid JSON")).map(|_| ()).unwrap_err();
        assert_eq!(err("{}"), "document has no traceEvents array");
        assert_eq!(err(r#"{"traceEvents":[{"tid":0,"ts":1}]}"#), "event without ph");
        assert_eq!(err(r#"{"traceEvents":[{"ph":"i","ts":1}]}"#), "event without tid");
        assert_eq!(err(r#"{"traceEvents":[{"ph":"i","tid":0}]}"#), "event without ts");
        assert_eq!(err(r#"{"traceEvents":[{"ph":"s","tid":0,"ts":1}]}"#), "flow event without id");
        // an unknown phase is skipped; a fault instant missing its
        // fields is still a fault, on a track named after its tid
        let doc = json::parse(
            r#"{"traceEvents":[{"ph":"B","tid":4,"ts":1},{"ph":"i","tid":4,"ts":2,"name":"fault","args":{}}]}"#,
        )
        .expect("valid JSON");
        let (tracks, _) = decode(&doc).expect("decodes");
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].0, "tid/4");
        assert_eq!(tracks[0].1.len(), 1);
        assert_eq!(tracks[0].1[0].payload, Payload::Fault { kind: "", protocol: "", op_id: 0 });
    }
}
