//! Host-time spans recorded by the benchmark around each call it makes
//! into a layer. Kept in memory; written as a Chrome trace when the
//! traced repetition ends. The program under test is not instrumented:
//! a span is what one public call cost, seen from outside.

use crate::stats;
use obs::json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

struct Span {
    /// The call, as `layer.function`.
    name: &'static str,
    /// What kind of call it was where one function serves several
    /// (`put8.inter`, `put4m`, the chaos mode); empty otherwise.
    kind: &'static str,
    /// The span that caused this one; `None` for a root.
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    tid: u32,
}

pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder panicked mid-update")
    }

    /// `tid` separates rows in the trace viewer: 0 is the driving
    /// thread, PE closures pass `1 + my_pe`.
    pub fn open(
        &self,
        name: &'static str,
        kind: &'static str,
        parent: Option<SpanId>,
        tid: u32,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let mut v = self.lock();
        v.push(Span {
            name,
            kind,
            parent,
            start_ns,
            end_ns: start_ns,
            tid,
        });
        (v.len() - 1) as SpanId
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[id as usize].end_ns = end_ns;
    }

    /// Durations in microseconds of every span with this name and kind.
    pub fn durations_us(&self, name: &str, kind: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name && s.kind == kind)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per span name: (count, total ms, self ms), where self time is
    /// the span minus the time its direct children cover.
    pub fn rollup(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let v = self.lock();
        let mut child_ns = vec![0u64; v.len()];
        for s in v.iter() {
            if let Some(parent) = s.parent {
                child_ns[parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, kids) in v.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(*kids) as f64 / 1e6;
        }
        out
    }

    /// Chrome `trace_event` document: one complete (`X`) event per
    /// span, `pid` = workload index, `args.parent` = the causing span.
    pub fn chrome_trace(&self, workload: &str, pid: usize) -> String {
        let v = self.lock();
        let mut s = String::with_capacity(v.len() * 120 + 256);
        s.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        {
            let mut o = json::ObjWriter::new(&mut s);
            o.str_field("ph", "M")
                .str_field("name", "process_name")
                .u64_field("pid", pid as u64);
            let args = o.raw_field("args");
            let mut a = json::ObjWriter::new(args);
            a.str_field("name", workload);
            a.finish();
            o.finish();
        }
        for (id, sp) in v.iter().enumerate() {
            s.push_str(",\n");
            let mut o = json::ObjWriter::new(&mut s);
            o.str_field("ph", "X")
                .str_field("name", sp.name)
                .str_field("cat", sp.name.split('.').next().unwrap_or(""))
                .u64_field("pid", pid as u64)
                .u64_field("tid", sp.tid as u64)
                .num_field("ts", sp.start_ns as f64 / 1e3)
                .num_field("dur", (sp.end_ns - sp.start_ns) as f64 / 1e3);
            let args = o.raw_field("args");
            let mut a = json::ObjWriter::new(args);
            a.u64_field("id", id as u64);
            if let Some(parent) = sp.parent {
                a.u64_field("parent", parent as u64);
            }
            if !sp.kind.is_empty() {
                a.str_field("kind", sp.kind);
            }
            a.finish();
            o.finish();
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Median, and the 99th percentile where at least ten samples lie
/// beyond it.
pub struct CallStats {
    pub p50: f64,
    pub p99: Option<f64>,
    pub n: usize,
}

pub fn call_stats(mut us: Vec<f64>) -> Option<CallStats> {
    if us.is_empty() {
        return None;
    }
    us.sort_by(f64::total_cmp);
    Some(CallStats {
        p50: stats::percentile(&us, 50.0),
        p99: (us.len() >= 1000).then(|| stats::percentile(&us, 99.0)),
        n: us.len(),
    })
}
