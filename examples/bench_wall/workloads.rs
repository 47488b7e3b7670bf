//! The four workloads, as run inside one child process: build, warm
//! up, time a fixed amount of work, then check every byte it moved.

use crate::gen::{self, LargeKind, LargeModel, LargeOp, SmallKind, SmallModel, SmallOp};
use crate::host::{self, HostCost, Mark, Report};
use crate::spans::{self, SpanId, Spans};
use crate::stats;
use apps_sim::{stencil2d, StencilParams};
use chaos::{TrialSpec, Workload as ChaosWorkload};
use faults::FaultPlan;
use obs::ObsLevel;
use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, Pe, RuntimeConfig, ShmemMachine};
use sim_core::EngineStats;
use std::path::PathBuf;
use std::time::Instant;

/// How much of the repo's own observability the child turns on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    Off,
    Counters,
    Spans,
    /// Counters plus the 100 us windowed metrics plane.
    Windowed,
}

impl ObsMode {
    pub fn parse(s: &str) -> Option<ObsMode> {
        Some(match s {
            "off" => ObsMode::Off,
            "counters" => ObsMode::Counters,
            "spans" => ObsMode::Spans,
            "windowed" => ObsMode::Windowed,
            _ => return None,
        })
    }

    fn apply(self, cfg: RuntimeConfig) -> RuntimeConfig {
        match self {
            ObsMode::Off => cfg.with_obs(ObsLevel::Off),
            ObsMode::Counters => cfg.with_obs(ObsLevel::Counters),
            ObsMode::Spans => cfg.with_obs(ObsLevel::Spans),
            ObsMode::Windowed => cfg.with_obs(ObsLevel::Counters).with_obs_window(100),
        }
    }
}

/// Everything a child knows about the repetition it is.
pub struct Child {
    /// Entry of `main`: where `setup_s` starts.
    pub started: Instant,
    pub seed: u64,
    /// Work divisor: 1 at full size, 50 for `--smoke` and `--check`.
    pub div: usize,
    pub obs: ObsMode,
    /// Host spans, recorded only in the traced repetition.
    pub spans: Option<Spans>,
    /// Run gdrprof's analysis on the machine's own trace (reduced-size
    /// passes only; needs `obs == Spans`).
    pub analyze: bool,
    /// Where the traced repetition writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
}

impl Child {
    fn open(
        &self,
        name: &'static str,
        kind: &'static str,
        parent: Option<SpanId>,
        tid: u32,
    ) -> Option<SpanId> {
        self.spans.as_ref().map(|s| s.open(name, kind, parent, tid))
    }

    fn close(&self, id: Option<SpanId>) {
        if let (Some(s), Some(id)) = (self.spans.as_ref(), id) {
            s.close(id);
        }
    }

    /// Run `f` inside a span (a plain call when not tracing).
    fn call<R>(
        &self,
        name: &'static str,
        kind: &'static str,
        parent: Option<SpanId>,
        tid: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, kind, parent, tid);
        let r = f();
        self.close(id);
        r
    }

    fn tuned(&self) -> RuntimeConfig {
        self.obs.apply(RuntimeConfig::tuned(Design::EnhancedGdr))
    }
}

/// What the timed region cost on both clocks.
struct Timed {
    start: Mark,
    host: HostCost,
    sim_ps: u64,
    /// Engine counter deltas over the region; `None` where the
    /// benchmark never holds the machine (`chaos_campaign`).
    engine: Option<EngineStats>,
    peak_rss_kb: u64,
}

fn engine_delta(a: EngineStats, b: EngineStats) -> EngineStats {
    EngineStats {
        events_executed: b.events_executed - a.events_executed,
        wakeups: b.wakeups - a.wakeups,
        completions_signalled: b.completions_signalled - a.completions_signalled,
        time_advance_stalls: b.time_advance_stalls - a.time_advance_stalls,
        max_heap_len: b.max_heap_len,
    }
}

/// Time `f` as seen by a PE (or the driving thread) holding `m`.
fn timed_on<R>(m: &ShmemMachine, f: impl FnOnce() -> R) -> (Timed, R) {
    let (stats0, now0) = (m.sim().stats(), m.sim().now());
    let start = host::mark();
    let r = f();
    let end = host::mark();
    let timed = Timed {
        start,
        host: HostCost::between(&start, &end),
        sim_ps: (m.sim().now() - now0).as_ps(),
        engine: Some(engine_delta(stats0, m.sim().stats())),
        peak_rss_kb: end.usage.peak_rss_kb,
    };
    (timed, r)
}

/// The raw values every repetition reports; the parent turns them
/// into the end-to-end metrics and the per-repetition layer metrics.
fn emit_timed(c: &Child, out: &mut Report, t: &Timed, ops: u64, failed: u64) {
    out.put(
        "setup_s",
        t.start.at.duration_since(c.started).as_secs_f64(),
    );
    out.put("wall_s", t.host.wall_s);
    out.put("user_s", t.host.user_s);
    out.put("sys_s", t.host.sys_s);
    out.put("rss_kb", t.peak_rss_kb as f64);
    out.put("ops", ops as f64);
    out.put("failed", failed as f64);
    out.put("sim_ps", t.sim_ps as f64);
    if let Some(e) = t.engine {
        out.put("events", e.events_executed as f64);
        out.put("wakeups", e.wakeups as f64);
        out.put("stalls", e.time_advance_stalls as f64);
        out.put("max_heap", e.max_heap_len as f64);
    }
}

/// Fault-machinery tallies, summed over protocols. The recorder counts
/// them from `Counters` up; at `Off` there is nothing to read.
fn emit_fault_tallies<'a>(out: &mut Report, counters: impl Iterator<Item = (&'a str, u64)>) {
    let (mut fallbacks, mut retries, mut recovered, mut injected) = (0, 0, 0, 0);
    for (what, n) in counters {
        match what {
            "fallback" => fallbacks += n,
            "retried" | "chunk-retried" => retries += n,
            "recovered" | "chunk-recovered" => recovered += n,
            "injected" => injected += n,
            _ => {}
        }
    }
    out.put("core.fallbacks", fallbacks as f64);
    out.put("core.retries", retries as f64);
    out.put(
        "core.recovered_share",
        if injected == 0 {
            0.0
        } else {
            recovered as f64 / injected as f64
        },
    );
}

fn emit_call(out: &mut Report, sp: &Spans, metric: &str, name: &str, kind: &str, want_p99: bool) {
    let Some(cs) = spans::call_stats(sp.durations_us(name, kind)) else {
        out.fail(format!(
            "{metric}: the traced pass made no {name} call of kind {kind:?}"
        ));
        return;
    };
    out.put_n(&format!("{metric}_p50"), cs.p50, cs.n);
    if want_p99 {
        // fewer than 1 000 samples (smoke size) leave no ten beyond p99
        out.put_n(&format!("{metric}_p99"), cs.p99.unwrap_or(cs.p50), cs.n);
    }
}

/// Spans on: export the machine's own Chrome trace and report what
/// the obs product costs per op. With `--analyze`, also run gdrprof's
/// analysis on it and report link occupancy on the virtual clock.
///
/// Analysis is its own, reduced-size pass: `obs::json::parse` rescans
/// the rest of the document for every string character, so analysing
/// the 66 MB trace of a full `small_rma_mix` repetition would take
/// hours (3.2 MB already takes 90 s). That cost is the program's, and
/// `obs-analyze.analyze_mb_per_host_s` reports it at the reduced size.
fn own_trace(
    c: &Child,
    parent: Option<SpanId>,
    m: &ShmemMachine,
    out: &mut Report,
    ops: u64,
) -> Option<obs_analyze::Report> {
    if c.obs != ObsMode::Spans {
        return None;
    }
    let t = Instant::now();
    let doc = c.call("obs.chrome_trace", "", parent, 0, || m.obs().chrome_trace());
    let export_s = t.elapsed().as_secs_f64();
    let mb = doc.len() as f64 / 1e6;
    out.put(
        "obs.events_per_op",
        m.obs().event_count() as f64 / ops as f64,
    );
    out.put("obs.trace_bytes_per_op", doc.len() as f64 / ops as f64);
    out.put("obs.export_mb_per_host_s", mb / export_s);
    if !c.analyze {
        return None;
    }

    let t = Instant::now();
    let rep = obs_analyze::analyze_str(&doc)
        .unwrap_or_else(|e| panic!("the run's own trace does not parse: {e}"));
    let analyze_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(rep.to_json());
    let to_json_s = t.elapsed().as_secs_f64();
    out.put("obs-analyze.analyze_mb_per_host_s", mb / analyze_s);
    out.put("obs-analyze.report_json_host_ms", to_json_s * 1e3);
    out.put("obs-analyze.flow_linkage", rep.flow_linkage());
    out.put_n(
        "core.decisions_per_op",
        rep.decisions.values().sum::<u64>() as f64 / rep.ops_analyzed.max(1) as f64,
        rep.ops_analyzed as usize,
    );

    // busiest link of each class, as a share of the traced span
    let busiest = |tag: &dyn Fn(&str) -> bool| {
        rep.links
            .iter()
            .filter(|(n, _)| tag(n))
            .map(|(_, l)| l.busy_us)
            .fold(0.0, f64::max)
            / rep.trace_span_us.max(f64::MIN_POSITIVE)
    };
    let hca = |n: &str| n.starts_with("ib/hca") && n.ends_with("/tx");
    out.put("ib-sim.hca_tx_busy_share", busiest(&hca));
    out.put("gpu-sim.d2h_busy_share", busiest(&|n| n.ends_with("/d2h")));
    out.put("pcie-sim.p2p_busy_share", busiest(&|n| n.contains("/p2p-")));
    let hcas = || rep.links.iter().filter(|(n, _)| hca(n)).map(|(_, l)| l);
    out.put(
        "ib-sim.hca_tx_peak_queue",
        hcas().map(|l| l.peak_queue).max().unwrap_or(0) as f64,
    );
    out.put(
        "ib-sim.hca_tx_contended_us",
        hcas().map(|l| l.contended_us).sum(),
    );
    Some(rep)
}

/// Median simulated latency of the analysed ops matching a filter.
fn emit_sim_latency(
    out: &mut Report,
    rep: &obs_analyze::Report,
    metric: &str,
    pick: impl Fn(&obs_analyze::OpPath) -> bool,
) {
    let us: Vec<f64> = rep
        .paths
        .iter()
        .filter(|p| pick(p))
        .map(|p| p.total_us())
        .collect();
    if us.is_empty() {
        out.fail(format!("{metric}: no matching op in the run's own trace"));
    } else {
        out.put_n(metric, stats::median(&us), us.len());
    }
}

/// Mean simulated microseconds per analysed op spent in one stage.
fn emit_stage(out: &mut Report, rep: &obs_analyze::Report, stage: &str) {
    let total: f64 = rep
        .protocols
        .values()
        .filter_map(|p| p.stages.get(stage))
        .sum();
    out.put_n(
        &format!("core.stage_{stage}_sim_us"),
        total / rep.ops_analyzed.max(1) as f64,
        rep.ops_analyzed as usize,
    );
}

fn write_host_trace(c: &Child, out: &mut Report, workload: &str, pid: usize) {
    let Some(sp) = c.spans.as_ref() else { return };
    let path = c.out_dir.join(format!("trace_{workload}.json"));
    let res = std::fs::create_dir_all(&c.out_dir)
        .and_then(|()| std::fs::write(&path, sp.chrome_trace(workload, pid)));
    if let Err(e) = res {
        out.fail(format!("cannot write {}: {e}", path.display()));
    }
    for (name, (count, total_ms, self_ms)) in sp.rollup() {
        out.put_n(&format!("span.{name}.total_ms"), total_ms, count as usize);
        out.put_n(&format!("span.{name}.self_ms"), self_ms, count as usize);
    }
}

// ------------------------------------------------------ small_rma_mix

const SMALL_OPS: usize = 40_000;
const BARRIER_EVERY: usize = 2_000;
/// Target index (0 intra-node, 1 inter-node) to PE of `wilkes(2,2)`.
const SMALL_TARGET_PE: [usize; 2] = [1, 2];

fn small_label(op: &SmallOp) -> &'static str {
    use SmallKind::*;
    match (op.kind, op.target) {
        (Put8, 0) => "put8.intra",
        (Put8, _) => "put8.inter",
        (Put2k, 0) => "put2k.intra",
        (Put2k, _) => "put2k.inter",
        (Get8, 0) => "get8.intra",
        (Get8, _) => "get8.inter",
        (Put8Hd, 0) => "put8hd.intra",
        (Put8Hd, _) => "put8hd.inter",
        (Fadd, 0) => "fadd.intra",
        (Fadd, _) => "fadd.inter",
    }
}

#[derive(Default)]
struct PeOut {
    timed: Option<Timed>,
    /// This PE's copy of the symmetric destination region.
    region: Vec<u8>,
    counter: u64,
    /// The issuing PE's get landing buffer.
    landing: Vec<u8>,
    /// What each fetch-add returned, in issue order.
    fetched: Vec<u64>,
}

pub fn small_rma_mix(c: &Child) -> Report {
    let mut out = Report::default();
    let n = SMALL_OPS / c.div;
    let warm = gen::small_ops(c.seed ^ 0x5741_524D, n / 100);
    let ops = gen::small_ops(c.seed, n);
    let mut model = SmallModel::new(c.seed);
    let barriers = 2 + n / BARRIER_EVERY;

    let rep = c.open("bench.repetition", "small_rma_mix", None, 0);
    let m = c.call("core.build", "", rep, 0, || {
        ShmemMachine::build(ClusterSpec::wilkes(2, 2), c.tuned())
    });
    let run = c.open("core.run", "", rep, 0);
    let outs = m.run(|pe| {
        let me = pe.my_pe();
        let region = pe.shmalloc(gen::SMALL_REGION, Domain::Gpu);
        let counter = pe.shmalloc(8, Domain::Gpu);
        if me != 0 {
            for _ in 0..barriers {
                pe.barrier_all();
            }
            return PeOut {
                region: pe.read_raw(pe.addr_of(region, me), gen::SMALL_REGION),
                counter: pe.local_u64(counter),
                ..PeOut::default()
            };
        }
        let src_dev = pe.malloc_dev(gen::SMALL_REGION);
        let src_host = pe.malloc_host(gen::SMALL_REGION);
        let landing = pe.malloc_dev(gen::SMALL_REGION);
        pe.write_raw(src_dev, &model.src_dev);
        pe.write_raw(src_host, &model.src_host);
        let mut fetched = Vec::new();
        let mut issue = |pe: &Pe, op: &SmallOp| {
            let (label, tgt, len) = (small_label(op), SMALL_TARGET_PE[op.target], op.kind.len());
            let remote = region.add(op.remote_off);
            match op.kind {
                SmallKind::Put8 | SmallKind::Put2k | SmallKind::Put8Hd => {
                    let src = if op.kind == SmallKind::Put8Hd {
                        src_host
                    } else {
                        src_dev
                    };
                    c.call("pe.putmem", label, run, 1, || {
                        pe.putmem(remote, src.add(op.local_off), len, tgt)
                    });
                    c.call("pe.quiet", "", run, 1, || pe.quiet());
                }
                SmallKind::Get8 => c.call("pe.getmem", label, run, 1, || {
                    pe.getmem(landing.add(op.local_off), remote, len, tgt)
                }),
                SmallKind::Fadd => {
                    fetched.push(c.call("pe.atomic_fetch_add", label, run, 1, || {
                        pe.atomic_fetch_add(counter, op.add, tgt)
                    }))
                }
            }
        };
        for op in &warm {
            issue(pe, op);
        }
        c.call("pe.barrier_all", "", run, 1, || pe.barrier_all());
        let (timed, ()) = timed_on(pe.machine(), || {
            for (i, op) in ops.iter().enumerate() {
                issue(pe, op);
                if (i + 1) % BARRIER_EVERY == 0 {
                    c.call("pe.barrier_all", "", run, 1, || pe.barrier_all());
                }
            }
            c.call("pe.barrier_all", "", run, 1, || pe.barrier_all());
        });
        PeOut {
            timed: Some(timed),
            landing: pe.read_raw(landing, gen::SMALL_REGION),
            fetched,
            ..PeOut::default()
        }
    });
    c.close(run);

    // flat-memory replay of the same op list, warm-up included
    let expect: Vec<u64> = warm.iter().chain(&ops).map(|op| model.apply(op)).collect();
    let bad_remote = [0, 1].map(|t| {
        gen::bad_blocks(
            &model.remote[t],
            &outs[SMALL_TARGET_PE[t]].region,
            gen::SMALL_ALIGN,
        )
    });
    let bad_landing = gen::bad_blocks(&model.landing, &outs[0].landing, gen::SMALL_ALIGN);
    let mut fetched = outs[0].fetched.iter();
    let mut failed = 0u64;
    for (i, op) in warm.iter().chain(&ops).enumerate() {
        let bad = match op.kind {
            SmallKind::Fadd => fetched.next() != Some(&expect[i]),
            SmallKind::Get8 => gen::touches_bad(&bad_landing, op.local_off, 8, gen::SMALL_ALIGN),
            _ => gen::touches_bad(
                &bad_remote[op.target],
                op.remote_off,
                op.kind.len(),
                gen::SMALL_ALIGN,
            ),
        };
        failed += (bad && i >= warm.len()) as u64;
    }
    for t in [0, 1] {
        if outs[SMALL_TARGET_PE[t]].counter != model.counter[t] {
            out.fail(format!(
                "fetch-add counter on target {t} differs from the model"
            ));
        }
    }
    if failed > 0 {
        out.fail(format!(
            "{failed} ops left bytes that differ from the flat model"
        ));
    }

    let timed = outs[0].timed.as_ref().expect("PE 0 timed the region");
    emit_timed(c, &mut out, timed, n as u64, failed);
    emit_fault_tallies(
        &mut out,
        m.obs()
            .fault_counters()
            .into_iter()
            .map(|((w, _), n)| (w, n)),
    );
    if let Some(rep) = own_trace(c, rep, &m, &mut out, n as u64) {
        let direct = |op: &'static str| {
            move |p: &obs_analyze::OpPath| p.op == op && p.size == 8 && p.protocol == "direct-gdr"
        };
        emit_sim_latency(&mut out, &rep, "core.put8_sim_us", direct("put"));
        emit_sim_latency(&mut out, &rep, "core.get8_sim_us", direct("get"));
        emit_stage(&mut out, &rep, "direct");
    }
    c.close(rep);
    if let Some(sp) = c.spans.as_ref() {
        emit_call(
            &mut out,
            sp,
            "core.put8_host_us",
            "pe.putmem",
            "put8.inter",
            true,
        );
        emit_call(
            &mut out,
            sp,
            "core.put8_intra_host_us",
            "pe.putmem",
            "put8.intra",
            false,
        );
        emit_call(
            &mut out,
            sp,
            "core.put2k_host_us",
            "pe.putmem",
            "put2k.inter",
            false,
        );
        emit_call(
            &mut out,
            sp,
            "core.get8_host_us",
            "pe.getmem",
            "get8.inter",
            false,
        );
        emit_call(
            &mut out,
            sp,
            "core.fadd_host_us",
            "pe.atomic_fetch_add",
            "fadd.inter",
            false,
        );
        emit_call(&mut out, sp, "core.quiet_host_us", "pe.quiet", "", false);
        emit_call(
            &mut out,
            sp,
            "core.barrier_host_us",
            "pe.barrier_all",
            "",
            false,
        );
    }
    write_host_trace(c, &mut out, "small_rma_mix", crate::spec::SMALL);
    out
}

// ----------------------------------------------------- large_pipeline

const LARGE_OPS: usize = 600;

fn large_label(kind: LargeKind) -> &'static str {
    match kind {
        LargeKind::Put4m => "put4m",
        LargeKind::Get4m => "get4m",
        LargeKind::NbiWindow => "nbi_window",
        LargeKind::Put1mHd => "put1m_hd",
    }
}

pub fn large_pipeline(c: &Child) -> Report {
    let mut out = Report::default();
    let n = (LARGE_OPS / c.div).max(4);
    let warm = gen::large_ops(c.seed ^ 0x5741_524D, 4);
    let ops = gen::large_ops(c.seed, n);
    let mut model = LargeModel::new(c.seed);

    let rep = c.open("bench.repetition", "large_pipeline", None, 0);
    let cfg = c.tuned().with_heaps(8 << 20, 16 << 20);
    let m = c.call("core.build", "", rep, 0, || {
        ShmemMachine::build(ClusterSpec::internode_pair(), cfg)
    });
    let run = c.open("core.run", "", rep, 0);
    let outs = m.run(|pe| {
        let region = pe.shmalloc(gen::LARGE_REGION, Domain::Gpu);
        if pe.my_pe() != 0 {
            pe.barrier_all();
            pe.barrier_all();
            return PeOut {
                region: pe.read_raw(pe.addr_of(region, 1), gen::LARGE_REGION),
                ..PeOut::default()
            };
        }
        let src_dev = pe.malloc_dev(gen::LARGE_LOCAL);
        let src_host = pe.malloc_host(gen::LARGE_LOCAL);
        let landing = pe.malloc_dev(gen::LARGE_LOCAL);
        pe.write_raw(src_dev, &model.src_dev);
        pe.write_raw(src_host, &model.src_host);
        let issue = |pe: &Pe, op: &LargeOp| {
            let remote = region.add(op.remote_off);
            let len = op.kind.len();
            // the whole transfer, completion included, is the op
            c.call("pe.transfer", large_label(op.kind), run, 1, || {
                match op.kind {
                    LargeKind::Put4m => {
                        pe.putmem(remote, src_dev.add(op.local_off[0]), len, 1);
                        pe.quiet();
                    }
                    LargeKind::Put1mHd => {
                        pe.putmem(remote, src_host.add(op.local_off[0]), len, 1);
                        pe.quiet();
                    }
                    LargeKind::Get4m => pe.getmem(landing.add(op.local_off[0]), remote, len, 1),
                    LargeKind::NbiWindow => {
                        for (i, lo) in op.local_off.iter().enumerate() {
                            pe.putmem_nbi(
                                remote.add(i as u64 * gen::MIB),
                                src_dev.add(*lo),
                                gen::MIB,
                                1,
                            );
                        }
                        pe.quiet();
                    }
                }
            });
        };
        for op in &warm {
            issue(pe, op);
        }
        pe.barrier_all();
        let (timed, ()) = timed_on(pe.machine(), || {
            for op in &ops {
                issue(pe, op);
            }
            pe.barrier_all();
        });
        PeOut {
            timed: Some(timed),
            landing: pe.read_raw(landing, gen::LARGE_LOCAL),
            ..PeOut::default()
        }
    });
    c.close(run);

    for op in warm.iter().chain(&ops) {
        model.apply(op);
    }
    let bad_remote = gen::bad_blocks(&model.remote, &outs[1].region, gen::LARGE_ALIGN);
    let bad_landing = gen::bad_blocks(&model.landing, &outs[0].landing, gen::LARGE_ALIGN);
    let failed = ops
        .iter()
        .filter(|op| match op.kind {
            LargeKind::Get4m => gen::touches_bad(
                &bad_landing,
                op.local_off[0],
                op.kind.len(),
                gen::LARGE_ALIGN,
            ),
            _ => gen::touches_bad(&bad_remote, op.remote_off, op.kind.len(), gen::LARGE_ALIGN),
        })
        .count() as u64;
    if failed > 0 {
        out.fail(format!(
            "{failed} transfers left bytes that differ from the flat model"
        ));
    }

    let timed = outs[0].timed.as_ref().expect("PE 0 timed the region");
    emit_timed(c, &mut out, timed, n as u64, failed);
    emit_fault_tallies(
        &mut out,
        m.obs()
            .fault_counters()
            .into_iter()
            .map(|((w, _), n)| (w, n)),
    );
    if let Some(rep) = own_trace(c, rep, &m, &mut out, n as u64) {
        let four_mib =
            |op: &'static str| move |p: &obs_analyze::OpPath| p.op == op && p.size == 4 * gen::MIB;
        emit_sim_latency(&mut out, &rep, "core.put4m_sim_us", four_mib("put"));
        emit_sim_latency(&mut out, &rep, "core.get4m_sim_us", four_mib("get"));
        for stage in ["d2h", "rdma", "wakeup"] {
            emit_stage(&mut out, &rep, stage);
        }
    }
    c.close(rep);
    if let Some(sp) = c.spans.as_ref() {
        for kind in [
            LargeKind::Put4m,
            LargeKind::Get4m,
            LargeKind::NbiWindow,
            LargeKind::Put1mHd,
        ] {
            let label = large_label(kind);
            emit_call(
                &mut out,
                sp,
                &format!("core.{label}_host_us"),
                "pe.transfer",
                label,
                false,
            );
        }
    }
    write_host_trace(c, &mut out, "large_pipeline", crate::spec::LARGE);
    out
}

// ---------------------------------------------------- stencil_scale64

/// The application figures' heaps (`bench-gdr`'s `app_config`): modest,
/// so a 64-node machine stays cheap to build.
pub fn app_config(cfg: RuntimeConfig) -> RuntimeConfig {
    let mut rc = cfg.with_heaps(2 << 20, 24 << 20);
    rc.staging = 4 << 20;
    rc.dev_mem = 32 << 20;
    rc.private_host = 4 << 20;
    rc
}

pub fn stencil_scale64(c: &Child) -> Report {
    let mut out = Report::default();
    // the paper's Fig 11 point at 64 GPUs; the analysis pass keeps the
    // machine and runs one iteration, smoke runs keep only the grid
    let (nodes, iters) = match c.div {
        1 => (64, 3),
        2..=9 => (64, 1),
        _ => (4, 1),
    };
    let rep = c.open("bench.repetition", "stencil_scale64", None, 0);
    let m = c.call("core.build", "", rep, 0, || {
        ShmemMachine::build(ClusterSpec::wilkes(nodes, 1), app_config(c.tuned()))
    });
    let (timed, res) = timed_on(&m, || {
        c.call("apps.stencil2d.run", "", rep, 0, || {
            stencil2d::run(&m, StencilParams::bench(1024, iters))
        })
    });
    let ops = (nodes * iters) as u64;
    if res.elapsed.as_ps() == 0 {
        out.fail("stencil2d::run reports no simulated time");
    }
    emit_timed(c, &mut out, &timed, ops, 0);
    emit_fault_tallies(
        &mut out,
        m.obs()
            .fault_counters()
            .into_iter()
            .map(|((w, _), n)| (w, n)),
    );
    if let Some(rep) = own_trace(c, rep, &m, &mut out, ops) {
        let puts: u64 = rep
            .protocols
            .iter()
            .filter(|(k, _)| k.starts_with("put"))
            .map(|(_, p)| p.count)
            .sum();
        out.put_n("apps.halo_puts_per_iter", puts as f64 / iters as f64, iters);
    }
    c.close(rep);
    if c.spans.is_some() {
        out.put_n(
            "apps.stencil_iter_host_ms",
            timed.host.wall_s * 1e3 / iters as f64,
            iters,
        );
    }
    write_host_trace(c, &mut out, "stencil_scale64", crate::spec::STENCIL);
    out
}

/// Untimed gate of `stencil_scale64`: the full-physics stencil on
/// `wilkes(8,2)` must match the serial reference.
pub fn stencil_validate(_c: &Child) -> Report {
    let mut out = Report::default();
    let (n, iters) = (256, 4);
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(8, 2),
        RuntimeConfig::tuned(Design::EnhancedGdr).with_obs(ObsLevel::Off),
    );
    let res = stencil2d::run(&m, StencilParams::validate(n, iters));
    let want: f64 = stencil2d::serial_reference(n, iters).iter().sum();
    match res.checksum {
        Some(got) if (got - want).abs() <= 1e-9 * want.abs() => {}
        got => out.fail(format!(
            "stencil checksum {got:?} differs from the serial reference {want}"
        )),
    }
    out
}

// ----------------------------------------------------- chaos_campaign

const CHAOS_TRIALS: u64 = 120;
/// A plan generator: `(campaign_seed, trial) -> plan`.
type PlanOf = fn(u64, u64) -> FaultPlan;
const CHAOS_MODES: [(&str, PlanOf); 3] = [
    ("base", FaultPlan::generate),
    ("crash", FaultPlan::generate_with_crashes),
    ("partition", FaultPlan::generate_with_partitions),
];

/// Op lines of a trial report are `  pe<N> <what>: <outcome>`.
fn op_outcomes(report: &str) -> impl Iterator<Item = &str> {
    report.lines().filter_map(|l| {
        let rest = l.strip_prefix("  pe")?;
        rest.starts_with(|c: char| c.is_ascii_digit())
            .then(|| rest.rsplit_once(": ").map(|(_, o)| o))?
    })
}

pub fn chaos_campaign(c: &Child) -> Report {
    let mut out = Report::default();
    let per_kind = (CHAOS_TRIALS / 4 / c.div as u64).max(1);
    let trials = 4 * per_kind;
    let spec = |workload: ChaosWorkload, plan: FaultPlan, trial: u64| TrialSpec {
        campaign_seed: c.seed,
        trial,
        workload,
        plan,
        strict_no_partial: false,
        strict_no_peer_dead: false,
        strict_no_partitioned: false,
    };
    // The campaign's own draws (`Workload::pick`, `FaultPlan::generate*`
    // on campaign seed = --seed), but an equal number of trials of each
    // workload kind: a pipeline trial costs ten times an RMA trial and
    // reports a twentieth of the op lines, so a free mix moves ops/s by
    // 30 % from seed to seed. Take the first `per_kind` trial numbers of
    // each kind, in trial order.
    let mut picked: Vec<u64> = Vec::new();
    let mut quota = [per_kind; 4];
    for trial in 0.. {
        let kind = ChaosWorkload::ALL
            .iter()
            .position(|w| *w == ChaosWorkload::pick(c.seed, trial))
            .expect("a listed kind");
        if quota[kind] > 0 {
            quota[kind] -= 1;
            picked.push(trial);
        }
        if quota == [0; 4] {
            break;
        }
    }
    let rep = c.open("bench.repetition", "chaos_campaign", None, 0);
    let specs: Vec<Vec<TrialSpec>> = CHAOS_MODES
        .iter()
        .map(|(_, plan_of)| {
            picked
                .iter()
                .map(|t| spec(ChaosWorkload::pick(c.seed, *t), plan_of(c.seed, *t), *t))
                .collect()
        })
        .collect();
    // set-up is the inputs plus one untimed, unfaulted trial: the
    // machine builds this workload pays for sit inside `run_trial`, so
    // a warm-up trial is the only set-up there is to time
    let warm = spec(ChaosWorkload::RmaRandom, FaultPlan::default(), 0);
    c.call("chaos.run_trial", "warm-up", rep, 0, || {
        chaos::run_trial(&warm)
    });

    let (mut ops, mut typed_failed, mut violations, mut sim_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut counters: Vec<(String, u64)> = Vec::new();
    let start = host::mark();
    for ((mode, _), specs) in CHAOS_MODES.iter().zip(&specs) {
        let t = Instant::now();
        for s in specs {
            let res = c.call("chaos.run_trial", mode, rep, 0, || chaos::run_trial(s));
            for outcome in op_outcomes(&res.report) {
                ops += 1;
                typed_failed += (outcome != "ok") as u64;
            }
            sim_ns += res
                .report
                .lines()
                .find_map(|l| l.trim().strip_prefix("final-now-ns=")?.parse::<u64>().ok())
                .unwrap_or(0);
            for (oracle, detail) in &res.violations {
                violations += 1;
                out.fail(format!(
                    "{mode} trial {}: oracle {oracle}: {detail}",
                    s.trial
                ));
            }
            counters.extend(
                res.fault_counters
                    .into_iter()
                    .map(|((what, _), n)| (what, n)),
            );
        }
        out.put_n(
            &format!("chaos.trials_per_host_s_{mode}"),
            trials as f64 / t.elapsed().as_secs_f64(),
            trials as usize,
        );
    }
    let end = host::mark();
    c.close(rep);
    let timed = Timed {
        start,
        host: HostCost::between(&start, &end),
        sim_ps: sim_ns * sim_core::PS_PER_NS,
        engine: None,
        peak_rss_kb: end.usage.peak_rss_kb,
    };
    // an op line that is not `ok` is a typed failure the fault plan
    // asked for; only an oracle violation is a wrong result
    emit_timed(c, &mut out, &timed, ops, violations);
    out.put("typed_failed", typed_failed as f64);
    emit_fault_tallies(&mut out, counters.iter().map(|(w, n)| (w.as_str(), *n)));
    out.put("chaos.violations", violations as f64);
    write_host_trace(c, &mut out, "chaos_campaign", crate::spec::CHAOS);
    out
}
