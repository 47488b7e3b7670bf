//! Characterisation of protocol dispatch: every cell of design ×
//! locality × buffer domains × GPU↔HCA socket relation × op form ×
//! boundary size × fault condition, one line per cell, compared byte
//! for byte against `tests/golden/dispatch_matrix.txt`.
//!
//! A line records what the runtime *did* — the decision record(s) of
//! the op (recorded op name, chosen protocol, candidates, thresholds
//! consulted), every fallback, the protocol counters the op bumped and
//! the virtual time it took — so any drift between the dispatch table,
//! its decision records and its fast paths shows up as a diff here.
//!
//! Regenerate with `GDR_BLESS=1 cargo test --test dispatch_matrix`
//! after an *intended* change — read its diff first.

mod common;

use gdr_shmem::faults::FaultPlan;
use gdr_shmem::obs::{ObsLevel, Payload, TrackKind};
use gdr_shmem::pcie::{ClusterSpec, PlacementPolicy};
use gdr_shmem::shmem::{Design, Domain, Protocol, RuntimeConfig, ShmemMachine};
use gdr_shmem::sim::{SimDuration, SimTime};
use std::fmt::Write as _;

const MAX_LEN: u64 = 4 << 20;

/// The breaker condition's burst window (virtual ns): long after setup,
/// wide enough to cover the tripping put's cold registration, and over
/// before the first cell so the cells run on a clean fabric.
const BURST_START_NS: u64 = 5_000_000;
const BURST_END_NS: u64 = 6_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cond {
    Clean,
    GdrOffOrigin,
    GdrOffTarget,
    Cut,
    BreakerOpen,
    NoProxy,
}

impl Cond {
    const ALL: [Cond; 6] = [
        Cond::Clean,
        Cond::GdrOffOrigin,
        Cond::GdrOffTarget,
        Cond::Cut,
        Cond::BreakerOpen,
        Cond::NoProxy,
    ];

    fn name(self) -> &'static str {
        match self {
            Cond::Clean => "clean",
            Cond::GdrOffOrigin => "gdr-off@origin",
            Cond::GdrOffTarget => "gdr-off@target",
            Cond::Cut => "cut",
            Cond::BreakerOpen => "breaker-open",
            Cond::NoProxy => "no-proxy",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Form {
    Put,
    PutNbi,
    PutSignal,
    Get,
    GetNbi,
}

impl Form {
    const ALL: [Form; 5] = [
        Form::Put,
        Form::PutNbi,
        Form::PutSignal,
        Form::Get,
        Form::GetNbi,
    ];

    fn name(self) -> &'static str {
        match self {
            Form::Put => "put",
            Form::PutNbi => "put-nbi",
            Form::PutSignal => "put-signal",
            Form::Get => "get",
            Form::GetNbi => "get-nbi",
        }
    }
}

/// The sweep spec of `bench_omb`: two nodes, two PEs and two GPUs per
/// node, one HCA on socket 0 — PEs 0 and 2 own the GPU on the HCA's
/// socket, PEs 1 and 3 the GPU on the other one.
fn spec() -> ClusterSpec {
    ClusterSpec {
        nodes: 2,
        procs_per_node: 2,
        gpus_per_node: 2,
        hcas_per_node: 1,
        sockets_per_node: 2,
        placement: PlacementPolicy::Affinity,
    }
}

/// `(locality, origin, peer)`: both socket relations at either end.
const PAIRS: [(&str, u32, u32); 8] = [
    ("self", 0, 0),
    ("self", 1, 1),
    ("intra", 0, 1),
    ("intra", 1, 0),
    ("inter", 0, 2),
    ("inter", 0, 3),
    ("inter", 1, 2),
    ("inter", 1, 3),
];

/// Sizes on both sides of every threshold of the tuned table (each
/// `<=` limit at `limit` and `limit + 1`, the `>=` proxy floor at
/// `min - 1` and `min`), plus 8 B and 4 MiB. Designs that consult no
/// threshold get the two end points only.
fn sizes(design: Design) -> Vec<u64> {
    if design != Design::EnhancedGdr {
        return vec![8, MAX_LEN];
    }
    let mut v = vec![8];
    for limit in [1u64 << 10, 2 << 10, 4 << 10, 16 << 10, 32 << 10] {
        v.extend([limit, limit + 1]);
    }
    v.extend([(512 << 10) - 1, 512 << 10, MAX_LEN]);
    v
}

/// Cells that panic by design (paper Table I): the Naive design never
/// touches a GPU buffer of another PE, and the Host-Pipeline baseline
/// has no inter-node H-D / D-H path.
fn unsupported(design: Design, loc: &str, src_dev: bool, dst_dev: bool) -> bool {
    match design {
        Design::Naive => loc != "self" && (src_dev || dst_dev),
        Design::HostPipeline => loc == "inter" && src_dev != dst_dev,
        Design::EnhancedGdr => false,
    }
}

fn config(design: Design, cond: Cond, origin: u32, peer: u32) -> Option<RuntimeConfig> {
    let mut cfg = RuntimeConfig::builtin(design).with_obs(ObsLevel::Spans);
    // idle PEs sit in the closing barrier for the whole sweep: keep the
    // sync deadline of an armed plan out of the way
    let armed = || FaultPlan::default().with_op_timeout_ns(60_000_000_000);
    let node = |pe: u32| pe / 2;
    match cond {
        Cond::Clean => {}
        Cond::GdrOffOrigin => cfg = cfg.with_faults(armed().with_gdr_disabled(node(origin))),
        Cond::GdrOffTarget => cfg = cfg.with_faults(armed().with_gdr_disabled(node(peer))),
        Cond::Cut => {
            if origin == peer {
                return None; // a cut names two distinct PEs
            }
            cfg = cfg.with_faults(armed().with_partition_cut(origin, peer, 0, u64::MAX / 2));
        }
        Cond::BreakerOpen => {
            if design != Design::EnhancedGdr {
                return None; // only Enhanced-GDR consults the breaker
            }
            cfg = cfg.with_faults(
                armed()
                    .with_seed(1)
                    .with_burst_window(BURST_START_NS, BURST_END_NS)
                    .with_retry(0, 1_000, 1_000)
                    .with_health(1_000_000, 1, u64::MAX / 4),
            );
        }
        Cond::NoProxy => {
            if design != Design::EnhancedGdr {
                return None; // only Enhanced-GDR has a proxy to disable
            }
            cfg.proxy_enabled = false;
        }
    }
    Some(cfg)
}

/// What the origin PE saw of one cell.
struct Cell {
    src_dev: bool,
    dst_dev: bool,
    form: Form,
    len: u64,
    t0: SimTime,
    t1: SimTime,
    counts: [u64; Protocol::COUNT],
    err: Option<String>,
}

/// One machine per (design, condition, PE pair): the origin runs every
/// supported buffer configuration × op form × size back to back.
fn run_machine(
    design: Design,
    cond: Cond,
    (loc, origin, peer): (&str, u32, u32),
    out: &mut String,
) {
    let Some(cfg) = config(design, cond, origin, peer) else {
        return;
    };
    let lens = sizes(design);
    let m = ShmemMachine::build(spec(), cfg);
    let cells = m.run(|pe| {
        // the symmetric end (put destination, get source) and the
        // local end (put source, get destination), one per domain
        let sym = [
            pe.shmalloc(MAX_LEN, Domain::Host),
            pe.shmalloc(MAX_LEN, Domain::Gpu),
        ];
        let local = [pe.malloc_host(MAX_LEN), pe.malloc_dev(MAX_LEN)];
        let sig = pe.shmalloc(8, Domain::Host);
        let trip_dst = pe.shmalloc(8, Domain::Gpu);
        let trip_src = pe.malloc_dev(8);
        pe.barrier_all();
        let mut cells = Vec::new();
        if pe.my_pe() == origin as usize {
            if cond == Cond::BreakerOpen {
                // one direct-GDR put inside the burst opens node 0's
                // breaker for the rest of the run
                let now_ns = pe.now().0 / 1_000;
                pe.compute(SimDuration::from_ns(BURST_START_NS + 10_000 - now_ns));
                pe.try_putmem(trip_dst, trip_src, 8, 2)
                    .expect_err("a post inside the burst window must fail");
                pe.compute(SimDuration::from_ns(BURST_END_NS - BURST_START_NS));
            }
            let p = peer as usize;
            for (src_dev, dst_dev) in [(false, false), (false, true), (true, false), (true, true)] {
                if unsupported(design, loc, src_dev, dst_dev) {
                    continue;
                }
                for form in Form::ALL {
                    for &len in &lens {
                        pe.compute(SimDuration::from_us(1));
                        let before = pe.stats().by_protocol;
                        let t0 = pe.now();
                        let (put_src, put_dst) = (local[src_dev as usize], sym[dst_dev as usize]);
                        let (get_src, get_dst) = (sym[src_dev as usize], local[dst_dev as usize]);
                        let r = match form {
                            Form::Put => pe.try_putmem(put_dst, put_src, len, p),
                            Form::PutNbi => {
                                pe.putmem_nbi(put_dst, put_src, len, p);
                                Ok(())
                            }
                            Form::PutSignal => {
                                pe.put_signal(put_dst, put_src, len, sig, 1, p);
                                Ok(())
                            }
                            Form::Get => pe.try_getmem(get_dst, get_src, len, p),
                            Form::GetNbi => {
                                pe.getmem_nbi(get_dst, get_src, len, p);
                                Ok(())
                            }
                        };
                        let t1 = pe.now();
                        let after = pe.stats().by_protocol;
                        pe.quiet();
                        let mut counts = [0; Protocol::COUNT];
                        for (c, (a, b)) in counts.iter_mut().zip(after.iter().zip(before)) {
                            *c = a - b;
                        }
                        cells.push(Cell {
                            src_dev,
                            dst_dev,
                            form,
                            len,
                            t0,
                            t1,
                            counts,
                            err: r.err().map(|e| e.to_string()),
                        });
                    }
                }
            }
        }
        pe.barrier_all();
        cells
    });

    // decisions decode with their thresholds in consult order, which is
    // not name order for an intra-node D-D put
    gdr_shmem::obs_analyze::check_paths(m.obs()).expect("trace paths agree");
    let events = m.obs().events_of(TrackKind::Pe, origin);
    let dom = |dev: bool| if dev { 'D' } else { 'H' };
    for c in &cells[origin as usize] {
        let mut decisions = String::new();
        let mut fallbacks = String::new();
        let mut last_to = None;
        for ev in events.iter().filter(|e| e.ts >= c.t0 && e.ts <= c.t1) {
            match ev.payload {
                Payload::Decision(d) => {
                    // decision records and fallbacks come from one plan:
                    // an op chooses what its last fallback went to, else
                    // one of the protocols it says it considered
                    let expected = last_to
                        .take()
                        .map_or(d.candidates.contains(d.chosen), |to| to == d.chosen);
                    assert!(
                        expected,
                        "{} {loc} {origin}>{peer} {}: {d:?}",
                        design.name(),
                        cond.name()
                    );
                    if !decisions.is_empty() {
                        decisions.push_str(" ; ");
                    }
                    let cands: Vec<_> = d.candidates.iter().collect();
                    let thr: Vec<_> = d
                        .thresholds
                        .iter()
                        .map(|(n, v)| format!("{n}={v}"))
                        .collect();
                    let _ = write!(
                        decisions,
                        "{} {}B chosen={} cands=[{}] thr=[{}]",
                        d.op,
                        d.size,
                        d.chosen,
                        cands.join(","),
                        thr.join(","),
                    );
                }
                Payload::Fallback { from, to, .. } => {
                    if !fallbacks.is_empty() {
                        fallbacks.push(',');
                    }
                    let _ = write!(fallbacks, "{from}>{to}");
                    last_to = Some(to);
                }
                _ => {}
            }
        }
        let counts: Vec<_> = Protocol::ALL
            .iter()
            .zip(c.counts)
            .filter(|(_, n)| *n > 0)
            .map(|(p, n)| format!("{}:{n}", p.name()))
            .collect();
        let _ = write!(
            out,
            "{} {loc} {origin}>{peer} {}-{} {} {} {} | {decisions} | fb=[{fallbacks}] counts=[{}] ps={}",
            design.name(),
            dom(c.src_dev),
            dom(c.dst_dev),
            cond.name(),
            c.form.name(),
            c.len,
            counts.join(","),
            c.t1.0 - c.t0.0,
        );
        if let Some(e) = &c.err {
            let _ = write!(out, " err={e}");
        }
        out.push('\n');
    }
}

fn matrix() -> String {
    let mut out = String::new();
    for design in [Design::Naive, Design::HostPipeline, Design::EnhancedGdr] {
        for cond in Cond::ALL {
            for pair in PAIRS {
                run_machine(design, cond, pair, &mut out);
            }
        }
    }
    out
}

#[test]
fn dispatch_matrix_matches_golden() {
    common::check("dispatch_matrix.txt", &matrix());
}
