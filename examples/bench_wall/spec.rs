//! What the benchmark measures, by name: the four workloads, the
//! end-to-end metrics with their bounds, and every per-layer metric.
//! `BENCHMARK.json` repeats these names; `bench_wall --check` fails
//! when the two drift apart.

pub const DEFAULT_SEED: u64 = 1;
/// Seconds of untraced repetitions per workload when no `--seconds`
/// is given; the same number is `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 15;

/// Fewest untraced repetitions an end-to-end run reports medians over.
pub const MIN_REPS: usize = 5;

pub struct Workload {
    pub name: &'static str,
    /// What one counted operation is.
    pub op: &'static str,
    /// What one repetition runs at full size.
    pub per_rep: &'static str,
    pub why: &'static str,
}

pub const SMALL: usize = 0;
pub const LARGE: usize = 1;
pub const STENCIL: usize = 2;
pub const CHAOS: usize = 3;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small_rma_mix",
        op: "one blocking call (put+quiet, get or fetch-add)",
        per_rep: "wilkes(2,2) Enhanced-GDR; PE 0 issues 40 000 seeded ops to PE 1 (intra-node) and \
                  PE 2 (inter-node): 8 B D-D put 40 %, 2 KiB D-D put 20 %, 8 B D-D get 20 %, \
                  8 B H-D put 10 %, fetch-add on GPU heap 10 %; a barrier every 2 000 ops",
        why: "Per-op cost is core dispatch plus sim-core task hand-off and almost no bytes move; \
              bypasses the 64-thread stampede and the byte-copy paths.",
    },
    Workload {
        name: "large_pipeline",
        op: "one transfer (a window of four nbi puts counts as one)",
        per_rep: "internode_pair, 16 MiB GPU heap; PE 0 issues 600 seeded ops, a quarter each: \
                  4 MiB D-D put+quiet, 4 MiB D-D get, 4 x 1 MiB putmem_nbi+quiet, 1 MiB H-D put+quiet",
        why: "Hundreds of events and MiBs of real memcpy per op but few task hand-offs: hardware-model \
              event chains and arena copies dominate; bypasses hand-off and dispatch changes.",
    },
    Workload {
        name: "stencil_scale64",
        op: "one PE-iteration (192 per repetition)",
        per_rep: "wilkes(64,1), app heaps 2 MiB host / 24 MiB GPU / 4 MiB staging; \
                  stencil2d::run(StencilParams::bench(1024, 3)); seed unused, the input is the paper's",
        why: "64 OS threads behind one engine lock with notify_all: where per-task parking or threadless \
              PEs must show; the only workload running collectives and apps.",
    },
    Workload {
        name: "chaos_campaign",
        op: "one op line of TrialResult::report",
        per_rep: "the first 30 trials of each chaos workload kind x {Base, Crash, Partition}: \
                  FaultPlan::generate*, Workload::pick, chaos::run_trial with campaign seed = --seed",
        why: "Hundreds of short-lived machine builds with faults, retries, fallbacks and membership: \
              build/teardown-dominated, and the only workload where ops fail (typed, on purpose).",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_ops_per_host_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Where a per-layer metric's value comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Every workload reports its own value (the issue's dagger).
    Each,
    /// The traced repetition of one workload.
    Traced(usize),
    /// An isolated probe child.
    Probe(&'static str),
}

pub struct Layer {
    /// `<crate>.<what>`; the part before the dot is the layer.
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub from: Source,
}

const fn m(name: &'static str, unit: &'static str, better: Better, from: Source) -> Layer {
    Layer {
        name,
        unit,
        better,
        from,
    }
}

use Better::{Higher as Hi, Lower as Lo};
use Source::{Each, Probe, Traced};

pub const PER_LAYER: [Layer; 75] = [
    // the paper's clock, end to end; exact for a given seed
    m("sim_us_per_op", "us", Lo, Each),
    // every untraced repetition: Sim::stats() and getrusage
    m("sim-core.events_per_op", "count", Lo, Each),
    m("sim-core.wakeups_per_op", "count", Lo, Each),
    m("sim-core.time_advance_stalls_per_op", "count", Lo, Each),
    m("sim-core.max_heap_len", "count", Lo, Each),
    m("sim-core.host_us_per_event", "us", Lo, Each),
    m("sim-core.host_us_per_wakeup", "us", Lo, Each),
    m("sim-core.sys_share", "share", Lo, Each),
    // isolated probes
    m(
        "sim-core.bare_events_per_host_s",
        "1/s",
        Hi,
        Probe("bare_events"),
    ),
    m("sim-core.handoff2_host_us", "us", Lo, Probe("handoff2")),
    m("sim-core.handoff64_host_us", "us", Lo, Probe("handoff64")),
    m("sim-core.advance_host_us", "us", Lo, Probe("advance")),
    m(
        "sim-core.link_reserve_host_ns",
        "ns",
        Lo,
        Probe("link_reserve"),
    ),
    m(
        "pcie-sim.cluster64_build_host_ms",
        "ms",
        Lo,
        Probe("cluster64"),
    ),
    m(
        "pcie-sim.arena_copy_gb_per_host_s",
        "GB/s",
        Hi,
        Probe("arena_copy"),
    ),
    m("gpu-sim.memcpy8_host_us", "us", Lo, Probe("gpu_memcpy")),
    m("gpu-sim.memcpy4m_host_us", "us", Lo, Probe("gpu_memcpy")),
    m("ib-sim.write8_host_us", "us", Lo, Probe("ib_verbs")),
    m("ib-sim.write8_sim_us", "us", Lo, Probe("ib_verbs")),
    m("ib-sim.write4m_host_us", "us", Lo, Probe("ib_verbs")),
    m("ib-sim.read4m_host_us", "us", Lo, Probe("ib_verbs")),
    m("ib-sim.atomic_host_us", "us", Lo, Probe("ib_verbs")),
    m("core.build_pair_host_ms", "ms", Lo, Probe("build_pair")),
    m("core.build64_host_ms", "ms", Lo, Probe("build64")),
    m("faults.generate_host_us", "us", Lo, Probe("faults")),
    m("faults.roundtrip_host_us", "us", Lo, Probe("faults")),
    m("apps.serial_ref_host_ms", "ms", Lo, Probe("serial_ref")),
    m(
        "omb.put_latency_call_host_ms",
        "ms",
        Lo,
        Probe("omb_put_latency"),
    ),
    // chaos_campaign itself, per generator mode
    m("chaos.trials_per_host_s_base", "1/s", Hi, Traced(CHAOS)),
    m("chaos.trials_per_host_s_crash", "1/s", Hi, Traced(CHAOS)),
    m(
        "chaos.trials_per_host_s_partition",
        "1/s",
        Hi,
        Traced(CHAOS),
    ),
    m("chaos.violations", "count", Lo, Traced(CHAOS)),
    // traced pass, host clock: one public call of core, seen from outside
    m("core.put8_host_us_p50", "us", Lo, Traced(SMALL)),
    m("core.put8_host_us_p99", "us", Lo, Traced(SMALL)),
    m("core.put8_intra_host_us_p50", "us", Lo, Traced(SMALL)),
    m("core.put2k_host_us_p50", "us", Lo, Traced(SMALL)),
    m("core.get8_host_us_p50", "us", Lo, Traced(SMALL)),
    m("core.fadd_host_us_p50", "us", Lo, Traced(SMALL)),
    m("core.quiet_host_us_p50", "us", Lo, Traced(SMALL)),
    m("core.barrier_host_us_p50", "us", Lo, Traced(SMALL)),
    m("core.put8_over_ib_host_ratio", "ratio", Lo, Traced(SMALL)),
    m("core.put4m_host_us_p50", "us", Lo, Traced(LARGE)),
    m("core.get4m_host_us_p50", "us", Lo, Traced(LARGE)),
    m("core.nbi_window_host_us_p50", "us", Lo, Traced(LARGE)),
    m("core.put1m_hd_host_us_p50", "us", Lo, Traced(LARGE)),
    m("apps.stencil_iter_host_ms", "ms", Lo, Traced(STENCIL)),
    m("apps.halo_puts_per_iter", "count", Lo, Traced(STENCIL)),
    m("bench.trace_overhead_ratio", "ratio", Lo, Each),
    // traced pass, virtual clock: gdrprof's analysis of the run's own trace
    m("core.put8_sim_us", "us", Lo, Traced(SMALL)),
    m("core.get8_sim_us", "us", Lo, Traced(SMALL)),
    m("core.stage_direct_sim_us", "us", Lo, Traced(SMALL)),
    m("core.put4m_sim_us", "us", Lo, Traced(LARGE)),
    m("core.get4m_sim_us", "us", Lo, Traced(LARGE)),
    m("core.stage_d2h_sim_us", "us", Lo, Traced(LARGE)),
    m("core.stage_rdma_sim_us", "us", Lo, Traced(LARGE)),
    m("core.stage_wakeup_sim_us", "us", Lo, Traced(LARGE)),
    m("core.decisions_per_op", "count", Lo, Traced(SMALL)),
    m("ib-sim.hca_tx_busy_share", "share", Lo, Each),
    m("ib-sim.hca_tx_peak_queue", "count", Lo, Each),
    m("ib-sim.hca_tx_contended_us", "us", Lo, Each),
    m("gpu-sim.d2h_busy_share", "share", Lo, Each),
    m("pcie-sim.p2p_busy_share", "share", Lo, Each),
    // useful outcomes over attempts
    m("core.fallbacks", "count", Lo, Each),
    m("core.retries", "count", Lo, Each),
    m("core.typed_fail_share", "share", Lo, Each),
    m("core.recovered_share", "share", Hi, Each),
    // obs as a product layer
    m("obs.counters_wall_ratio", "ratio", Lo, Traced(SMALL)),
    m("obs.spans_wall_ratio", "ratio", Lo, Traced(SMALL)),
    m("obs.windowed_wall_ratio", "ratio", Lo, Traced(SMALL)),
    m("obs.events_per_op", "count", Lo, Traced(SMALL)),
    m("obs.trace_bytes_per_op", "B", Lo, Traced(SMALL)),
    m("obs.export_mb_per_host_s", "MB/s", Hi, Traced(SMALL)),
    m(
        "obs-analyze.analyze_mb_per_host_s",
        "MB/s",
        Hi,
        Traced(SMALL),
    ),
    m("obs-analyze.report_json_host_ms", "ms", Lo, Traced(SMALL)),
    m("obs-analyze.flow_linkage", "share", Hi, Traced(SMALL)),
];

/// The distinct probe children, in table order.
pub fn probes() -> Vec<&'static str> {
    let mut v = Vec::new();
    for l in &PER_LAYER {
        if let Source::Probe(p) = l.from {
            if !v.contains(&p) {
                v.push(p);
            }
        }
    }
    v
}

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

pub fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
