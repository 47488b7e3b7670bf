//! Sampled span recording (`GDR_SHMEM_OBS_SAMPLE`): deterministic 1-in-N
//! span selection by op sequence number, with counters staying exact.

use gdr_shmem::obs::ObsLevel;
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, Domain, RuntimeConfig, ShmemMachine};

/// Eight same-pattern puts/gets so a 1-in-4 sample keeps some ops and
/// drops others, inter-node D-D like the paper's measured configuration.
fn run_workload(sample: u64) -> std::rc::Rc<ShmemMachine> {
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_obs(ObsLevel::Spans)
        .with_obs_sample(sample);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    m.run(|pe| {
        let dest = pe.shmalloc(4 << 20, Domain::Gpu);
        let src = pe.malloc_dev(4 << 20);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            for i in 0..4u64 {
                pe.putmem(dest, src, 64 << i, 1);
                pe.putmem(dest, src, 1 << 20, 1);
            }
            pe.quiet();
            pe.getmem(src, dest, 1 << 20, 1);
        }
        pe.barrier_all();
    });
    m
}

/// The same workload with the windowed metrics plane armed (50us
/// windows) on top of span sampling.
fn run_windowed(sample: u64) -> std::rc::Rc<ShmemMachine> {
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_obs(ObsLevel::Spans)
        .with_obs_sample(sample)
        .with_obs_window(50);
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    m.run(|pe| {
        let dest = pe.shmalloc(4 << 20, Domain::Gpu);
        let src = pe.malloc_dev(4 << 20);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            for i in 0..4u64 {
                pe.putmem(dest, src, 64 << i, 1);
                pe.putmem(dest, src, 1 << 20, 1);
            }
            pe.quiet();
            pe.getmem(src, dest, 1 << 20, 1);
        }
        pe.barrier_all();
    });
    m
}

#[test]
fn window_snapshots_are_counter_exact_under_sampling() {
    // the plane is fed from the exact counter path, not the sampled
    // span path: a 1-in-4 run must roll up the same windows as a full
    // run, byte for byte
    let full = run_windowed(1);
    let sampled = run_windowed(4);
    let fs: Vec<String> = full.obs().window_report().iter().map(|w| w.args_json()).collect();
    let ss: Vec<String> = sampled
        .obs()
        .window_report()
        .iter()
        .map(|w| w.args_json())
        .collect();
    assert!(!fs.is_empty(), "windowed run must emit snapshots");
    assert_eq!(fs, ss, "window snapshots must be exact under span sampling");
}

#[test]
fn window_boundaries_identical_across_replays() {
    let a = run_windowed(4);
    let b = run_windowed(4);
    let ta = a.obs().chrome_trace();
    assert_eq!(
        ta,
        b.obs().chrome_trace(),
        "windowed replays of the same seed must serialize identical traces"
    );
    assert!(
        ta.contains("window-snapshot"),
        "armed plane must emit snapshot instants"
    );
    // the metrics track only exists when the plane is armed
    let plain = run_workload(4);
    assert!(!plain.obs().chrome_trace().contains("window-snapshot"));
}

#[test]
fn sampled_trace_is_deterministic_across_runs() {
    let a = run_workload(4);
    let b = run_workload(4);
    assert_eq!(
        a.obs().chrome_trace(),
        b.obs().chrome_trace(),
        "sampling is keyed on op sequence numbers, so two identical runs \
         must select the same ops"
    );
}

#[test]
fn counters_stay_exact_under_sampling() {
    let full = run_workload(1);
    let sampled = run_workload(4);
    assert_eq!(
        full.obs().histograms(),
        sampled.obs().histograms(),
        "latency histograms must be exact regardless of span sampling"
    );
    assert_eq!(
        format!("{:?}", full.obs().agent_counters()),
        format!("{:?}", sampled.obs().agent_counters()),
        "hardware utilization counters must be exact regardless of sampling"
    );
}

#[test]
fn sampling_drops_op_spans_but_not_all() {
    let full = run_workload(1);
    let sampled = run_workload(4);
    let nf = full.obs().event_count();
    let ns = sampled.obs().event_count();
    assert!(
        ns < nf,
        "1-in-4 sampling must record fewer events ({ns} vs {nf})"
    );
    assert!(ns > 0, "sampling must not drop everything");
    // decisions ride with their op's sample token: the workload issues
    // 9 RMA ops on PE 0 (8 puts + 1 get), and 1-in-4 keeps seq 0, 4, 8
    assert_eq!(full.obs().decision_count(), 9);
    assert_eq!(sampled.obs().decision_count(), 3);
}

#[test]
fn sample_one_matches_unsampled_config() {
    let explicit = run_workload(1);
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr).with_obs(ObsLevel::Spans);
    assert_eq!(cfg.obs_sample, 1, "default sample rate is 1 (record all)");
    let m = ShmemMachine::build(ClusterSpec::internode_pair(), cfg);
    m.run(|pe| {
        let dest = pe.shmalloc(4 << 20, Domain::Gpu);
        let src = pe.malloc_dev(4 << 20);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            for i in 0..4u64 {
                pe.putmem(dest, src, 64 << i, 1);
                pe.putmem(dest, src, 1 << 20, 1);
            }
            pe.quiet();
            pe.getmem(src, dest, 1 << 20, 1);
        }
        pe.barrier_all();
    });
    assert_eq!(
        explicit.obs().chrome_trace(),
        m.obs().chrome_trace(),
        "sample=1 must be bit-identical to the unsampled default"
    );
}
