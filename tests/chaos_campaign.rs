//! Campaign-engine suite: the `gdrchaos` chaos campaign end to end.
//!
//! The chaos suite (`tests/chaos.rs`) hand-writes fault scenarios; this
//! suite exercises the *generator* on top: seeded fault-plan fuzzing
//! across the workload menu, the invariant-oracle registry, and the
//! delta-debugging shrinker. Everything runs in virtual time, so a
//! short campaign is both fast and bit-reproducible. The three
//! `Fixture` rows run through the functions `gdrchaos fixture` calls,
//! and this suite is the one check that each still violates its oracle
//! and shrinks to its committed minimal repro (`ci.sh` drives only the
//! base row through the CLI, for its exit code and `--repro-out`). The
//! repros are goldens: after an *intended* shrinker change,
//! `GDR_BLESS=1 cargo test --test chaos_campaign` rewrites them — read
//! their diff first.

mod common;

use gdr_shmem::chaos::{
    self, render_repro, run_campaign_mode, run_trial, CampaignMode, Fixture, TrialSpec, Workload,
};
use gdr_shmem::faults::{FaultPlan, GEN_HORIZON_NS};

/// A short campaign over generated plans is violation-free and renders
/// a byte-identical summary on every run of the same seed — the in-repo
/// version of the two-run CI gate.
#[test]
fn short_campaign_two_runs_render_byte_identical_summaries() {
    let (s1, f1) = run_campaign_mode(7, 48, CampaignMode::Base);
    let (s2, _) = run_campaign_mode(7, 48, CampaignMode::Base);
    assert_eq!(s1.render(), s2.render());
    assert!(
        f1.is_empty(),
        "campaign seed 7 found violations:\n{}",
        s1.render()
    );
    // the menu rotates: every workload appears in 48 trials
    assert_eq!(s1.workloads.len(), Workload::ALL.len());
    // generated plans actually inject: the summed counters are nonzero
    let injected: u64 = s1
        .fault_counters
        .iter()
        .filter(|((what, _), _)| what == "injected")
        .map(|(_, n)| n)
        .sum();
    assert!(injected > 0, "48 generated plans never injected a fault");
}

/// Different campaign seeds take different trajectories (the fuzzer is
/// seeded, not fixed).
#[test]
fn campaign_seeds_diverge() {
    let (s1, _) = run_campaign_mode(7, 16, CampaignMode::Base);
    let (s2, _) = run_campaign_mode(8, 16, CampaignMode::Base);
    assert_ne!(s1.render(), s2.render());
}

/// Generated plans respect the generator horizon: every window the
/// plan schedules ends by `GEN_HORIZON_NS`, so the breaker-recovery
/// oracle's "faults are over" probe time is sound. Partition windows
/// leave room for the heal bound too, so the quorum-fence lifecycle
/// completes inside the horizon.
#[test]
fn generated_plans_fit_the_horizon() {
    for trial in 0..64 {
        let p = FaultPlan::generate(7, trial);
        for w in &p.link_windows {
            assert!(w.end_ns <= GEN_HORIZON_NS);
        }
        for s in &p.proxy_stalls {
            assert!(s.end_ns <= GEN_HORIZON_NS);
        }
        for b in &p.burst_windows {
            assert!(b.end_ns <= GEN_HORIZON_NS);
        }
        let pp = FaultPlan::generate_with_partitions(7, trial);
        for f in &pp.partitions {
            assert!(f.end_ns + gdr_shmem::shmem::HEAL_BOUND_NS <= GEN_HORIZON_NS);
        }
    }
}

/// Run the fixture row of `mode`: it must violate its oracle, shrink in
/// at least one probe, and render exactly its committed golden repro,
/// whose `# original:` line is the row's grammar. Returns the row and
/// the minimal plan.
fn fixture_matches_golden(mode: CampaignMode, golden: &str) -> (&'static Fixture, FaultPlan) {
    let fixture = Fixture::of(mode);
    let (failure, minimal, probes) = fixture.run().expect("fixture plan must violate");
    assert_eq!(failure.oracle, fixture.oracle);
    assert!(probes > 0);
    let doc = render_repro(&failure, &minimal, probes);
    common::check(golden, &doc);
    assert!(doc.contains(&format!("\n# original: {}\n", fixture.grammar)));
    (fixture, minimal)
}

/// The minimal plan round-trips through the grammar and replays the
/// fixture's oracle byte-identically, twice. The shrunk plan's timing
/// differs from the noisy original, so the first failing op may differ
/// from the original violation's — the oracle must reproduce, the
/// specific op detail need not.
fn minimal_replays_byte_identically(fixture: &Fixture, minimal: FaultPlan) {
    let replay = FaultPlan::parse(&minimal.to_string());
    assert_eq!(replay, minimal);
    let spec =
        TrialSpec::new(chaos::FIXTURE_SEED, 0, fixture.workload, replay).strict_for(fixture.oracle);
    let a = run_trial(&spec);
    let b = run_trial(&spec);
    assert_eq!(a.report, b.report);
    assert!(a.violations.iter().any(|(o, _)| o == fixture.oracle));
    assert_eq!(a.violations, b.violations);
}

/// The committed known-bad fixture: the plan violates the strict
/// `no-partial-delivery` oracle, the shrinker strips every noise
/// dimension, and the rendered repro document matches the committed
/// golden file byte for byte.
#[test]
fn fixture_shrinks_to_committed_golden_repro() {
    let (fixture, minimal) = fixture_matches_golden(CampaignMode::Base, "chaos_minimal_repro.txt");
    assert_eq!(fixture.oracle, "no-partial-delivery");
    // the original plan carries five noise dimensions...
    assert!(fixture.grammar.contains("link=") && fixture.grammar.contains("burst="));
    // ...and none survive shrinking
    assert_eq!(minimal.to_string(), "seed=1 cqe=450 retries=1");
}

/// The minimal grammar replays byte-identically: parsing the committed
/// repro line and re-running the trial reproduces the exact violation,
/// twice.
#[test]
fn committed_repro_grammar_replays_byte_identically() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chaos_minimal_repro.txt"
    ))
    .expect("committed golden repro");
    let grammar = golden
        .lines()
        .find(|l| !l.starts_with('#'))
        .expect("repro file carries a bare grammar line");
    minimal_replays_byte_identically(Fixture::of(CampaignMode::Base), FaultPlan::parse(grammar));
}

/// A crash-dimension campaign is violation-free (the survivor-bytes and
/// view-convergence oracles hold on every trial) and actually exercises
/// the fail-stop machinery: the summed lifecycle counters show
/// evictions and at least one full rejoin. (The parity digest holds the
/// same campaign byte-identical across processes.)
#[test]
fn crash_campaign_is_clean_and_exercises_the_lifecycle() {
    let (s1, f1) = run_campaign_mode(11, 200, CampaignMode::Crash);
    assert!(
        f1.is_empty(),
        "crash campaign seed 11 found violations:\n{}",
        s1.render()
    );
    let c = |what: &str| -> u64 {
        s1.fault_counters
            .iter()
            .filter(|((w, _), _)| w == what)
            .map(|(_, n)| n)
            .sum()
    };
    assert!(c("pe-dead") > 0, "no crash was ever detected");
    assert_eq!(c("pe-dead"), c("evict"));
    assert_eq!(c("evict"), c("view-change"));
    assert!(c("rejoin") > 0, "no rejoin lifecycle ran");
    assert!(c("probe") >= c("rejoin"), "rejoin without a HalfOpen probe");
}

/// A partition-dimension campaign is violation-free (the split-brain,
/// quorum-progress and heal-convergence oracles hold on every trial)
/// and actually exercises the quorum-fence machinery: the summed
/// lifecycle counters show fences that all heal inside the horizon.
/// (The parity digest holds the same campaign byte-identical across
/// processes.)
#[test]
fn partition_campaign_is_clean_and_exercises_the_lifecycle() {
    let (s1, f1) = run_campaign_mode(11, 200, CampaignMode::Partition);
    assert!(
        f1.is_empty(),
        "partition campaign seed 11 found violations:\n{}",
        s1.render()
    );
    let c = |what: &str| -> u64 {
        s1.fault_counters
            .iter()
            .filter(|((w, _), _)| w == what)
            .map(|(_, n)| n)
            .sum()
    };
    assert!(c("partition") > 0, "no partition was ever observed");
    assert!(c("fence") > 0, "no split ever reached a quorum fence");
    assert_eq!(c("fence"), c("heal"), "a fence never healed");
    // partition campaigns draw no crashes: fail-stop stays quiet
    assert_eq!(c("pe-dead"), 0);
    assert_eq!(c("evict"), 0);
}

/// The split-PE fixture: an app tier that treats any typed
/// `Partitioned` as fatal violates `no-partitioned`, and the shrinker
/// strips every noise dimension down to the minimal `partition=` repro,
/// which replays byte-identically through the grammar.
#[test]
fn partition_fixture_shrinks_to_minimal_partition_repro() {
    let (fixture, minimal) =
        fixture_matches_golden(CampaignMode::Partition, "chaos_partition_minimal_repro.txt");
    assert_eq!(fixture.oracle, "no-partitioned");
    assert!(fixture.grammar.contains("link=") && fixture.grammar.contains("stall="));
    assert_eq!(minimal.to_string(), "seed=1 partition=split:2:20000:1200000");
    minimal_replays_byte_identically(fixture, minimal);
}

/// The crashed-PE fixture: an app tier that treats any typed `PeerDead`
/// as fatal violates `no-peer-dead`, and the shrinker strips every
/// noise dimension down to the minimal `crash=` repro, which replays
/// byte-identically through the grammar.
#[test]
fn crash_fixture_shrinks_to_minimal_crash_repro() {
    let (fixture, minimal) =
        fixture_matches_golden(CampaignMode::Crash, "chaos_crash_minimal_repro.txt");
    assert_eq!(fixture.oracle, "no-peer-dead");
    assert!(fixture.grammar.contains("link=") && fixture.grammar.contains("stall="));
    assert_eq!(minimal.to_string(), "seed=1 crash=1:20000:1200000");
    minimal_replays_byte_identically(fixture, minimal);
}

/// Regression (crash campaign seed 51, trial 6): PE 0 — the broadcast
/// root — fail-stops and the lone survivor re-forms alone. It used to
/// report `ok` while holding no payload; it must fail typed `PeerDead`.
#[test]
fn lone_survivor_broadcast_from_dead_root_fails_typed() {
    let plan = FaultPlan::parse(
        "seed=10333703426973891515 cqe=250 retries=0 backoff=1846 backoff-cap=36920 \
         burst=56457:150037 crash=0:123224:939803",
    );
    let res = run_trial(&TrialSpec::new(51, 6, Workload::Collectives, plan));
    assert_eq!(res.violations, vec![], "{}", res.report);
    assert!(
        res.report.contains("  pe1 bcast len32768: peer-dead(pe0@e1)\n"),
        "{}",
        res.report
    );
}

/// Regression (partition campaign seed 4, trial 70): the split fences
/// PE 1 after its puts completed `ok`; PE 0's fini barrier re-forms
/// without it and snapshots before those puts land. The fence severed
/// the sync point, so the delivered-prefix claim is exempt — and the
/// trial must still be the one that exercises the exemption.
#[test]
fn fence_severed_rma_trial_is_not_a_byte_violation() {
    assert_eq!(Workload::pick(4, 70), Workload::RmaRandom);
    let plan = FaultPlan::generate_with_partitions(4, 70);
    let res = run_trial(&TrialSpec::new(4, 70, Workload::RmaRandom, plan));
    assert_eq!(res.violations, vec![], "{}", res.report);
    assert!(res.report.contains("barrier-fini: partitioned("), "{}", res.report);
}

/// Regression (bench_wall finding 2): campaign seed 3, trial 77 ends
/// with both PEs acting at one virtual instant, and its `final-now-ns`
/// used to depend on which thread the host ran first. Tasks resume in
/// wake order now, so every run renders the same report.
#[test]
fn same_instant_trial_renders_one_report_every_run() {
    assert_eq!(Workload::pick(3, 77), Workload::RmaRandom);
    let spec = TrialSpec::new(3, 77, Workload::RmaRandom, FaultPlan::generate(3, 77));
    let first = run_trial(&spec).report;
    assert!(first.contains("final-now-ns="));
    for run in 1..25 {
        assert_eq!(run_trial(&spec).report, first, "run {run} diverged");
    }
}
