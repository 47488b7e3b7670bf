//! Fail-stop fault tolerance end to end: crash faults, virtual-time
//! membership, degraded collectives, and the full PE rejoin lifecycle.
//! Network-partition tolerance rides the same machinery: `partition=`
//! plans fence the minority side behind a quorum at the detection
//! bound, majority collectives re-form and stay byte-comparable to a
//! smaller reference cluster, and the heal merges the views back at a
//! higher epoch.
//!
//! Everything here is a pure virtual-time replay of a fault plan —
//! the membership view is a function of (plan, virtual time), so every
//! assertion is deterministic and the degraded results are exactly
//! byte-comparable against a smaller reference cluster.

use gdr_shmem::shmem::{
    Design, Domain, FaultPlan, RedOp, RuntimeConfig, ShmemMachine, SimDuration, TransferError,
    DETECT_BOUND_NS, HEAL_BOUND_NS,
};
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::obs::ObsLevel;

const CRASH_AT_NS: u64 = 120_000;
const REJOIN_NS: u64 = 500_000;

/// Run `rounds` of sum-reduce-to-root-0 on `spec` under `plan`. Each PE
/// contributes `[me + 1, round, me * 10, 7]` per round; the per-PE
/// result is the last round's dst (or the first typed error).
fn reduce_rounds(
    spec: ClusterSpec,
    plan: FaultPlan,
    rounds: u64,
) -> Vec<Result<Vec<u64>, TransferError>> {
    let m = ShmemMachine::build(
        spec,
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Counters),
    );
    m.run(move |pe| {
        let me = pe.my_pe() as u64;
        let src = pe.shmalloc_slice::<u64>(4, Domain::Host);
        let dst = pe.shmalloc_slice::<u64>(4, Domain::Host);
        pe.try_barrier_all()?;
        for round in 0..rounds {
            pe.write_sym(&src, &[me + 1, round, me * 10, 7]);
            pe.try_reduce(&src, &dst, RedOp::Sum, 0)?;
            pe.compute(SimDuration::from_us(10));
        }
        Ok(pe.read_sym(&dst))
    })
}

/// An 8-PE reduce with one non-root PE crashing mid-run re-forms over
/// the survivors, and the survivors' final result is byte-identical to
/// a 7-PE reference cluster that never contained the dead PE.
#[test]
fn degraded_reduce_matches_smaller_reference_cluster() {
    // PE 7 (its own node on wilkes(8, 1)) dies mid-run, never rejoins
    let plan = FaultPlan::default().with_seed(3).with_crash(7, CRASH_AT_NS, 0);
    let degraded = reduce_rounds(ClusterSpec::wilkes(8, 1), plan, 24);
    let reference = reduce_rounds(ClusterSpec::wilkes(7, 1), FaultPlan::default(), 24);

    // the crashed PE's own activity fails typed (a self-report carries
    // the epoch at the instant it failed, which precedes detection)
    match &degraded[7] {
        Err(TransferError::PeerDead { pe: 7, .. }) => {}
        other => panic!("crashed PE must observe its own fail-stop, got {other:?}"),
    }
    // every survivor finished all rounds and holds the 7-PE sum
    let want = reference[0].as_ref().expect("reference cluster is unfaulted");
    for (peid, r) in degraded.iter().take(7).enumerate() {
        let got = r.as_ref().unwrap_or_else(|e| {
            panic!("survivor pe{peid} must complete the degraded reduce: {e}")
        });
        assert_eq!(got, want, "survivor pe{peid} diverged from the 7-PE reference");
    }
    // sanity: the degraded sum actually lost PE 7's contribution
    let full: u64 = (1..=8).sum();
    let shrunk: u64 = (1..=7).sum();
    assert_eq!(want[0], shrunk);
    assert_ne!(want[0], full);
}

/// A transparent blip (rejoin inside the detection bound) is never
/// observable: no eviction, no typed errors, full-cluster results.
#[test]
fn transparent_blip_is_unobservable_in_results() {
    let blip = FaultPlan::default()
        .with_seed(3)
        .with_crash(7, CRASH_AT_NS, CRASH_AT_NS + DETECT_BOUND_NS - 1);
    let out = reduce_rounds(ClusterSpec::wilkes(8, 1), blip, 24);
    let full: u64 = (1..=8).sum();
    for (peid, r) in out.iter().enumerate() {
        let got = r.as_ref().unwrap_or_else(|e| panic!("pe{peid}: blip leaked: {e}"));
        assert_eq!(got[0], full, "pe{peid}: blip must keep the full-cluster sum");
    }
}

/// The full rejoin lifecycle over an inter-node put stream: the peer's
/// crash is detected within the bound (`pe-dead`/`evict`/`view-change`),
/// in-flight puts fail typed, and the rejoin re-registers the heap and
/// walks the health breaker's HalfOpen probe back to a promote —
/// after which puts to the rejoined PE succeed again.
#[test]
fn rejoin_walks_eviction_then_halfopen_probe_to_promote() {
    let plan = FaultPlan::default().with_seed(5).with_crash(1, CRASH_AT_NS, REJOIN_NS);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Spans),
    );
    let outs = m.run(move |pe| {
        let me = pe.my_pe();
        let dst = pe.shmalloc(4096, Domain::Host);
        let src = pe.malloc_host(4096);
        if me != 0 {
            return Vec::new();
        }
        let payload = vec![0xA5u8; 4096];
        pe.write_raw(src, &payload);
        let mut outcomes = Vec::new();
        for _ in 0..40 {
            outcomes.push(match pe.try_putmem(dst, src, 4096, 1) {
                Ok(()) => "ok",
                Err(TransferError::PeerDead { pe: 1, .. }) => "dead",
                Err(e) => panic!("unexpected error class: {e}"),
            });
            pe.compute(SimDuration::from_us(20));
        }
        outcomes
    });

    // the put stream must see all three phases, in order: alive, dead
    // window, alive again after rejoin
    let stream = outs[0].join(",");
    assert!(stream.starts_with("ok"), "puts before the crash must land: {stream}");
    assert!(stream.contains("dead"), "the dead window must fail typed: {stream}");
    assert!(stream.ends_with("ok"), "puts after rejoin must land: {stream}");
    assert!(!stream.contains("dead,ok,dead"), "the dead window must be contiguous: {stream}");

    // lifecycle counters: one eviction, one rejoin, probe then promote
    let counters = m.obs().fault_counters();
    let c = |what: &str, label: &str| -> u64 {
        counters
            .iter()
            .filter(|((w, l), _)| *w == what && *l == label)
            .map(|(_, n)| n)
            .sum()
    };
    assert_eq!(c("pe-dead", "membership"), 1);
    assert_eq!(c("evict", "membership"), 1);
    assert_eq!(c("view-change", "membership"), 1);
    assert_eq!(c("rejoin", "membership"), 1);
    assert!(c("probe", "host-rdma") >= 1, "rejoin must probe through HalfOpen");
    assert!(c("promote", "host-rdma") >= 1, "the probe success must promote");

    // the lifecycle instants land on the trace with their epochs
    gdr_shmem::obs_analyze::check_paths(m.obs()).expect("trace paths agree");
    let trace = m.obs().chrome_trace();
    for name in ["pe-dead", "evict", "view-change", "rejoin"] {
        assert!(trace.contains(&format!("\"{name}\"")), "trace lacks {name} instant");
    }
    assert!(trace.contains("\"epoch\""), "membership instants must carry the epoch");
}

/// The membership lifecycle flows through the analyzer: the trace's
/// `pe-dead`/`evict`/`view-change`/`rejoin` instants land in the
/// report's `membership` section with the view-convergence-time metric
/// at exactly the detection bound, the section round-trips through the
/// report JSON, and zeroing the candidate's rejoins trips the diff's
/// membership gate (`gdrprof` exit code 7).
#[test]
fn gdrprof_membership_section_reports_convergence_and_gates_diff() {
    use gdr_shmem::obs_analyze;

    let plan = FaultPlan::default().with_seed(5).with_crash(1, CRASH_AT_NS, REJOIN_NS);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Spans),
    );
    m.run(move |pe| {
        let dst = pe.shmalloc(4096, Domain::Host);
        let src = pe.malloc_host(4096);
        if pe.my_pe() != 0 {
            return;
        }
        for _ in 0..40 {
            let _ = pe.try_putmem(dst, src, 4096, 1);
            pe.compute(SimDuration::from_us(20));
        }
    });

    let tr = obs_analyze::check_paths(m.obs()).expect("trace paths agree");
    let lifecycle = ["pe-dead", "evict", "view-change", "rejoin"];
    let instants = tr.events().filter(|(_, e)| lifecycle.contains(&e.name)).count();
    assert_eq!(instants, 4, "one full lifecycle = 4 instants");
    let rep = obs_analyze::analyze(&tr);
    let ms = &rep.membership;
    assert_eq!((ms.pe_dead, ms.evicts, ms.view_changes, ms.rejoins), (1, 1, 1, 1));
    // pe-dead lands at the crash instant, evict at detection: the
    // convergence metric is exactly the detection bound
    assert_eq!(ms.convergence_us, DETECT_BOUND_NS as f64 / 1000.0);
    assert!(rep.text().contains("membership:"), "text report lacks the section");

    // the section survives the report JSON round-trip
    let rt = obs_analyze::Report::from_json_str(&rep.to_json()).expect("report round-trips");
    assert_eq!(rt.membership, rep.membership);

    // a candidate that stopped rejoining (more unrecovered evictions)
    // trips the membership gate — and only that gate
    let mut worse = rep.clone();
    worse.membership.rejoins = 0;
    let d = obs_analyze::diff(&rep, &worse, 10.0);
    assert_eq!(d.regressions_in(7), 1);
    assert_eq!(d.regressions_in(4), 0);
    // identical sides are clean
    let clean = obs_analyze::diff(&rep, &rep, 10.0);
    assert_eq!(clean.regressions(), 0);
}

const SPLIT_AT_NS: u64 = 120_000;

/// An 8-PE reduce with one PE split off behind a quorum fence for the
/// rest of the run: the fenced minority fails typed `Partitioned`
/// naming itself and the fence epoch, while the majority re-forms and
/// its final result is byte-identical to a 7-PE reference cluster that
/// never contained the minority PE.
#[test]
fn quorum_fenced_reduce_matches_smaller_reference_cluster() {
    // PE 7 is alone on the minority side; the split outlives the run
    let plan = FaultPlan::default()
        .with_seed(3)
        .with_partition_split(1 << 7, SPLIT_AT_NS, 2_000_000);
    let fenced = reduce_rounds(ClusterSpec::wilkes(8, 1), plan, 24);
    let reference = reduce_rounds(ClusterSpec::wilkes(7, 1), FaultPlan::default(), 24);

    // the minority side lacks quorum: its own collective fails typed
    // with the fence epoch (this is what forbids split-brain writes)
    match &fenced[7] {
        Err(TransferError::Partitioned { pe: 7, epoch: 1 }) => {}
        other => panic!("minority PE must observe its own fence, got {other:?}"),
    }
    // every majority PE finished all rounds and holds the 7-PE sum
    let want = reference[0].as_ref().expect("reference cluster is unfaulted");
    for (peid, r) in fenced.iter().take(7).enumerate() {
        let got = r.as_ref().unwrap_or_else(|e| {
            panic!("majority pe{peid} must complete the fenced reduce: {e}")
        });
        assert_eq!(got, want, "majority pe{peid} diverged from the 7-PE reference");
    }
    // sanity: the fenced sum actually lost PE 7's contribution
    assert_eq!(want[0], (1..=7).sum::<u64>());
}

/// The heal merges the views back: a mid-fence reduce splits the
/// cluster (minority typed `Partitioned`, majority on the 7-PE sum),
/// and after the merge a post-heal reduce over all eight PEs is
/// byte-identical to an unfaulted full cluster.
#[test]
fn heal_merges_views_and_post_heal_collectives_match_full_cluster() {
    // fence at 270us, heal at 550us; the epilogue barriers past both
    let body = |pe: &mut gdr_shmem::shmem::Pe| {
        let me = pe.my_pe() as u64;
        let src = pe.shmalloc_slice::<u64>(4, Domain::Host);
        let dst = pe.shmalloc_slice::<u64>(4, Domain::Host);
        pe.try_barrier_all().expect("pre-split barrier");
        pe.compute(SimDuration::from_ns(300_000)); // inside the fence window
        pe.write_sym(&src, &[me + 1, 100, me * 10, 7]);
        let mid = pe.try_reduce(&src, &dst, RedOp::Sum, 0).map(|()| pe.read_sym(&dst));
        pe.compute(SimDuration::from_ns(400_000)); // past the heal instant
        pe.try_barrier_all().expect("post-heal barrier spans the merge");
        pe.write_sym(&src, &[me + 1, 200, me * 10, 9]);
        pe.try_reduce(&src, &dst, RedOp::Sum, 0).expect("post-heal reduce");
        (mid, pe.read_sym(&dst))
    };
    let plan = FaultPlan::default()
        .with_seed(3)
        .with_partition_split(1 << 7, SPLIT_AT_NS, 500_000);
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(8, 1),
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Counters),
    );
    let healed = m.run(move |pe| body(pe));
    let r = ShmemMachine::build(
        ClusterSpec::wilkes(8, 1),
        RuntimeConfig::tuned(Design::EnhancedGdr).with_obs(ObsLevel::Counters),
    );
    let reference = r.run(move |pe| body(pe));

    // mid-fence: minority typed, majority holds the 7-PE sum
    match &healed[7].0 {
        Err(TransferError::Partitioned { pe: 7, epoch: 1 }) => {}
        other => panic!("minority mid-fence reduce must fail typed, got {other:?}"),
    }
    let majority_mid =
        healed[0].0.as_ref().expect("majority mid-fence reduce succeeds on the quorum side");
    assert_eq!(majority_mid[0], (1..=7).sum::<u64>());
    for (peid, out) in healed.iter().take(7).enumerate() {
        assert_eq!(
            out.0.as_ref().expect("majority mid reduce"),
            majority_mid,
            "majority pe{peid} mid-fence reduce diverged"
        );
    }
    // post-heal: every PE (minority included) matches the unfaulted
    // full cluster byte for byte
    for (peid, (out, want)) in healed.iter().zip(&reference).enumerate() {
        assert_eq!(out.1, want.1, "pe{peid} post-heal reduce diverged from full cluster");
    }
    assert_eq!(reference[0].1[0], (1..=8).sum::<u64>());
}

/// `try_broadcast` from `root` on a 2-PE job, issued once `plan`'s
/// crash or split (at `CRASH_AT_NS` = `SPLIT_AT_NS`) has been detected.
fn pair_broadcast_after_detection(plan: FaultPlan, root: usize) -> Vec<Result<(), TransferError>> {
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Counters),
    );
    m.run(move |pe| {
        let data = pe.shmalloc(4096, Domain::Host);
        pe.try_barrier_all()?;
        pe.compute(SimDuration::from_ns(CRASH_AT_NS + DETECT_BOUND_NS + 10_000));
        pe.try_broadcast(data, 4096, root)
    })
}

/// A lone survivor re-forms alone, but it cannot source a dead root's
/// payload: the broadcast fails typed — `PeerDead` at the eviction
/// epoch for a crashed root, `Partitioned` at the fence epoch for a
/// fenced one — instead of returning `Ok` over garbage. A root that is
/// itself the lone survivor still succeeds.
#[test]
fn lone_survivor_broadcast_needs_a_reachable_root() {
    let crash = FaultPlan::default().with_seed(3).with_crash(0, CRASH_AT_NS, 0);
    let out = pair_broadcast_after_detection(crash, 0);
    assert!(matches!(out[0], Err(TransferError::PeerDead { pe: 0, .. })), "{:?}", out[0]);
    assert!(matches!(out[1], Err(TransferError::PeerDead { pe: 0, epoch: 1 })), "{:?}", out[1]);

    // a 2-PE tie keeps PE 0 on the quorum side, so the fenced root is PE 1
    let split =
        FaultPlan::default().with_seed(3).with_partition_split(0b10, SPLIT_AT_NS, 2_000_000);
    let out = pair_broadcast_after_detection(split, 1);
    assert!(matches!(out[0], Err(TransferError::Partitioned { pe: 1, epoch: 1 })), "{:?}", out[0]);
    assert!(matches!(out[1], Err(TransferError::Partitioned { pe: 1, epoch: 1 })), "{:?}", out[1]);

    let out = pair_broadcast_after_detection(split, 0);
    assert!(out[0].is_ok(), "surviving root: {:?}", out[0]);
}

/// Quorum-fence instants are exact functions of the plan: the fence
/// lands at split start + `DETECT_BOUND_NS` at epoch 1, the heal at
/// split end + `HEAL_BOUND_NS` at epoch 2, the view drops exactly the
/// minority in between, and a blip split (shorter than the detection
/// bound) never fences at all.
#[test]
fn fence_and_heal_instants_are_exact() {
    let plan =
        FaultPlan::default().with_seed(5).with_partition_split(0b10, SPLIT_AT_NS, 500_000);
    let ms = gdr_shmem::shmem::Membership::new(&plan, 2);
    assert!(ms.armed());
    let s = ms.split_schedules()[0];
    assert_eq!(s.minority, 0b10);
    assert_eq!(s.fence_ns, SPLIT_AT_NS + DETECT_BOUND_NS);
    assert_eq!(s.heal_ns, 500_000 + HEAL_BOUND_NS);
    assert_eq!((s.fence_epoch, s.heal_epoch), (1, 2));
    // full view before the fence, minority dropped while fenced,
    // merged back (higher epoch) at the heal
    let before = ms.view_at(s.fence_ns - 1);
    assert_eq!(before.epoch, 0);
    assert!(before.is_member(1));
    let fenced = ms.view_at(s.fence_ns);
    assert_eq!(fenced.epoch, 1);
    assert!(fenced.is_member(0) && !fenced.is_member(1));
    let healed = ms.view_at(s.heal_ns);
    assert_eq!(healed.epoch, 2);
    assert!(healed.is_member(0) && healed.is_member(1));
    // a blip split never fences: no schedule, no view change
    let blip = FaultPlan::default()
        .with_partition_split(0b10, SPLIT_AT_NS, SPLIT_AT_NS + DETECT_BOUND_NS - 1);
    let bms = gdr_shmem::shmem::Membership::new(&blip, 2);
    assert!(bms.split_schedules().is_empty());
    assert_eq!(bms.view_at(SPLIT_AT_NS + DETECT_BOUND_NS).epoch, 0);
}

/// The partition lifecycle flows through the analyzer: a put stream
/// across a fenced split sees ok → partitioned → ok phases, the
/// trace's `partition`/`fence`/`heal` instants land in the report's
/// `partitions` section with the heal-convergence metric at exactly
/// (heal − fence), the section round-trips through the report JSON,
/// and slowing the candidate's heal trips the diff's partition gate
/// (`gdrprof` exit code 8) — and only that gate.
#[test]
fn gdrprof_partitions_section_reports_heal_convergence_and_gates_diff() {
    use gdr_shmem::obs_analyze;

    let plan =
        FaultPlan::default().with_seed(5).with_partition_split(0b10, SPLIT_AT_NS, 500_000);
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr)
            .with_faults(plan)
            .with_obs(ObsLevel::Spans),
    );
    let outs = m.run(move |pe| {
        let dst = pe.shmalloc(4096, Domain::Host);
        let src = pe.malloc_host(4096);
        if pe.my_pe() != 0 {
            return Vec::new();
        }
        let mut outcomes = Vec::new();
        for _ in 0..40 {
            outcomes.push(match pe.try_putmem(dst, src, 4096, 1) {
                Ok(()) => "ok",
                Err(TransferError::Partitioned { pe: 1, .. }) => "fenced",
                Err(e) => panic!("unexpected error class: {e}"),
            });
            pe.compute(SimDuration::from_us(20));
        }
        outcomes
    });
    let stream = outs[0].join(",");
    assert!(stream.starts_with("ok"), "puts before the split must land: {stream}");
    assert!(stream.contains("fenced"), "the fence window must fail typed: {stream}");
    assert!(stream.ends_with("ok"), "puts after the heal must land: {stream}");
    assert!(!stream.contains("fenced,ok,fenced"), "the fence window must be contiguous: {stream}");

    let tr = obs_analyze::check_paths(m.obs()).expect("trace paths agree");
    let lifecycle = ["partition", "fence", "heal"];
    let instants = tr.events().filter(|(_, e)| lifecycle.contains(&e.name)).count();
    assert_eq!(instants, 3, "one split lifecycle = partition + fence + heal");
    let rep = obs_analyze::analyze(&tr);
    let p = &rep.partitions;
    assert_eq!((p.partitions, p.fences, p.heals, p.last_epoch), (1, 1, 1, 2));
    // fence at start + DETECT_BOUND, heal at end + HEAL_BOUND: the
    // worst observed heal convergence is exactly their distance
    let want_us = (500_000 + HEAL_BOUND_NS - SPLIT_AT_NS - DETECT_BOUND_NS) as f64 / 1000.0;
    assert_eq!(p.heal_convergence_us, want_us);
    assert!(rep.text().contains("partitions:"), "text report lacks the section");

    // the section survives the report JSON round-trip
    let rt = obs_analyze::Report::from_json_str(&rep.to_json()).expect("report round-trips");
    assert_eq!(rt.partitions, rep.partitions);

    // a candidate whose heal converges slower trips the partition gate
    // — and only that gate
    let mut worse = rep.clone();
    worse.partitions.heal_convergence_us *= 2.0;
    let d = obs_analyze::diff(&rep, &worse, 10.0);
    assert_eq!(d.regressions_in(8), 1);
    assert_eq!(d.regressions_in(7), 0);
    assert_eq!(d.regressions_in(4), 0);
    // identical sides are clean
    let clean = obs_analyze::diff(&rep, &rep, 10.0);
    assert_eq!(clean.regressions(), 0);
}

/// Membership detection is bounded: survivors observe the eviction at
/// exactly `at_ns + DETECT_BOUND_NS` in virtual time, independent of
/// when they first touch the dead peer.
#[test]
fn eviction_epoch_and_detection_bound_are_exact() {
    let plan = FaultPlan::default().with_seed(5).with_crash(1, CRASH_AT_NS, 0);
    let ms = gdr_shmem::shmem::Membership::new(&plan, 2);
    assert!(ms.armed());
    assert_eq!(ms.detect_ns(1), Some(CRASH_AT_NS + DETECT_BOUND_NS));
    assert_eq!(ms.eviction_epoch(1), Some(1));
    let v = ms.view_at(CRASH_AT_NS + DETECT_BOUND_NS);
    assert_eq!(v.epoch, 1);
    assert!(!v.is_member(1));
    assert!(v.is_member(0));
    // one tick earlier the view is still full
    let before = ms.view_at(CRASH_AT_NS + DETECT_BOUND_NS - 1);
    assert_eq!(before.epoch, 0);
    assert!(before.is_member(1));
}
