//! Virtual-time membership: fail-stop detection, epoch-numbered views,
//! and PE rejoin — derived entirely from the fault plan's crash
//! schedule.
//!
//! The detection protocol piggybacks heartbeats on the sync-flag
//! traffic every PE already produces: each flag write refreshes the
//! writer's lease, and a crashed PE stops writing at its `at_ns`, so
//! survivors observe the lease expire after [`MISSED_BEATS`] heartbeat
//! periods — the detection bound is
//!
//! ```text
//! DETECT_BOUND_NS = HEARTBEAT_PERIOD_NS × MISSED_BEATS
//! ```
//!
//! Because lease expiry is a deterministic virtual-time instant, the
//! membership view is a *pure function* of `(fault plan, now)`: every
//! survivor computes the same epoch-numbered view with no extra
//! messages, which is exactly what the chaos suite's view-convergence
//! oracle checks end to end. An op against a dead peer blocks until the
//! detection instant (the caller cannot know the peer is dead before
//! its lease expires) and then fails as
//! [`crate::TransferError::PeerDead`] carrying the eviction epoch.
//!
//! Two liveness notions are deliberately distinct:
//!
//! - **alive** — point-to-point reachability. A rejoined PE becomes
//!   alive again at its rejoin instant (after symmetric-heap
//!   re-registration and a breaker warm-up probe).
//! - **collective member** — participation in barrier/bcast/reduce/
//!   fcollect/alltoall. The member set only shrinks within a run: a
//!   rejoined PE is *not* re-admitted to collectives, because its
//!   generation counters are behind the survivors' and re-admitting it
//!   mid-generation would deadlock the `>=`-predicate flag waits.
//!
//! A crash whose rejoin lands before the lease would have expired is a
//! transparent blip: no survivor ever detects it, so no eviction or
//! epoch bump occurs (ops issued against the peer inside the blip
//! simply block until the rejoin instant).
//!
//! ## Network partitions and quorum fencing
//!
//! A `partition=split:...` fault severs every link between the masked
//! PEs and the rest for its window. Lease expiry detects the split
//! exactly [`DETECT_BOUND_NS`] after it starts (splits shorter than the
//! bound are transparent blips, like short crashes), at which point the
//! view **fences**: the side holding quorum — strictly more than half
//! the PEs, ties broken toward the side containing PE 0 — keeps
//! operating at a bumped epoch with the minority PEs removed from
//! `alive`/`members`, while every op issued *by* a minority PE (or by a
//! majority PE *at* a minority PE) fails as
//! [`crate::TransferError::Partitioned`] carrying the fence epoch. The
//! minority side performs no writes while fenced, so there is no
//! split-brain state to reconcile. [`HEAL_BOUND_NS`] (one heartbeat)
//! after the window ends, the views **heal**: the minority PEs rejoin
//! `alive` *and* `members` at a higher epoch — unlike crash rejoin,
//! which never re-admits a PE to collectives, a healed minority PE
//! wrote nothing while fenced, so its sync-flag generation counters are
//! simply behind and the monotonic `>=` wait predicates reconcile them
//! on the next collective round. Quorum is computed over the static PE
//! set; combining a split and a crash of the same PE in one plan is
//! resolved by never re-admitting an evicted PE at heal.
//!
//! A `partition=cut:...` fault never reaches this layer's views: only
//! the direct/GDR fabric of one ordered pair is severed, the proxy and
//! host-staged paths stay reachable, and protocol selection reroutes
//! (see `crates/core/src/protocols.rs`).

use faults::{FaultPlan, PartitionKind, MAX_CRASHES, MAX_PARTITIONS};

/// Virtual-time heartbeat period of the piggybacked lease protocol.
pub const HEARTBEAT_PERIOD_NS: u64 = 50_000;
/// Consecutive missed heartbeats that expire a lease.
pub const MISSED_BEATS: u64 = 3;
/// Bounded detection latency: a crash at `t` is detected by every
/// survivor at exactly `t + DETECT_BOUND_NS`.
pub const DETECT_BOUND_NS: u64 = HEARTBEAT_PERIOD_NS * MISSED_BEATS;

/// Virtual-time cost of re-registering a rejoining PE's symmetric heaps
/// with the fabric (descriptor re-exchange + MR re-registration),
/// charged to the first op that touches the rejoined peer.
pub const REJOIN_REREG_NS: u64 = 25_000;

/// Duration of the warm-up probe a rejoined peer's breaker demands
/// before regular traffic resumes (one modeled probe round-trip).
pub const REJOIN_PROBE_NS: u64 = 5_000;

/// Delay between a split window ending (links physically restored) and
/// the fenced views merging back together: one heartbeat round for the
/// minority's leases to refresh on every majority PE. Ops across the
/// old split keep failing inside this interval — the gap is the
/// heal-convergence metric gdrprof reports.
pub const HEAL_BOUND_NS: u64 = HEARTBEAT_PERIOD_NS;

/// The view mask of every PE of an `n_pes` job (all 64 bits past 64
/// PEs, where no plan with membership faults runs).
fn all_pes(n_pes: u32) -> u64 {
    if n_pes >= 64 {
        u64::MAX
    } else {
        (1u64 << n_pes) - 1
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EventKind {
    Evict,
    Rejoin,
    /// Quorum fence applied: the masked minority leaves `alive`/`members`.
    Fence,
    /// Fenced views merged: the masked minority rejoins `alive`/`members`.
    Heal,
}

/// One membership transition, at a deterministic virtual instant.
/// `mask` is the minority-side bitmask for fence/heal transitions and
/// 0 for crash transitions (which carry the single `pe`).
#[derive(Clone, Copy, Debug)]
struct Event {
    ts_ns: u64,
    pe: u32,
    kind: EventKind,
    mask: u64,
}

/// The compiled schedule of one split partition: deterministic fence
/// and heal instants with the epochs they stamp.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitSchedule {
    /// Bitmask of the PEs on the non-quorum side.
    pub minority: u64,
    /// Instant the quorum fence lands (split start + detection bound).
    pub fence_ns: u64,
    /// Instant the views merge back (split end + [`HEAL_BOUND_NS`]).
    pub heal_ns: u64,
    /// View epoch in force right after the fence was applied — the
    /// epoch a [`crate::TransferError::Partitioned`] carries.
    pub fence_epoch: u64,
    /// View epoch in force right after the heal merge.
    pub heal_epoch: u64,
}

/// How a partition affects one op, decided at issue time (see
/// [`Membership::partition_outcome`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionOutcome {
    /// The pair is severed by a split too short for any lease to
    /// expire (a transparent blip): the op blocks until the window
    /// ends, then proceeds normally.
    BlockUntil(u64),
    /// The op fails as `Partitioned { pe, epoch }` at `at_ns` (the
    /// fence instant; already in the past once the fence is up — then
    /// it fails immediately).
    FailAt { at_ns: u64, pe: u32, epoch: u64 },
}

/// The epoch-numbered membership view at one virtual instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct View {
    /// Number of membership transitions applied so far. Starts at 0;
    /// every eviction and every rejoin bumps it.
    pub epoch: u64,
    /// Bitmask of PEs reachable for point-to-point ops.
    pub alive: u64,
    /// Bitmask of collective members (monotonically shrinking).
    pub members: u64,
}

impl View {
    pub fn is_member(&self, pe: u32) -> bool {
        self.members & (1u64 << pe) != 0
    }

    /// Collective member list, ascending PE order.
    pub fn member_list(&self, n_pes: usize) -> Vec<usize> {
        (0..n_pes).filter(|&p| self.is_member(p as u32)).collect()
    }
}

/// The membership schedule of one job: the crash and split-partition
/// plan compiled into a sorted list of evict/rejoin/fence/heal events.
/// `Copy`, no heap — it lives inside [`crate::ShmemMachine`] for the
/// whole run.
#[derive(Clone, Copy, Debug)]
pub struct Membership {
    n_pes: u32,
    plan: FaultPlan,
    events: [Event; 2 * MAX_CRASHES + 2 * MAX_PARTITIONS],
    n_events: usize,
    splits: [SplitSchedule; MAX_PARTITIONS],
    n_splits: usize,
}

impl Membership {
    /// Compile `plan`'s crash and split schedule for a job of `n_pes`
    /// PEs. The plan must pass [`FaultPlan::check`] for that job (the
    /// machine build checks it), which keeps every PE it names inside
    /// the 64-bit view masks.
    pub fn new(plan: &FaultPlan, n_pes: usize) -> Membership {
        let none = Event { ts_ns: 0, pe: 0, kind: EventKind::Evict, mask: 0 };
        let mut ev = [none; 2 * MAX_CRASHES + 2 * MAX_PARTITIONS];
        let mut n = 0;
        for c in &plan.crashes {
            let detect = c.at_ns + DETECT_BOUND_NS;
            if c.rejoin_ns != 0 && c.rejoin_ns <= detect {
                // transparent blip: back before any lease expired
                continue;
            }
            ev[n] = Event { ts_ns: detect, pe: c.pe, kind: EventKind::Evict, mask: 0 };
            n += 1;
            if c.rejoin_ns != 0 {
                ev[n] = Event { ts_ns: c.rejoin_ns, pe: c.pe, kind: EventKind::Rejoin, mask: 0 };
                n += 1;
            }
        }
        let full = all_pes(n_pes as u32);
        let mut raw_splits = [(0u64, 0u64, 0u64); MAX_PARTITIONS];
        let mut n_splits = 0;
        for p in &plan.partitions {
            if p.kind != PartitionKind::Split {
                continue; // cuts never reach the view layer
            }
            if p.end_ns - p.start_ns < DETECT_BOUND_NS {
                // transparent blip: healed before any lease expired
                continue;
            }
            let minority = Self::minority_of(p.mask, full);
            let fence = p.start_ns + DETECT_BOUND_NS;
            let heal = p.end_ns + HEAL_BOUND_NS;
            let rep = minority.trailing_zeros();
            ev[n] = Event { ts_ns: fence, pe: rep, kind: EventKind::Fence, mask: minority };
            n += 1;
            ev[n] = Event { ts_ns: heal, pe: rep, kind: EventKind::Heal, mask: minority };
            n += 1;
            raw_splits[n_splits] = (minority, fence, heal);
            n_splits += 1;
        }
        ev[..n].sort_by_key(|e| (e.ts_ns, e.pe));
        let mut ms = Membership {
            n_pes: n_pes as u32,
            plan: *plan,
            events: ev,
            n_events: n,
            splits: [SplitSchedule::default(); MAX_PARTITIONS],
            n_splits,
        };
        // stamp each schedule with the epochs its transitions land at
        for (i, &(minority, fence, heal)) in raw_splits[..n_splits].iter().enumerate() {
            ms.splits[i] = SplitSchedule {
                minority,
                fence_ns: fence,
                heal_ns: heal,
                fence_epoch: ms.epoch_at(fence),
                heal_epoch: ms.epoch_at(heal),
            };
        }
        ms
    }

    /// Which side of a two-sided split lacks quorum. Quorum is strictly
    /// more than half of the static PE set; an exact tie goes to the
    /// side containing PE 0 (deterministic, so every PE agrees without
    /// messages). Returns the minority bitmask. A checked plan's split
    /// mask ([`FaultPlan::check`]) leaves PEs of `full` on both sides.
    fn minority_of(split_mask: u64, full: u64) -> u64 {
        let (a, b) = (split_mask, full & !split_mask);
        match a.count_ones().cmp(&b.count_ones()) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => {
                if a & 1 != 0 {
                    b // PE 0 is on side a: a holds quorum
                } else {
                    a
                }
            }
        }
    }

    /// Cheap hot-path gate: false means no crash and no partition is
    /// scheduled and every membership query short-circuits (unfaulted
    /// runs must not draw).
    pub fn armed(&self) -> bool {
        !self.plan.crashes.is_empty() || !self.plan.partitions.is_empty()
    }

    /// Compiled split-partition schedules (fence/heal instants and
    /// epochs), in plan order.
    pub fn split_schedules(&self) -> &[SplitSchedule] {
        &self.splits[..self.n_splits]
    }

    /// How a point-to-point op from `me` to `peer`, issued at `now_ns`,
    /// is affected by split partitions. `None` = unaffected: no split
    /// severs the pair and neither end is inside a quorum fence.
    ///
    /// While a fence is up (`fence_ns <= now < heal_ns`), *every* op
    /// issued by a minority PE fails (the side lacks quorum — this is
    /// what prevents split-brain writes, even minority-internal ones),
    /// and a majority op at a minority peer fails too (unreachable).
    /// The reported `pe` is the fenced end: the caller itself when the
    /// caller is minority, else the peer.
    pub fn partition_outcome(&self, me: u32, peer: u32, now_ns: u64) -> Option<PartitionOutcome> {
        if self.plan.partitions.is_empty() {
            return None;
        }
        for s in self.split_schedules() {
            if now_ns >= s.fence_ns && now_ns < s.heal_ns {
                let fenced_pe = if s.minority & (1u64 << me) != 0 {
                    me
                } else if s.minority & (1u64 << peer) != 0 {
                    peer
                } else {
                    continue;
                };
                return Some(PartitionOutcome::FailAt {
                    at_ns: now_ns,
                    pe: fenced_pe,
                    epoch: s.fence_epoch,
                });
            }
        }
        // not fenced (yet): is the pair physically severed by a split
        // window right now? The op cannot complete before detection —
        // it blocks until the fence lands (or, for a blip, until the
        // window ends) exactly like an op at an undetected-dead peer.
        let p = self.plan.split_at(now_ns)?;
        if (p.mask >> me) & 1 == (p.mask >> peer) & 1 {
            return None; // same side: unaffected pre-fence
        }
        if p.end_ns - p.start_ns < DETECT_BOUND_NS {
            return Some(PartitionOutcome::BlockUntil(p.end_ns));
        }
        let fence = p.start_ns + DETECT_BOUND_NS;
        let full = all_pes(self.n_pes);
        let minority = Self::minority_of(p.mask, full);
        let fenced_pe = if minority & (1u64 << me) != 0 { me } else { peer };
        Some(PartitionOutcome::FailAt { at_ns: fence, pe: fenced_pe, epoch: self.epoch_at(fence) })
    }

    /// The fence epoch a minority-side caller is stamped with at
    /// `now_ns`, if a fence covering `pe` is up.
    pub fn fenced_minority_epoch(&self, pe: u32, now_ns: u64) -> Option<u64> {
        self.split_schedules()
            .iter()
            .find(|s| now_ns >= s.fence_ns && now_ns < s.heal_ns && s.minority & (1u64 << pe) != 0)
            .map(|s| s.fence_epoch)
    }

    /// Is `pe` physically fail-stopped at `now_ns` (its hardware is
    /// dead, whether or not survivors have detected it yet)?
    pub fn crashed(&self, pe: u32, now_ns: u64) -> bool {
        self.plan.crashed(pe, now_ns)
    }

    /// The deterministic instant every survivor detects `pe`'s death
    /// (lease expiry), if `pe` has a detectable crash scheduled.
    pub fn detect_ns(&self, pe: u32) -> Option<u64> {
        self.events()
            .iter()
            .find(|e| e.pe == pe && e.kind == EventKind::Evict)
            .map(|e| e.ts_ns)
    }

    /// The rejoin instant of `pe`'s detectable crash, if it rejoins.
    pub fn rejoin_ns(&self, pe: u32) -> Option<u64> {
        self.events()
            .iter()
            .find(|e| e.pe == pe && e.kind == EventKind::Rejoin)
            .map(|e| e.ts_ns)
    }

    /// The view epoch in force right after `pe`'s eviction was applied
    /// — the epoch a [`crate::TransferError::PeerDead`] carries.
    pub fn eviction_epoch(&self, pe: u32) -> Option<u64> {
        self.events()
            .iter()
            .position(|e| e.pe == pe && e.kind == EventKind::Evict)
            .map(|i| i as u64 + 1)
    }

    /// The epoch at `now_ns`: the number of transitions applied.
    pub fn epoch_at(&self, now_ns: u64) -> u64 {
        self.events().iter().take_while(|e| e.ts_ns <= now_ns).count() as u64
    }

    /// The full (quorum-side) view at `now_ns`. While a fence is up
    /// this is the majority's view — the authoritative one; minority
    /// PEs don't consult views while fenced, they fail ops.
    pub fn view_at(&self, now_ns: u64) -> View {
        let full = all_pes(self.n_pes);
        let mut v = View { epoch: 0, alive: full, members: full };
        // crash bookkeeping so a heal never resurrects an evicted PE:
        // `dead` tracks currently-crashed PEs, `evicted` every PE that
        // ever left collectives through a crash (membership via crash
        // is monotonic — rejoin and heal only restore `alive`).
        let (mut dead, mut evicted) = (0u64, 0u64);
        for e in self.events().iter().take_while(|e| e.ts_ns <= now_ns) {
            match e.kind {
                EventKind::Evict => {
                    dead |= 1u64 << e.pe;
                    evicted |= 1u64 << e.pe;
                    v.alive &= !(1u64 << e.pe);
                    v.members &= !(1u64 << e.pe);
                }
                EventKind::Rejoin => {
                    dead &= !(1u64 << e.pe);
                    v.alive |= 1u64 << e.pe;
                }
                EventKind::Fence => {
                    v.alive &= !e.mask;
                    v.members &= !e.mask;
                }
                EventKind::Heal => {
                    // a heal fully re-admits the minority — its PEs
                    // wrote nothing while fenced, so unlike a crash
                    // rejoin they return to collectives too
                    v.alive |= e.mask & !dead;
                    v.members |= e.mask & !evicted;
                }
            }
            v.epoch += 1;
        }
        v
    }

    fn events(&self) -> &[Event] {
        &self.events[..self.n_events]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `pe` is reachable for point-to-point ops in `v`.
    fn alive(v: &View, pe: u32) -> bool {
        v.alive & (1u64 << pe) != 0
    }

    fn plan() -> FaultPlan {
        FaultPlan::default()
            .with_crash(1, 100_000, 800_000)
            .with_crash(3, 200_000, 0)
    }

    #[test]
    fn views_are_pure_and_epoch_numbered() {
        let ms = Membership::new(&plan(), 8);
        assert!(ms.armed());
        // before anything: full view, epoch 0
        let v0 = ms.view_at(0);
        assert_eq!(v0, View { epoch: 0, alive: 0xff, members: 0xff });
        // pe1 crashed but undetected: still in the view
        let v1 = ms.view_at(100_000 + DETECT_BOUND_NS - 1);
        assert_eq!(v1.epoch, 0);
        assert!(alive(&v1, 1));
        assert!(ms.crashed(1, 100_000), "physically dead before detection");
        // detection evicts pe1 at exactly crash + bound
        assert_eq!(ms.detect_ns(1), Some(100_000 + DETECT_BOUND_NS));
        let v2 = ms.view_at(100_000 + DETECT_BOUND_NS);
        assert_eq!(v2.epoch, 1);
        assert!(!alive(&v2, 1) && !v2.is_member(1));
        assert_eq!(ms.eviction_epoch(1), Some(1));
        // pe3 evicted next, never rejoins
        let v3 = ms.view_at(200_000 + DETECT_BOUND_NS);
        assert_eq!(v3.epoch, 2);
        assert_eq!(v3.member_list(8), vec![0, 2, 4, 5, 6, 7]);
        assert_eq!(ms.rejoin_ns(3), None);
        // pe1 rejoins: alive again, but never re-admitted to collectives
        let v4 = ms.view_at(800_000);
        assert_eq!(v4.epoch, 3);
        assert!(alive(&v4, 1));
        assert!(!v4.is_member(1), "rejoined PEs stay out of collectives");
        assert!(!ms.crashed(1, 800_000));
        assert_eq!(ms.epoch_at(u64::MAX), 3);
    }

    #[test]
    fn transparent_blip_never_reaches_the_view() {
        // rejoin lands before the lease expires: no eviction, no epoch
        let p = FaultPlan::default().with_crash(0, 50_000, 50_000 + DETECT_BOUND_NS);
        let ms = Membership::new(&p, 4);
        assert_eq!(ms.epoch_at(u64::MAX), 0);
        assert_eq!(ms.detect_ns(0), None);
        assert!(ms.crashed(0, 60_000), "still physically dead inside the blip");
        assert_eq!(ms.view_at(u64::MAX), View { epoch: 0, alive: 0xf, members: 0xf });
    }

    #[test]
    fn unfaulted_membership_is_inert() {
        let ms = Membership::new(&FaultPlan::default(), 16);
        assert!(!ms.armed());
        assert_eq!(ms.epoch_at(u64::MAX), 0);
        assert_eq!(ms.view_at(12345).member_list(16).len(), 16);
    }

    #[test]
    fn an_unfaulted_job_past_64_pes_compiles_an_inert_schedule() {
        // the 64-bit view masks bound faulted jobs only
        assert!(!Membership::new(&FaultPlan::default(), 66).armed());
    }

    #[test]
    fn split_fences_the_minority_and_heals_at_a_higher_epoch() {
        // PEs 1,2 severed from the other six over [100k, 400k)
        let p = FaultPlan::default().with_partition_split(0b110, 100_000, 400_000);
        let ms = Membership::new(&p, 8);
        assert!(ms.armed(), "a partition alone arms membership");
        let s = ms.split_schedules();
        assert_eq!(s.len(), 1);
        assert_eq!(
            s[0],
            SplitSchedule {
                minority: 0b110,
                fence_ns: 100_000 + DETECT_BOUND_NS,
                heal_ns: 400_000 + HEAL_BOUND_NS,
                fence_epoch: 1,
                heal_epoch: 2,
            }
        );
        // undetected: full view
        assert_eq!(ms.view_at(s[0].fence_ns - 1), View { epoch: 0, alive: 0xff, members: 0xff });
        // fenced: minority out of alive AND members, epoch bumped
        let fenced = ms.view_at(s[0].fence_ns);
        assert_eq!(fenced, View { epoch: 1, alive: 0b1111_1001, members: 0b1111_1001 });
        assert_eq!(fenced.member_list(8), vec![0, 3, 4, 5, 6, 7]);
        // healed: minority fully re-admitted (unlike crash rejoin) at a
        // higher epoch
        assert_eq!(ms.view_at(s[0].heal_ns - 1).epoch, 1);
        assert_eq!(ms.view_at(s[0].heal_ns), View { epoch: 2, alive: 0xff, members: 0xff });
    }

    #[test]
    fn partition_outcome_covers_every_op_phase() {
        let p = FaultPlan::default().with_partition_split(0b110, 100_000, 400_000);
        let ms = Membership::new(&p, 8);
        let fence = 100_000 + DETECT_BOUND_NS;
        // before the window: unaffected
        assert_eq!(ms.partition_outcome(0, 1, 50_000), None);
        // severed but undetected: fail scheduled for the fence instant,
        // reporting the minority end of the pair
        assert_eq!(
            ms.partition_outcome(0, 1, 150_000),
            Some(PartitionOutcome::FailAt { at_ns: fence, pe: 1, epoch: 1 })
        );
        assert_eq!(
            ms.partition_outcome(1, 0, 150_000),
            Some(PartitionOutcome::FailAt { at_ns: fence, pe: 1, epoch: 1 })
        );
        // same side pre-fence: unaffected
        assert_eq!(ms.partition_outcome(1, 2, 150_000), None);
        assert_eq!(ms.partition_outcome(0, 3, 150_000), None);
        // fence up: majority→minority fails naming the peer...
        assert_eq!(
            ms.partition_outcome(0, 2, fence),
            Some(PartitionOutcome::FailAt { at_ns: fence, pe: 2, epoch: 1 })
        );
        // ...and the minority fails everything it issues, naming itself
        // (even minority-internal ops: the side lacks quorum)
        assert_eq!(
            ms.partition_outcome(1, 2, fence + 1),
            Some(PartitionOutcome::FailAt { at_ns: fence + 1, pe: 1, epoch: 1 })
        );
        assert_eq!(ms.fenced_minority_epoch(1, fence), Some(1));
        assert_eq!(ms.fenced_minority_epoch(0, fence), None);
        // links restored but views not yet merged: still fenced
        assert!(ms.partition_outcome(0, 1, 400_000 + HEAL_BOUND_NS - 1).is_some());
        // healed: unaffected again
        assert_eq!(ms.partition_outcome(0, 1, 400_000 + HEAL_BOUND_NS), None);
        // majority-internal ops are never affected
        assert_eq!(ms.partition_outcome(0, 3, fence), None);
    }

    #[test]
    fn quorum_tie_goes_to_the_side_containing_pe_zero() {
        // 4 PEs split 2|2 both ways round: PE 0's side always wins
        let a = Membership::new(&FaultPlan::default().with_partition_split(0b1100, 0, 300_000), 4);
        assert_eq!(a.split_schedules()[0].minority, 0b1100);
        let b = Membership::new(&FaultPlan::default().with_partition_split(0b0011, 0, 300_000), 4);
        assert_eq!(b.split_schedules()[0].minority, 0b1100);
        // and a majority-sized mask fences its complement
        let c = Membership::new(&FaultPlan::default().with_partition_split(0b0111, 0, 300_000), 4);
        assert_eq!(c.split_schedules()[0].minority, 0b1000);
    }

    #[test]
    fn short_split_is_a_transparent_blip() {
        let p = FaultPlan::default().with_partition_split(0b10, 100_000, 100_000 + DETECT_BOUND_NS - 1);
        let ms = Membership::new(&p, 4);
        assert!(ms.split_schedules().is_empty());
        assert_eq!(ms.epoch_at(u64::MAX), 0);
        // a severed op inside the blip just blocks until the window ends
        assert_eq!(
            ms.partition_outcome(0, 1, 120_000),
            Some(PartitionOutcome::BlockUntil(100_000 + DETECT_BOUND_NS - 1))
        );
        assert_eq!(ms.partition_outcome(0, 1, 100_000 + DETECT_BOUND_NS), None);
    }

    #[test]
    fn cuts_never_reach_the_view_layer() {
        let p = FaultPlan::default().with_partition_cut(0, 1, 100_000, 900_000);
        let ms = Membership::new(&p, 4);
        assert!(ms.armed(), "cuts still arm membership queries");
        assert!(ms.split_schedules().is_empty());
        assert_eq!(ms.epoch_at(u64::MAX), 0);
        assert_eq!(ms.partition_outcome(0, 1, 200_000), None);
        assert_eq!(ms.view_at(200_000).member_list(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn heal_never_resurrects_a_crashed_pe() {
        // PE 1 is both inside the split minority and crashed for good:
        // the heal re-admits the rest of the minority but not PE 1
        let p = FaultPlan::default()
            .with_crash(1, 0, 0)
            .with_partition_split(0b110, 100_000, 400_000);
        let ms = Membership::new(&p, 8);
        let healed = ms.view_at(400_000 + HEAL_BOUND_NS);
        assert!(!alive(&healed, 1) && !healed.is_member(1));
        assert!(alive(&healed, 2) && healed.is_member(2));
    }
}
