//! Collective operations: dissemination barrier, binomial broadcast,
//! and small reductions — built from real flag writes and data movement
//! so their cost scales as on a real cluster.
//!
//! Fault tolerance: every collective is built from idempotent pieces —
//! monotonic generation flags (waiters use `>=` predicates), fixed-slot
//! data puts, whole-block RMA puts — so under an armed fault plan each
//! piece is simply *replayed* (bounded, with seeded backoff) when its
//! typed error surfaces: a lost flag write is re-sent, a timed-out wait
//! re-waits after re-driving the local side. Collectives therefore
//! complete byte-correct under flag loss, and only an exhausted replay
//! budget surfaces a [`TransferError`] through the `try_*` entry points
//! (the panicking spellings wrap them, matching the RMA convention).
//!
//! Fail-stop tolerance: every collective runs over the *surviving
//! member list* of the epoch-numbered membership view. When a
//! participant fail-stops mid-operation, the survivors' steps against
//! it surface [`TransferError::PeerDead`] (or time out waiting on its
//! flags), the view shrinks at the deterministic detection instant, and
//! [`Pe::with_reform`] re-runs the collective body over the shrunken
//! list — safe because every step is idempotent, and flags are keyed by
//! absolute contributor PE so nothing a dead PE delivered is ever
//! reinterpreted. Survivors' results stay byte-correct; a dead *root*
//! fails its rooted collective (broadcast/reduce) with `PeerDead`, as
//! no survivor can source the payload. Rejoined PEs are alive for
//! point-to-point traffic but are never re-admitted to collectives
//! within a run (their generation counters are behind; see
//! [`crate::membership`]).
//!
//! Partition tolerance: a quorum-fenced network split behaves like a
//! temporary fail-stop of the minority side. Majority members see
//! [`TransferError::Partitioned`] on steps against fenced peers, the
//! view drops the minority at the fence epoch, and [`Pe::with_reform`]
//! re-runs the body over the majority — byte-correct for the quorum
//! side. A fenced-minority caller fails fast with `Partitioned{pe: me}`
//! (degrading to a no-op in the infallible wrappers), so the minority
//! never contributes mid-fence writes: that is the no-split-brain
//! guarantee. At the heal the view *grows* back at a higher epoch;
//! `with_reform` re-forms on any list change, and because flag cells
//! carry monotonic generations with `>=` predicates, a healed PE's
//! stale pre-fence flags are inert — post-heal collectives start from a
//! fresh generation and stay byte-correct across the merge.

use crate::addr::{Pod, SymAddr, SymSlice};
use crate::error::TransferError;
use crate::pe::Pe;
use crate::sync::cells;
use pcie_sim::ProcId;
use sim_core::SimDuration;

/// Replay budget for one collective step (flag put + wait pair, data
/// put, or block put). Deliberately generous — several times the
/// per-post retry budget — because a step only consumes a replay after
/// a whole retry chain exhausted or a wait timed out; the budget exists
/// to bound the walk, not to model a realistic failure allowance.
const COLL_REPLAY_BUDGET: u32 = 16;

/// Reduction operators for the typed reductions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RedOp {
    Sum,
    Prod,
    Min,
    Max,
}

/// Element types usable in reductions.
pub trait Reducible: Pod + PartialOrd {
    fn combine(op: RedOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_reducible {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn combine(op: RedOp, a: Self, b: Self) -> Self {
                match op {
                    RedOp::Sum => a + b,
                    RedOp::Prod => a * b,
                    RedOp::Min => if b < a { b } else { a },
                    RedOp::Max => if b > a { b } else { a },
                }
            }
        }
    )*};
}

impl_reducible!(f32, f64, i32, i64, u32, u64);

impl Pe {
    /// Run one idempotent collective step, replaying it (with the fault
    /// plan's seeded backoff, salted by `salt`) on recoverable typed
    /// errors — exhausted retry chains, wait timeouts, partial
    /// deliveries. Unrecoverable errors (MR violations, capability
    /// faults) surface immediately.
    fn with_replay<T>(
        &self,
        salt: u64,
        mut step: impl FnMut() -> Result<T, TransferError>,
    ) -> Result<T, TransferError> {
        let plan = self.machine().cfg().faults;
        let mut replays: u32 = 0;
        loop {
            match step() {
                Ok(v) => return Ok(v),
                Err(
                    e @ (TransferError::RetriesExhausted { .. }
                    | TransferError::Timeout { .. }
                    | TransferError::PartialDelivery { .. }),
                ) => {
                    if replays >= COLL_REPLAY_BUDGET {
                        return Err(e);
                    }
                    replays += 1;
                    let backoff = plan.backoff_ns(salt, replays.min(8));
                    self.ctx().advance(SimDuration::from_ns(backoff));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Current collective member list. Cheap when no crash is armed:
    /// the full PE list, with zero membership queries.
    fn coll_members(&self) -> Vec<usize> {
        let ms = *self.machine().membership();
        if !ms.armed() {
            return (0..self.n_pes()).collect();
        }
        let now_ns = self.ctx().now().0 / sim_core::PS_PER_NS;
        ms.view_at(now_ns).member_list(self.n_pes())
    }

    /// Run a collective body over the surviving member list, re-forming
    /// it when the membership view shrinks mid-operation.
    ///
    /// A `PeerDead` or timeout from the body triggers a view
    /// recomputation: if the member list shrank, newly-evicted PEs get
    /// their lifecycle emitted and the body re-runs over the survivors
    /// — idempotent steps make the completed parts replay harmlessly,
    /// and `>=` flag predicates make stale pre-reform flags inert. An
    /// unchanged list propagates the error (it was not a fail-stop).
    /// The loop terminates because every list change consumes one of
    /// the finitely many scheduled membership events (crash evictions,
    /// partition fences, heals). The list is not monotonic: a heal
    /// grows it back, and the re-formed body simply runs over the
    /// merged view at the higher epoch. A caller that is itself dead —
    /// or was evicted and rejoined — fails fast with its own eviction
    /// epoch, and a caller on the fenced minority side of a split fails
    /// fast with [`TransferError::Partitioned`] naming itself: fenced
    /// PEs run no collective steps, which keeps the minority free of
    /// split-brain writes.
    fn with_reform(
        &self,
        mut body: impl FnMut(&[usize]) -> Result<(), TransferError>,
    ) -> Result<(), TransferError> {
        let m = self.machine().clone();
        let ms = *m.membership();
        let me = self.my_pe();
        let mut members = self.coll_members();
        loop {
            if ms.armed() {
                let now_ns = self.ctx().now().0 / sim_core::PS_PER_NS;
                if let Some(epoch) = ms.fenced_minority_epoch(me as u32, now_ns) {
                    return Err(TransferError::Partitioned { pe: me as u32, epoch });
                }
                if ms.crashed(me as u32, now_ns) || !members.contains(&me) {
                    return Err(TransferError::PeerDead {
                        pe: me as u32,
                        epoch: ms
                            .eviction_epoch(me as u32)
                            .unwrap_or_else(|| ms.epoch_at(now_ns)),
                    });
                }
            }
            match body(&members) {
                Ok(()) => return Ok(()),
                Err(
                    e @ (TransferError::PeerDead { .. }
                    | TransferError::Timeout { .. }
                    | TransferError::Partitioned { .. }),
                ) => {
                    if !ms.armed() {
                        return Err(e);
                    }
                    let now_ns = self.ctx().now().0 / sim_core::PS_PER_NS;
                    let next = ms.view_at(now_ns).member_list(self.n_pes());
                    if next == members {
                        return Err(e);
                    }
                    for &gone in members.iter().filter(|p| !next.contains(p)) {
                        // a fence-driven departure has no crash schedule
                        // — its lifecycle is emitted by note_partitions
                        if ms.crashed(gone as u32, now_ns) {
                            m.note_eviction(ProcId(gone as u32));
                        }
                    }
                    if m.cfg().faults.n_partitions > 0 {
                        m.note_partitions(self.ctx().now());
                    }
                    members = next;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fail-stop degradation rule for the infallible collective
    /// wrappers: a PE whose own crash (or eviction) surfaced as
    /// `PeerDead{pe: me}` has no activity left to fail — the collective
    /// completed for the survivors, and the dead caller's side
    /// degenerates to a local no-op instead of tearing the whole
    /// simulation down. A fenced-minority caller's `Partitioned{pe: me}`
    /// degrades the same way: the quorum side completed without it.
    /// Every other error still panics (the wrappers are the strict
    /// legacy API).
    fn fail_stop_ok(&self, what: &str, res: Result<(), TransferError>) {
        match res {
            Ok(()) => {}
            Err(TransferError::PeerDead { pe, .. }) if pe as usize == self.my_pe() => {}
            Err(TransferError::Partitioned { pe, .. }) if pe as usize == self.my_pe() => {}
            Err(e) => panic!("{what} failed: {e}"),
        }
    }

    /// `shmem_barrier_all`: quiet + dissemination barrier.
    pub fn barrier_all(&self) {
        let r = self.try_barrier_all();
        self.fail_stop_ok("barrier_all", r);
    }

    /// Fallible `shmem_barrier_all`: under an armed fault plan each
    /// dissemination round replays its flag put + wait pair on flag
    /// loss or wait timeout (the pair is one idempotent step — if my
    /// partner never saw my flag *or* I lost theirs, re-sending mine
    /// and re-waiting converges either way).
    pub fn try_barrier_all(&self) -> Result<(), TransferError> {
        let t0 = self.ctx().now();
        self.quiet();
        let m = self.machine().clone();
        let st = m.pe_state(self.proc_id());
        let _in_library = st.enter_library();
        st.stats.lock().barriers += 1;
        let gen = {
            let mut g = st.barrier_gen.lock();
            *g += 1;
            *g
        };
        let me = self.my_pe();
        let result = self.with_reform(|members| {
            let k = members.len();
            if k > 1 {
                let vi = members
                    .iter()
                    .position(|&p| p == me)
                    .expect("with_reform guarantees membership");
                let mut r = 0u32;
                while (1usize << r) < k {
                    let partner = members[(vi + (1 << r)) % k];
                    let cell = cells::BARRIER + 8 * r as u64;
                    self.with_replay(gen ^ (cell << 8) ^ me as u64, || {
                        m.try_sync_flag_put(
                            self.ctx(),
                            self.proc_id(),
                            ProcId(partner as u32),
                            cell,
                            gen,
                        )?;
                        m.try_sync_wait(
                            self.ctx(),
                            self.proc_id(),
                            ProcId(partner as u32),
                            cell,
                            gen,
                        )
                    })?;
                    r += 1;
                }
            }
            Ok(())
        });
        if result.is_ok() {
            let rec = m.obs();
            if rec.counters_on() {
                let t1 = self.ctx().now();
                rec.latency("barrier", 0, t1.since(t0));
                let id = self.proc_id();
                rec.span(
                    m.pe_track(id),
                    "barrier",
                    t0,
                    t1,
                    obs::Payload::Op {
                        op: "barrier",
                        protocol: "barrier",
                        size: 0,
                        src_pe: id.0,
                        dst_pe: id.0,
                        src_dev: false,
                        dst_dev: false,
                        same_node: true,
                        // collectives carry no correlation id (no single
                        // remote completion to flow to)
                        op_id: 0,
                    },
                );
            }
        }
        result
    }

    fn next_coll_gen(&self) -> u64 {
        let st = self.machine().pe_state(self.proc_id());
        let mut g = st.coll_gen.lock();
        *g += 1;
        *g
    }

    /// Broadcast `len` bytes of the symmetric object `data` from `root`'s
    /// copy into every PE's copy (binomial tree over puts).
    pub fn broadcast(&self, data: SymAddr, len: u64, root: usize) {
        let r = self.try_broadcast(data, len, root);
        self.fail_stop_ok("broadcast", r);
    }

    /// Fallible broadcast: the data put, the flag put, and the
    /// receiver's wait each replay independently (all idempotent — the
    /// payload lands at a fixed destination, the flag is a generation
    /// counter).
    pub fn try_broadcast(&self, data: SymAddr, len: u64, root: usize) -> Result<(), TransferError> {
        let n = self.n_pes();
        let gen = self.next_coll_gen();
        if n == 1 {
            return Ok(());
        }
        let me = self.my_pe();
        let m = self.machine().clone();
        self.with_reform(|members| {
            let k = members.len();
            // root membership first: a lone survivor of a dead root has
            // nobody to wait for but holds no payload either
            let Some(vroot) = members.iter().position(|&p| p == root) else {
                // the root is gone: no survivor can source the payload,
                // so the broadcast fails for everyone — as Partitioned
                // when it sits behind a quorum fence, PeerDead otherwise
                let now_ns = self.ctx().now().0 / sim_core::PS_PER_NS;
                if let Some(epoch) = m.membership().fenced_minority_epoch(root as u32, now_ns) {
                    return Err(TransferError::Partitioned { pe: root as u32, epoch });
                }
                return Err(TransferError::PeerDead {
                    pe: root as u32,
                    epoch: m.membership().eviction_epoch(root as u32).unwrap_or(0),
                });
            };
            let vi = members
                .iter()
                .position(|&p| p == me)
                .expect("with_reform guarantees membership");
            let vr = (vi + k - vroot) % k; // virtual rank: root is 0
            let mut rnd = 0u32;
            while (1usize << rnd) < k {
                let span = 1usize << rnd;
                let cell = cells::BCAST + 8 * rnd as u64;
                if vr < span {
                    let peer_vr = vr + span;
                    if peer_vr < k {
                        let peer = members[(peer_vr + vroot) % k];
                        let src = self.addr_of(data, me);
                        self.with_replay(gen ^ (cell << 8) ^ 0x01, || {
                            self.try_putmem(data, src, len, peer)
                        })?;
                        self.quiet();
                        self.with_replay(gen ^ (cell << 8) ^ 0x02, || {
                            m.try_sync_flag_put(
                                self.ctx(),
                                self.proc_id(),
                                ProcId(peer as u32),
                                cell,
                                gen,
                            )
                        })?;
                    }
                } else if vr < 2 * span {
                    // on timeout just re-wait: the sender replays its side
                    let parent = members[(vr - span + vroot) % k];
                    self.with_replay(gen ^ (cell << 8) ^ 0x03, || {
                        m.try_sync_wait(
                            self.ctx(),
                            self.proc_id(),
                            ProcId(parent as u32),
                            cell,
                            gen,
                        )
                    })?;
                }
                rnd += 1;
            }
            Ok(())
        })
    }

    /// Reduce a small symmetric vector to `root`'s copy of `dst` with
    /// operator `op`, then broadcast the result to every PE's copy.
    /// Payload per PE is limited to one reduce slot (256 bytes).
    pub fn reduce<T: Reducible>(
        &self,
        src: &SymSlice<T>,
        dst: &SymSlice<T>,
        op: RedOp,
        root: usize,
    ) {
        let r = self.try_reduce(src, dst, op, root);
        self.fail_stop_ok("reduce", r);
    }

    /// Fallible reduce: contributions replay their fixed-slot data put
    /// and arrival flag; the root re-waits on timeout.
    pub fn try_reduce<T: Reducible>(
        &self,
        src: &SymSlice<T>,
        dst: &SymSlice<T>,
        op: RedOp,
        root: usize,
    ) -> Result<(), TransferError> {
        assert!(
            src.byte_len() <= cells::SLOT,
            "reduce payload exceeds slot size ({} > {})",
            src.byte_len(),
            cells::SLOT
        );
        assert_eq!(src.len(), dst.len(), "reduce src/dst length mismatch");
        let n = self.n_pes();
        let me = self.my_pe();
        let m = self.machine().clone();
        let gen = self.next_coll_gen();
        if n == 1 {
            let v = self.read_sym(src);
            self.write_sym(dst, &v);
            return Ok(());
        }
        let gathered = self.with_reform(|members| {
            if me != root {
                if !members.contains(&root) {
                    // the root is gone: nobody can combine
                    let now_ns = self.ctx().now().0 / sim_core::PS_PER_NS;
                    if let Some(epoch) =
                        m.membership().fenced_minority_epoch(root as u32, now_ns)
                    {
                        return Err(TransferError::Partitioned { pe: root as u32, epoch });
                    }
                    return Err(TransferError::PeerDead {
                        pe: root as u32,
                        epoch: m.membership().eviction_epoch(root as u32).unwrap_or(0),
                    });
                }
                // ship my contribution into root's slot for me, then flag
                let my_copy = self.addr_of(src.addr(), me);
                self.with_replay(gen ^ 0x10 ^ me as u64, || {
                    m.try_sync_data_put(
                        self.ctx(),
                        self.proc_id(),
                        ProcId(root as u32),
                        cells::REDUCE_DATA + cells::SLOT * me as u64,
                        my_copy,
                        src.byte_len(),
                    )
                })?;
                self.quiet();
                self.with_replay(gen ^ 0x20 ^ me as u64, || {
                    m.try_sync_flag_put(
                        self.ctx(),
                        self.proc_id(),
                        ProcId(root as u32),
                        cells::REDUCE_FLAGS + 8 * me as u64,
                        gen,
                    )
                })?;
            } else {
                // gather: wait for every surviving contribution (slots
                // and flags are keyed by absolute contributor PE, so a
                // re-formed gather never reinterprets a dead PE's slot)
                let mut acc = self.read_sym(src);
                for &pe in members {
                    if pe == root {
                        continue;
                    }
                    self.with_replay(gen ^ 0x30 ^ pe as u64, || {
                        m.try_sync_wait(
                            self.ctx(),
                            self.proc_id(),
                            ProcId(pe as u32),
                            cells::REDUCE_FLAGS + 8 * pe as u64,
                            gen,
                        )
                    })?;
                    let slot = m.sync_cell(
                        self.proc_id(),
                        cells::REDUCE_DATA + cells::SLOT * pe as u64,
                    );
                    let bytes = self.read_raw(slot, src.byte_len());
                    let vals = T::from_bytes(&bytes);
                    for (a, v) in acc.iter_mut().zip(vals) {
                        *a = T::combine(op, *a, v);
                    }
                }
                self.write_sym(dst, &acc);
            }
            Ok(())
        });
        if let Err(e) = gathered {
            // peers that completed the gather run a result broadcast
            // next, which consumes one generation on every member —
            // consume it here too, so a fenced caller that merges back
            // at the heal stays generation-aligned with the quorum side
            let _ = self.next_coll_gen();
            return Err(e);
        }
        // result distribution
        self.try_broadcast(dst.addr(), dst.byte_len(), root)
    }

    /// Sum-reduce to root (kept as the common spelling).
    pub fn reduce_sum_f64(&self, src: &SymSlice<f64>, dst: &SymSlice<f64>, root: usize) {
        self.reduce(src, dst, RedOp::Sum, root);
    }

    /// Convenience: allreduce of a small f64 vector.
    pub fn allreduce_sum_f64(&self, src: &SymSlice<f64>, dst: &SymSlice<f64>) {
        self.reduce(src, dst, RedOp::Sum, 0);
    }

    /// `shmem_fcollect`: every PE contributes its `src` block; every PE
    /// ends with all blocks, in PE order, in its copy of `dest`
    /// (`dest.len() == n_pes * src.len()`).
    pub fn fcollect<T: Pod>(&self, dest: &SymSlice<T>, src: &SymSlice<T>) {
        let r = self.try_fcollect(dest, src);
        self.fail_stop_ok("fcollect", r);
    }

    /// Fallible fcollect: each block put, arrival flag, and wait
    /// replays independently.
    pub fn try_fcollect<T: Pod>(
        &self,
        dest: &SymSlice<T>,
        src: &SymSlice<T>,
    ) -> Result<(), TransferError> {
        let n = self.n_pes();
        let me = self.my_pe();
        assert_eq!(dest.len(), n * src.len(), "fcollect geometry");
        let m = self.machine().clone();
        let gen = self.next_coll_gen();
        self.with_reform(|members| {
            // put my block into every survivor's dest at block `me`,
            // then flag (block offsets stay keyed by absolute PE)
            let my_copy = self.addr_of(src.addr(), me);
            for &t in members {
                if t == me {
                    self.write_sym(&dest.slice(me * src.len(), src.len()), &self.read_sym(src));
                } else {
                    self.with_replay(gen ^ 0x40 ^ ((me * n + t) as u64), || {
                        self.try_putmem(dest.at(me * src.len()), my_copy, src.byte_len(), t)
                    })?;
                }
            }
            self.quiet();
            for &t in members {
                if t != me {
                    self.with_replay(gen ^ 0x50 ^ ((me * n + t) as u64), || {
                        m.try_sync_flag_put(
                            self.ctx(),
                            self.proc_id(),
                            ProcId(t as u32),
                            cells::COLL_FLAGS + 8 * me as u64,
                            gen,
                        )
                    })?;
                }
            }
            // wait for every other survivor's block
            for &s_pe in members {
                if s_pe != me {
                    self.with_replay(gen ^ 0x60 ^ s_pe as u64, || {
                        m.try_sync_wait(
                            self.ctx(),
                            self.proc_id(),
                            ProcId(s_pe as u32),
                            cells::COLL_FLAGS + 8 * s_pe as u64,
                            gen,
                        )
                    })?;
                }
            }
            Ok(())
        })
    }

    /// `shmem_alltoall`: PE `i`'s block `j` of `src` lands in PE `j`'s
    /// block `i` of `dest` (`src.len() == dest.len() == n_pes * per`).
    pub fn alltoall<T: Pod>(&self, dest: &SymSlice<T>, src: &SymSlice<T>, per: usize) {
        let r = self.try_alltoall(dest, src, per);
        self.fail_stop_ok("alltoall", r);
    }

    /// Fallible alltoall: same replay structure as fcollect.
    pub fn try_alltoall<T: Pod>(
        &self,
        dest: &SymSlice<T>,
        src: &SymSlice<T>,
        per: usize,
    ) -> Result<(), TransferError> {
        let n = self.n_pes();
        let me = self.my_pe();
        assert_eq!(src.len(), n * per, "alltoall src geometry");
        assert_eq!(dest.len(), n * per, "alltoall dest geometry");
        let m = self.machine().clone();
        let gen = self.next_coll_gen();
        let per_bytes = (per * T::SIZE) as u64;
        self.with_reform(|members| {
            for &j in members {
                let block = self.addr_of(src.at(j * per), me);
                if j == me {
                    let vals = self.read_sym(&src.slice(me * per, per));
                    self.write_sym(&dest.slice(me * per, per), &vals);
                } else {
                    self.with_replay(gen ^ 0x70 ^ ((me * n + j) as u64), || {
                        self.try_putmem(dest.at(me * per), block, per_bytes, j)
                    })?;
                }
            }
            self.quiet();
            for &j in members {
                if j != me {
                    self.with_replay(gen ^ 0x80 ^ ((me * n + j) as u64), || {
                        m.try_sync_flag_put(
                            self.ctx(),
                            self.proc_id(),
                            ProcId(j as u32),
                            cells::COLL_FLAGS + 8 * me as u64,
                            gen,
                        )
                    })?;
                }
            }
            for &s_pe in members {
                if s_pe != me {
                    self.with_replay(gen ^ 0x90 ^ s_pe as u64, || {
                        m.try_sync_wait(
                            self.ctx(),
                            self.proc_id(),
                            ProcId(s_pe as u32),
                            cells::COLL_FLAGS + 8 * s_pe as u64,
                            gen,
                        )
                    })?;
                }
            }
            Ok(())
        })
    }
}
