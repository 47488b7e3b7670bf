//! Simulated memory: arenas, unified addresses, and the global memory map.
//!
//! Every byte the runtime moves is a real byte in an [`Arena`] — host
//! process memory, a node-wide shared segment, or GPU device memory — so
//! correctness of every protocol is testable end to end. [`MemRef`] is the
//! moral equivalent of a CUDA UVA pointer: a single address type that can
//! name any space, with a queryable kind.
//!
//! **A payload byte moves once.** The layer is lazy, and no reader can
//! tell: every read returns what eager copying would have, bytes move at
//! most once, and only when something reads them.
//!
//! - [`MemoryMap::hold`] *claims* source bytes as they are now without
//!   copying them. The first later write that overlaps the range gives
//!   the claim its own copy first (copy-on-write); otherwise
//!   [`MemoryMap::deliver`] moves the bytes arena to arena in one pass.
//!   This is how an RDMA transfer carries its payload from the instant
//!   the HCA has read the source to the instant the data is visible.
//! - A large cross-arena [`MemoryMap::copy`] records a *pending range*
//!   in the destination, backed by a claim on the source, instead of
//!   moving bytes. A read or partial overwrite of the range moves it in
//!   first; a write that covers it drops it unmoved; a `hold` (or copy
//!   source) that falls inside it forwards to the backing claim. So a
//!   staging hop nobody reads costs nothing, and the transfer out of the
//!   staging slot delivers straight from the original source.
//!
//! Claims refer to their arena weakly and a pending range is never
//! backed by its own arena, so no arena is borrowed twice and arenas
//! never keep each other alive. One arena may be borrowed while a
//! *second* one is (destination, then source).

use crate::ids::{GpuId, ProcId, SegId};
use std::cell::{OnceCell, RefCell, RefMut};
use std::collections::HashMap;
use std::fmt;
use std::rc::{Rc, Weak};

/// A cross-arena [`MemoryMap::copy`] of at least this many bytes is
/// recorded as a pending range; below it the memcpy costs less than the
/// bookkeeping could save.
const DEFER_FLOOR: u64 = 32 << 10;
/// Pending ranges one arena carries at most (recording one more moves
/// the oldest in), so the scan on every access is O(1). Sized for the
/// staging slots of the PEs sharing a node segment at the tuned config.
const MAX_PENDING: usize = 16;
/// A claim of at most a cache line is copied at `hold` time: cheaper
/// than registering it, and what the per-transfer `Vec` used to cost.
const INLINE: usize = 64;

/// Which physical memory an address lives in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MemSpace {
    /// Private host memory of one process.
    Host(ProcId),
    /// A node-wide shared-memory segment (POSIX shm style).
    Shared(SegId),
    /// GPU device memory.
    Device(GpuId),
}

impl MemSpace {
    /// True if the address is in GPU device memory (UVA "device pointer").
    pub fn is_device(self) -> bool {
        matches!(self, MemSpace::Device(_))
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSpace::Host(p) => write!(f, "host[{p}]"),
            MemSpace::Shared(s) => write!(f, "shm[{s}]"),
            MemSpace::Device(g) => write!(f, "dev[{g}]"),
        }
    }
}

/// A unified address: space + byte offset. The simulated analogue of a
/// UVA pointer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    pub space: MemSpace,
    pub offset: u64,
}

impl MemRef {
    pub fn new(space: MemSpace, offset: u64) -> Self {
        MemRef { space, offset }
    }

    /// Address `bytes` further into the same space.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> Self {
        MemRef {
            space: self.space,
            offset: self.offset + bytes,
        }
    }

    pub fn is_device(self) -> bool {
        self.space.is_device()
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{:#x}", self.space, self.offset)
    }
}

/// Errors raised by arena accesses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The space has no arena in the map.
    UnknownSpace(MemSpace),
    /// Access past the end of the arena.
    OutOfBounds {
        space: MemSpace,
        offset: u64,
        len: u64,
        size: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::UnknownSpace(s) => write!(f, "no arena mapped for {s}"),
            MemError::OutOfBounds {
                space,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset:#x}..{:#x}) out of bounds of {space} (size {size:#x})",
                offset + len
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// What the lazy layer did, per [`MemoryMap`]. Plain counters, exact for
/// a given program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemStats {
    /// Bytes the layer itself copied: into an arena by `copy`, `deliver`
    /// or a move-in, out of one by a copy-on-write save or a
    /// cache-line `hold`. Caller-buffer reads and writes do not count.
    pub bytes_moved: u64,
    /// Copies recorded as a pending range instead of moved.
    pub ranges_deferred: u64,
    /// Pending ranges a covering write dropped without moving a byte.
    pub dropped_unmoved: u64,
    /// Pending ranges moved in because something read, clipped or
    /// outnumbered them, or wrote to their source.
    pub moved_in: u64,
    /// Claims a write to their source forced to take a copy of their
    /// own (a transfer in flight; a deferred copy's range is moved in
    /// instead).
    pub cow_saves: u64,
}

/// A range of an arena starting at `off`, as it was when the claim was
/// taken: its bytes are still in place until `saved` is set.
struct Claim {
    /// Weak, because pending ranges own claims and arenas own pending
    /// ranges: a strong reference would let two arenas keep each other
    /// alive past their machine.
    arena: Weak<Arena>,
    off: u64,
    /// The arena whose pending range a deferred copy took this claim
    /// for (never `arena`); dangling for a plain `hold`. A write to the
    /// source moves that range in rather than saving bytes aside for it.
    home: Weak<Arena>,
    /// The claimed bytes, set by the first write that overlaps the range.
    saved: OnceCell<Box<[u8]>>,
}

impl Claim {
    /// Run `f` on bytes `[at, at + len)` of the claim. Borrows the
    /// claim's arena while the bytes are still in place there.
    fn with_bytes<R>(&self, at: u64, len: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        let (at, len) = (at as usize, len as usize);
        if let Some(b) = self.saved.get() {
            return f(&b[at..at + len]);
        }
        let arena = self
            .arena
            .upgrade()
            .expect("an unsaved claim is delivered while its arena's map is alive");
        let g = arena.inner.borrow();
        f(&g.data[self.off as usize + at..][..len])
    }

    fn is_on(&self, arena: &Rc<Arena>) -> bool {
        std::ptr::eq(self.arena.as_ptr(), Rc::as_ptr(arena))
    }
}

/// Bytes claimed by [`MemoryMap::hold`], to be written somewhere by
/// [`MemoryMap::deliver`] — or dropped, which releases the claim.
pub struct Held {
    len: u64,
    bytes: HeldBytes,
}

enum HeldBytes {
    Inline([u8; INLINE]),
    /// The window `[at, at + len)` of a claim.
    Claim { claim: Rc<Claim>, at: u64 },
}

/// `data[off..off + len)` has not been moved in yet: it reads as the
/// window of `claim` at `at`. Never a claim on the range's own arena.
struct Pending {
    off: u64,
    len: u64,
    claim: Rc<Claim>,
    at: u64,
}

/// An unsaved claim on `[off, off + len)` of this arena's `data`.
struct Claimed {
    off: u64,
    len: u64,
    claim: Weak<Claim>,
}

/// Do the two ranges share a byte? (An empty one shares none.)
fn overlaps(a_off: u64, a_len: u64, b_off: u64, b_len: u64) -> bool {
    a_off.max(b_off) < (a_off + a_len).min(b_off + b_len)
}

struct Inner {
    data: Box<[u8]>,
    /// Oldest first, pairwise disjoint, at most [`MAX_PENDING`].
    pending: Vec<Pending>,
    /// Claims whose bytes are still in `data`; none overlaps a pending
    /// range (recording one saves them, `hold` moves ranges in first).
    /// Dead entries are purged by the next `hold`, so the list never
    /// outgrows the live claims.
    claimed: Vec<Claimed>,
    stats: MemStats,
}

impl Inner {
    /// `data[off..off + len)` is about to change, and every claim that
    /// overlaps needs its bytes elsewhere first: in the pending range of
    /// the deferred copy that took it, and in a copy of its own if
    /// anything else still holds it.
    fn save_claims(&mut self, off: u64, len: u64) {
        let Inner { data, claimed, stats, .. } = self;
        claimed.retain(|e| {
            if !overlaps(e.off, e.len, off, len) {
                return true;
            }
            if let Some(c) = e.claim.upgrade() {
                let bytes = &data[e.off as usize..(e.off + e.len) as usize];
                if let Some(home) = c.home.upgrade() {
                    home.inner.borrow_mut().move_in_all(&c, bytes);
                }
                if Rc::strong_count(&c) > 1 {
                    // listed claims are unsaved, so this cannot be refused
                    let _ = c.saved.set(bytes.into());
                    stats.cow_saves += 1;
                    stats.bytes_moved += e.len;
                }
            }
            false
        });
    }

    /// Move pending range `i` in, from `bytes` (all of its claim) when
    /// the caller has them, else from the claim — which is on another
    /// arena, borrowed while ours is.
    fn move_in(&mut self, i: usize, bytes: Option<&[u8]>) {
        let p = self.pending.remove(i);
        let dst = &mut self.data[p.off as usize..(p.off + p.len) as usize];
        match bytes {
            Some(b) => dst.copy_from_slice(&b[p.at as usize..(p.at + p.len) as usize]),
            None => p.claim.with_bytes(p.at, p.len, |b| dst.copy_from_slice(b)),
        }
        self.stats.moved_in += 1;
        self.stats.bytes_moved += p.len;
    }

    /// Move in every pending range backed by `claim`, whose source —
    /// `bytes`, borrowed from its arena — is about to change.
    fn move_in_all(&mut self, claim: &Rc<Claim>, bytes: &[u8]) {
        while let Some(i) = self
            .pending
            .iter()
            .position(|p| Rc::ptr_eq(&p.claim, claim))
        {
            self.move_in(i, Some(bytes));
        }
    }

    /// Make `data[off..off + len)` read as it should: move in every
    /// pending range that overlaps.
    fn settle(&mut self, off: u64, len: u64) {
        while let Some(i) = self
            .pending
            .iter()
            .position(|p| overlaps(p.off, p.len, off, len))
        {
            self.move_in(i, None);
        }
    }

    /// `[off, off + len)` is about to be overwritten whole: pending
    /// ranges it covers are dropped unmoved, ones it clips are moved in
    /// first, and claims on the old bytes are saved.
    fn prepare_write(&mut self, off: u64, len: u64) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            if !overlaps(p.off, p.len, off, len) {
                i += 1;
            } else if off <= p.off && p.off + p.len <= off + len {
                self.pending.remove(i);
                self.stats.dropped_unmoved += 1;
            } else {
                self.move_in(i, None);
            }
        }
        self.save_claims(off, len);
    }
}

/// A contiguous chunk of simulated physical memory.
pub struct Arena {
    space: MemSpace,
    /// Byte length of the arena, fixed at creation (bounds checks read
    /// it without borrowing `inner`).
    len: u64,
    inner: RefCell<Inner>,
}

impl Arena {
    pub fn new(space: MemSpace, size: usize) -> Rc<Arena> {
        Rc::new(Arena {
            space,
            len: size as u64,
            inner: RefCell::new(Inner {
                data: vec![0u8; size].into_boxed_slice(),
                pending: Vec::new(),
                claimed: Vec::new(),
                stats: MemStats::default(),
            }),
        })
    }

    pub fn space(&self) -> MemSpace {
        self.space
    }

    pub fn size(&self) -> u64 {
        self.len
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), MemError> {
        let size = self.size();
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(MemError::OutOfBounds {
                space: self.space,
                offset,
                len,
                size,
            });
        }
        Ok(())
    }

    /// The arena borrowed, with `[offset, offset + len)` checked and moved
    /// in: its `data` there is what a reader must see.
    fn settled(&self, offset: u64, len: u64) -> Result<RefMut<'_, Inner>, MemError> {
        self.check(offset, len)?;
        let mut g = self.inner.borrow_mut();
        g.settle(offset, len);
        Ok(g)
    }

    /// [`MemoryMap::hold`] on the checked range `[off, off + len)`; for a
    /// deferred copy into `home` when that is given.
    fn claim(self: &Rc<Self>, off: u64, len: u64, home: Option<&Rc<Arena>>) -> Held {
        let mut g = self.inner.borrow_mut();
        let inside = |p: &&Pending| p.off <= off && off + len <= p.off + p.len;
        if let Some(p) = g.pending.iter().find(inside) {
            // not moved in yet: the range's own claim has these bytes
            let bytes = HeldBytes::Claim {
                claim: p.claim.clone(),
                at: p.at + (off - p.off),
            };
            return Held { len, bytes };
        }
        g.settle(off, len);
        if len as usize <= INLINE {
            let mut b = [0u8; INLINE];
            b[..len as usize].copy_from_slice(&g.data[off as usize..(off + len) as usize]);
            g.stats.bytes_moved += len;
            let bytes = HeldBytes::Inline(b);
            return Held { len, bytes };
        }
        let claim = Rc::new(Claim {
            arena: Rc::downgrade(self),
            off,
            home: home.map_or_else(Weak::new, Rc::downgrade),
            saved: OnceCell::new(),
        });
        g.claimed.retain(|e| e.claim.strong_count() > 0);
        g.claimed.push(Claimed {
            off,
            len,
            claim: Rc::downgrade(&claim),
        });
        let bytes = HeldBytes::Claim { claim, at: 0 };
        Held { len, bytes }
    }

    /// [`MemoryMap::deliver`] at the checked offset `off`.
    fn land(self: &Rc<Self>, held: Held, off: u64) {
        let mut g = self.inner.borrow_mut();
        g.prepare_write(off, held.len);
        let (d, n) = (off as usize, held.len as usize);
        match &held.bytes {
            HeldBytes::Inline(b) => g.data[d..d + n].copy_from_slice(&b[..n]),
            // still in place in this arena: it does not overlap the
            // destination, or `prepare_write` would have saved it
            HeldBytes::Claim { claim, at } if claim.is_on(self) && claim.saved.get().is_none() => {
                let s = (claim.off + at) as usize;
                g.data.copy_within(s..s + n, d);
            }
            HeldBytes::Claim { claim, at } => {
                let to = &mut g.data[d..d + n];
                claim.with_bytes(*at, held.len, |b| to.copy_from_slice(b));
            }
        }
        g.stats.bytes_moved += held.len;
    }

    /// Copy bytes out of the arena.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), MemError> {
        let g = self.settled(offset, out.len() as u64)?;
        out.copy_from_slice(&g.data[offset as usize..offset as usize + out.len()]);
        Ok(())
    }

    /// Copy bytes into the arena.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<(), MemError> {
        self.check(offset, src.len() as u64)?;
        let mut g = self.inner.borrow_mut();
        g.prepare_write(offset, src.len() as u64);
        g.data[offset as usize..offset as usize + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Read a little-endian u64 (for atomics and flags).
    pub fn read_u64(&self, offset: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian u64.
    pub fn write_u64(&self, offset: u64, v: u64) -> Result<(), MemError> {
        self.write(offset, &v.to_le_bytes())
    }

    /// Apply `f` to the u64 at `offset` atomically with respect to other
    /// arena accesses; returns the previous value. This is the primitive
    /// under simulated HCA atomics.
    pub fn fetch_update_u64(
        &self,
        offset: u64,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<u64, MemError> {
        let mut g = self.settled(offset, 8)?;
        g.save_claims(offset, 8);
        let i = offset as usize;
        let mut b = [0u8; 8];
        b.copy_from_slice(&g.data[i..i + 8]);
        let old = u64::from_le_bytes(b);
        let new = f(old);
        g.data[i..i + 8].copy_from_slice(&new.to_le_bytes());
        Ok(old)
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Arena({}, {} bytes)", self.space, self.size())
    }
}

/// Registry of every arena in the simulated cluster.
#[derive(Default)]
pub struct MemoryMap {
    arenas: RefCell<HashMap<MemSpace, Rc<Arena>>>,
}

impl MemoryMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create and register an arena for `space`. Panics if already mapped.
    pub fn create(&self, space: MemSpace, size: usize) -> Rc<Arena> {
        let arena = Arena::new(space, size);
        let prev = self.arenas.borrow_mut().insert(space, arena.clone());
        assert!(prev.is_none(), "arena for {space} created twice");
        arena
    }

    pub fn get(&self, space: MemSpace) -> Result<Rc<Arena>, MemError> {
        self.arenas
            .borrow()
            .get(&space)
            .cloned()
            .ok_or(MemError::UnknownSpace(space))
    }

    /// Make `dst` read as `src` does at this instant, for `len` bytes
    /// across any pair of spaces. Overlapping copies within the same
    /// space behave like `memmove`. Both ranges are bounds-checked before
    /// anything changes. A cross-space copy of [`DEFER_FLOOR`] bytes or
    /// more moves nothing yet: the destination carries a pending range
    /// backed by a claim on the source (see the module docs).
    pub fn copy(&self, src: MemRef, dst: MemRef, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let sa = self.get(src.space)?;
        if src.space == dst.space {
            sa.check(dst.offset, len)?;
            let mut g = sa.settled(src.offset, len)?;
            g.prepare_write(dst.offset, len);
            let s = src.offset as usize;
            g.data.copy_within(s..s + len as usize, dst.offset as usize);
            g.stats.bytes_moved += len;
            return Ok(());
        }
        let da = self.get(dst.space)?;
        sa.check(src.offset, len)?;
        da.check(dst.offset, len)?;
        if len < DEFER_FLOOR {
            // One arena borrowed at a time until both ranges are ready
            // (either step may move in a range backed by the other
            // arena), then destination and source together.
            sa.inner.borrow_mut().settle(src.offset, len);
            let mut to = da.inner.borrow_mut();
            to.prepare_write(dst.offset, len);
            let from = sa.inner.borrow();
            let (s, d, n) = (src.offset as usize, dst.offset as usize, len as usize);
            to.data[d..d + n].copy_from_slice(&from.data[s..s + n]);
            to.stats.bytes_moved += len;
            return Ok(());
        }
        let held = sa.claim(src.offset, len, Some(&da));
        match held.bytes {
            // a range backed by its own arena would borrow that arena
            // twice when moved in: such a forward moves at once
            HeldBytes::Claim { claim, at } if !claim.is_on(&da) => {
                let mut g = da.inner.borrow_mut();
                g.prepare_write(dst.offset, len);
                g.pending.push(Pending {
                    off: dst.offset,
                    len,
                    claim,
                    at,
                });
                g.stats.ranges_deferred += 1;
                if g.pending.len() > MAX_PENDING {
                    g.move_in(0, None);
                }
            }
            _ => da.land(held, dst.offset),
        }
        Ok(())
    }

    /// Claim `len` bytes at `src` as they are now, without copying them
    /// (beyond a cache line's worth). Later writes to `src` do not change
    /// what the claim delivers.
    pub fn hold(&self, src: MemRef, len: u64) -> Result<Held, MemError> {
        let sa = self.get(src.space)?;
        sa.check(src.offset, len)?;
        Ok(sa.claim(src.offset, len, None))
    }

    /// Write the bytes `held` claimed at `dst`: one pass, source arena
    /// to destination arena, unless a write to the source came between.
    pub fn deliver(&self, held: Held, dst: MemRef) -> Result<(), MemError> {
        let da = self.get(dst.space)?;
        da.check(dst.offset, held.len)?;
        da.land(held, dst.offset);
        Ok(())
    }

    /// What the lazy layer has done so far, summed over this map's arenas.
    pub fn stats(&self) -> MemStats {
        let mut sum = MemStats::default();
        for a in self.arenas.borrow().values() {
            let s = a.inner.borrow().stats;
            sum.bytes_moved += s.bytes_moved;
            sum.ranges_deferred += s.ranges_deferred;
            sum.dropped_unmoved += s.dropped_unmoved;
            sum.moved_in += s.moved_in;
            sum.cow_saves += s.cow_saves;
        }
        sum
    }

    /// Read `len` bytes at `src` into a fresh buffer.
    pub fn read_bytes(&self, src: MemRef, len: u64) -> Result<Vec<u8>, MemError> {
        let a = self.get(src.space)?;
        let g = a.settled(src.offset, len)?;
        Ok(g.data[src.offset as usize..(src.offset + len) as usize].to_vec())
    }

    pub fn write_bytes(&self, dst: MemRef, data: &[u8]) -> Result<(), MemError> {
        let a = self.get(dst.space)?;
        a.write(dst.offset, data)
    }
}

impl fmt::Debug for MemoryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemoryMap({} arenas)", self.arenas.borrow().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(space: MemSpace, size: usize) -> MemoryMap {
        let m = MemoryMap::new();
        m.create(space, size);
        m
    }

    #[test]
    fn read_write_round_trip() {
        let m = map_with(MemSpace::Host(ProcId(0)), 64);
        let r = MemRef::new(MemSpace::Host(ProcId(0)), 8);
        m.write_bytes(r, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(r, 4).unwrap(), vec![1, 2, 3, 4]);
        // untouched bytes stay zero
        assert_eq!(m.read_bytes(r.add(4), 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn cross_space_copy() {
        let m = MemoryMap::new();
        m.create(MemSpace::Host(ProcId(0)), 32);
        m.create(MemSpace::Device(GpuId(0)), 32);
        let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        let d = MemRef::new(MemSpace::Device(GpuId(0)), 16);
        m.write_bytes(h, b"hello").unwrap();
        m.copy(h, d, 5).unwrap();
        assert_eq!(m.read_bytes(d, 5).unwrap(), b"hello");
    }

    #[test]
    fn overlapping_copy_is_memmove() {
        let m = map_with(MemSpace::Host(ProcId(1)), 16);
        let base = MemRef::new(MemSpace::Host(ProcId(1)), 0);
        m.write_bytes(base, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        m.copy(base, base.add(2), 6).unwrap();
        assert_eq!(
            m.read_bytes(base, 8).unwrap(),
            vec![1, 2, 1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn overlapping_copy_towards_lower_addresses_is_memmove() {
        let m = map_with(MemSpace::Host(ProcId(1)), 16);
        let base = MemRef::new(MemSpace::Host(ProcId(1)), 0);
        m.write_bytes(base, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        m.copy(base.add(2), base, 6).unwrap();
        assert_eq!(
            m.read_bytes(base, 8).unwrap(),
            vec![3, 4, 5, 6, 7, 8, 7, 8]
        );
    }

    #[test]
    fn out_of_bounds_copy_moves_no_byte() {
        let m = MemoryMap::new();
        m.create(MemSpace::Host(ProcId(0)), 16);
        m.create(MemSpace::Device(GpuId(0)), 8);
        let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
        let d = MemRef::new(MemSpace::Device(GpuId(0)), 0);
        m.write_bytes(h, &[9; 16]).unwrap();
        // destination too small, cross-space and same-space
        for (src, dst, len) in [(h, d.add(4), 8), (h, h.add(12), 8)] {
            let before = m.read_bytes(MemRef::new(dst.space, 0), 8).unwrap();
            let err = m.copy(src, dst, len).unwrap_err();
            assert!(matches!(err, MemError::OutOfBounds { space, .. } if space == dst.space));
            assert_eq!(m.read_bytes(MemRef::new(dst.space, 0), 8).unwrap(), before);
        }
        assert_eq!(m.read_bytes(d, 8).unwrap(), vec![0; 8]);
        // source too small: the destination stays untouched as well
        assert!(m.copy(d.add(4), h, 8).is_err());
        assert_eq!(m.read_bytes(h, 16).unwrap(), vec![9; 16]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = map_with(MemSpace::Host(ProcId(0)), 8);
        let r = MemRef::new(MemSpace::Host(ProcId(0)), 6);
        let err = m.write_bytes(r, &[0; 4]).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        // offset overflow must not wrap
        let r2 = MemRef::new(MemSpace::Host(ProcId(0)), u64::MAX - 1);
        assert!(m.read_bytes(r2, 4).is_err());
    }

    #[test]
    fn unknown_space_rejected() {
        let m = MemoryMap::new();
        let r = MemRef::new(MemSpace::Device(GpuId(9)), 0);
        assert!(matches!(
            m.read_bytes(r, 1).unwrap_err(),
            MemError::UnknownSpace(_)
        ));
    }

    #[test]
    fn duplicate_create_panics() {
        let m = MemoryMap::new();
        m.create(MemSpace::Shared(SegId(0)), 8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.create(MemSpace::Shared(SegId(0)), 8)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn u64_helpers_and_fetch_update() {
        let m = map_with(MemSpace::Shared(SegId(1)), 16);
        let a = m.get(MemSpace::Shared(SegId(1))).unwrap();
        a.write_u64(8, 41).unwrap();
        let old = a.fetch_update_u64(8, |v| v + 1).unwrap();
        assert_eq!(old, 41);
        assert_eq!(a.read_u64(8).unwrap(), 42);
    }

    #[test]
    fn zero_length_copy_needs_no_arena() {
        let m = MemoryMap::new();
        let r = MemRef::new(MemSpace::Host(ProcId(5)), 0);
        m.copy(r, r, 0).unwrap();
    }

    #[test]
    fn memref_display_and_add() {
        let r = MemRef::new(MemSpace::Device(GpuId(2)), 0x10);
        assert_eq!(r.add(0x10).offset, 0x20);
        assert!(format!("{r}").contains("dev[gpu2]"));
        assert!(r.is_device());
    }
}

/// The lazy layer, case by case, with the exact counters each case
/// must leave (`tests/mem_differential.rs` checks the same layer against
/// an eager model on random streams).
#[cfg(test)]
mod lazy_tests {
    use super::*;

    const N: u64 = DEFER_FLOOR;
    const HOST: MemSpace = MemSpace::Host(ProcId(0));
    const STAGE: MemSpace = MemSpace::Shared(SegId(0));
    const DEV: MemSpace = MemSpace::Device(GpuId(0));

    fn at(space: MemSpace, off: u64) -> MemRef {
        MemRef::new(space, off)
    }

    /// Three arenas of `4 N` bytes; the host one holds `pat(1)` at 0.
    fn three() -> MemoryMap {
        let m = MemoryMap::new();
        for sp in [HOST, STAGE, DEV] {
            m.create(sp, 4 * N as usize);
        }
        m.write_bytes(at(HOST, 0), &pat(1)).unwrap();
        m
    }

    fn pat(tag: u8) -> Vec<u8> {
        (0..N).map(|i| tag ^ (i % 251) as u8).collect()
    }

    fn stats(m: &MemoryMap) -> (u64, u64, u64, u64, u64) {
        let s = m.stats();
        (s.bytes_moved, s.ranges_deferred, s.dropped_unmoved, s.moved_in, s.cow_saves)
    }

    #[test]
    fn a_deferred_copy_moves_nothing_until_it_is_read() {
        let m = three();
        m.copy(at(HOST, 0), at(STAGE, N), N).unwrap();
        assert_eq!(stats(&m), (0, 1, 0, 0, 0));
        assert_eq!(m.read_bytes(at(STAGE, N + 7), 5).unwrap(), pat(1)[7..12]);
        assert_eq!(stats(&m), (N, 1, 0, 1, 0));
        // moved once: a second read finds the bytes in place
        assert_eq!(m.read_bytes(at(STAGE, N), N).unwrap(), pat(1));
        assert_eq!(stats(&m), (N, 1, 0, 1, 0));
    }

    #[test]
    fn a_copy_below_the_floor_moves_at_once() {
        let m = three();
        m.copy(at(HOST, 0), at(STAGE, 0), N - 1).unwrap();
        assert_eq!(stats(&m), (N - 1, 0, 0, 0, 0));
        assert_eq!(m.read_bytes(at(STAGE, 0), N - 1).unwrap(), pat(1)[..N as usize - 1]);
    }

    #[test]
    fn a_covering_write_drops_the_range_and_a_clipping_one_moves_it_in() {
        let m = three();
        m.copy(at(HOST, 0), at(STAGE, N), N).unwrap();
        // the next occupant of the slot covers the stale range
        m.write_bytes(at(STAGE, N), &pat(2)).unwrap();
        assert_eq!(stats(&m), (0, 1, 1, 0, 0));
        assert_eq!(m.read_bytes(at(STAGE, N), N).unwrap(), pat(2));

        m.copy(at(HOST, 0), at(STAGE, N), N).unwrap();
        m.write_bytes(at(STAGE, N + 8), &[0xEE; 8]).unwrap();
        assert_eq!(stats(&m), (N, 2, 1, 1, 0));
        let mut want = pat(1);
        want[8..16].fill(0xEE);
        assert_eq!(m.read_bytes(at(STAGE, N), N).unwrap(), want);
    }

    #[test]
    fn a_hold_inside_a_pending_range_forwards_to_its_source() {
        let m = three();
        m.copy(at(HOST, 0), at(STAGE, N), N).unwrap();
        let held = m.hold(at(STAGE, N + 100), N - 200).unwrap();
        m.deliver(held, at(DEV, 0)).unwrap();
        // host -> device in one pass; the staging hop never moved
        assert_eq!(stats(&m), (N - 200, 1, 0, 0, 0));
        assert_eq!(
            m.read_bytes(at(DEV, 0), N - 200).unwrap(),
            pat(1)[100..N as usize - 100]
        );
        // ... and still reads as the copy left it
        assert_eq!(m.read_bytes(at(STAGE, N), N).unwrap(), pat(1));
    }

    #[test]
    fn a_hold_straddling_a_pending_range_moves_it_in() {
        let m = three();
        m.write_bytes(at(STAGE, N - 4), &[9; 4]).unwrap();
        m.copy(at(HOST, 0), at(STAGE, N), N).unwrap();
        let held = m.hold(at(STAGE, N - 4), 100).unwrap();
        assert_eq!(stats(&m), (N, 1, 0, 1, 0));
        // the claim is on the staging bytes now: the host may change
        m.write_bytes(at(HOST, 0), &pat(3)).unwrap();
        m.deliver(held, at(DEV, 0)).unwrap();
        let mut want = vec![9; 4];
        want.extend_from_slice(&pat(1)[..96]);
        assert_eq!(m.read_bytes(at(DEV, 0), 100).unwrap(), want);
        assert_eq!(m.stats().cow_saves, 0);
    }

    #[test]
    fn a_write_over_a_claimed_source_saves_it_before_delivery_only() {
        let m = three();
        let held = m.hold(at(HOST, 0), N).unwrap();
        assert_eq!(stats(&m), (0, 0, 0, 0, 0));
        m.write_bytes(at(HOST, N - 1), &[0xAB; 2]).unwrap();
        assert_eq!(stats(&m), (N, 0, 0, 0, 1));
        m.write_bytes(at(HOST, 0), &pat(2)).unwrap(); // saved once
        m.deliver(held, at(DEV, 0)).unwrap();
        assert_eq!(m.read_bytes(at(DEV, 0), N).unwrap(), pat(1));
        // delivered: the claim is gone, writes to the source are free
        m.write_bytes(at(HOST, 0), &pat(3)).unwrap();
        assert_eq!(stats(&m), (2 * N, 0, 0, 0, 1));
        // so are writes under a claim dropped undelivered
        drop(m.hold(at(HOST, 0), N).unwrap());
        m.write_bytes(at(HOST, 0), &pat(4)).unwrap();
        assert_eq!(m.stats().cow_saves, 1);
    }

    #[test]
    fn a_cache_line_hold_is_a_copy() {
        let m = three();
        let held = m.hold(at(HOST, 3), INLINE as u64).unwrap();
        m.write_bytes(at(HOST, 0), &pat(2)).unwrap();
        m.deliver(held, at(DEV, 0)).unwrap();
        assert_eq!(m.read_bytes(at(DEV, 0), 64).unwrap(), pat(1)[3..67]);
        assert_eq!(stats(&m), (128, 0, 0, 0, 0));
        assert!(m.get(HOST).unwrap().inner.borrow().claimed.is_empty());
    }

    #[test]
    fn a_write_to_a_deferred_copys_source_moves_the_range_in() {
        let m = three();
        m.copy(at(HOST, 0), at(STAGE, N), N).unwrap();
        m.write_bytes(at(HOST, 5), &[0; 1]).unwrap();
        // straight into the pending range: nothing saved aside
        assert_eq!(stats(&m), (N, 1, 0, 1, 0));
        assert_eq!(m.read_bytes(at(STAGE, N), N).unwrap(), pat(1));

        // with a transfer out of the range in flight, that needs a copy too
        m.write_bytes(at(HOST, 0), &pat(2)).unwrap();
        m.copy(at(HOST, 0), at(STAGE, N), N).unwrap();
        let in_flight = m.hold(at(STAGE, N + 10), 1000).unwrap();
        m.write_bytes(at(HOST, 0), &pat(3)).unwrap();
        assert_eq!(stats(&m), (3 * N, 2, 0, 2, 1));
        m.deliver(in_flight, at(DEV, 0)).unwrap();
        assert_eq!(m.read_bytes(at(DEV, 0), 1000).unwrap(), pat(2)[10..1010]);
        assert_eq!(m.read_bytes(at(STAGE, N), N).unwrap(), pat(2));
    }

    #[test]
    fn a_delivery_into_the_claims_own_arena_may_overlap_its_source() {
        let m = three();
        let held = m.hold(at(HOST, 0), N).unwrap();
        m.deliver(held, at(HOST, 100)).unwrap();
        assert_eq!(m.read_bytes(at(HOST, 100), N).unwrap(), pat(1));
        assert_eq!(m.read_bytes(at(HOST, 0), 100).unwrap(), pat(1)[..100]);
        // apart from its source, it is a plain move within the arena
        let held = m.hold(at(HOST, 100), N).unwrap();
        m.deliver(held, at(HOST, 2 * N)).unwrap();
        assert_eq!(m.read_bytes(at(HOST, 2 * N), N).unwrap(), pat(1));
        assert_eq!(m.stats().cow_saves, 1);
    }

    #[test]
    fn a_chain_back_into_the_source_arena_moves_at_once() {
        // staging -> device -> staging: the second hop forwards to a
        // claim on the arena it writes, which no pending range may have
        let m = three();
        m.write_bytes(at(STAGE, 0), &pat(5)).unwrap();
        m.copy(at(STAGE, 0), at(DEV, 0), N).unwrap();
        m.copy(at(DEV, 0), at(STAGE, 2 * N), N).unwrap();
        assert_eq!(stats(&m), (N, 1, 0, 0, 0));
        assert!(m.get(STAGE).unwrap().inner.borrow().pending.is_empty());
        assert_eq!(m.read_bytes(at(STAGE, 2 * N), N).unwrap(), pat(5));
        assert_eq!(m.read_bytes(at(DEV, 0), N).unwrap(), pat(5));
    }

    #[test]
    fn a_chain_through_a_third_arena_shares_one_claim() {
        let m = three();
        m.write_bytes(at(HOST, N), &pat(6)).unwrap();
        m.copy(at(HOST, 0), at(STAGE, 0), 2 * N).unwrap();
        // a window of the staged range travels on, and part of it back
        let (h, q) = (N / 2, N / 4);
        m.copy(at(STAGE, h), at(DEV, 0), N + h).unwrap();
        m.copy(at(DEV, q), at(STAGE, 3 * N), N).unwrap();
        assert_eq!(stats(&m), (0, 3, 0, 0, 0));
        assert_eq!(m.get(HOST).unwrap().inner.borrow().claimed.len(), 1);
        // the source changes: both staging ranges move in from it, the
        // device range gets the copy saved aside
        m.write_bytes(at(HOST, 0), &[0; 1]).unwrap();
        assert_eq!(stats(&m), (3 * N + 2 * N, 3, 0, 2, 1));
        let all = [pat(1), pat(6)].concat();
        let window = |from: u64, len: u64| &all[from as usize..(from + len) as usize];
        assert_eq!(m.read_bytes(at(STAGE, 0), 2 * N).unwrap(), all);
        assert_eq!(m.read_bytes(at(DEV, 0), N + h).unwrap(), window(h, N + h));
        assert_eq!(m.read_bytes(at(STAGE, 3 * N), N).unwrap(), window(h + q, N));
    }

    #[test]
    fn pending_ranges_are_bounded_and_the_oldest_moves_in_first() {
        let m = MemoryMap::new();
        let slots = MAX_PENDING as u64 + 1;
        m.create(HOST, N as usize);
        m.create(STAGE, (slots * N) as usize);
        m.write_bytes(at(HOST, 0), &pat(1)).unwrap();
        for i in 0..slots {
            m.copy(at(HOST, 0), at(STAGE, i * N), N).unwrap();
        }
        assert_eq!(stats(&m), (N, slots, 0, 1, 0));
        let stage = m.get(STAGE).unwrap();
        assert!(stage.inner.borrow().pending.iter().all(|p| p.off != 0));
        assert_eq!(stage.inner.borrow().pending.len(), MAX_PENDING);
    }

    #[test]
    fn dropped_claims_leave_nothing_that_grows() {
        let m = three();
        for _ in 0..1000 {
            drop(m.hold(at(HOST, 0), N).unwrap());
            m.copy(at(HOST, 0), at(STAGE, 0), N).unwrap(); // covers the last
        }
        let host = m.get(HOST).unwrap();
        assert!(host.inner.borrow().claimed.len() <= 2);
        assert_eq!(m.get(STAGE).unwrap().inner.borrow().pending.len(), 1);
        assert_eq!(stats(&m), (0, 1000, 999, 0, 0));
    }

    #[test]
    fn arenas_with_ranges_pending_on_each_other_die_with_their_map() {
        let m = three();
        m.write_bytes(at(DEV, 0), &pat(2)).unwrap();
        m.copy(at(HOST, 0), at(DEV, N), N).unwrap();
        m.copy(at(DEV, 0), at(HOST, N), N).unwrap();
        let in_flight = m.hold(at(DEV, N), N).unwrap();
        let weak: Vec<_> = [HOST, STAGE, DEV]
            .map(|sp| Rc::downgrade(&m.get(sp).unwrap()))
            .into();
        drop(m);
        assert!(weak.iter().all(|w| w.upgrade().is_none()));
        drop(in_flight);
    }
}
