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
//!
//! **An arena costs the pages it touches.** Its bytes are a two-level
//! page table (`Pages`): a directory, grown on demand, of leaves that
//! each hold the slots of `LEAF` pages of [`PAGE`] bytes. Creating an
//! arena allocates nothing, whatever its size, and a page never written
//! reads as zero. The commit rule:
//!
//! - only written bytes commit memory — reads, claims, deferred copies,
//!   and copies of never-written bytes (onto never-written bytes, or as
//!   zeros onto written ones) commit none;
//! - a write commits its leaf, and each page it writes bytes to;
//! - a run of at least `BULK` (32 KiB) written bytes into one [`BLOCK`] (16
//!   pages) commits that block *whole*: one allocation, built in one pass
//!   from the pages it had, the run and zeros, and from then on copied
//!   through in one `copy_from_slice` per block instead of one per page.
//!
//! `MemStats::pages_committed` counts the pages committed. Bulk copies
//! move one contiguous run (inside one source and one destination page or
//! whole block) per `copy_from_slice`, never through a temporary buffer
//! and never zero-filling what they then overwrite; an access inside one
//! page takes no loop.

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
/// log2 of [`PAGE`].
const PAGE_SHIFT: u32 = 12;
/// Bytes per page, the unit an arena commits host memory in. Measured on
/// the 64-PE stencil (2-vCPU Xeon VM): 4 KiB pages hold 15-20 % less peak
/// RSS than arenas zeroed up front, 16 KiB pages 8 % more.
pub const PAGE: usize = 1 << PAGE_SHIFT;
/// log2 of [`BLOCK`].
const BLOCK_SHIFT: u32 = 16;
/// Bytes per block, the unit a bulk write (`BULK` bytes) commits as one
/// allocation. Measured on the pipelined 4 MiB transfers of the same
/// machine: copying the payload in runs of 4 KiB or 16 KiB cost 15-30 %
/// more host time than one flat memcpy, in runs of 64 KiB nothing more.
pub const BLOCK: usize = 1 << BLOCK_SHIFT;
const PER_BLOCK: usize = BLOCK / PAGE;
/// A run of written bytes at least this long commits its block whole
/// (at most twice the memory its bytes need); shorter runs commit page by
/// page, so scattered small writes cost what they touch.
const BULK: usize = BLOCK / 2;
/// log2 of [`LEAF`].
const LEAF_SHIFT: u32 = 7;
/// Pages per directory leaf: 2 KiB of slots mapping 512 KiB.
const LEAF: usize = 1 << LEAF_SHIFT;

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
    /// [`PAGE`]s of host memory the arenas hold: each page written at
    /// least once, and every page of a block a bulk write made whole.
    pub pages_committed: u64,
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
    /// Copy bytes `[at, at + len)` of the claim to `dst` at `off`.
    /// Borrows the claim's arena while the bytes are still in place there.
    fn copy_to(&self, at: u64, len: u64, dst: &mut Pages, off: u64) {
        if let Some(b) = self.saved.get() {
            return dst.write(off as usize, &b[at as usize..(at + len) as usize]);
        }
        let arena = self
            .arena
            .upgrade()
            .expect("an unsaved claim is delivered while its arena's map is alive");
        let g = arena.inner.borrow();
        dst.copy_from(off as usize, &g.data, (self.off + at) as usize, len as usize);
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

/// What the slot of one page in a leaf holds.
#[derive(Default)]
enum Slot {
    /// Never written: reads as zero.
    #[default]
    Empty,
    Page(Box<[u8; PAGE]>),
    /// The first page of a whole block: the whole block, one allocation,
    /// so bulk copies through it are one `copy_from_slice` per block.
    /// A block becomes whole at its first [`BULK`] write and stays so.
    Whole(Box<[u8; BLOCK]>),
    /// A later page of a whole block, whose bytes are in the first slot.
    InWhole,
}

type Leaf = Box<[Slot; LEAF]>;
const _: () = assert!(LEAF.is_multiple_of(PER_BLOCK), "a block lies in one leaf");

/// An arena's bytes (see the module docs): page `p` is slot `p % LEAF`
/// of leaf `p / LEAF`. A missing leaf or an empty slot reads as zero.
/// Offsets are bounds-checked by the [`Arena`] before they get here.
#[derive(Default)]
struct Pages {
    /// Grown on demand: an index past the end is a missing leaf.
    dir: Vec<Option<Leaf>>,
    /// Pages allocated so far (a whole block counts all of its pages);
    /// committed memory stays until the arena goes.
    committed: u64,
}

/// What a run inside one block is copied from.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// Exactly the run's bytes.
    Bytes(&'a [u8]),
    /// Never-written bytes.
    Zero,
    /// The slots of a block that is not whole; the run starts at this
    /// offset in the block.
    Pages(&'a [Slot], usize),
}

impl<'a> Src<'a> {
    /// The `m` bytes at `at` in the source's block (`i` into the run), or
    /// `None` where they were never written.
    fn part(self, at: usize, i: usize, m: usize) -> Option<&'a [u8]> {
        match self {
            Src::Bytes(b) => Some(&b[i..i + m]),
            Src::Zero => None,
            Src::Pages(slots, _) => match &slots[at >> PAGE_SHIFT] {
                Slot::Page(page) => Some(&page[at & (PAGE - 1)..][..m]),
                _ => None,
            },
        }
    }

    /// Whether any of the run's `n` bytes were ever written.
    fn written(self, n: usize) -> bool {
        n > 0
            && match self {
                Src::Bytes(_) => true,
                Src::Zero => false,
                Src::Pages(slots, at) => slots[at >> PAGE_SHIFT..=(at + n - 1) >> PAGE_SHIFT]
                    .iter()
                    .any(|s| matches!(s, Slot::Page(_))),
            }
    }

    /// Where the run starts in the source's block, for splitting it at
    /// the source's page boundaries (`dst_at` when it has none).
    fn at(self, dst_at: usize) -> usize {
        match self {
            Src::Pages(_, at) => at,
            _ => dst_at,
        }
    }
}

/// Split `[0, len)` into runs that each stay inside one `UNIT`-aligned
/// unit at `a + i` and one at `b + i`, and call `f(a + i, b + i, n)` on
/// each: the last run first if `rev` (a `memmove` towards higher
/// addresses). An access inside one unit is one call, with no loop.
fn runs<const UNIT: usize>(
    a: usize,
    b: usize,
    len: usize,
    rev: bool,
    mut f: impl FnMut(usize, usize, usize),
) {
    let within = |x: usize| x & (UNIT - 1);
    if within(a).max(within(b)) + len <= UNIT {
        return f(a, b, len);
    }
    if rev {
        let mut end = len;
        while end > 0 {
            let tail = |x: usize| within(x - 1) + 1;
            let n = tail(a + end).min(tail(b + end)).min(end);
            end -= n;
            f(a + end, b + end, n);
        }
    } else {
        let mut i = 0;
        while i < len {
            let head = |x: usize| UNIT - within(x);
            let n = head(a + i).min(head(b + i)).min(len - i);
            f(a + i, b + i, n);
            i += n;
        }
    }
}

/// Bytes `[at, at + m)` of the page in `slot` (not part of a whole block)
/// become `src`, or zero if `src` is `None`. Only bytes commit a page; a
/// whole page of them is copied in, never zeroed first.
fn put_page(slot: &mut Slot, at: usize, m: usize, src: Option<&[u8]>, committed: &mut u64) {
    match (slot, src) {
        (Slot::Page(page), Some(b)) => page[at..at + m].copy_from_slice(b),
        (Slot::Page(page), None) => page[at..at + m].fill(0),
        (slot @ Slot::Empty, Some(b)) if m > 0 => {
            let page: Box<[u8]> = if m == PAGE {
                b.into()
            } else {
                let mut zeroed = vec![0u8; PAGE];
                zeroed[at..at + m].copy_from_slice(b);
                zeroed.into()
            };
            *slot = Slot::Page(page.try_into().expect("one page of bytes"));
            *committed += 1;
        }
        (Slot::Empty, _) => {}
        (Slot::Whole(_) | Slot::InWhole, _) => unreachable!("a page of a whole block"),
    }
}

/// Append bytes `[from, to)` of the block in `slots` (not whole) to `v`:
/// the written pages' bytes, zeros for the rest.
fn push_slots(v: &mut Vec<u8>, slots: &[Slot], from: usize, to: usize) {
    if from == to {
        return;
    }
    runs::<PAGE>(from, from, to - from, false, |o, _, m| match &slots[o >> PAGE_SHIFT] {
        Slot::Page(page) => v.extend_from_slice(&page[o & (PAGE - 1)..][..m]),
        _ => v.resize(v.len() + m, 0),
    });
}

/// The slots of the block holding `off`, if its leaf exists.
fn block_slots(dir: &mut [Option<Leaf>], off: usize) -> Option<&mut [Slot]> {
    let p = off >> PAGE_SHIFT;
    let leaf = dir.get_mut(p >> LEAF_SHIFT)?.as_mut()?;
    let first = p & (LEAF - 1) & !(PER_BLOCK - 1);
    Some(&mut leaf[first..first + PER_BLOCK])
}

impl Pages {
    /// Page `p` and the rest of the allocation holding it (a whole
    /// block's later pages), or `None` if it was never written.
    fn unit(&self, p: usize) -> Option<&[u8]> {
        let leaf = self.dir.get(p >> LEAF_SHIFT)?.as_deref()?;
        let i = p & (LEAF - 1);
        match &leaf[i] {
            Slot::Empty => None,
            Slot::Page(page) => Some(&page[..]),
            Slot::Whole(w) => Some(&w[..]),
            Slot::InWhole => match &leaf[i & !(PER_BLOCK - 1)] {
                Slot::Whole(w) => Some(&w[(i & (PER_BLOCK - 1)) << PAGE_SHIFT..]),
                _ => unreachable!("a whole block starts at its first slot"),
            },
        }
    }

    /// [`Pages::unit`], writable.
    fn unit_mut(&mut self, p: usize) -> Option<&mut [u8]> {
        let leaf = self.dir.get_mut(p >> LEAF_SHIFT)?.as_deref_mut()?;
        let i = p & (LEAF - 1);
        let (first, skip) = match leaf[i] {
            Slot::InWhole => (i & !(PER_BLOCK - 1), (i & (PER_BLOCK - 1)) << PAGE_SHIFT),
            _ => (i, 0),
        };
        match &mut leaf[first] {
            Slot::Page(page) => Some(&mut page[..]),
            Slot::Whole(w) => Some(&mut w[skip..]),
            _ => None,
        }
    }

    /// The source of the run of `n` bytes at `off`, inside one block.
    fn src(&self, off: usize, n: usize) -> Src<'_> {
        let p = off >> PAGE_SHIFT;
        let Some(leaf) = self.dir.get(p >> LEAF_SHIFT).and_then(Option::as_deref) else {
            return Src::Zero;
        };
        let (first, at) = (p & (LEAF - 1) & !(PER_BLOCK - 1), off & (BLOCK - 1));
        match &leaf[first] {
            Slot::Whole(w) => Src::Bytes(&w[at..at + n]),
            _ => Src::Pages(&leaf[first..first + PER_BLOCK], at),
        }
    }

    /// Bytes `[off, off + n)`, inside one block, become what `src` holds.
    /// A run of [`BULK`] bytes or more, some of them written, makes the
    /// block whole; a shorter one commits the pages it writes bytes to.
    /// Zeros commit nothing.
    fn put(&mut self, off: usize, n: usize, src: Src) {
        let d = off >> PAGE_SHIFT >> LEAF_SHIFT;
        let written = src.written(n);
        if !written && self.dir.get(d).is_none_or(Option::is_none) {
            return; // nothing written onto nothing written
        }
        if d >= self.dir.len() {
            self.dir.resize_with(d + 1, || None);
        }
        self.dir[d].get_or_insert_with(|| Box::new([const { Slot::Empty }; LEAF]));
        let block = block_slots(&mut self.dir, off).expect("the leaf was just made");
        let at = off & (BLOCK - 1);
        if let Slot::Whole(w) = &mut block[0] {
            let to = &mut w[at..at + n];
            match src {
                Src::Bytes(bytes) => to.copy_from_slice(bytes),
                Src::Zero => to.fill(0),
                Src::Pages(..) => runs::<PAGE>(src.at(at), at, n, false, |s, d, m| {
                    let to = &mut to[d - at..][..m];
                    match src.part(s, d - at, m) {
                        Some(bytes) => to.copy_from_slice(bytes),
                        None => to.fill(0),
                    }
                }),
            }
            return;
        }
        if n >= BULK && written {
            // built in one pass: the pages written so far, the run, zeros
            let mut whole = Vec::with_capacity(BLOCK);
            push_slots(&mut whole, block, 0, at);
            match src {
                Src::Bytes(bytes) => whole.extend_from_slice(bytes),
                Src::Zero => unreachable!("zeros are not written bytes"),
                Src::Pages(slots, from) => push_slots(&mut whole, slots, from, from + n),
            }
            push_slots(&mut whole, block, at + n, BLOCK);
            let had = block.iter().filter(|s| matches!(s, Slot::Page(_))).count();
            self.committed += (PER_BLOCK - had) as u64;
            block[0] = Slot::Whole(whole.into_boxed_slice().try_into().expect("one block of bytes"));
            block[1..].fill_with(|| Slot::InWhole);
            return;
        }
        let committed = &mut self.committed;
        runs::<PAGE>(src.at(at), at, n, false, |s, d, m| {
            let slot = &mut block[d >> PAGE_SHIFT];
            put_page(slot, d & (PAGE - 1), m, src.part(s, d - at, m), committed);
        });
    }

    /// Call `f(i, bytes)` on the stored pieces of `[off, off + len)` in
    /// order, `i` bytes in; `bytes` is `Err(n)` for `n` never written.
    fn pieces(&self, off: usize, len: usize, mut f: impl FnMut(usize, Result<&[u8], usize>)) {
        let mut i = 0;
        while i < len {
            let o = off + i;
            let at = o & (PAGE - 1);
            let n = match self.unit(o >> PAGE_SHIFT) {
                Some(unit) => {
                    let n = (unit.len() - at).min(len - i);
                    f(i, Ok(&unit[at..at + n]));
                    n
                }
                None => {
                    let n = (PAGE - at).min(len - i);
                    f(i, Err(n));
                    n
                }
            };
            i += n;
        }
    }

    fn read(&self, off: usize, out: &mut [u8]) {
        let at = off & (PAGE - 1);
        if at + out.len() <= PAGE {
            // inside one page: no loop
            match self.unit(off >> PAGE_SHIFT) {
                Some(unit) => out.copy_from_slice(&unit[at..at + out.len()]),
                None => out.fill(0),
            }
            return;
        }
        self.pieces(off, out.len(), |i, piece| match piece {
            Ok(bytes) => out[i..i + bytes.len()].copy_from_slice(bytes),
            Err(m) => out[i..i + m].fill(0),
        });
    }

    fn to_vec(&self, off: usize, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        self.pieces(off, len, |_, piece| match piece {
            Ok(bytes) => v.extend_from_slice(bytes),
            Err(m) => v.resize(v.len() + m, 0),
        });
        v
    }

    fn write(&mut self, off: usize, src: &[u8]) {
        let at = off & (PAGE - 1);
        if at + src.len() <= PAGE {
            // inside one page already written: no loop
            if let Some(unit) = self.unit_mut(off >> PAGE_SHIFT) {
                return unit[at..at + src.len()].copy_from_slice(src);
            }
        }
        runs::<BLOCK>(off, off, src.len(), false, |o, _, n| {
            self.put(o, n, Src::Bytes(&src[o - off..][..n]));
        });
    }

    /// Apply `f` to the `N` bytes at `off`: in place when they lie in one
    /// page already written.
    fn update<const N: usize>(&mut self, off: usize, f: impl FnOnce(&mut [u8; N])) {
        let at = off & (PAGE - 1);
        if at + N <= PAGE {
            if let Some(unit) = self.unit_mut(off >> PAGE_SHIFT) {
                return f((&mut unit[at..at + N]).try_into().expect("N bytes"));
            }
        }
        let mut b = [0u8; N];
        self.read(off, &mut b);
        f(&mut b);
        self.write(off, &b);
    }

    /// `[dst, dst + len)` becomes what `[src, src + len)` of `from` is.
    fn copy_from(&mut self, dst: usize, from: &Pages, src: usize, len: usize) {
        runs::<BLOCK>(src, dst, len, false, |s, d, n| self.put(d, n, from.src(s, n)));
    }

    /// [`Pages::copy_from`] within these pages, as `memmove`.
    fn copy_within(&mut self, src: usize, dst: usize, len: usize) {
        let rev = src < dst && dst < src + len;
        runs::<BLOCK>(src, dst, len, rev, |s, d, n| {
            if s >> BLOCK_SHIFT == d >> BLOCK_SHIFT {
                return self.move_within_block(s, d, n, rev);
            }
            // two blocks of one table: move the source block out meanwhile
            let Some(slots) = block_slots(&mut self.dir, s) else {
                return self.put(d, n, Src::Zero);
            };
            let mut taken: [Slot; PER_BLOCK] = Default::default();
            taken.swap_with_slice(slots);
            let at = s & (BLOCK - 1);
            let src = match &taken[0] {
                Slot::Whole(w) => Src::Bytes(&w[at..at + n]),
                _ => Src::Pages(&taken, at),
            };
            self.put(d, n, src);
            let slots = block_slots(&mut self.dir, s).expect("the leaf they were taken from");
            slots.swap_with_slice(&mut taken);
        });
    }

    /// [`Pages::copy_within`] of a run whose two ends lie in one block.
    fn move_within_block(&mut self, s: usize, d: usize, n: usize, rev: bool) {
        let Some(block) = block_slots(&mut self.dir, s) else {
            return;
        };
        let (sa, da) = (s & (BLOCK - 1), d & (BLOCK - 1));
        if let Slot::Whole(w) = &mut block[0] {
            return w.copy_within(sa..sa + n, da);
        }
        let committed = &mut self.committed;
        runs::<PAGE>(sa, da, n, rev, |s, d, m| {
            let (sp, dp) = (s >> PAGE_SHIFT, d >> PAGE_SHIFT);
            let (s, d) = (s & (PAGE - 1), d & (PAGE - 1));
            if sp == dp {
                if let Slot::Page(page) = &mut block[sp] {
                    page.copy_within(s..s + m, d);
                }
                return;
            }
            // two pages: move the source page out meanwhile
            let taken = std::mem::take(&mut block[sp]);
            let bytes = match &taken {
                Slot::Page(page) => Some(&page[s..s + m]),
                _ => None,
            };
            put_page(&mut block[dp], d, m, bytes, committed);
            block[sp] = taken;
        });
    }
}

struct Inner {
    data: Pages,
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
                if let Some(home) = c.home.upgrade() {
                    home.inner.borrow_mut().move_in_all(&c, data);
                }
                if Rc::strong_count(&c) > 1 {
                    let bytes = data.to_vec(e.off as usize, e.len as usize);
                    // listed claims are unsaved, so this cannot be refused
                    let _ = c.saved.set(bytes.into());
                    stats.cow_saves += 1;
                    stats.bytes_moved += e.len;
                }
            }
            false
        });
    }

    /// Move pending range `i` in, from `source` (the data of its claim's
    /// arena) when the caller has it borrowed, else from the claim —
    /// which is on another arena, borrowed while ours is.
    fn move_in(&mut self, i: usize, source: Option<&Pages>) {
        let p = self.pending.remove(i);
        match source {
            Some(src) => {
                let at = (p.claim.off + p.at) as usize;
                self.data.copy_from(p.off as usize, src, at, p.len as usize);
            }
            None => p.claim.copy_to(p.at, p.len, &mut self.data, p.off),
        }
        self.stats.moved_in += 1;
        self.stats.bytes_moved += p.len;
    }

    /// Move in every pending range backed by `claim`, whose source —
    /// in `source`, borrowed from its arena — is about to change.
    fn move_in_all(&mut self, claim: &Rc<Claim>, source: &Pages) {
        while let Some(i) = self
            .pending
            .iter()
            .position(|p| Rc::ptr_eq(&p.claim, claim))
        {
            self.move_in(i, Some(source));
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

/// A contiguous chunk of simulated physical memory, zero until written.
/// Its bytes are a sparse page table: a page is allocated by the first
/// write into it, and creating the arena allocates none (module docs).
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
                data: Pages::default(),
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
            g.data.read(off as usize, &mut b[..len as usize]);
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
            HeldBytes::Inline(b) => g.data.write(d, &b[..n]),
            // still in place in this arena: it does not overlap the
            // destination, or `prepare_write` would have saved it
            HeldBytes::Claim { claim, at } if claim.is_on(self) && claim.saved.get().is_none() => {
                g.data.copy_within((claim.off + at) as usize, d, n);
            }
            HeldBytes::Claim { claim, at } => claim.copy_to(*at, held.len, &mut g.data, off),
        }
        g.stats.bytes_moved += held.len;
    }

    /// Copy bytes out of the arena.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), MemError> {
        let g = self.settled(offset, out.len() as u64)?;
        g.data.read(offset as usize, out);
        Ok(())
    }

    /// Copy bytes into the arena.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<(), MemError> {
        self.check(offset, src.len() as u64)?;
        let mut g = self.inner.borrow_mut();
        g.prepare_write(offset, src.len() as u64);
        g.data.write(offset as usize, src);
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
        let mut old = 0;
        g.data.update(offset as usize, |b: &mut [u8; 8]| {
            old = u64::from_le_bytes(*b);
            *b = f(old).to_le_bytes();
        });
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
            g.data.copy_within(src.offset as usize, dst.offset as usize, len as usize);
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
            to.data.copy_from(d, &from.data, s, n);
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
            let g = a.inner.borrow();
            let s = g.stats;
            sum.bytes_moved += s.bytes_moved;
            sum.ranges_deferred += s.ranges_deferred;
            sum.dropped_unmoved += s.dropped_unmoved;
            sum.moved_in += s.moved_in;
            sum.cow_saves += s.cow_saves;
            sum.pages_committed += g.data.committed;
        }
        sum
    }

    /// Read `len` bytes at `src` into a fresh buffer.
    pub fn read_bytes(&self, src: MemRef, len: u64) -> Result<Vec<u8>, MemError> {
        let a = self.get(src.space)?;
        let g = a.settled(src.offset, len)?;
        Ok(g.data.to_vec(src.offset as usize, len as usize))
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

/// The sparse page table, case by case, with the pages each case must
/// commit (`tests/mem_differential.rs` checks its bytes on random streams).
#[cfg(test)]
mod sparse_tests {
    use super::*;

    const HOST: MemSpace = MemSpace::Host(ProcId(0));
    const DEV: MemSpace = MemSpace::Device(GpuId(0));
    const P: u64 = PAGE as u64;
    const B: u64 = BLOCK as u64;

    fn at(space: MemSpace, off: u64) -> MemRef {
        MemRef::new(space, off)
    }

    fn pages(m: &MemoryMap) -> u64 {
        m.stats().pages_committed
    }

    /// A host and a device arena of 1 GiB each.
    fn two() -> MemoryMap {
        let m = MemoryMap::new();
        m.create(HOST, 1 << 30);
        m.create(DEV, 1 << 30);
        m
    }

    #[test]
    fn a_huge_arena_costs_nothing_until_written_and_reads_as_zero() {
        let m = two();
        assert_eq!(pages(&m), 0);
        assert_eq!(m.read_bytes(at(HOST, (1 << 30) - 3 * P), 3 * P).unwrap(), vec![0; 3 * P as usize]);
        let dev = m.get(DEV).unwrap();
        assert_eq!(dev.read_u64(123 << 20).unwrap(), 0);
        assert_eq!(dev.fetch_update_u64(8, |v| v + 5).unwrap(), 0);
        assert_eq!(pages(&m), 1, "only the fetch-and-add wrote");
        assert!(m.get(HOST).unwrap().inner.borrow().data.dir.is_empty());
    }

    #[test]
    fn small_writes_commit_the_pages_they_touch() {
        let m = two();
        m.write_bytes(at(HOST, 5 * P + 10), &[1; 8]).unwrap();
        assert_eq!(pages(&m), 1);
        // straddling a page and a block boundary
        m.write_bytes(at(HOST, B - 4), &[2; 8]).unwrap();
        assert_eq!(pages(&m), 3);
        let mut want = vec![0; 16];
        want[4..12].fill(2);
        assert_eq!(m.read_bytes(at(HOST, B - 8), 16).unwrap(), want);
        // rewriting a committed page commits nothing
        m.write_bytes(at(HOST, 5 * P), &[3; 64]).unwrap();
        assert_eq!(pages(&m), 3);
    }

    #[test]
    fn a_bulk_write_commits_its_block_whole_around_the_pages_it_had() {
        let m = two();
        m.write_bytes(at(HOST, 3 * B + 2 * P), &[7; 16]).unwrap();
        assert_eq!(pages(&m), 1);
        // half a block, unaligned, into the same block: whole from now on
        let bulk = vec![9u8; BULK];
        m.write_bytes(at(HOST, 3 * B + B / 2 - 100), &bulk).unwrap();
        assert_eq!(pages(&m), B / P, "the block, its written page included");
        let mut want = vec![0u8; 3 * B as usize / 2];
        want[2 * P as usize..][..16].fill(7);
        want[B as usize / 2 - 100..][..BULK].fill(9);
        assert_eq!(m.read_bytes(at(HOST, 3 * B), 3 * B / 2).unwrap(), want);
        let host = m.get(HOST).unwrap();
        let g = host.inner.borrow();
        let first = ((3 * B) / P) as usize % LEAF;
        assert!(matches!(g.data.dir[0].as_ref().unwrap()[first], Slot::Whole(_)));
    }

    #[test]
    fn a_short_run_below_the_bulk_floor_stays_paged() {
        let m = two();
        m.write_bytes(at(HOST, 0), &vec![1; BULK - 1]).unwrap();
        assert_eq!(pages(&m), (BULK as u64 - 1).div_ceil(P));
    }

    #[test]
    fn copies_of_never_written_bytes_commit_nothing_and_zero_written_ones() {
        let m = two();
        // small and deferred copies, and a hold, of never-written bytes
        m.copy(at(HOST, 0), at(DEV, 0), 100).unwrap();
        m.copy(at(HOST, 0), at(DEV, B), 2 * B).unwrap();
        let held = m.hold(at(HOST, 4 * B), B).unwrap();
        m.deliver(held, at(DEV, 8 * B)).unwrap();
        assert_eq!(m.read_bytes(at(DEV, B), 2 * B).unwrap(), vec![0; 2 * B as usize]);
        assert_eq!(pages(&m), 0);
        // onto written bytes: they become zero, in place
        m.write_bytes(at(DEV, 20 * B), &vec![5; B as usize]).unwrap();
        m.write_bytes(at(DEV, 30 * B + 8), &[5; 8]).unwrap();
        let committed = pages(&m);
        m.copy(at(HOST, 7), at(DEV, 20 * B - 7), B + 14).unwrap();
        m.copy(at(HOST, 0), at(DEV, 30 * B), 64).unwrap();
        assert_eq!(m.read_bytes(at(DEV, 20 * B), B).unwrap(), vec![0; B as usize]);
        assert_eq!(m.read_bytes(at(DEV, 30 * B), 64).unwrap(), vec![0; 64]);
        assert_eq!(pages(&m), committed);
    }

    #[test]
    fn an_empty_run_commits_nothing() {
        let m = two();
        m.write_bytes(at(HOST, 3 * B), &[]).unwrap();
        let held = m.hold(at(HOST, 0), 0).unwrap();
        m.deliver(held, at(DEV, 5 * B)).unwrap();
        assert_eq!(pages(&m), 0);
        assert!(m.get(DEV).unwrap().inner.borrow().data.dir.is_empty());
    }

    #[test]
    fn memmove_across_pages_and_blocks_in_either_direction() {
        for (src, dst) in [(B - 3 * P + 5, B - P), (B - P, B - 3 * P + 5), (10, 2 * B + 3)] {
            let m = two();
            let bytes: Vec<u8> = (0..3 * P).map(|i| (i % 251) as u8).collect();
            m.write_bytes(at(HOST, src), &bytes).unwrap();
            m.copy(at(HOST, src), at(HOST, dst), 3 * P).unwrap();
            assert_eq!(m.read_bytes(at(HOST, dst), 3 * P).unwrap(), bytes, "{src} -> {dst}");
        }
    }
}
