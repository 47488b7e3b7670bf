//! Simulated memory: arenas, unified addresses, and the global memory map.
//!
//! Every byte the runtime moves is a real byte in an [`Arena`] — host
//! process memory, a node-wide shared segment, or GPU device memory — so
//! correctness of every protocol is testable end to end. [`MemRef`] is the
//! moral equivalent of a CUDA UVA pointer: a single address type that can
//! name any space, with a queryable kind.
//!
//! **A page is shared, not copied.** An arena's bytes are pages of
//! [`PAGE`] bytes behind reference counts, and no reader can tell: every
//! read returns what eager copying would have. A congruent whole page is
//! shared, never copied; any other byte moves once per copy.
//!
//! - A [`MemoryMap::copy`] or [`MemoryMap::deliver`] whose source and
//!   destination offsets are congruent mod [`PAGE`] shares every whole
//!   page it covers: the destination slot takes a reference to the source
//!   page, and no byte moves. Only the edge pages, and every byte of a
//!   copy whose offsets are not congruent, are copied. The whole pages
//!   between the edges are one pass of slot writes: a copy clones its
//!   source's page references into them, a delivery moves its hold's.
//! - A write into a shared page gives the writer a page of its own first
//!   (copy-on-write): a partial write copies the page, a write that covers
//!   it builds the new page from the written bytes.
//! - [`MemoryMap::fill_bytes`] gives the whole pages it covers one new
//!   page of its byte, shared by all of them, and writes only the edge
//!   pages; a zero fill empties the whole pages instead. A later partial
//!   write copies one of them on write, as for any shared page.
//! - [`MemoryMap::hold`] takes the references of the pages under a range
//!   (a range of at most a cache line is copied instead), so later writes
//!   to the source do not change what [`MemoryMap::deliver`] writes. This
//!   is how an RDMA transfer carries its payload from the instant the HCA
//!   has read the source to the instant the data is visible. A hold is
//!   also a snapshot: [`Held::runs`] reads it page by page, as zero runs
//!   for never-written bytes and slices of the held pages for the rest.
//!
//! A page refers to no arena, so arenas never keep each other alive, and
//! one borrows at most one other (a copy's source) while it is borrowed.
//!
//! **An arena costs the pages it touches.** Its pages are a two-level
//! table (`Pages`): a directory, grown on demand, of leaves that each hold
//! the slots of `LEAF` pages. Creating an arena allocates nothing, whatever
//! its size, and an empty slot reads as zero. Only written bytes commit
//! memory: reads, holds, shared pages and copies of never-written bytes
//! commit none (a never-written whole page copied over a written one
//! empties the slot; never-written bytes copied into part of a written
//! page zero those bytes). [`MemStats`] counts what moved, what was shared
//! and what was committed.

use crate::ids::{GpuId, ProcId, SegId};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A hold of at most a cache line copies its bytes: cheaper than taking
/// the references of the pages under them.
const INLINE: usize = 64;
/// log2 of [`PAGE`].
const PAGE_SHIFT: u32 = 12;
/// Bytes per page, the unit an arena commits host memory in and a copy
/// shares. Measured on the 64-PE stencil (2-vCPU Xeon VM): 4 KiB pages
/// hold 15-20 % less peak RSS than arenas zeroed up front, 16 KiB pages
/// 8 % more.
pub const PAGE: usize = 1 << PAGE_SHIFT;
/// log2 of [`LEAF`].
const LEAF_SHIFT: u32 = 7;
/// Pages per directory leaf: 1 KiB of slots mapping 512 KiB.
const LEAF: usize = 1 << LEAF_SHIFT;

/// One page of bytes, shared by every slot and hold that refers to it.
type Page = Rc<[u8; PAGE]>;
type Leaf = Box<[Option<Page>; LEAF]>;

static ZERO: [u8; PAGE] = [0; PAGE];

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

/// What the memory layer did, per [`MemoryMap`]. Plain counters, exact
/// for a given program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemStats {
    /// Bytes the layer itself copied: each byte of a `copy` or `deliver`
    /// outside the congruent whole pages it shares, a cache-line `hold`
    /// twice (out, then in), and each copy-on-write page. Caller-buffer
    /// reads and writes do not count.
    pub bytes_moved: u64,
    /// Whole pages a `copy` or `deliver` shared instead of copying.
    pub pages_shared: u64,
    /// Pages a partial write had to copy because something else still
    /// referred to them: a hold, or another slot that shares them.
    pub cow_copies: u64,
    /// [`PAGE`]s allocated: by the first write into an empty slot, by a
    /// copy-on-write, or by a write covering a page shared elsewhere. A
    /// shared page counts once, in the arena that allocated it.
    pub pages_committed: u64,
}

/// Bytes taken by [`MemoryMap::hold`], to be written somewhere by
/// [`MemoryMap::deliver`], read by [`Held::runs`], or dropped, which
/// releases their pages. The default hold is empty.
pub struct Held {
    len: u64,
    bytes: HeldBytes,
}

/// A run of a hold's bytes, as [`Held::runs`] walks them.
#[derive(Clone, Copy, Debug)]
pub enum Run<'a> {
    /// This many never-written bytes: they read as zero.
    Zero(usize),
    /// Written bytes, inside one held page.
    Bytes(&'a [u8]),
}

impl Default for Held {
    fn default() -> Held {
        Held { len: 0, bytes: HeldBytes::Inline([0; INLINE]) }
    }
}

impl Held {
    /// Bytes held.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Call `f` on `[off, off + len)` of the held bytes, in order: each
    /// page the hold took a reference of is one [`Run::Bytes`], and each
    /// stretch of never-written pages one [`Run::Zero`]. A cache-line
    /// hold is one `Bytes` run. No call for an empty range. Panics if the
    /// range is not inside the hold.
    ///
    /// A `Bytes` run of a held page points into that page, which the hold
    /// keeps alive and nothing can write while it is held (a write copies
    /// it first). So within one borrow of the hold, two runs at the same
    /// address and length are the same bytes: a page shared by many
    /// slots comes back as the same slice each time.
    pub fn runs<'a>(&'a self, off: u64, len: u64, mut f: impl FnMut(Run<'a>)) {
        assert!(off.checked_add(len).is_some_and(|end| end <= self.len), "runs past the hold");
        let (off, len) = (off as usize, len as usize);
        match &self.bytes {
            HeldBytes::Inline(b) => {
                if len > 0 {
                    f(Run::Bytes(&b[off..off + len]));
                }
            }
            HeldBytes::Pages { at, pages } => {
                let mut zeros = 0;
                runs(at + off, at + off, len, false, |o, _, m| match &pages[o >> PAGE_SHIFT] {
                    Some(page) => {
                        if zeros > 0 {
                            f(Run::Zero(zeros));
                            zeros = 0;
                        }
                        f(Run::Bytes(&page[o & (PAGE - 1)..][..m]));
                    }
                    None => zeros += m,
                });
                if zeros > 0 {
                    f(Run::Zero(zeros));
                }
            }
        }
    }
}

enum HeldBytes {
    Inline([u8; INLINE]),
    /// The slots of the pages under the range, which starts `at` bytes
    /// into the first.
    Pages { at: usize, pages: Vec<Option<Page>> },
}

/// What a run inside one destination page is written from.
#[derive(Clone, Copy)]
enum Piece<'a> {
    /// Exactly the run's bytes.
    Bytes(&'a [u8]),
    /// The page slot the run's bytes are in (`None`: never written),
    /// from this offset on.
    Page(Option<&'a Page>, usize),
}

/// Split `[0, len)` into runs that each stay inside one page at `a + i`
/// and one at `b + i`, and call `f(a + i, b + i, n)` on each: the last run
/// first if `rev` (a `memmove` towards higher addresses). An access inside
/// one page is one call, with no loop; an empty one is none.
fn runs(a: usize, b: usize, len: usize, rev: bool, mut f: impl FnMut(usize, usize, usize)) {
    let within = |x: usize| x & (PAGE - 1);
    if within(a).max(within(b)) + len <= PAGE {
        if len > 0 {
            f(a, b, len);
        }
        return;
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
            let head = |x: usize| PAGE - within(x);
            let n = head(a + i).min(head(b + i)).min(len - i);
            f(a + i, b + i, n);
            i += n;
        }
    }
}

/// A new page holding `bytes`: one allocation, one pass.
fn new_page(bytes: &[u8]) -> Page {
    Rc::<[u8]>::from(bytes).try_into().expect("one page of bytes")
}

/// An arena's pages (see the module docs) and what was done to them: page
/// `p` is slot `p % LEAF` of leaf `p / LEAF`. A missing leaf or an empty
/// slot reads as zero. Offsets are bounds-checked by the [`Arena`] before
/// they get here.
#[derive(Default)]
struct Pages {
    /// Grown on demand: an index past the end is a missing leaf.
    dir: Vec<Option<Leaf>>,
    stats: MemStats,
}

/// The slot of page `p` in `dir`, its leaf made if missing.
fn slot_mut(dir: &mut Vec<Option<Leaf>>, p: usize) -> &mut Option<Page> {
    let d = p >> LEAF_SHIFT;
    if d >= dir.len() {
        dir.resize_with(d + 1, || None);
    }
    let leaf = dir[d].get_or_insert_with(|| Box::new([const { None }; LEAF]));
    &mut leaf[p & (LEAF - 1)]
}

impl Pages {
    fn slot(&self, p: usize) -> Option<&Page> {
        self.dir.get(p >> LEAF_SHIFT)?.as_ref()?[p & (LEAF - 1)].as_ref()
    }

    /// Page `p`, writable and its slot's own: a zero page if it was never
    /// written, a copy if anything else still refers to it.
    fn page_mut(&mut self, p: usize) -> &mut [u8; PAGE] {
        let Pages { dir, stats } = self;
        let slot = slot_mut(dir, p);
        match slot {
            None => {
                *slot = Some(new_page(&ZERO));
                stats.pages_committed += 1;
            }
            Some(page) if Rc::strong_count(page) > 1 => {
                *page = new_page(&page[..]);
                stats.cow_copies += 1;
                stats.pages_committed += 1;
                stats.bytes_moved += PAGE as u64;
            }
            Some(_) => {}
        }
        Rc::get_mut(slot.as_mut().expect("just filled")).expect("a page of its own")
    }

    /// Bytes `[d, d + m)`, inside one page, become what `from` holds.
    /// Returns the bytes this copied: none for a whole page, which is
    /// shared (left empty, if never written) when `from` is a source page.
    fn put(&mut self, d: usize, m: usize, from: Piece) -> u64 {
        let (p, at) = (d >> PAGE_SHIFT, d & (PAGE - 1));
        let bytes = match from {
            Piece::Page(src, _) if m == PAGE => {
                self.share(p, src.cloned());
                return 0;
            }
            Piece::Page(src, off) => src.map(|page| &page[off..off + m]),
            Piece::Bytes(bytes) => Some(bytes),
        };
        match bytes {
            // never-written bytes onto never-written bytes: nothing to do
            None if self.slot(p).is_none() => {}
            None => self.page_mut(p)[at..at + m].fill(0),
            Some(bytes) => {
                let slot = slot_mut(&mut self.dir, p);
                if let Some(mine) = slot.as_mut().and_then(Rc::get_mut) {
                    mine[at..at + m].copy_from_slice(bytes);
                } else if m == PAGE {
                    // over an empty or shared page: no copy of the old one
                    *slot = Some(new_page(bytes));
                    self.stats.pages_committed += 1;
                } else {
                    self.page_mut(p)[at..at + m].copy_from_slice(bytes);
                }
            }
        }
        m as u64
    }

    /// Page `p` becomes `page`, shared: no byte moves, and a never-written
    /// source page (`None`) empties the slot.
    fn share(&mut self, p: usize, page: Option<Page>) {
        match page {
            Some(page) => {
                *slot_mut(&mut self.dir, p) = Some(page);
                self.stats.pages_shared += 1;
            }
            None => {
                if let Some(Some(leaf)) = self.dir.get_mut(p >> LEAF_SHIFT) {
                    leaf[p & (LEAF - 1)] = None;
                }
            }
        }
    }

    fn read(&self, off: usize, out: &mut [u8]) {
        runs(off, off, out.len(), false, |o, _, m| {
            let to = &mut out[o - off..][..m];
            match self.slot(o >> PAGE_SHIFT) {
                Some(page) => to.copy_from_slice(&page[o & (PAGE - 1)..][..m]),
                None => to.fill(0),
            }
        });
    }

    fn write(&mut self, off: usize, src: &[u8]) {
        runs(off, off, src.len(), false, |o, _, m| {
            self.put(o, m, Piece::Bytes(&src[o - off..][..m]));
        });
    }

    /// `[dst, dst + len)` becomes what `[src, src + len)` of `from` is;
    /// returns the bytes copied. At congruent offsets the edges go through
    /// `put` and the whole pages between them in one pass, each slot
    /// taking its source page's reference from `from`.
    fn put_pages(&mut self, dst: usize, src: usize, len: usize, from: &mut impl PageSource) -> u64 {
        let within = src & (PAGE - 1);
        let mut moved = 0;
        if within != dst & (PAGE - 1) {
            runs(src, dst, len, false, |s, d, m| {
                moved += self.put(d, m, Piece::Page(from.page(s >> PAGE_SHIFT), s & (PAGE - 1)));
            });
            return moved;
        }
        let head = ((PAGE - within) & (PAGE - 1)).min(len);
        if head > 0 {
            moved += self.put(dst, head, Piece::Page(from.page(src >> PAGE_SHIFT), within));
        }
        let whole = (len - head) >> PAGE_SHIFT;
        let (sp, dp) = ((src + head) >> PAGE_SHIFT, (dst + head) >> PAGE_SHIFT);
        for i in 0..whole {
            self.share(dp + i, from.take(sp + i));
        }
        let tail = len - head - (whole << PAGE_SHIFT);
        if tail > 0 {
            moved += self.put(dst + len - tail, tail, Piece::Page(from.page(sp + whole), 0));
        }
        moved
    }

    /// [`MemoryMap::fill_bytes`] on `[off, off + len)`: the whole pages
    /// share one new page of `byte`, the edges are written through `put`.
    /// Zero is what a never-written page reads as, so a zero fill is a
    /// copy of never-written bytes: whole pages emptied, edges zeroed.
    fn fill(&mut self, off: usize, byte: u8, len: usize) {
        let bytes = [byte; PAGE];
        let mut page: Option<Page> = None;
        runs(off, off, len, false, |o, _, m| {
            if m < PAGE {
                let from = if byte == 0 { Piece::Page(None, 0) } else { Piece::Bytes(&bytes[..m]) };
                self.put(o, m, from);
            } else if byte == 0 {
                self.share(o >> PAGE_SHIFT, None);
            } else {
                let page = page.get_or_insert_with(|| new_page(&bytes));
                *slot_mut(&mut self.dir, o >> PAGE_SHIFT) = Some(page.clone());
            }
        });
        self.stats.pages_committed += page.is_some() as u64;
    }

    /// [`Pages::put_pages`] from these pages, as `memmove`.
    fn copy_within(&mut self, src: usize, dst: usize, len: usize) -> u64 {
        let rev = src < dst && dst < src + len;
        let mut moved = 0;
        runs(src, dst, len, rev, |s, d, m| {
            let (sp, sa, da) = (s >> PAGE_SHIFT, s & (PAGE - 1), d & (PAGE - 1));
            if sp != d >> PAGE_SHIFT {
                // a reference of its own keeps the source readable
                let from = self.slot(sp).cloned();
                moved += self.put(d, m, Piece::Page(from.as_ref(), sa));
            } else if sa != da {
                if self.slot(sp).is_some() {
                    self.page_mut(sp).copy_within(sa..sa + m, da);
                }
                moved += m as u64;
            }
        });
        moved
    }

    /// [`MemoryMap::hold`] on `[off, off + len)`.
    fn hold(&mut self, off: usize, len: usize) -> HeldBytes {
        if len <= INLINE {
            let mut b = [0u8; INLINE];
            self.read(off, &mut b[..len]);
            self.stats.bytes_moved += len as u64;
            return HeldBytes::Inline(b);
        }
        let under = off >> PAGE_SHIFT..=(off + len - 1) >> PAGE_SHIFT;
        let pages = under.map(|p| self.slot(p).cloned()).collect();
        HeldBytes::Pages { at: off & (PAGE - 1), pages }
    }

    /// [`MemoryMap::deliver`] at `dst`; returns the bytes copied. The
    /// hold's whole pages move into their slots.
    fn deliver(&mut self, held: Held, dst: usize) -> u64 {
        let len = held.len as usize;
        match held.bytes {
            HeldBytes::Inline(b) => {
                self.write(dst, &b[..len]);
                len as u64
            }
            HeldBytes::Pages { at, mut pages } => self.put_pages(dst, at, len, &mut pages),
        }
    }
}

/// What [`Pages::put_pages`] reads: another table, whose pages a whole
/// slot shares by cloning their references, or a hold's pages, which it
/// moves.
trait PageSource {
    /// Source page `p`, to copy an edge run from.
    fn page(&self, p: usize) -> Option<&Page>;
    /// Source page `p` as a reference of its own, for a whole slot.
    fn take(&mut self, p: usize) -> Option<Page>;
}

impl PageSource for &Pages {
    fn page(&self, p: usize) -> Option<&Page> {
        self.slot(p)
    }
    fn take(&mut self, p: usize) -> Option<Page> {
        self.slot(p).cloned()
    }
}

/// A hold's pages, the first under its first byte.
impl PageSource for Vec<Option<Page>> {
    fn page(&self, p: usize) -> Option<&Page> {
        self[p].as_ref()
    }
    fn take(&mut self, p: usize) -> Option<Page> {
        self[p].take()
    }
}

/// A contiguous chunk of simulated physical memory, zero until written.
/// Its bytes are a sparse table of shared pages: a page is allocated by
/// the first write into it, and creating the arena allocates none
/// (module docs).
pub struct Arena {
    space: MemSpace,
    /// Byte length of the arena, fixed at creation (bounds checks read
    /// it without borrowing `pages`).
    len: u64,
    pages: RefCell<Pages>,
}

impl Arena {
    pub fn new(space: MemSpace, size: usize) -> Rc<Arena> {
        Rc::new(Arena {
            space,
            len: size as u64,
            pages: RefCell::default(),
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

    /// Copy bytes out of the arena.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, out.len() as u64)?;
        self.pages.borrow().read(offset as usize, out);
        Ok(())
    }

    /// Copy bytes into the arena.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<(), MemError> {
        self.check(offset, src.len() as u64)?;
        self.pages.borrow_mut().write(offset as usize, src);
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
        self.check(offset, 8)?;
        let mut g = self.pages.borrow_mut();
        let mut b = [0u8; 8];
        g.read(offset as usize, &mut b);
        let old = u64::from_le_bytes(b);
        g.write(offset as usize, &f(old).to_le_bytes());
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
    /// One list per kind of space ([`slot`]), indexed by the space's id:
    /// cluster ids are dense from 0. `get` runs on every memory access,
    /// and a 64-PE cluster holds over 128 arenas; there a
    /// `BTreeMap<MemSpace, _>` cost `stencil_scale64` 8 % of its ops/s.
    arenas: RefCell<[Vec<Option<Rc<Arena>>>; 3]>,
}

/// Where `space`'s arena sits in [`MemoryMap`]'s lists: kind, then id.
fn slot(space: MemSpace) -> (usize, usize) {
    match space {
        MemSpace::Host(p) => (0, p.index()),
        MemSpace::Shared(s) => (1, s.index()),
        MemSpace::Device(g) => (2, g.index()),
    }
}

impl MemoryMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create and register an arena for `space`. Panics if already mapped.
    pub fn create(&self, space: MemSpace, size: usize) -> Rc<Arena> {
        let arena = Arena::new(space, size);
        let (kind, id) = slot(space);
        let mut arenas = self.arenas.borrow_mut();
        let list = &mut arenas[kind];
        if list.len() <= id {
            list.resize(id + 1, None);
        }
        assert!(list[id].is_none(), "arena for {space} created twice");
        list[id] = Some(arena.clone());
        arena
    }

    pub fn get(&self, space: MemSpace) -> Result<Rc<Arena>, MemError> {
        let (kind, id) = slot(space);
        self.arenas.borrow()[kind]
            .get(id)
            .and_then(Option::clone)
            .ok_or(MemError::UnknownSpace(space))
    }

    /// Make `dst` read as `src` does at this instant, for `len` bytes
    /// across any pair of spaces. Overlapping copies within the same
    /// space behave like `memmove`. Both ranges are bounds-checked before
    /// anything changes. Whole pages at congruent offsets are shared, not
    /// copied (see the module docs).
    pub fn copy(&self, src: MemRef, dst: MemRef, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let sa = self.get(src.space)?;
        let (s, d, n) = (src.offset as usize, dst.offset as usize, len as usize);
        if src.space == dst.space {
            sa.check(dst.offset, len)?;
            sa.check(src.offset, len)?;
            let mut g = sa.pages.borrow_mut();
            g.stats.bytes_moved += g.copy_within(s, d, n);
            return Ok(());
        }
        let da = self.get(dst.space)?;
        sa.check(src.offset, len)?;
        da.check(dst.offset, len)?;
        let mut to = da.pages.borrow_mut();
        let from = sa.pages.borrow();
        to.stats.bytes_moved += to.put_pages(d, s, n, &mut &*from);
        Ok(())
    }

    /// Take `len` bytes at `src` as they are now, without copying them
    /// (beyond a cache line's worth). Later writes to `src` do not change
    /// what the hold delivers.
    pub fn hold(&self, src: MemRef, len: u64) -> Result<Held, MemError> {
        let sa = self.get(src.space)?;
        sa.check(src.offset, len)?;
        let bytes = sa.pages.borrow_mut().hold(src.offset as usize, len as usize);
        Ok(Held { len, bytes })
    }

    /// Write the bytes `held` took at `dst`, sharing the whole pages that
    /// land at congruent offsets.
    pub fn deliver(&self, held: Held, dst: MemRef) -> Result<(), MemError> {
        let da = self.get(dst.space)?;
        da.check(dst.offset, held.len)?;
        let mut g = da.pages.borrow_mut();
        g.stats.bytes_moved += g.deliver(held, dst.offset as usize);
        Ok(())
    }

    /// Make `len` bytes at `dst` read as `byte`, committing one page for
    /// all the whole pages the range covers, however many (none for a
    /// zero fill, which empties them), plus what writing the edge pages
    /// commits. A later partial write into one of the shared whole pages
    /// copies it first, as for any shared page.
    pub fn fill_bytes(&self, dst: MemRef, byte: u8, len: u64) -> Result<(), MemError> {
        let a = self.get(dst.space)?;
        a.check(dst.offset, len)?;
        a.pages.borrow_mut().fill(dst.offset as usize, byte, len as usize);
        Ok(())
    }

    /// What the layer has done so far, summed over this map's arenas.
    pub fn stats(&self) -> MemStats {
        let mut sum = MemStats::default();
        for a in self.arenas.borrow().iter().flatten().flatten() {
            let s = a.pages.borrow().stats;
            sum.bytes_moved += s.bytes_moved;
            sum.pages_shared += s.pages_shared;
            sum.cow_copies += s.cow_copies;
            sum.pages_committed += s.pages_committed;
        }
        sum
    }

    /// Read `len` bytes at `src` into a fresh buffer.
    pub fn read_bytes(&self, src: MemRef, len: u64) -> Result<Vec<u8>, MemError> {
        let a = self.get(src.space)?;
        a.check(src.offset, len)?;
        let mut out = vec![0; len as usize];
        a.pages.borrow().read(src.offset as usize, &mut out);
        Ok(out)
    }

    pub fn write_bytes(&self, dst: MemRef, data: &[u8]) -> Result<(), MemError> {
        let a = self.get(dst.space)?;
        a.write(dst.offset, data)
    }
}

impl fmt::Debug for MemoryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.arenas.borrow().iter().flatten().flatten().count();
        write!(f, "MemoryMap({n} arenas)")
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

/// Shared pages, case by case, with the exact counters each case must
/// leave (`tests/mem_differential.rs` checks the same layer against an
/// eager model on random streams).
#[cfg(test)]
mod sharing_tests {
    use super::*;

    const HOST: MemSpace = MemSpace::Host(ProcId(0));
    const DEV: MemSpace = MemSpace::Device(GpuId(0));
    const P: u64 = PAGE as u64;

    fn at(space: MemSpace, off: u64) -> MemRef {
        MemRef::new(space, off)
    }

    fn pat(tag: u8, len: u64) -> Vec<u8> {
        (0..len).map(|i| tag ^ (i % 251) as u8).collect()
    }

    /// `(bytes_moved, pages_shared, cow_copies, pages_committed)`.
    fn stats(m: &MemoryMap) -> (u64, u64, u64, u64) {
        let s = m.stats();
        (s.bytes_moved, s.pages_shared, s.cow_copies, s.pages_committed)
    }

    /// A host and a device arena of 64 pages; the host holds `pat(1)`
    /// over `[P - 100, 5 P + 100)`: two edge pages and four whole ones.
    fn two() -> MemoryMap {
        let m = MemoryMap::new();
        m.create(HOST, 64 * PAGE);
        m.create(DEV, 64 * PAGE);
        m.write_bytes(at(HOST, P - 100), &pat(1, 4 * P + 200)).unwrap();
        m
    }

    /// How many slots and holds refer to the host's page `p`.
    fn refs(m: &MemoryMap, space: MemSpace, p: usize) -> usize {
        m.get(space).unwrap().pages.borrow().slot(p).map_or(0, Rc::strong_count)
    }

    #[test]
    fn a_congruent_copy_shares_its_whole_pages_and_copies_the_edges() {
        let m = two();
        assert_eq!(stats(&m), (0, 0, 0, 6));
        m.copy(at(HOST, P - 100), at(DEV, 9 * P - 100), 4 * P + 200).unwrap();
        assert_eq!(stats(&m), (200, 4, 0, 8));
        assert_eq!(m.read_bytes(at(DEV, 9 * P - 100), 4 * P + 200).unwrap(), pat(1, 4 * P + 200));
        assert_eq!(refs(&m, HOST, 2), 2);
        // a partial write into a shared page copies it first, on its side only
        m.write_bytes(at(DEV, 10 * P + 5), &[0xEE; 3]).unwrap();
        assert_eq!(stats(&m), (200 + P, 4, 1, 9));
        assert_eq!(m.read_bytes(at(HOST, P - 100), 4 * P + 200).unwrap(), pat(1, 4 * P + 200));
        // one that covers a shared page builds the new page from its bytes
        m.write_bytes(at(HOST, 3 * P), &pat(2, P)).unwrap();
        assert_eq!(stats(&m), (200 + P, 4, 1, 10));
        let mut want = pat(1, 4 * P + 200);
        want[(P + 105) as usize..][..3].fill(0xEE);
        assert_eq!(m.read_bytes(at(DEV, 9 * P - 100), 4 * P + 200).unwrap(), want);
    }

    #[test]
    fn a_copy_at_offsets_that_are_not_congruent_moves_every_byte() {
        let m = two();
        m.copy(at(HOST, P - 100), at(DEV, 9 * P - 99), 4 * P + 200).unwrap();
        assert_eq!(stats(&m), (4 * P + 200, 0, 0, 6 + 6));
        assert_eq!(m.read_bytes(at(DEV, 9 * P - 99), 4 * P + 200).unwrap(), pat(1, 4 * P + 200));
    }

    #[test]
    fn a_hold_keeps_its_pages_through_writes_to_the_source() {
        let m = two();
        let held = m.hold(at(HOST, P), 2 * P).unwrap();
        assert_eq!(stats(&m), (0, 0, 0, 6));
        // partial: the source gets a copy, the hold keeps the page
        m.write_bytes(at(HOST, P + 5), &[0xAB; 2]).unwrap();
        assert_eq!(stats(&m), (P, 0, 1, 7));
        // covering: a new page, nothing copied
        m.write_bytes(at(HOST, 2 * P), &pat(3, P)).unwrap();
        assert_eq!(stats(&m), (P, 0, 1, 8));
        m.deliver(held, at(DEV, 0)).unwrap();
        assert_eq!(stats(&m), (P, 2, 1, 8));
        assert_eq!(m.read_bytes(at(DEV, 0), 2 * P).unwrap(), pat(1, 4 * P + 200)[100..][..2 * P as usize]);
        // delivered, the hold is gone: the destination owns its pages alone
        assert_eq!((refs(&m, DEV, 0), refs(&m, DEV, 1)), (1, 1));
        m.write_bytes(at(DEV, 7), &[1; 9]).unwrap();
        assert_eq!(m.stats().cow_copies, 1);
    }

    #[test]
    fn a_hold_over_shared_pages_outlives_writes_to_either_sharer() {
        let m = two();
        m.copy(at(HOST, P), at(DEV, P), 2 * P).unwrap();
        let held = m.hold(at(DEV, P + 10), P).unwrap();
        assert_eq!(refs(&m, HOST, 1), 3, "host slot, device slot, hold");
        m.write_bytes(at(HOST, P + 20), &[7; 4]).unwrap();
        m.write_bytes(at(DEV, P + 30), &[8; 4]).unwrap();
        m.write_bytes(at(DEV, 2 * P + 40), &[9; 4]).unwrap();
        assert_eq!(stats(&m).2, 3);
        m.deliver(held, at(HOST, 30 * P + 10)).unwrap();
        assert_eq!(m.read_bytes(at(HOST, 30 * P + 10), P).unwrap(), pat(1, 4 * P + 200)[110..][..P as usize]);
    }

    #[test]
    fn dropping_the_last_other_sharer_makes_writes_in_place_again() {
        let m = two();
        m.copy(at(HOST, P), at(DEV, P), P).unwrap();
        let held = m.hold(at(HOST, P), P).unwrap();
        assert_eq!(refs(&m, HOST, 1), 3);
        drop(held);
        // the device slot's page is replaced: the host page is its own again
        m.write_bytes(at(DEV, P), &pat(4, P)).unwrap();
        assert_eq!(refs(&m, HOST, 1), 1);
        m.write_bytes(at(HOST, P + 1), &[2; 2]).unwrap();
        assert_eq!(m.stats().cow_copies, 0);
    }

    #[test]
    fn a_cache_line_hold_is_a_copy() {
        let m = two();
        let held = m.hold(at(HOST, P + 3), INLINE as u64).unwrap();
        assert_eq!(refs(&m, HOST, 1), 1);
        m.write_bytes(at(HOST, P), &pat(2, P)).unwrap();
        m.deliver(held, at(DEV, 0)).unwrap();
        assert_eq!(m.read_bytes(at(DEV, 0), 64).unwrap(), pat(1, 4 * P)[103..167]);
        assert_eq!(stats(&m), (128, 0, 0, 7));
    }

    #[test]
    fn a_fill_commits_one_page_for_its_whole_pages_and_a_hold_reads_by_page() {
        let m = two();
        // edges [P - 7, P) and [4 P, 4 P + 7), whole pages 1..4
        m.fill_bytes(at(DEV, P - 7), 0xAB, 3 * P + 14).unwrap();
        assert_eq!(stats(&m), (0, 0, 0, 6 + 2 + 1));
        assert_eq!(refs(&m, DEV, 1), 3);
        assert_eq!(m.read_bytes(at(DEV, P - 7), 3 * P + 14).unwrap(), vec![0xAB; 3 * P as usize + 14]);
        // a partial write copies its page; the other sharers keep their bytes
        m.write_bytes(at(DEV, 2 * P + 9), &[1; 3]).unwrap();
        assert_eq!(stats(&m), (P, 0, 1, 10));
        assert_eq!(refs(&m, DEV, 1), 2);
        let mut want = vec![0xAB; 3 * P as usize];
        want[P as usize + 9..][..3].fill(1);
        assert_eq!(m.read_bytes(at(DEV, P), 3 * P).unwrap(), want);
        // a zero fill empties whole pages and zeroes its edge in place
        let held = m.hold(at(HOST, 0), 4 * P).unwrap();
        m.fill_bytes(at(HOST, P), 0, 2 * P + 5).unwrap();
        assert_eq!(stats(&m), (2 * P, 0, 2, 11), "the edge page is held: copied on write");
        assert_eq!(m.read_bytes(at(HOST, P), 2 * P + 5).unwrap(), vec![0; 2 * P as usize + 5]);
        // the hold is a snapshot: its runs still read the pattern, one
        // run per held page; a hold taken now reads the emptied pages as
        // one zero run
        let p = PAGE;
        let mut got = Vec::new();
        held.runs(0, 4 * P, |run| got.push(run));
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|run| matches!(run, Run::Bytes(b) if b.len() == p)));
        let mut bytes = Vec::new();
        held.runs(0, 4 * P, |run| bytes.extend_from_slice(match run {
            Run::Bytes(b) => b,
            Run::Zero(_) => unreachable!(),
        }));
        let mut want = vec![0; 4 * p];
        want[p - 100..].copy_from_slice(&pat(1, 4 * P + 200)[..3 * p + 100]);
        assert_eq!(bytes, want);
        let (again, mut now) = (m.hold(at(HOST, 0), 4 * P).unwrap(), Vec::new());
        again.runs(0, 4 * P, |run| now.push(run));
        assert!(matches!(now[..], [Run::Bytes(_), Run::Zero(n), Run::Bytes(_)] if n == 2 * p));
    }

    #[test]
    fn an_overlapping_congruent_memmove_shares_within_the_arena() {
        let m = two();
        let mut want = m.read_bytes(at(HOST, 0), 8 * P).unwrap();
        let p = P as usize;
        // one page up: the four whole pages are shared, and the partial
        // run into page 1 copies it first, since page 2 now shares it
        m.copy(at(HOST, 10), at(HOST, P + 10), 5 * P).unwrap();
        want.copy_within(10..5 * p + 10, p + 10);
        assert_eq!(m.read_bytes(at(HOST, 0), 8 * P).unwrap(), want);
        assert_eq!((stats(&m).1, stats(&m).2), (4, 1));
        // two pages down, past the start: page 4 is copied the same way
        m.copy(at(HOST, 2 * P + 10), at(HOST, 10), 4 * P).unwrap();
        want.copy_within(2 * p + 10..6 * p + 10, 10);
        assert_eq!(m.read_bytes(at(HOST, 0), 8 * P).unwrap(), want);
        assert_eq!((stats(&m).1, stats(&m).2), (7, 2));
        // pages 3 and 5 share one page: writing one leaves the other
        assert_eq!(refs(&m, HOST, 3), 2);
        m.write_bytes(at(HOST, 3 * P), &[0; 1]).unwrap();
        want[3 * p] = 0;
        assert_eq!(m.read_bytes(at(HOST, 0), 8 * P).unwrap(), want);
        assert_eq!(stats(&m).2, 3);
    }

    #[test]
    fn a_delivery_into_the_holds_own_arena_may_overlap_its_source() {
        let m = two();
        let src = m.read_bytes(at(HOST, 0), 2 * P).unwrap();
        let held = m.hold(at(HOST, 0), 2 * P).unwrap();
        m.deliver(held, at(HOST, 100)).unwrap();
        assert_eq!(m.read_bytes(at(HOST, 100), 2 * P).unwrap(), src);
        assert_eq!(m.read_bytes(at(HOST, 0), 100).unwrap(), src[..100]);
    }

    #[test]
    fn arenas_sharing_pages_die_with_their_map() {
        let m = two();
        m.copy(at(HOST, 0), at(DEV, 0), 6 * P).unwrap();
        m.copy(at(DEV, 0), at(HOST, 20 * P), 6 * P).unwrap();
        let in_flight = m.hold(at(DEV, P), 2 * P).unwrap();
        let weak: Vec<_> = [HOST, DEV].map(|sp| Rc::downgrade(&m.get(sp).unwrap())).into();
        drop(m);
        assert!(weak.iter().all(|w| w.upgrade().is_none()));
        // the hold still owns its bytes
        let m = MemoryMap::new();
        m.create(HOST, 4 * PAGE);
        m.deliver(in_flight, at(HOST, 0)).unwrap();
        assert_eq!(m.read_bytes(at(HOST, 0), 2 * P).unwrap(), pat(1, 4 * P)[100..][..2 * P as usize]);
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
    /// Bytes one directory leaf maps.
    const L: u64 = (LEAF * PAGE) as u64;

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
        assert!(m.get(HOST).unwrap().pages.borrow().dir.is_empty());
    }

    #[test]
    fn small_writes_commit_the_pages_they_touch() {
        let m = two();
        m.write_bytes(at(HOST, 5 * P + 10), &[1; 8]).unwrap();
        assert_eq!(pages(&m), 1);
        // straddling a page and a leaf boundary
        m.write_bytes(at(HOST, L - 4), &[2; 8]).unwrap();
        assert_eq!(pages(&m), 3);
        let mut want = vec![0; 16];
        want[4..12].fill(2);
        assert_eq!(m.read_bytes(at(HOST, L - 8), 16).unwrap(), want);
        // rewriting a page of its own commits nothing
        m.write_bytes(at(HOST, 5 * P), &[3; 64]).unwrap();
        m.write_bytes(at(HOST, 5 * P), &[4; PAGE]).unwrap();
        assert_eq!(pages(&m), 3);
    }

    #[test]
    fn copies_of_never_written_bytes_commit_nothing_and_zero_written_ones() {
        let m = two();
        // small and whole-page copies, and a hold, of never-written bytes
        m.copy(at(HOST, 0), at(DEV, 0), 100).unwrap();
        m.copy(at(HOST, 0), at(DEV, 16 * P), 32 * P).unwrap();
        let held = m.hold(at(HOST, 64 * P), 16 * P).unwrap();
        m.deliver(held, at(DEV, 128 * P)).unwrap();
        assert_eq!(m.read_bytes(at(DEV, 16 * P), 32 * P).unwrap(), vec![0; 32 * P as usize]);
        assert_eq!(pages(&m), 0);
        // onto written bytes: whole pages are emptied, parts zeroed in place
        m.write_bytes(at(DEV, 320 * P), &vec![5; 16 * P as usize]).unwrap();
        m.write_bytes(at(DEV, 480 * P + 8), &[5; 8]).unwrap();
        let committed = pages(&m);
        m.copy(at(HOST, P - 7), at(DEV, 320 * P - 7), 16 * P + 14).unwrap();
        m.copy(at(HOST, 0), at(DEV, 480 * P), 64).unwrap();
        assert_eq!(m.read_bytes(at(DEV, 320 * P), 16 * P).unwrap(), vec![0; 16 * P as usize]);
        assert_eq!(m.read_bytes(at(DEV, 480 * P), 64).unwrap(), vec![0; 64]);
        assert_eq!(pages(&m), committed);
        let dev = m.get(DEV).unwrap();
        assert!((320..336).all(|p| dev.pages.borrow().slot(p).is_none()));
    }

    #[test]
    fn an_empty_run_commits_nothing() {
        let m = two();
        m.write_bytes(at(HOST, 3 * L), &[]).unwrap();
        let held = m.hold(at(HOST, 0), 0).unwrap();
        m.deliver(held, at(DEV, 5 * L)).unwrap();
        assert_eq!(pages(&m), 0);
        assert!(m.get(DEV).unwrap().pages.borrow().dir.is_empty());
    }

    #[test]
    fn memmove_across_pages_and_leaves_in_either_direction() {
        for (src, dst) in [(L - 3 * P + 5, L - P), (L - P, L - 3 * P + 5), (10, 2 * L + 3), (P, 2 * P)] {
            let m = two();
            let bytes: Vec<u8> = (0..3 * P).map(|i| (i % 251) as u8).collect();
            m.write_bytes(at(HOST, src), &bytes).unwrap();
            m.copy(at(HOST, src), at(HOST, dst), 3 * P).unwrap();
            assert_eq!(m.read_bytes(at(HOST, dst), 3 * P).unwrap(), bytes, "{src} -> {dst}");
        }
    }
}

/// The one-pass share of congruent whole pages against the per-page
/// path it replaced, kept here as the reference: every run through `put`,
/// a whole page cloned from its source slot and the hold dropped after.
/// Seeded streams of `copy`, `hold`, `deliver`, `write` and `fill` over
/// three arenas drive two maps, one through the layer and one through the
/// reference (a fill is the same call on both); after every step the
/// layer must read as a flat model does, and both maps must count the
/// same [`MemStats`]. Each fill must add exactly the counters
/// `fill_counts` states, and a hold read through [`Held::runs`] — at
/// once, over any sub-range, or after writes under it — must read as the
/// model did when it was taken.
#[cfg(test)]
mod one_pass_tests {
    use super::*;
    use faults::mix;
    use std::collections::HashMap;

    const SPACES: [MemSpace; 3] = [
        MemSpace::Host(ProcId(0)),
        MemSpace::Shared(SegId(0)),
        MemSpace::Device(GpuId(0)),
    ];
    /// Four directory leaves each, the last with a ragged end.
    const SIZES: [usize; 3] = [4 * LEAF * PAGE, 4 * LEAF * PAGE, 4 * LEAF * PAGE + 4321];
    const MAX_LEN: usize = 3 * LEAF * PAGE;

    /// `[dst, dst + len)` of `to` becomes what `page(p)` holds at
    /// `[src, src + len)`, one page run at a time.
    fn per_page<'a>(
        to: &mut Pages,
        dst: usize,
        src: usize,
        len: usize,
        page: impl Fn(usize) -> Option<&'a Page>,
    ) -> u64 {
        let mut moved = 0;
        runs(src, dst, len, false, |s, d, m| {
            let (from, p) = (page(s >> PAGE_SHIFT), d >> PAGE_SHIFT);
            if m == PAGE {
                if from.is_some() || to.slot(p).is_some() {
                    *slot_mut(&mut to.dir, p) = from.cloned();
                    to.stats.pages_shared += from.is_some() as u64;
                }
            } else {
                moved += to.put(d, m, Piece::Page(from, s & (PAGE - 1)));
            }
        });
        moved
    }

    fn per_page_copy(m: &MemoryMap, src: MemRef, dst: MemRef, len: usize) {
        if src.space == dst.space {
            return m.copy(src, dst, len as u64).unwrap();
        }
        let (from, to) = (m.get(src.space).unwrap(), m.get(dst.space).unwrap());
        let (mut to, from) = (to.pages.borrow_mut(), from.pages.borrow());
        let (d, s) = (dst.offset as usize, src.offset as usize);
        to.stats.bytes_moved += per_page(&mut to, d, s, len, |p| from.slot(p));
    }

    fn per_page_deliver(m: &MemoryMap, held: Held, dst: MemRef) {
        let to = m.get(dst.space).unwrap();
        let mut to = to.pages.borrow_mut();
        let (d, len) = (dst.offset as usize, held.len as usize);
        to.stats.bytes_moved += match &held.bytes {
            HeldBytes::Inline(b) => {
                to.write(d, &b[..len]);
                len as u64
            }
            HeldBytes::Pages { at, pages } => per_page(&mut to, d, *at, len, |p| pages[p].as_ref()),
        };
    }

    struct Rng(u64, u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.1 += 1;
            (mix(self.0, 0x4F4E_4550, self.1) % n as u64) as usize
        }
    }

    /// A range of `arena`: one length in four is at most two pages, the
    /// rest up to three leaves.
    fn range(r: &mut Rng, arena: usize) -> (usize, usize) {
        let len = match r.below(4) {
            0 => r.below(2 * PAGE + 1),
            _ => r.below(MAX_LEN + 1),
        };
        (r.below(SIZES[arena] - len + 1), len)
    }

    /// A destination for `len` bytes from `src` in `arena`: congruent
    /// to `src` mod the page size every other time.
    fn dest(r: &mut Rng, arena: usize, src: usize, len: usize) -> usize {
        let at = r.below(SIZES[arena] - len + 1);
        if r.below(2) == 0 {
            return at;
        }
        let congruent = (at & !(PAGE - 1)) | (src & (PAGE - 1));
        if congruent + len <= SIZES[arena] {
            congruent
        } else {
            congruent - PAGE
        }
    }

    /// Does `[src, src + len)` of `from`, moved to `dst` of `to`, put a
    /// never-written whole source page over a written one?
    fn empties_written(from: &Pages, to: &Pages, src: usize, dst: usize, len: usize) -> bool {
        let mut hit = false;
        runs(src, dst, len, false, |s, d, m| {
            let (s, d) = (s >> PAGE_SHIFT, d >> PAGE_SHIFT);
            hit |= m == PAGE && from.slot(s).is_none() && to.slot(d).is_some();
        });
        hit
    }

    /// The `(cow_copies, pages_committed)` a fill of `[off, off + len)`
    /// with `byte` adds to `pages`: one page for all its whole pages (none
    /// for zero), and for each edge page what `put` commits there — a copy
    /// of a page something else still refers to, or a new page for a
    /// non-zero edge over never-written bytes. References are counted as
    /// the fill drops them, in page order: an edge page whose other
    /// sharers this fill replaced is its slot's own by then.
    fn fill_counts(pages: &Pages, off: usize, len: usize, byte: u8) -> (u64, u64) {
        let mut refs: HashMap<*const [u8; PAGE], usize> = HashMap::new();
        let (mut cows, mut commits, mut whole) = (0, 0, false);
        runs(off, off, len, false, |o, _, m| {
            let slot = pages.slot(o >> PAGE_SHIFT);
            let n = slot.map(|p| refs.entry(Rc::as_ptr(p)).or_insert(Rc::strong_count(p)));
            match n {
                _ if m == PAGE => {
                    whole = true;
                    if let Some(n) = n {
                        *n -= 1;
                    }
                }
                Some(n) if *n > 1 => {
                    *n -= 1;
                    cows += 1;
                    commits += 1;
                }
                Some(_) => {}
                None => commits += (byte != 0) as u64,
            }
        });
        (cows, commits + (whole && byte != 0) as u64)
    }

    /// Whether `held`'s runs over `[off, off + want.len())` read as `want`.
    fn reads_as(held: &Held, off: usize, want: &[u8]) -> bool {
        let (mut at, mut same) = (0, true);
        held.runs(off as u64, want.len() as u64, |run| {
            let n = match run {
                Run::Zero(n) => {
                    same &= want[at..at + n].chunks(PAGE).all(|c| c == &ZERO[..c.len()]);
                    n
                }
                Run::Bytes(b) => {
                    same &= want[at..at + b.len()] == *b;
                    b.len()
                }
            };
            at += n;
        });
        same && at == want.len()
    }

    /// A hold taken on both maps, with the bytes it must deliver and the
    /// range it was taken from.
    struct Pending {
        layer: Held,
        reference: Held,
        bytes: Vec<u8>,
        arena: usize,
        off: usize,
    }

    /// Does a write of `[off, off + len)` cover part of a page that a
    /// fill shares: a page of one non-zero byte something else refers to?
    fn writes_part_of_a_filled_page(pages: &Pages, off: usize, len: usize) -> bool {
        let mut hit = false;
        runs(off, off, len, false, |o, _, m| {
            let filled = |p: &Page| Rc::strong_count(p) > 1 && p[0] != 0 && p.iter().all(|&b| b == p[0]);
            hit |= m < PAGE && pages.slot(o >> PAGE_SHIFT).is_some_and(filled);
        });
        hit
    }

    #[test]
    fn one_pass_shares_match_the_per_page_path() {
        let (mut empties_written_pages, mut writes_under_holds) = (0, 0);
        let (mut fills, mut zero_fills, mut writes_into_fills, mut runs_reads) = (0, 0, 0, 0);
        // a period of 251 bytes, prime to the page size: no two pages
        // near each other read alike
        let pattern: Vec<u8> = (0..MAX_LEN + 251).map(|i| (i % 251) as u8 + 1).collect();
        for seed in 0..4 {
            let (layer, reference) = (MemoryMap::new(), MemoryMap::new());
            for (space, size) in SPACES.iter().zip(SIZES) {
                layer.create(*space, size);
                reference.create(*space, size);
            }
            let mut flat: Vec<Vec<u8>> = SIZES.iter().map(|&n| vec![0; n]).collect();
            let mut holds: Vec<Pending> = Vec::new();
            let r = &mut Rng(seed, 0);
            for step in 0..120 {
                let a = r.below(3);
                let (off, len) = range(r, a);
                let src = MemRef::new(SPACES[a], off as u64);
                let under = |h: &&Pending| h.arena == a && h.off < off + len && off < h.off + h.bytes.len();
                match r.below(8) {
                    0 => {
                        let bytes = &pattern[step % 251..][..len];
                        let arena = layer.get(src.space).unwrap();
                        writes_into_fills += writes_part_of_a_filled_page(&arena.pages.borrow(), off, len) as u32;
                        layer.write_bytes(src, bytes).unwrap();
                        reference.write_bytes(src, bytes).unwrap();
                        flat[a][off..off + len].copy_from_slice(bytes);
                        writes_under_holds += holds.iter().filter(under).count();
                    }
                    6 => {
                        let byte = [0, 0x5A, (step % 255) as u8 + 1][r.below(3)];
                        let before = layer.stats();
                        let arena = layer.get(src.space).unwrap();
                        let (cows, commits) = fill_counts(&arena.pages.borrow(), off, len, byte);
                        layer.fill_bytes(src, byte, len as u64).unwrap();
                        reference.fill_bytes(src, byte, len as u64).unwrap();
                        flat[a][off..off + len].fill(byte);
                        let after = layer.stats();
                        let added = MemStats {
                            bytes_moved: after.bytes_moved - before.bytes_moved,
                            pages_shared: after.pages_shared - before.pages_shared,
                            cow_copies: after.cow_copies - before.cow_copies,
                            pages_committed: after.pages_committed - before.pages_committed,
                        };
                        let want = MemStats {
                            bytes_moved: cows * PAGE as u64,
                            pages_shared: 0,
                            cow_copies: cows,
                            pages_committed: commits,
                        };
                        assert_eq!(added, want, "seed {seed} step {step}: fill {byte:#x} of {len} at {off}");
                        fills += 1;
                        zero_fills += (byte == 0) as u32;
                        writes_under_holds += holds.iter().filter(under).count();
                    }
                    7 => {
                        let held = layer.hold(src, len as u64).unwrap();
                        let at = r.below(len + 1);
                        let n = r.below(len - at + 1);
                        assert!(reads_as(&held, 0, &flat[a][off..off + len]), "seed {seed} step {step}");
                        assert!(reads_as(&held, at, &flat[a][off + at..][..n]), "seed {seed} step {step}");
                        runs_reads += 1;
                    }
                    1 | 2 => {
                        let b = r.below(3);
                        let d = dest(r, b, off, len);
                        let dst = MemRef::new(SPACES[b], d as u64);
                        if a != b {
                            let from = layer.get(src.space).unwrap();
                            let to = layer.get(dst.space).unwrap();
                            let (from, to) = (from.pages.borrow(), to.pages.borrow());
                            empties_written_pages += empties_written(&from, &to, off, d, len) as u32;
                        }
                        layer.copy(src, dst, len as u64).unwrap();
                        per_page_copy(&reference, src, dst, len);
                        let bytes = flat[a][off..off + len].to_vec();
                        flat[b][d..d + len].copy_from_slice(&bytes);
                    }
                    3 | 4 if holds.len() < 4 => holds.push(Pending {
                        layer: layer.hold(src, len as u64).unwrap(),
                        reference: reference.hold(src, len as u64).unwrap(),
                        bytes: flat[a][off..off + len].to_vec(),
                        arena: a,
                        off,
                    }),
                    _ if !holds.is_empty() => {
                        let h = holds.swap_remove(r.below(holds.len()));
                        assert!(reads_as(&h.layer, 0, &h.bytes), "seed {seed} step {step}: a hold moved");
                        let b = r.below(3);
                        let d = dest(r, b, h.off, h.bytes.len());
                        let dst = MemRef::new(SPACES[b], d as u64);
                        layer.deliver(h.layer, dst).unwrap();
                        per_page_deliver(&reference, h.reference, dst);
                        flat[b][d..d + h.bytes.len()].copy_from_slice(&h.bytes);
                    }
                    _ => continue,
                }
                for (space, want) in SPACES.iter().zip(&flat) {
                    let arena = layer.get(*space).unwrap();
                    let pages = arena.pages.borrow();
                    let differs = want.chunks(PAGE).enumerate().any(|(p, want)| {
                        want != &pages.slot(p).map_or(&ZERO, |page| &**page)[..want.len()]
                    });
                    assert!(!differs, "seed {seed} step {step}: {space} differs from the model");
                }
                assert_eq!(layer.stats(), reference.stats(), "seed {seed} step {step}");
            }
            for h in &holds {
                assert!(reads_as(&h.layer, 0, &h.bytes), "seed {seed}: a hold moved");
            }
        }
        assert!(empties_written_pages > 0, "no never-written page was copied over a written one");
        assert!(writes_under_holds > 0, "no held source was written");
        assert!(zero_fills > 0 && fills > zero_fills, "fills: {fills}, zero: {zero_fills}");
        assert!(writes_into_fills > 0, "no write went into part of a filled page");
        assert!(runs_reads > 0, "no hold was read");
    }
}
