//! Differential test of the memory layer (`pcie_sim::mem`): seeded op
//! streams over three arenas, checked against a flat eager model — a
//! `Vec<u8>` per arena, a hold an eager `to_vec`. Every read, every
//! fetched old value and the final contents must be equal, whatever the
//! layer shared, copied on write or left empty in between.
//!
//! Half of all ranges are derived from a recently touched one (the same
//! range, a window of it, straddling either end, covering it), so the stream
//! keeps landing on shared pages and held sources instead of scattering
//! over the arenas. A quarter of the fresh ones straddle a page or
//! directory-leaf boundary of the sparse storage, and lengths run from
//! nothing to past sixteen pages. A quarter of all copies and deliveries
//! land at an offset congruent to their source's mod the page size, so
//! their whole pages are shared — a quarter of those a few pages up or
//! down the source's own arena, an overlapping `memmove`.
//!
//! Beside the bytes, a sharing model follows which page each slot and
//! each hold refers to, and predicts every [`MemStats`] counter exactly:
//! a congruent whole page is shared, a partial write into a page anything
//! else refers to copies it first, and a page is committed only by a
//! write into an empty slot, by such a copy, or by a whole-page write over
//! a shared page — never by sharing. The sweep must have written into
//! shared pages partly and wholly, written to either sharer under a hold,
//! moved overlapping congruent ranges, and dropped last sharers; it must
//! also have read, held and copied never-written pages, and copied them
//! over written ones.

use faults::mix;
use pcie_sim::mem::PAGE;
use pcie_sim::{GpuId, Held, MemRef, MemSpace, MemStats, MemoryMap, ProcId, SegId};
use std::collections::HashMap;

/// Arena sizes; the last is not a multiple of the page size.
const SIZES: [u64; 3] = [192 << 10, 192 << 10, (1 << 20) + 4321];
/// No range is longer, so any range fits any arena.
const MAX_LEN: u64 = 192 << 10;
const SPACES: [MemSpace; 3] = [
    MemSpace::Host(ProcId(0)),
    MemSpace::Shared(SegId(0)),
    MemSpace::Device(GpuId(0)),
];
const P: u64 = PAGE as u64;
/// What one leaf of an arena's page directory maps.
const LEAF_SPAN: u64 = 512 << 10;
/// A hold of at most this many bytes copies them instead of sharing.
const INLINE: u64 = 64;

struct Rng {
    seed: u64,
    n: u64,
}

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.n += 1;
        mix(self.seed, 0x4D45_4D44, self.n) % n
    }
}

#[derive(Clone, Copy)]
struct Range {
    arena: usize,
    off: u64,
    len: u64,
}

impl Range {
    fn at(self) -> MemRef {
        MemRef::new(SPACES[self.arena], self.off)
    }
    fn idx(self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
    /// Its pages, as indices into [`Model::written`].
    fn pages(self) -> std::ops::Range<usize> {
        let first = (self.off / P) as usize;
        first..(first + 1).max((self.off + self.len).div_ceil(P) as usize)
    }
}

/// `len` bytes at `src`, moved to `dst`, split where either side crosses
/// a page boundary: `(src, dst, n)` per run, in address order.
fn runs(src: u64, dst: u64, len: u64) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < len {
        let n = (P - (src + i) % P).min(P - (dst + i) % P).min(len - i);
        out.push((src + i, dst + i, n));
        i += n;
    }
    out
}

/// The flat eager model: every arena's bytes, and which pages of it any
/// write, copy or delivery ever covered.
struct Model {
    bytes: Vec<Vec<u8>>,
    written: Vec<Vec<bool>>,
}

impl Model {
    fn set(&mut self, r: Range, bytes: &[u8]) {
        self.bytes[r.arena][r.idx()].copy_from_slice(bytes);
        if r.len > 0 {
            self.written[r.arena][r.pages()].fill(true);
        }
    }

    /// Does the range hold a byte of a page nothing ever wrote?
    fn unwritten(&self, r: Range) -> bool {
        r.len > 0 && self.written[r.arena][r.pages()].contains(&false)
    }

    /// Does a copy `src` -> `dst` put a never-written source page over a
    /// written destination page somewhere?
    fn zeroes_written(&self, src: Range, dst: Range) -> bool {
        runs(src.off, dst.off, src.len).into_iter().any(|(s, d, _)| {
            !self.written[src.arena][(s / P) as usize] && self.written[dst.arena][(d / P) as usize]
        })
    }
}

/// Which page each slot of each arena refers to (0: none, it reads as
/// zero), and how many slots and holds refer to each page: the sharing
/// the layer must do, and the counters it must show for it.
#[derive(Default)]
struct Sharing {
    slots: Vec<Vec<u64>>,
    /// Page -> (slots, holds) referring to it.
    refs: HashMap<u64, (u64, u64)>,
    pages: u64,
    stats: MemStats,
    cover: Coverage,
}

impl Sharing {
    fn refs(&self, page: u64) -> (u64, u64) {
        self.refs.get(&page).copied().unwrap_or_default()
    }

    /// Does anything but one slot refer to `page`?
    fn shared(&self, page: u64) -> bool {
        let (slots, holds) = self.refs(page);
        page != 0 && slots + holds > 1
    }

    fn count(&mut self, page: u64, slot: bool, by: i64) {
        if page == 0 {
            return;
        }
        let r = self.refs.entry(page).or_default();
        let n = if slot { &mut r.0 } else { &mut r.1 };
        *n = n.checked_add_signed(by).expect("a reference was taken");
        if by < 0 && r.0 + r.1 == 1 {
            self.cover.last_sharers_dropped += 1;
        }
    }

    fn set(&mut self, arena: usize, p: u64, page: u64) {
        let old = std::mem::replace(&mut self.slots[arena][p as usize], page);
        self.count(page, true, 1);
        self.count(old, true, -1);
    }

    /// Page `p` is about to change in place: a page of its own, which
    /// copies it first if anything else refers to it.
    fn own(&mut self, arena: usize, p: u64) {
        let page = self.slots[arena][p as usize];
        if page == 0 || self.shared(page) {
            self.stats.pages_committed += 1;
        }
        if self.shared(page) {
            self.stats.cow_copies += 1;
            self.stats.bytes_moved += P;
        }
        self.pages += 1;
        self.set(arena, p, self.pages);
    }

    /// Caller bytes written to `r` (a write, an atomic, an inline delivery).
    fn write(&mut self, r: Range) {
        for (_, d, n) in runs(r.off, r.off, r.len) {
            let page = self.slots[r.arena][(d / P) as usize];
            let (slots, holds) = self.refs(page);
            if self.shared(page) {
                let cover = &mut self.cover;
                cover.whole_shared_writes += (n == P) as u64;
                cover.partial_shared_writes += (n < P) as u64;
                cover.held_sharer_writes += (slots >= 2 && holds > 0) as u64;
            }
            if n < P {
                self.own(r.arena, d / P);
            } else if page == 0 || self.shared(page) {
                // a whole page: built from the bytes, the old one not copied
                self.stats.pages_committed += 1;
                self.pages += 1;
                self.set(r.arena, d / P, self.pages);
            }
        }
    }

    /// `n` bytes from `src` (the page holding them) into page `p` of
    /// `arena`, inside one page on either side.
    fn copy_run(&mut self, arena: usize, p: u64, n: u64, src: u64) {
        if n == P {
            self.stats.pages_shared += (src != 0) as u64;
            self.set(arena, p, src);
            return;
        }
        self.stats.bytes_moved += n;
        if src != 0 || self.slots[arena][p as usize] != 0 {
            self.own(arena, p);
        }
    }

    fn copy(&mut self, src: Range, dst: Range) {
        let mut runs = runs(src.off, dst.off, src.len);
        if src.arena != dst.arena {
            for (s, d, n) in runs {
                self.copy_run(dst.arena, d / P, n, self.slots[src.arena][(s / P) as usize]);
            }
            return;
        }
        if src.off < dst.off && dst.off < src.off + src.len {
            runs.reverse(); // memmove towards higher addresses
        }
        for (s, d, n) in runs {
            let (sp, dp) = (s / P, d / P);
            if sp != dp {
                self.copy_run(dst.arena, dp, n, self.slots[src.arena][sp as usize]);
            } else if s != d {
                self.stats.bytes_moved += n;
                if self.slots[src.arena][sp as usize] != 0 {
                    self.own(src.arena, sp);
                }
            }
        }
    }

    /// The pages a hold of `r` refers to (none for an inline one).
    fn hold(&mut self, r: Range) -> Vec<u64> {
        if r.len <= INLINE {
            self.stats.bytes_moved += r.len;
            return Vec::new();
        }
        let pages: Vec<u64> = r.pages().map(|p| self.slots[r.arena][p]).collect();
        for &page in &pages {
            self.count(page, false, 1);
        }
        pages
    }

    fn deliver(&mut self, held_at: u64, pages: Vec<u64>, dst: Range) {
        if dst.len <= INLINE {
            self.stats.bytes_moved += dst.len;
            self.write(dst);
            return;
        }
        let at = held_at % P;
        for (s, d, n) in runs(at, dst.off, dst.len) {
            self.copy_run(dst.arena, d / P, n, pages[(s / P) as usize]);
        }
        self.drop_hold(pages);
    }

    fn drop_hold(&mut self, pages: Vec<u64>) {
        for page in pages {
            self.count(page, false, -1);
        }
    }
}

/// How often the stream met each case; the sweep needs every one.
#[derive(Default)]
struct Coverage {
    reads: u64,
    holds: u64,
    copy_sources: u64,
    zeroing_copies: u64,
    partial_shared_writes: u64,
    whole_shared_writes: u64,
    held_sharer_writes: u64,
    overlapping_congruent_moves: u64,
    last_sharers_dropped: u64,
}

/// Ranges the stream touched lately; new ranges are derived from these.
struct Recent(Vec<Range>);

impl Recent {
    fn note(&mut self, r: Range) {
        if r.len == 0 {
            return;
        }
        if self.0.len() == 8 {
            self.0.remove(0);
        }
        self.0.push(r);
    }

    fn pick(&self, rng: &mut Rng) -> Range {
        // around a cache line (or nothing at all), a few KiB, a few
        // pages, or past sixteen pages
        let len = match rng.below(10) {
            0..=3 => rng.below(131),
            4..=6 => 1 + rng.below(6 << 10),
            7 | 8 => (20 << 10) + rng.below(44 << 10),
            _ => 16 * P + rng.below(16 * P),
        };
        let arena = rng.below(3) as usize;
        let size = SIZES[arena];
        let off = if rng.below(4) == 0 {
            // across a page or directory-leaf boundary
            let unit = if rng.below(2) == 0 { P } else { LEAF_SPAN };
            let edge = unit * (1 + rng.below(((size - 1) / unit).max(1)));
            edge.saturating_sub(rng.below(len + 1)).min(size - len)
        } else {
            rng.below(size - len + 1)
        };
        let fresh = Range { arena, off, len };
        if self.0.is_empty() || rng.below(2) == 0 {
            return fresh;
        }
        let near = self.0[rng.below(self.0.len() as u64) as usize];
        let end = near.off + near.len;
        let inside = near.off + rng.below(near.len);
        let (before, after) = (rng.below(len + 1), rng.below(len + 1));
        let size = SIZES[near.arena];
        let (lo, hi) = match rng.below(6) {
            0 => (near.off, end),
            1 => (inside, inside + 1 + rng.below(end - inside)),
            // a long window of it: what a chain of copies takes
            2 => (inside, end),
            3 => (near.off.saturating_sub(1 + before), inside + 1),
            4 => (inside, (end + 1 + after).min(size)),
            _ => (near.off.saturating_sub(before), (end + after).min(size)),
        };
        Range {
            arena: near.arena,
            off: lo,
            len: (hi - lo).min(MAX_LEN),
        }
    }
}

/// Where `len` bytes from `src_off` land in `to`'s arena: near `to`, and a
/// quarter of the time at an offset congruent to `src_off` mod the page
/// size (when one fits) — a quarter of those a few pages from `src_off`
/// itself, in the source's arena.
fn landing(rng: &mut Rng, src: Range, to: Range) -> Range {
    let fit = |arena: usize, near: u64| Range {
        arena,
        off: near.min(SIZES[arena] - src.len),
        len: src.len,
    };
    if rng.below(4) != 0 {
        return fit(to.arena, to.off);
    }
    let (arena, near) = if rng.below(4) == 0 {
        let shift = (1 + rng.below(4)) * P;
        let near = if rng.below(2) == 0 { src.off + shift } else { src.off.saturating_sub(shift) };
        (src.arena, near)
    } else {
        (to.arena, to.off)
    };
    let top = SIZES[arena] - src.len;
    let want = near.min(top);
    let off = want - want % P + src.off % P;
    match if off > top { off.checked_sub(P) } else { Some(off) } {
        Some(off) => Range { arena, off, len: src.len },
        None => fit(to.arena, to.off),
    }
}

fn pattern(tag: u64, len: u64) -> Vec<u8> {
    (0..len).map(|j| (tag.wrapping_mul(0x9E37) ^ j.wrapping_mul(31)) as u8).collect()
}

/// A hold in flight: the layer's, where it was taken, the bytes it must
/// deliver and the pages the sharing model says it refers to.
struct InFlight {
    held: Held,
    from: Range,
    bytes: Vec<u8>,
    pages: Vec<u64>,
}

fn run(seed: u64, ops: u64) -> (MemStats, Coverage) {
    let map = MemoryMap::new();
    for (sp, size) in SPACES.into_iter().zip(SIZES) {
        map.create(sp, size as usize);
    }
    let mut model = Model {
        bytes: SIZES.map(|size| vec![0; size as usize]).into(),
        written: SIZES.map(|size| vec![false; size.div_ceil(P) as usize]).into(),
    };
    let mut sharing = Sharing {
        slots: SIZES.map(|size| vec![0; size.div_ceil(P) as usize]).into(),
        ..Sharing::default()
    };
    let mut held: Vec<InFlight> = Vec::new();
    let mut recent = Recent(Vec::new());
    let mut rng = Rng { seed, n: 0 };

    for op in 0..ops {
        let r = recent.pick(&mut rng);
        let ctx = |what: &str| format!("seed {seed} op {op}: {what} {} len {}", r.at(), r.len);
        match rng.below(16) {
            0 | 1 => {
                let bytes = pattern(op, r.len);
                map.write_bytes(r.at(), &bytes).unwrap();
                model.set(r, &bytes);
                sharing.write(r);
            }
            2 | 3 if r.off + 8 <= SIZES[r.arena] => {
                let a = map.get(SPACES[r.arena]).unwrap();
                let cell = Range { len: 8, ..r };
                let old = u64::from_le_bytes(model.bytes[r.arena][cell.idx()].try_into().unwrap());
                let new = if rng.below(2) == 0 {
                    a.write_u64(r.off, op).unwrap();
                    op
                } else {
                    let got = a.fetch_update_u64(r.off, |v| v.wrapping_add(op)).unwrap();
                    assert_eq!(got, old, "{}", ctx("fetch_update"));
                    old.wrapping_add(op)
                };
                model.set(cell, &new.to_le_bytes());
                sharing.write(cell);
            }
            2..=5 => {
                sharing.cover.reads += model.unwritten(r) as u64;
                let got = map.read_bytes(r.at(), r.len).unwrap();
                assert!(got == model.bytes[r.arena][r.idx()], "{}", ctx("read"));
            }
            6..=10 => {
                // any pair of arenas, the same one included (memmove)
                let to = recent.pick(&mut rng);
                let dst = landing(&mut rng, r, to);
                let cover = &mut sharing.cover;
                cover.copy_sources += model.unwritten(r) as u64;
                cover.zeroing_copies += model.zeroes_written(r, dst) as u64;
                let overlap = r.off.max(dst.off) < (r.off + r.len).min(dst.off + r.len);
                let whole_page = r.len >= 2 * P;
                let congruent = r.off % P == dst.off % P;
                cover.overlapping_congruent_moves +=
                    (r.arena == dst.arena && overlap && congruent && whole_page) as u64;
                map.copy(r.at(), dst.at(), r.len).unwrap();
                let bytes = model.bytes[r.arena][r.idx()].to_vec();
                model.set(dst, &bytes);
                sharing.copy(r, dst);
                recent.note(dst);
            }
            11 | 12 if held.len() < 12 => {
                sharing.cover.holds += model.unwritten(r) as u64;
                held.push(InFlight {
                    held: map.hold(r.at(), r.len).unwrap(),
                    from: r,
                    bytes: model.bytes[r.arena][r.idx()].to_vec(),
                    pages: sharing.hold(r),
                });
            }
            11..=14 if !held.is_empty() => {
                let h = held.swap_remove(rng.below(held.len() as u64) as usize);
                let dst = landing(&mut rng, h.from, r);
                map.deliver(h.held, dst.at()).unwrap();
                model.set(dst, &h.bytes);
                sharing.deliver(h.from.off, h.pages, dst);
                recent.note(dst);
            }
            _ => {
                // a hold dropped undelivered
                if !held.is_empty() {
                    let h = held.swap_remove(rng.below(held.len() as u64) as usize);
                    sharing.drop_hold(h.pages);
                }
            }
        }
        recent.note(r);
    }
    // holds still in flight deliver what they took, however long ago
    for (i, h) in held.into_iter().enumerate() {
        let dst = Range {
            arena: i % 3,
            off: 0,
            len: h.from.len,
        };
        map.deliver(h.held, dst.at()).unwrap();
        model.set(dst, &h.bytes);
        sharing.deliver(h.from.off, h.pages, dst);
    }
    for (a, sp) in SPACES.into_iter().enumerate() {
        let got = map.read_bytes(MemRef::new(sp, 0), SIZES[a]).unwrap();
        let bad = got.iter().zip(&model.bytes[a]).position(|(x, y)| x != y);
        assert_eq!(bad, None, "seed {seed}: final contents of {sp} differ at this offset");
    }
    // shared, copied and committed exactly where the sharing model says:
    // in particular, no shared page ever commits one
    let stats = map.stats();
    assert_eq!(stats, sharing.stats, "seed {seed}: the layer's counters against the model's");
    (stats, sharing.cover)
}

/// Run `ops` ops on each seed; every mechanism of the layer must have
/// run somewhere in the sweep, or it proved nothing about that one.
fn sweep(seeds: std::ops::Range<u64>, ops: u64) {
    let runs: Vec<(MemStats, Coverage)> = seeds.map(|seed| run(seed, ops)).collect();
    let raised = |count: fn(&MemStats) -> u64| runs.iter().any(|(s, _)| count(s) > 0);
    assert!(raised(|s| s.pages_shared), "no op stream shared a page");
    assert!(raised(|s| s.cow_copies), "no op stream copied a page on write");
    assert!(raised(|s| s.pages_committed), "no op stream committed a page");
    let met = |count: fn(&Coverage) -> u64| runs.iter().any(|(_, c)| count(c) > 0);
    assert!(met(|c| c.reads), "no op stream read a never-written page");
    assert!(met(|c| c.holds), "no op stream held a never-written page");
    assert!(met(|c| c.copy_sources), "no op stream copied from a never-written page");
    assert!(
        met(|c| c.zeroing_copies),
        "no op stream copied a never-written page over a written one"
    );
    assert!(met(|c| c.partial_shared_writes), "no op stream wrote part of a shared page");
    assert!(met(|c| c.whole_shared_writes), "no op stream wrote a whole shared page");
    assert!(met(|c| c.held_sharer_writes), "no op stream wrote a held page two slots share");
    assert!(
        met(|c| c.overlapping_congruent_moves),
        "no op stream moved an overlapping congruent range within an arena"
    );
    assert!(met(|c| c.last_sharers_dropped), "no op stream dropped a page's last other sharer");
}

#[test]
fn lazy_memory_matches_the_eager_model() {
    sweep(0..8, 4_000);
}

/// The long sweep (`ci.sh` runs it in release).
#[test]
#[ignore]
fn lazy_memory_matches_the_eager_model_long_sweep() {
    sweep(100..164, 100_000);
}
