//! Differential test of the lazy memory layer (`pcie_sim::mem`): seeded
//! op streams over three arenas, checked against a flat eager model —
//! a `Vec<u8>` per arena, a claim an eager `to_vec`. Every read, every
//! fetched old value and the final contents must be equal, whatever the
//! layer deferred, forwarded, dropped or saved in between.
//!
//! Half of all ranges are derived from a recently touched one (the same
//! range, a window of it, straddling either end, covering it), so the stream
//! keeps landing on pending ranges and claimed sources instead of
//! scattering over the arenas. A quarter of the fresh ones straddle a page
//! or block boundary of the sparse storage, and lengths run from nothing to
//! past a block, so runs split at both and bulk writes commit whole blocks.
//! The model also tracks which pages were ever written, and the sweep must
//! have read, held and copied from never-written pages, and copied them
//! over written ones.

use faults::mix;
use pcie_sim::mem::{BLOCK, PAGE};
use pcie_sim::{GpuId, Held, MemRef, MemSpace, MemStats, MemoryMap, ProcId, SegId};

/// Arena sizes; the last is not a multiple of the page size.
const SIZES: [u64; 3] = [192 << 10, 192 << 10, (1 << 20) + 4321];
/// No range is longer, so any range fits any arena.
const MAX_LEN: u64 = 192 << 10;
const SPACES: [MemSpace; 3] = [
    MemSpace::Host(ProcId(0)),
    MemSpace::Shared(SegId(0)),
    MemSpace::Device(GpuId(0)),
];

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
        let first = self.off as usize / PAGE;
        first..(first + 1).max((self.off + self.len).div_ceil(PAGE as u64) as usize)
    }
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
        let page = PAGE as u64;
        let mut i = 0;
        while i < src.len {
            let (s, d) = ((src.off + i) as usize / PAGE, (dst.off + i) as usize / PAGE);
            if !self.written[src.arena][s] && self.written[dst.arena][d] {
                return true;
            }
            // next source or destination page boundary
            let step = (page - (src.off + i) % page).min(page - (dst.off + i) % page);
            i += step;
        }
        false
    }
}

/// How often the stream met never-written pages; the sweep needs each.
#[derive(Default)]
struct Coverage {
    reads: u64,
    holds: u64,
    copy_sources: u64,
    zeroing_copies: u64,
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
        // around a cache line (or nothing at all), a few KiB, around the
        // deferral floor, or past a block
        let len = match rng.below(10) {
            0..=3 => rng.below(131),
            4..=6 => 1 + rng.below(6 << 10),
            7 | 8 => (20 << 10) + rng.below(44 << 10),
            _ => BLOCK as u64 + rng.below(BLOCK as u64),
        };
        let arena = rng.below(3) as usize;
        let size = SIZES[arena];
        let off = if rng.below(4) == 0 {
            // across a page or block boundary
            let unit = if rng.below(2) == 0 { PAGE } else { BLOCK } as u64;
            let edge = unit * (1 + rng.below((size - 1) / unit));
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
            // a long window of it: what a chain of deferred copies takes
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

fn pattern(tag: u64, len: u64) -> Vec<u8> {
    (0..len).map(|j| (tag.wrapping_mul(0x9E37) ^ j.wrapping_mul(31)) as u8).collect()
}

fn run(seed: u64, ops: u64) -> (MemStats, Coverage) {
    let map = MemoryMap::new();
    for (sp, size) in SPACES.into_iter().zip(SIZES) {
        map.create(sp, size as usize);
    }
    let mut model = Model {
        bytes: SIZES.map(|size| vec![0; size as usize]).into(),
        written: SIZES.map(|size| vec![false; (size as usize).div_ceil(PAGE)]).into(),
    };
    let mut cover = Coverage::default();
    let mut held: Vec<(Held, Vec<u8>)> = Vec::new();
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
            }
            2..=5 => {
                cover.reads += model.unwritten(r) as u64;
                let got = map.read_bytes(r.at(), r.len).unwrap();
                assert!(got == model.bytes[r.arena][r.idx()], "{}", ctx("read"));
            }
            6..=10 => {
                // any pair of arenas, the same one included (memmove)
                let to = recent.pick(&mut rng);
                let dst = Range {
                    arena: to.arena,
                    off: to.off.min(SIZES[to.arena] - r.len),
                    len: r.len,
                };
                cover.copy_sources += model.unwritten(r) as u64;
                cover.zeroing_copies += model.zeroes_written(r, dst) as u64;
                map.copy(r.at(), dst.at(), r.len).unwrap();
                let bytes = model.bytes[r.arena][r.idx()].to_vec();
                model.set(dst, &bytes);
                recent.note(dst);
            }
            11 | 12 if held.len() < 12 => {
                cover.holds += model.unwritten(r) as u64;
                let bytes = model.bytes[r.arena][r.idx()].to_vec();
                held.push((map.hold(r.at(), r.len).unwrap(), bytes));
            }
            11..=14 if !held.is_empty() => {
                let (h, bytes) = held.swap_remove(rng.below(held.len() as u64) as usize);
                let dst = Range {
                    arena: r.arena,
                    off: r.off.min(SIZES[r.arena] - bytes.len() as u64),
                    len: bytes.len() as u64,
                };
                map.deliver(h, dst.at()).unwrap();
                model.set(dst, &bytes);
                recent.note(dst);
            }
            _ => {
                // a claim dropped undelivered
                if !held.is_empty() {
                    held.swap_remove(rng.below(held.len() as u64) as usize);
                }
            }
        }
        recent.note(r);
    }
    // claims still held deliver what they claimed, however long ago
    for (i, (h, bytes)) in held.into_iter().enumerate() {
        let dst = Range {
            arena: i % 3,
            off: 0,
            len: bytes.len() as u64,
        };
        map.deliver(h, dst.at()).unwrap();
        model.set(dst, &bytes);
    }
    let stats = map.stats();
    for (a, sp) in SPACES.into_iter().enumerate() {
        let got = map.read_bytes(MemRef::new(sp, 0), SIZES[a]).unwrap();
        let bad = got.iter().zip(&model.bytes[a]).position(|(x, y)| x != y);
        assert_eq!(bad, None, "seed {seed}: final contents of {sp} differ at this offset");
    }
    // only writes commit, and at most the blocks they wrote to
    let per_block = BLOCK / PAGE;
    let written_blocks: usize = model
        .written
        .iter()
        .map(|w| w.chunks(per_block).filter(|b| b.contains(&true)).count())
        .sum();
    assert!(
        stats.pages_committed <= (written_blocks * per_block) as u64,
        "seed {seed}: {} pages committed in {written_blocks} written blocks",
        stats.pages_committed
    );
    (stats, cover)
}

/// Run `ops` ops on each seed; every mechanism of the layer must have
/// run somewhere in the sweep, or it proved nothing about that one.
fn sweep(seeds: std::ops::Range<u64>, ops: u64) {
    let runs: Vec<(MemStats, Coverage)> = seeds.map(|seed| run(seed, ops)).collect();
    let raised = |count: fn(&MemStats) -> u64| runs.iter().any(|(s, _)| count(s) > 0);
    assert!(raised(|s| s.ranges_deferred), "no op stream deferred a copy");
    assert!(raised(|s| s.dropped_unmoved), "no op stream dropped a range unmoved");
    assert!(raised(|s| s.moved_in), "no op stream moved a range in");
    assert!(raised(|s| s.cow_saves), "no op stream saved a claim");
    assert!(raised(|s| s.pages_committed), "no op stream committed a page");
    let met = |count: fn(&Coverage) -> u64| runs.iter().any(|(_, c)| count(c) > 0);
    assert!(met(|c| c.reads), "no op stream read a never-written page");
    assert!(met(|c| c.holds), "no op stream held a never-written page");
    assert!(met(|c| c.copy_sources), "no op stream copied from a never-written page");
    assert!(
        met(|c| c.zeroing_copies),
        "no op stream copied a never-written page over a written one"
    );
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
