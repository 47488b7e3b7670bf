//! Differential test of the lazy memory layer (`pcie_sim::mem`): seeded
//! op streams over three arenas, checked against a flat eager model —
//! a `Vec<u8>` per arena, a claim an eager `to_vec`. Every read, every
//! fetched old value and the final contents must be equal, whatever the
//! layer deferred, forwarded, dropped or saved in between.
//!
//! Half of all ranges are derived from a recently touched one (the same
//! range, a window of it, straddling either end, covering it), so the stream
//! keeps landing on pending ranges and claimed sources instead of
//! scattering over the arenas.

use faults::mix;
use pcie_sim::{GpuId, Held, MemRef, MemSpace, MemStats, MemoryMap, ProcId, SegId};

const ARENA: u64 = 192 << 10;
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
        // around a cache line (or nothing at all), a few KiB, or around
        // the deferral floor
        let len = match rng.below(10) {
            0..=3 => rng.below(131),
            4..=6 => 1 + rng.below(6 << 10),
            _ => (20 << 10) + rng.below(44 << 10),
        };
        let fresh = Range {
            arena: rng.below(3) as usize,
            off: rng.below(ARENA - len + 1),
            len,
        };
        if self.0.is_empty() || rng.below(2) == 0 {
            return fresh;
        }
        let near = self.0[rng.below(self.0.len() as u64) as usize];
        let end = near.off + near.len;
        let inside = near.off + rng.below(near.len);
        let (before, after) = (rng.below(len + 1), rng.below(len + 1));
        let (lo, hi) = match rng.below(6) {
            0 => (near.off, end),
            1 => (inside, inside + 1 + rng.below(end - inside)),
            // a long window of it: what a chain of deferred copies takes
            2 => (inside, end),
            3 => (near.off.saturating_sub(1 + before), inside + 1),
            4 => (inside, (end + 1 + after).min(ARENA)),
            _ => (near.off.saturating_sub(before), (end + after).min(ARENA)),
        };
        Range {
            arena: near.arena,
            off: lo,
            len: hi - lo,
        }
    }
}

fn pattern(tag: u64, len: u64) -> Vec<u8> {
    (0..len).map(|j| (tag.wrapping_mul(0x9E37) ^ j.wrapping_mul(31)) as u8).collect()
}

fn run(seed: u64, ops: u64) -> MemStats {
    let map = MemoryMap::new();
    for sp in SPACES {
        map.create(sp, ARENA as usize);
    }
    let mut model: Vec<Vec<u8>> = vec![vec![0; ARENA as usize]; 3];
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
                model[r.arena][r.idx()].copy_from_slice(&bytes);
            }
            2 | 3 if r.off + 8 <= ARENA => {
                let a = map.get(SPACES[r.arena]).unwrap();
                let i = r.off as usize;
                let old = u64::from_le_bytes(model[r.arena][i..i + 8].try_into().unwrap());
                if rng.below(2) == 0 {
                    a.write_u64(r.off, op).unwrap();
                    model[r.arena][i..i + 8].copy_from_slice(&op.to_le_bytes());
                } else {
                    let got = a.fetch_update_u64(r.off, |v| v.wrapping_add(op)).unwrap();
                    assert_eq!(got, old, "{}", ctx("fetch_update"));
                    model[r.arena][i..i + 8].copy_from_slice(&old.wrapping_add(op).to_le_bytes());
                }
            }
            2..=5 => {
                let got = map.read_bytes(r.at(), r.len).unwrap();
                assert!(got == model[r.arena][r.idx()], "{}", ctx("read"));
            }
            6..=10 => {
                // any pair of arenas, the same one included (memmove)
                let to = recent.pick(&mut rng);
                let dst = Range {
                    arena: to.arena,
                    off: to.off.min(ARENA - r.len),
                    len: r.len,
                };
                map.copy(r.at(), dst.at(), r.len).unwrap();
                let bytes = model[r.arena][r.idx()].to_vec();
                model[dst.arena][dst.idx()].copy_from_slice(&bytes);
                recent.note(dst);
            }
            11 | 12 if held.len() < 12 => {
                held.push((map.hold(r.at(), r.len).unwrap(), model[r.arena][r.idx()].to_vec()));
            }
            11..=14 if !held.is_empty() => {
                let (h, bytes) = held.swap_remove(rng.below(held.len() as u64) as usize);
                let dst = Range {
                    arena: r.arena,
                    off: r.off.min(ARENA - bytes.len() as u64),
                    len: bytes.len() as u64,
                };
                map.deliver(h, dst.at()).unwrap();
                model[dst.arena][dst.idx()].copy_from_slice(&bytes);
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
        model[dst.arena][dst.idx()].copy_from_slice(&bytes);
    }
    let stats = map.stats();
    for (a, sp) in SPACES.into_iter().enumerate() {
        let got = map.read_bytes(MemRef::new(sp, 0), ARENA).unwrap();
        let bad = got.iter().zip(&model[a]).position(|(x, y)| x != y);
        assert_eq!(bad, None, "seed {seed}: final contents of {sp} differ at this offset");
    }
    stats
}

/// Run `ops` ops on each seed; every mechanism of the layer must have
/// run somewhere in the sweep, or it proved nothing about that one.
fn sweep(seeds: std::ops::Range<u64>, ops: u64) {
    let runs: Vec<MemStats> = seeds.map(|seed| run(seed, ops)).collect();
    let raised = |count: fn(&MemStats) -> u64| runs.iter().any(|s| count(s) > 0);
    assert!(raised(|s| s.ranges_deferred), "no op stream deferred a copy");
    assert!(raised(|s| s.dropped_unmoved), "no op stream dropped a range unmoved");
    assert!(raised(|s| s.moved_in), "no op stream moved a range in");
    assert!(raised(|s| s.cow_saves), "no op stream saved a claim");
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
