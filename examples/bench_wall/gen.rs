//! Seeded inputs and the flat reference model they are checked
//! against. The program under test only ever sees the generated op
//! list; the seed stays here.

/// A stream of `faults::mix(seed, stream, 1..)`: the repo's own
/// stateless hash, counted.
pub struct Rng {
    seed: u64,
    stream: u64,
    drawn: u64,
}

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng {
            seed,
            stream,
            drawn: 0,
        }
    }

    pub fn next(&mut self) -> u64 {
        self.drawn += 1;
        faults::mix(self.seed, self.stream, self.drawn)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n + 8);
        while v.len() < n {
            v.extend_from_slice(&self.next().to_le_bytes());
        }
        v.truncate(n);
        v
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A byte range `[off, off + len)` in some buffer, with `off` a
/// multiple of `align` and the range inside `size`.
fn place(rng: &mut Rng, size: u64, len: u64, align: u64) -> u64 {
    rng.below((size - len) / align + 1) * align
}

// ------------------------------------------------------ small_rma_mix

/// Buffer sizes of `small_rma_mix`: one symmetric GPU destination
/// region per target, two source buffers and a get landing buffer on
/// the issuing PE.
pub const SMALL_REGION: u64 = 64 << 10;
/// Offsets are 8-byte aligned so the mismatch map can attribute
/// damage to single ops.
pub const SMALL_ALIGN: u64 = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SmallKind {
    /// 8 B device-to-device put + quiet.
    Put8,
    /// 2 KiB device-to-device put + quiet.
    Put2k,
    /// 8 B get from the target's GPU heap into a local device buffer.
    Get8,
    /// 8 B host-to-device put + quiet.
    Put8Hd,
    /// 64-bit fetch-add on a counter in the target's GPU heap.
    Fadd,
}

#[derive(Clone, Copy, Debug)]
pub struct SmallOp {
    pub kind: SmallKind,
    /// 0 = the intra-node target, 1 = the inter-node target.
    pub target: usize,
    /// Offset in the remote region (puts: destination, gets: source).
    pub remote_off: u64,
    /// Offset in the local buffer (puts: source, gets: destination).
    pub local_off: u64,
    /// Fetch-add operand.
    pub add: u64,
}

impl SmallKind {
    pub fn len(self) -> u64 {
        match self {
            SmallKind::Put2k => 2048,
            SmallKind::Fadd => 0,
            _ => 8,
        }
    }
}

/// `n` ops in the issue's mix (40/20/20/10/10 %), each kind split
/// evenly between the two targets, in seeded order at seeded offsets.
/// Counts are exact so the work does not vary with the seed.
pub fn small_ops(seed: u64, n: usize) -> Vec<SmallOp> {
    use SmallKind::*;
    let mut rng = Rng::new(seed, 1);
    let mix = [
        (Put8, 40),
        (Put2k, 20),
        (Get8, 20),
        (Put8Hd, 10),
        (Fadd, 10),
    ];
    let mut ops = Vec::with_capacity(n);
    for (kind, pct) in mix {
        for i in 0..n * pct / 100 {
            let len = kind.len().max(8);
            ops.push(SmallOp {
                kind,
                target: i % 2,
                remote_off: place(&mut rng, SMALL_REGION, len, SMALL_ALIGN),
                local_off: place(&mut rng, SMALL_REGION, len, SMALL_ALIGN),
                add: 1 + rng.below(1000),
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// Flat memory of `small_rma_mix`: what every buffer must hold after
/// the ops ran in order.
pub struct SmallModel {
    pub src_dev: Vec<u8>,
    pub src_host: Vec<u8>,
    pub remote: [Vec<u8>; 2],
    pub landing: Vec<u8>,
    pub counter: [u64; 2],
}

impl SmallModel {
    pub fn new(seed: u64) -> SmallModel {
        let mut rng = Rng::new(seed, 2);
        let region = SMALL_REGION as usize;
        SmallModel {
            src_dev: rng.bytes(region),
            src_host: rng.bytes(region),
            remote: [vec![0; region], vec![0; region]],
            landing: vec![0; region],
            counter: [0; 2],
        }
    }

    /// Apply one op; a fetch-add returns the value it must fetch.
    pub fn apply(&mut self, op: &SmallOp) -> u64 {
        let (r, l, n) = (
            op.remote_off as usize,
            op.local_off as usize,
            op.kind.len() as usize,
        );
        match op.kind {
            SmallKind::Put8 | SmallKind::Put2k => {
                self.remote[op.target][r..r + n].copy_from_slice(&self.src_dev[l..l + n])
            }
            SmallKind::Put8Hd => {
                self.remote[op.target][r..r + n].copy_from_slice(&self.src_host[l..l + n])
            }
            SmallKind::Get8 => {
                self.landing[l..l + n].copy_from_slice(&self.remote[op.target][r..r + n])
            }
            SmallKind::Fadd => {
                let old = self.counter[op.target];
                self.counter[op.target] = old.wrapping_add(op.add);
                return old;
            }
        }
        0
    }
}

// ----------------------------------------------------- large_pipeline

pub const MIB: u64 = 1 << 20;
/// Remote GPU destination region, and each of the issuing PE's three
/// local buffers (device source, host source, device get landing).
pub const LARGE_REGION: u64 = 8 * MIB;
pub const LARGE_LOCAL: u64 = 6 * MIB;
pub const LARGE_ALIGN: u64 = 4096;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LargeKind {
    /// 4 MiB device-to-device put + quiet (pipelined GDR write).
    Put4m,
    /// 4 MiB device-to-device get (proxy pipeline).
    Get4m,
    /// Four 1 MiB `putmem_nbi` to adjacent 1 MiB slots, then quiet.
    NbiWindow,
    /// 1 MiB host-to-device put + quiet (direct GDR).
    Put1mHd,
}

#[derive(Clone, Copy, Debug)]
pub struct LargeOp {
    pub kind: LargeKind,
    pub remote_off: u64,
    /// Local offsets; only the window uses all four.
    pub local_off: [u64; 4],
}

impl LargeKind {
    pub fn len(self) -> u64 {
        match self {
            LargeKind::Put1mHd => MIB,
            _ => 4 * MIB,
        }
    }
}

/// `n` ops, a quarter of each kind, in seeded order at seeded offsets.
pub fn large_ops(seed: u64, n: usize) -> Vec<LargeOp> {
    use LargeKind::*;
    let mut rng = Rng::new(seed, 3);
    let mut ops = Vec::with_capacity(n);
    for kind in [Put4m, Get4m, NbiWindow, Put1mHd] {
        for _ in 0..n / 4 {
            let piece = if kind == NbiWindow { MIB } else { kind.len() };
            ops.push(LargeOp {
                kind,
                remote_off: place(&mut rng, LARGE_REGION, kind.len(), LARGE_ALIGN),
                local_off: [(); 4].map(|_| place(&mut rng, LARGE_LOCAL, piece, LARGE_ALIGN)),
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

pub struct LargeModel {
    pub src_dev: Vec<u8>,
    pub src_host: Vec<u8>,
    pub remote: Vec<u8>,
    pub landing: Vec<u8>,
}

impl LargeModel {
    pub fn new(seed: u64) -> LargeModel {
        let mut rng = Rng::new(seed, 4);
        LargeModel {
            src_dev: rng.bytes(LARGE_LOCAL as usize),
            src_host: rng.bytes(LARGE_LOCAL as usize),
            remote: vec![0; LARGE_REGION as usize],
            landing: vec![0; LARGE_LOCAL as usize],
        }
    }

    pub fn apply(&mut self, op: &LargeOp) {
        let r = op.remote_off as usize;
        let l = op.local_off.map(|o| o as usize);
        let n = op.kind.len() as usize;
        let m = MIB as usize;
        match op.kind {
            LargeKind::Put4m => {
                self.remote[r..r + n].copy_from_slice(&self.src_dev[l[0]..l[0] + n])
            }
            LargeKind::Put1mHd => {
                self.remote[r..r + n].copy_from_slice(&self.src_host[l[0]..l[0] + n])
            }
            LargeKind::Get4m => {
                self.landing[l[0]..l[0] + n].copy_from_slice(&self.remote[r..r + n])
            }
            LargeKind::NbiWindow => {
                for (i, lo) in l.iter().enumerate() {
                    let at = r + i * m;
                    self.remote[at..at + m].copy_from_slice(&self.src_dev[*lo..*lo + m]);
                }
            }
        }
    }
}

// ------------------------------------------------------ byte checking

/// Which `block`-sized blocks of `got` differ from `want`.
pub fn bad_blocks(want: &[u8], got: &[u8], block: u64) -> Vec<bool> {
    assert_eq!(
        want.len(),
        got.len(),
        "readback size differs from the model"
    );
    want.chunks(block as usize)
        .zip(got.chunks(block as usize))
        .map(|(w, g)| w != g)
        .collect()
}

/// Whether any block touched by `[off, off + len)` is bad.
pub fn touches_bad(bad: &[bool], off: u64, len: u64, block: u64) -> bool {
    let first = (off / block) as usize;
    let last = ((off + len).div_ceil(block) as usize).min(bad.len());
    bad[first..last].iter().any(|b| *b)
}
