//! Size classes and the op-latency quantile sketch.
//!
//! A *size class* is a log2 bucket of an op's byte count: class 0 holds
//! exactly `0`, class `i >= 1` holds sizes in `[2^(i-1), 2^i)` (an
//! 8 KiB put is class 14). The [`Sketch`] holds the latencies of one
//! (op, protocol, size class) cell.

/// Size class of a byte count: 0 for `0`, else `ilog2(v) + 1` (so
/// `u64::MAX` lands in class 64).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        v.ilog2() as usize + 1
    }
}

/// Human label for a *size class* (a bucket index applied to byte
/// counts): `"0B"`, `"[1B,2B)"`, ... rendered with power-of-two bytes.
pub fn size_class_label(class: u8) -> String {
    match class {
        0 => "0B".to_string(),
        c => format!("[{},{})", fmt_bytes(1u64 << (c - 1)), fmt_bytes_pow2(c as u32)),
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{}GiB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// `2^exp` rendered as bytes; `2^64` (which overflows u64) spelled out.
fn fmt_bytes_pow2(exp: u32) -> String {
    if exp >= 64 {
        "2^64B".to_string()
    } else {
        fmt_bytes(1u64 << exp)
    }
}

/// Number of buckets in a [`Sketch`]: 16 exact buckets for values
/// `< 16` plus 16 log-linear sub-buckets per power-of-two exponent
/// `4..=63`.
pub const SKETCH_BUCKETS: usize = 16 + 60 * 16;

/// Bucket index of `v` in the HDR-style log-linear layout: values
/// below 16 get exact buckets; above, each power-of-two range is split
/// into 16 linear sub-buckets, bounding relative error at 1/16.
#[inline]
pub fn sketch_bucket(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let e = v.ilog2();
        16 + ((e - 4) as usize) * 16 + (((v >> (e - 4)) & 15) as usize)
    }
}

/// Lower edge of sketch bucket `i` (the smallest value it admits).
#[inline]
pub fn sketch_bucket_floor(i: usize) -> u64 {
    if i < 16 {
        i as u64
    } else {
        (16 + ((i - 16) % 16) as u64) << ((i - 16) / 16)
    }
}

/// A deterministic HDR-style quantile sketch: fixed log-linear buckets
/// (≤ 6.25 % relative error), exact count/sum/min/max. Identical input
/// sequences produce identical sketches — and therefore byte-identical
/// reports — which is what lets CI `cmp` quantile output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sketch {
    buckets: Vec<u64>,
    pub count: u64,
    pub sum: u128,
    min: u64,
    max: u64,
}

impl Default for Sketch {
    fn default() -> Sketch {
        Sketch {
            buckets: vec![0; SKETCH_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Sketch {
    pub fn new() -> Sketch {
        Sketch::default()
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[sketch_bucket(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the floor of the bucket
    /// holding the sample of rank `ceil(q * count)`, clamped into
    /// `[min, max]` so single-sample and extreme quantiles stay exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return sketch_bucket_floor(i).clamp(self.min, self.max);
            }
        }
        unreachable!("count is the sum of the buckets");
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn sketch_bucket_edges_are_exact_and_invertible() {
        // exact region: one bucket per value below 16
        for v in 0..16u64 {
            assert_eq!(sketch_bucket(v), v as usize);
            assert_eq!(sketch_bucket_floor(v as usize), v);
        }
        // exact powers of two start a fresh sub-bucket row
        for e in 4..64u32 {
            let v = 1u64 << e;
            let i = sketch_bucket(v);
            assert_eq!(sketch_bucket_floor(i), v, "2^{e} must be its own floor");
        }
        // the largest representable value lands in the last bucket
        assert_eq!(sketch_bucket(u64::MAX), SKETCH_BUCKETS - 1);
        // floors are monotone, so quantile walking is well-ordered
        for i in 1..SKETCH_BUCKETS {
            assert!(sketch_bucket_floor(i) > sketch_bucket_floor(i - 1));
        }
    }

    #[test]
    fn sketch_relative_error_is_bounded() {
        for v in [17u64, 100, 1000, 12345, 1 << 20, (1 << 30) + 7, u64::MAX / 3] {
            let f = sketch_bucket_floor(sketch_bucket(v));
            assert!(f <= v, "floor {f} above value {v}");
            assert!(
                (v - f) as f64 / v as f64 <= 1.0 / 16.0,
                "relative error too large for {v}: floor {f}"
            );
        }
    }

    #[test]
    fn sketch_zero_and_boundary_values() {
        let mut s = Sketch::new();
        s.record(0); // zero-byte op class
        assert_eq!(s.p50(), 0);
        assert_eq!(s.min(), 0);
        s.record(8192); // exact power of two
        s.record(8192);
        assert_eq!(s.max(), 8192);
        assert_eq!(s.p99(), 8192, "exact powers of two must round-trip");
        let mut big = Sketch::new();
        big.record(u64::MAX); // largest class
        assert_eq!(big.p50(), u64::MAX, "single sample quantiles are exact");
        assert_eq!(big.p999(), u64::MAX);
    }

    #[test]
    fn sketch_quantiles_on_a_spread() {
        let mut s = Sketch::new();
        for v in 1..=1000u64 {
            s.record(v);
        }
        let p50 = s.p50();
        assert!((450..=500).contains(&p50), "p50 {p50} out of range");
        let p99 = s.p99();
        assert!((928..=990).contains(&p99), "p99 {p99} out of range");
        let p999 = s.p999();
        assert!((937..=999).contains(&p999), "p999 {p999} out of range");
        assert!(p50 <= p99 && p99 <= p999, "quantiles must be monotone");
    }

    #[test]
    fn sketch_is_deterministic_across_runs() {
        let run = || {
            let mut s = Sketch::new();
            // fixed LCG: same seed, same stream, same sketch
            let mut x = 0x2545f491u64;
            for _ in 0..5000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s.record(x >> 33);
            }
            (s.p50(), s.p99(), s.p999(), s.count, s.sum)
        };
        assert_eq!(run(), run(), "two seeded runs must agree bucket-for-bucket");
    }

    #[test]
    fn empty_sketch_is_calm() {
        let s = Sketch::new();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn size_class_labels() {
        assert_eq!(size_class_label(0), "0B");
        assert_eq!(size_class_label(1), "[1B,2B)");
        assert_eq!(size_class_label(14), "[8KiB,16KiB)");
        assert_eq!(size_class_label(34), "[8GiB,16GiB)");
        assert_eq!(size_class_label(64), "[8589934592GiB,2^64B)");
    }
}
