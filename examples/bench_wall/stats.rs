//! Order statistics over small sample sets.

/// Median and quartiles by the exclusive method, which is what Python's
/// `statistics.quantiles(v, n=4)` computes; one or two samples have no
/// quartiles and report the extremes.
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn quartiles(samples: &[f64]) -> Quartiles {
    assert!(!samples.is_empty(), "quartiles of nothing");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        // position p*(n+1) on a 1-based axis, clamped to the data
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        n,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).median
}

/// Spread as the driver takes it: interquartile distance over median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let q = quartiles(samples);
    if samples.len() < 2 || q.median == 0.0 {
        0.0
    } else {
        (q.q3 - q.q1) / q.median.abs()
    }
}

/// Nearest-rank percentile of an already sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
    }
}
