//! Order statistics for the benchmark's own numbers: exact percentiles over
//! kept samples, the "highest percentile the sample supports" rule, the
//! quartiles the acceptance gate uses, and a fixed-size log histogram for
//! span durations (millions of samples in a traced run).

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The tail percentiles the benchmark is willing to quote, ascending.
const TAILS: [f64; 5] = [0.9, 0.99, 0.999, 0.9999, 0.99999];

/// The highest of [`TAILS`] that still has at least ten samples beyond it in
/// a sample of `n`; `None` when even p90 is not supported (n < 100).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().rev().find(|&p| n >= 1 && n - (rank(n, p) + 1) >= 10)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the acceptance gate's definition.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Which side of a sample is the fast one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fast {
    /// Smaller is faster (a time).
    Low,
    /// Larger is faster (a rate).
    High,
}

/// The fastest of a sample of timings taken under one-sided interference.
pub fn fastest(values: &[f64], fast: Fast) -> f64 {
    let pick = match fast {
        Fast::Low => f64::min,
        Fast::High => f64::max,
    };
    values.iter().copied().reduce(pick).expect("fastest of an empty sample")
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram of `u64` samples: 32 sub-buckets per power of two,
/// so a bucket is at most 3.2 % wide. Quantiles interpolate by rank inside
/// the bucket, which keeps them continuous run to run instead of snapping
/// to bucket edges.
#[derive(Clone, Debug)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist { counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB], total: 0 }
    }
}

impl LogHist {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        ((exp - SUB_BITS + 1) as usize) * SUB + sub
    }

    /// `[lo, hi)` covered by bucket `b`.
    fn bounds(b: usize) -> (f64, f64) {
        if b < SUB {
            return (b as f64, b as f64 + 1.0);
        }
        let exp = (b / SUB) as u32 + SUB_BITS - 1;
        let width = (1u64 << (exp - SUB_BITS)) as f64;
        let lo = (1u64 << exp) as f64 + (b % SUB) as f64 * width;
        (lo, lo + width)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// The `p`-quantile (`p` in `(0, 1]`), 0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = p * self.total as f64;
        let mut seen = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 >= target {
                let (lo, hi) = Self::bounds(b);
                return lo + (hi - lo) * ((target - seen) / c as f64);
            }
            seen += c as f64;
        }
        unreachable!("target rank lies within the recorded total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        // p90 of 100 is the 90th value: exactly ten lie beyond it.
        assert_eq!(supported_tail(100), Some(0.9));
        // p99 of 1000 is the 990th value (ten beyond); of 999 the 990th
        // (nine beyond), so 999 samples only support p90.
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(1_000_000), Some(0.99999));
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(fastest(&v, Fast::Low), 1.0);
        assert_eq!(fastest(&v, Fast::High), 10.0);
    }

    #[test]
    fn log_hist_quantiles_stay_within_one_bucket() {
        let mut h = LogHist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [0.5, 0.9, 0.99] {
            let exact = p * 100_000.0;
            assert!((h.quantile(p) / exact - 1.0).abs() < 0.035, "p{p}: {}", h.quantile(p));
        }
        let (lo, hi) = LogHist::bounds(LogHist::bucket(1_000_003));
        assert!(lo <= 1_000_003.0 && 1_000_003.0 < hi);
        assert_eq!(LogHist::default().quantile(0.5), 0.0);
    }
}
