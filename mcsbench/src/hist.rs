//! A log-linear latency histogram: fixed memory, no per-sample storage.
//!
//! Values below [`SUB`] nanoseconds get one bucket each. Above that, every
//! power-of-two range `[2^e, 2^(e+1))` is split into [`SUB`] equal buckets,
//! so a bucket is at most `1/SUB` of its lower edge wide. A quantile is
//! read by interpolating inside the bucket that holds its rank, which keeps
//! it inside that bucket: the reading is within `1/SUB` (0.78%) of the
//! exact order statistic.

/// Linear sub-buckets per power of two (and the exact range below it).
const SUB: u64 = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Buckets: the exact range, then `SUB` per exponent `SUB_BITS..=63`.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Nanosecond latency histogram.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: Box::new([0; BUCKETS]), total: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (SUB * u64::from(shift + 1) + sub) as usize
}

/// `(lower edge, width)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in nanoseconds by the nearest-rank
    /// rule, interpolated inside its bucket; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lo, width) = bounds(i);
                let within = (rank - below) as f64 - 0.5;
                return lo as f64 + width as f64 * within / c as f64;
            }
            below += c;
        }
        unreachable!("rank never exceeds the sample count")
    }

    /// The highest of p50, p90, p99, p99.9 and p99.99 with at least ten
    /// samples beyond it, as `(percentile, nanoseconds)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        [99.99, 99.9, 99.0, 90.0, 50.0]
            .into_iter()
            .find(|p| self.total as f64 * (1.0 - p / 100.0) >= 10.0)
            .map(|p| (p, self.quantile_ns(p / 100.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a tiny deterministic generator for test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn check_against_sorted(samples: &[u64]) {
        let mut h = Histogram::default();
        for &s in samples {
            h.record(s);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        assert_eq!(h.count(), sorted.len() as u64);
        for q in [0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let got = h.quantile_ns(q);
            assert!(
                (got - exact).abs() <= 0.01 * exact.max(1.0),
                "q={q}: histogram {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where the previous ended");
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + (width - 1)), i);
            assert!(width == 1 || width as f64 / lo as f64 <= 1.0 / SUB as f64);
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at 2^64");
    }

    #[test]
    fn uniform_inputs_match_the_sorted_oracle() {
        let mut rng = Rng(1);
        let samples: Vec<u64> = (0..20_000).map(|_| 100 + rng.next() % 1_000_000).collect();
        check_against_sorted(&samples);
    }

    #[test]
    fn heavy_tailed_inputs_match_the_sorted_oracle() {
        // Pareto(α = 1.1) over a 200 ns floor: most samples near the floor,
        // a tail spanning many decades.
        let mut rng = Rng(2);
        let samples: Vec<u64> =
            (0..50_000).map(|_| (200.0 / (1.0 - rng.unit()).powf(1.0 / 1.1)) as u64).collect();
        check_against_sorted(&samples);
    }

    #[test]
    fn tiny_values_read_inside_their_unit_bucket() {
        let mut h = Histogram::default();
        for v in 0..SUB {
            h.record(v);
            h.record(v);
        }
        assert_eq!(h.count(), 2 * SUB);
        let median = h.quantile_ns(0.5);
        assert!((63.0..64.0).contains(&median), "{median}");
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut h = Histogram::default();
        for v in 0..1_000 {
            h.record(v);
        }
        assert_eq!(h.tail().map(|t| t.0), Some(99.0));
        assert_eq!(Histogram::default().tail(), None);
    }
}
