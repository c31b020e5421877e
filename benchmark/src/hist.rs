//! Log-bucketed latency histogram and the sub-window statistics.
//!
//! Every power of two is cut into 128 linear buckets, so a recorded
//! value is off by at most 1/128 ≈ 0.8 % — inside the 1 % the catalogue
//! promises — and recording is two shifts and an increment.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A histogram of nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    ((shift + 1) as usize) * SUB + sub
}

/// The midpoint of bucket `idx`'s value range.
fn bucket_mid(idx: usize) -> f64 {
    if idx < SUB {
        return idx as f64;
    }
    let shift = (idx / SUB - 1) as u32;
    let lo = ((SUB + idx % SUB) as u64) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The value at quantile `q` in `[0, 1]` (nearest rank), in the
    /// unit recorded; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Some(bucket_mid(idx));
            }
        }
        unreachable!("rank <= total")
    }
}

/// Median, minimum and maximum of the per-sub-window values of one
/// metric: the median is reported, min/max are printed beside it as the
/// run's own spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Summarises the sub-window values (any count ≥ 1; an even count takes
/// the mean of the middle two).
pub fn window_stat(values: &[f64]) -> Option<WindowStat> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(WindowStat {
        median,
        min: v[0],
        max: v[n - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{RngExt, SeedableRng, StdRng};

    #[test]
    fn percentiles_match_an_exact_sort_within_one_percent() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut h = Histogram::default();
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..200_000 {
            // Log-uniform from 100 ns to 100 ms: spans 20 octaves.
            let v = (100.0 * (1e6f64).powf(rng.random::<f64>())) as u64;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).max(1);
            let want = exact[rank - 1] as f64;
            let got = h.quantile(q).unwrap();
            assert!((got - want).abs() / want <= 0.01, "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn small_values_are_exact_and_buckets_are_monotone() {
        let mut h = Histogram::default();
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(63.0));
        let mut last = 0;
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1_000, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "{v}");
            last = b;
        }
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        a.record(1_000);
        b.record(9_000);
        b.record(9_000);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let p = a.quantile(0.99).unwrap();
        assert!((p - 9_000.0).abs() / 9_000.0 < 0.01);
        assert!(Histogram::default().quantile(0.5).is_none());
    }

    #[test]
    fn sub_window_median() {
        assert_eq!(
            window_stat(&[3.0, 1.0, 2.0]),
            Some(WindowStat {
                median: 2.0,
                min: 1.0,
                max: 3.0
            })
        );
        assert_eq!(window_stat(&[4.0, 2.0]).unwrap().median, 3.0);
        assert_eq!(window_stat(&[7.5]).unwrap().median, 7.5);
        assert!(window_stat(&[]).is_none());
    }
}
