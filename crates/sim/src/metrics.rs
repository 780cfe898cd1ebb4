//! Latency histograms: exact or bucketed percentiles.

use std::fmt;

use crate::SimTime;

/// Number of linear sub-buckets per octave in the bucketed representation:
/// 32 sub-buckets bound the relative quantile error at 1/32 ≈ 3.2 %.
const SUB_HALF: u64 = 32;
/// Values below `2 * SUB_HALF` get one exact bucket each.
const SUB_COUNT: u64 = 2 * SUB_HALF;
/// log2(SUB_HALF).
const SUB_HALF_BITS: u32 = 5;

/// Storage behind a [`Histogram`].
#[derive(Clone, Debug)]
enum Repr {
    /// Every sample, percentiles by sorting — exact, O(n) memory.
    Exact { samples: Vec<u64>, sorted: bool },
    /// HDR-style log-linear bucket counts — ≤ 3.2 % quantile error, bounded
    /// memory (at most ~1.9 K buckets regardless of sample count).
    Bucketed { counts: Vec<u64> },
}

/// Cheap aggregate view of a [`Histogram`], computed without allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub n: u64,
    /// Arithmetic mean (exact in both representations).
    pub mean: SimTime,
    /// Median (nearest-rank).
    pub p50: SimTime,
    /// 99th percentile (nearest-rank).
    pub p99: SimTime,
    /// Smallest sample.
    pub min: SimTime,
    /// Largest sample.
    pub max: SimTime,
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} min={} max={}",
            self.n, self.mean, self.p50, self.p99, self.min, self.max
        )
    }
}

/// A latency histogram.
///
/// [`Histogram::new`] stores every sample and computes percentiles by
/// selection — exact, right for the 10⁴–10⁶-sample paper-comparison tables.
/// [`Histogram::bucketed`] keeps HDR-style log-linear bucket counts instead:
/// bounded memory for million-sample open-loop runs, exact count/sum/min/max,
/// percentiles within 3.2 % relative error. Both live behind the same API.
///
/// Count, sum (hence mean), min and max are maintained incrementally, so
/// summaries never allocate or rescan the samples.
///
/// ```
/// use draid_sim::{Histogram, SimTime};
/// let mut h = Histogram::new();
/// for us in [1u64, 2, 3, 4, 100] {
///     h.record(SimTime::from_micros(us));
/// }
/// assert_eq!(h.len(), 5);
/// assert_eq!(h.percentile(50.0), SimTime::from_micros(3));
/// assert_eq!(h.max(), SimTime::from_micros(100));
/// assert_eq!(h.mean(), SimTime::from_micros(22));
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    repr: Repr,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty exact histogram.
    pub fn new() -> Self {
        Histogram {
            repr: Repr::Exact {
                samples: Vec::new(),
                sorted: true,
            },
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Creates an empty bounded-memory bucketed histogram (log-linear,
    /// HDR-style: 32 linear sub-buckets per power of two).
    pub fn bucketed() -> Self {
        Histogram {
            repr: Repr::Bucketed { counts: Vec::new() },
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: SimTime) {
        let ns = sample.as_nanos();
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        match &mut self.repr {
            Repr::Exact { samples, sorted } => {
                samples.push(ns);
                *sorted = false;
            }
            Repr::Bucketed { counts } => {
                let idx = bucket_index(ns);
                if counts.len() <= idx {
                    counts.resize(idx + 1, 0);
                }
                counts[idx] += 1;
            }
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples in nanoseconds. Lets aggregations (e.g.
    /// combined read+write mean latency) avoid recombining truncated means.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_ns
    }

    /// Arithmetic mean of the samples; zero when empty. Exact in both
    /// representations (the sum is tracked alongside the buckets).
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// The `p`-th percentile (nearest-rank); zero when empty. Exact for
    /// [`Histogram::new`], within 3.2 % relative error for
    /// [`Histogram::bucketed`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> SimTime {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        match &mut self.repr {
            Repr::Exact { samples, sorted } => {
                if !*sorted {
                    samples.sort_unstable();
                    *sorted = true;
                }
                SimTime::from_nanos(samples[rank as usize - 1])
            }
            Repr::Bucketed { counts } => {
                let mut seen = 0u64;
                for (idx, &c) in counts.iter().enumerate() {
                    seen += c;
                    if seen >= rank {
                        let v = bucket_high(idx).clamp(self.min_ns, self.max_ns);
                        return SimTime::from_nanos(v);
                    }
                }
                SimTime::from_nanos(self.max_ns)
            }
        }
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> SimTime {
        SimTime::from_nanos(if self.count == 0 { 0 } else { self.max_ns })
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> SimTime {
        SimTime::from_nanos(if self.count == 0 { 0 } else { self.min_ns })
    }

    /// Aggregate summary without cloning the sample set (the exact
    /// representation sorts in place for the percentiles).
    pub fn summary(&mut self) -> HistogramSummary {
        HistogramSummary {
            n: self.count,
            mean: self.mean(),
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
            min: self.min(),
            max: self.max(),
        }
    }

    /// Discards all samples.
    pub fn reset(&mut self) {
        match &mut self.repr {
            Repr::Exact { samples, sorted } => {
                samples.clear();
                *sorted = true;
            }
            Repr::Bucketed { counts } => counts.clear(),
        }
        self.count = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }
}

/// Log-linear bucket index: values below 64 map one-to-one; each octave
/// above is split into 32 linear sub-buckets.
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let mag = 63 - v.leading_zeros(); // >= 6
    let sub = (v >> (mag - SUB_HALF_BITS)) - SUB_HALF;
    (SUB_COUNT + (mag as u64 - 6) * SUB_HALF + sub) as usize
}

/// Highest value mapping to bucket `idx` (HDR "highest equivalent value").
fn bucket_high(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        return idx;
    }
    let k = idx - SUB_COUNT;
    let mag = 6 + (k / SUB_HALF) as u32;
    let sub = k % SUB_HALF;
    let low = (SUB_HALF + sub) << (mag - SUB_HALF_BITS);
    low + ((1u64 << (mag - SUB_HALF_BITS)) - 1)
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Only the incrementally-maintained aggregates: formatting never
        // clones or sorts the sample set. Use [`Histogram::summary`] when
        // percentiles are wanted.
        write!(
            f,
            "n={} mean={} min={} max={}",
            self.count,
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.percentile(99.0), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::ZERO);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for ns in 1..=100u64 {
            h.record(SimTime::from_nanos(ns));
        }
        assert_eq!(h.percentile(0.0), SimTime::from_nanos(1));
        assert_eq!(h.percentile(50.0), SimTime::from_nanos(50));
        assert_eq!(h.percentile(99.0), SimTime::from_nanos(99));
        assert_eq!(h.percentile(100.0), SimTime::from_nanos(100));
        assert_eq!(h.min(), SimTime::from_nanos(1));
    }

    #[test]
    fn records_out_of_order() {
        let mut h = Histogram::new();
        for ns in [5u64, 1, 9, 3] {
            h.record(SimTime::from_nanos(ns));
        }
        assert_eq!(h.percentile(50.0), SimTime::from_nanos(3));
        h.record(SimTime::from_nanos(2));
        assert_eq!(h.percentile(50.0), SimTime::from_nanos(3));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn bad_percentile_panics() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn display_uses_cached_aggregates() {
        let mut h = Histogram::new();
        for ns in [40u64, 10, 30, 20] {
            h.record(SimTime::from_nanos(ns));
        }
        assert_eq!(format!("{h}"), "n=4 mean=25ns min=10ns max=40ns");
        assert_eq!(
            format!("{}", h.summary()),
            "n=4 mean=25ns p50=20ns p99=40ns min=10ns max=40ns"
        );
    }

    #[test]
    fn bucketed_small_values_are_exact() {
        let mut h = Histogram::bucketed();
        for ns in 1..=63u64 {
            h.record(SimTime::from_nanos(ns));
        }
        assert_eq!(h.percentile(50.0), SimTime::from_nanos(32));
        assert_eq!(h.min(), SimTime::from_nanos(1));
        assert_eq!(h.max(), SimTime::from_nanos(63));
    }

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        let mut prev = None;
        for v in (0..200u64).chain([1_000, 65_535, 1 << 20, u64::MAX >> 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(v <= bucket_high(idx), "v={v} above its bucket high");
            if let Some((pv, pidx)) = prev {
                if v == pv + 1 {
                    assert!(idx >= pidx, "bucket index not monotone at {v}");
                }
            }
            prev = Some((v, idx));
        }
        // Relative bucket width stays under 1/32 for large values.
        let idx = bucket_index(1 << 30);
        assert!((bucket_high(idx) - (1 << 30)) as f64 / (1u64 << 30) as f64 <= 1.0 / 32.0);
    }

    #[test]
    fn bucketed_cross_validates_against_exact() {
        let mut rng = crate::DetRng::new(0xB0C4E7);
        let mut exact = Histogram::new();
        let mut bucketed = Histogram::bucketed();
        for _ in 0..100_000 {
            // Log-uniform-ish latencies spanning ns..tens of ms.
            let mag = 4 + rng.below(20);
            let ns = (1u64 << mag) + rng.below(1 << mag);
            let t = SimTime::from_nanos(ns);
            exact.record(t);
            bucketed.record(t);
        }
        assert_eq!(exact.len(), bucketed.len());
        assert_eq!(exact.mean(), bucketed.mean(), "sum is tracked exactly");
        assert_eq!(exact.min(), bucketed.min());
        assert_eq!(exact.max(), bucketed.max());
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let e = exact.percentile(p).as_nanos() as f64;
            let b = bucketed.percentile(p).as_nanos() as f64;
            let rel = (b - e).abs() / e;
            assert!(
                rel <= 1.0 / 32.0 + 1e-9,
                "p{p}: exact={e} bucketed={b} rel={rel}"
            );
            assert!(b >= e, "bucketed percentile reports the bucket's high end");
        }
    }

    #[test]
    fn bucketed_memory_stays_bounded() {
        let mut h = Histogram::bucketed();
        let mut v = 1u64;
        for _ in 0..63 {
            h.record(SimTime::from_nanos(v));
            v = v.saturating_mul(2);
        }
        h.record(SimTime::from_nanos(u64::MAX));
        if let Repr::Bucketed { counts } = &h.repr {
            assert!(counts.len() <= SUB_COUNT as usize + 58 * SUB_HALF as usize);
        } else {
            panic!("expected bucketed repr");
        }
        assert_eq!(h.len(), 64);
    }

    #[test]
    fn bucketed_reset_clears_everything() {
        let mut h = Histogram::bucketed();
        h.record(SimTime::from_micros(10));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.percentile(99.0), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
    }
}
