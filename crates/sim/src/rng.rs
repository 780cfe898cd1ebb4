//! Deterministic randomness for reproducible experiments.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded deterministic random number generator.
///
/// Every experiment in the reproduction takes an explicit seed so runs replay
/// exactly; this thin wrapper around [`SmallRng`] keeps the seeding policy in
/// one place and offers the handful of draws the workloads need.
///
/// ```
/// use draid_sim::DetRng;
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.inner.gen_range(0..bound)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen_range(0.0..1.0)
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Samples an index from a discrete probability distribution given as
    /// (possibly unnormalized, non-negative) weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut draw = self.unit_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight");
            if draw < w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }

    /// Fills a byte slice with deterministic random data (for the real-bytes
    /// data plane in tests).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_agree() {
        let (mut a, mut b) = (DetRng::new(42), DetRng::new(42));
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_bounds() {
        let mut rng = DetRng::new(1);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(2);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DetRng::new(3);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.0..4.0).contains(&ratio), "ratio {ratio} not near 3");
    }

    #[test]
    #[should_panic(expected = "sum to a positive")]
    fn zero_weights_panic() {
        DetRng::new(4).weighted_index(&[0.0, 0.0]);
    }
}
