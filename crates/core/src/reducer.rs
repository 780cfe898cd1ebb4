//! Reducer selection for degraded reads and reconstruction (§6).
//!
//! With homogeneous networks a uniformly random reducer is optimal
//! (Theorem 1: expected per-node traffic is topology-independent). With
//! heterogeneous NICs (Fig. 17b's 25/100 Gbps mix), dRAID tunes the selection
//! probability `P_i` to maximize the minimum expected bandwidth headroom:
//!
//! ```text
//! maximize  min_i  R_i = B_i − P_i · (n−1) · L
//! s.t.      Σ P_i = 1,   0 ≤ P_i ≤ 1
//! ```
//!
//! solved exactly by water-filling, with the reconstruction load `L`
//! estimated online by an EWMA (§6.2).

use draid_sim::{DetRng, SimTime};

/// Exact water-filling solution of the §6.2 program.
///
/// Given per-bdev available bandwidth `b[i]` (bytes/sec) and the aggregate
/// reducer inbound load `t = (n−1)·L` (bytes/sec), returns the probability
/// vector maximizing the minimum headroom. With `t == 0` the mass spreads
/// uniformly over the maximum-bandwidth bdevs.
///
/// # Panics
///
/// Panics if `b` is empty, any entry is negative/non-finite, or `t < 0`.
pub fn water_fill(b: &[f64], t: f64) -> Vec<f64> {
    assert!(!b.is_empty(), "need at least one candidate");
    assert!(t >= 0.0 && t.is_finite(), "invalid load {t}");
    for &x in b {
        assert!(x >= 0.0 && x.is_finite(), "invalid bandwidth {x}");
    }
    let n = b.len();
    if t == 0.0 {
        // Degenerate program: any split is optimal for the objective; pick
        // the limit of t -> 0, which concentrates on the max-bandwidth set.
        let max = b.iter().cloned().fold(f64::MIN, f64::max);
        let ties = b.iter().filter(|&&x| x == max).count() as f64;
        return b
            .iter()
            .map(|&x| if x == max { 1.0 / ties } else { 0.0 })
            .collect();
    }
    // Sort candidates by bandwidth descending; find the water level r* with
    // Σ_{b_i > r*} (b_i − r*) = t over the active prefix.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| b[j].partial_cmp(&b[i]).expect("finite"));
    let sorted: Vec<f64> = order.iter().map(|&i| b[i]).collect();
    let mut prefix = 0.0;
    let mut level = 0.0;
    let mut active = n;
    for k in 0..n {
        prefix += sorted[k];
        let candidate = (prefix - t) / (k + 1) as f64;
        let next = if k + 1 < n { sorted[k + 1] } else { f64::MIN };
        if candidate >= next {
            level = candidate;
            active = k + 1;
            break;
        }
    }
    let mut p = vec![0.0; n];
    for k in 0..active {
        p[order[k]] = (sorted[k] - level) / t;
    }
    // Normalize away rounding drift.
    let sum: f64 = p.iter().sum();
    debug_assert!((sum - 1.0).abs() < 1e-6, "probabilities sum to {sum}");
    for x in &mut p {
        *x /= sum;
    }
    p
}

/// Smoothing factor of the selector's load EWMA: 0.3.
const EWMA_ALPHA: f64 = 0.3;

/// The §6.2 selector's re-solve period, and the window of the array's
/// available-bandwidth probe that feeds it: 10 ms.
pub(crate) const SELECTOR_PERIOD: SimTime = SimTime::from_millis(10);

/// Online reducer selector: EWMA load tracking plus periodic re-solve of the
/// water-filling program.
#[derive(Clone, Debug)]
pub struct ReducerSelector {
    ewma_load: f64,
    window_bytes: u64,
    window_start: SimTime,
    probs: Vec<f64>,
}

impl ReducerSelector {
    /// Creates a selector over `candidates` bdevs with uniform initial
    /// probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `candidates == 0`.
    pub fn new(candidates: usize) -> Self {
        assert!(candidates > 0, "need at least one candidate");
        ReducerSelector {
            ewma_load: 0.0,
            window_bytes: 0,
            window_start: SimTime::ZERO,
            probs: vec![1.0 / candidates as f64; candidates],
        }
    }

    /// Records `bytes` of reconstruction traffic; call once per degraded
    /// read/rebuild unit.
    pub fn record_load(&mut self, bytes: u64) {
        self.window_bytes += bytes;
    }

    /// Periodic update: folds the window into the EWMA and re-solves the
    /// probabilities from the supplied available bandwidths (bytes/sec).
    ///
    /// Does nothing until a full period has elapsed since the last update.
    ///
    /// # Panics
    ///
    /// Panics if `available.len()` differs from the candidate count.
    pub fn update(&mut self, now: SimTime, available: &[f64]) {
        assert_eq!(available.len(), self.probs.len(), "candidate count changed");
        let elapsed = now.saturating_sub(self.window_start);
        if elapsed < SELECTOR_PERIOD {
            return;
        }
        let inst = self.window_bytes as f64 / elapsed.as_secs_f64();
        self.ewma_load = EWMA_ALPHA * inst + (1.0 - EWMA_ALPHA) * self.ewma_load;
        self.window_bytes = 0;
        self.window_start = now;
        let n = available.len();
        let t = self.ewma_load * (n.saturating_sub(1)) as f64;
        self.probs = water_fill(available, t);
    }

    /// Draws a reducer index according to the current probabilities,
    /// restricted to `eligible` (a degraded stripe excludes the failed
    /// member). Falls back to uniform over `eligible` if their combined
    /// probability is zero.
    ///
    /// # Panics
    ///
    /// Panics if `eligible` is empty or contains out-of-range indices.
    pub fn choose(&self, rng: &mut DetRng, eligible: &[usize]) -> usize {
        assert!(!eligible.is_empty(), "no eligible reducers");
        // The walk of `DetRng::weighted_index` over `eligible`'s weights,
        // inline so nothing is collected: same sum order, same draws.
        let total: f64 = eligible.iter().map(|&i| self.probs[i]).sum();
        if total <= 0.0 {
            return eligible[rng.below(eligible.len() as u64) as usize];
        }
        let mut draw = rng.unit_f64() * total;
        for &i in eligible {
            if draw < self.probs[i] {
                return i;
            }
            draw -= self.probs[i];
        }
        eligible[eligible.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_dist(p: &[f64]) {
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
    }

    #[test]
    fn homogeneous_is_uniform() {
        let p = water_fill(&[100.0, 100.0, 100.0, 100.0], 50.0);
        assert_dist(&p);
        for &x in &p {
            assert!((x - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn slow_node_gets_less() {
        // One 25 Gbps node among 100 Gbps nodes (Fig. 17b's setup).
        let p = water_fill(&[100.0, 100.0, 100.0, 25.0], 60.0);
        assert_dist(&p);
        assert!(p[3] < p[0], "slow node under-selected: {p:?}");
        // Headrooms are equalized across nodes with positive probability.
        let r0 = 100.0 - p[0] * 60.0;
        let r1 = 100.0 - p[1] * 60.0;
        assert!((r0 - r1).abs() < 1e-9);
        if p[3] > 0.0 {
            let r3 = 25.0 - p[3] * 60.0;
            assert!((r3 - r0).abs() < 1e-9);
        }
    }

    #[test]
    fn light_load_concentrates_on_fastest() {
        let p = water_fill(&[100.0, 25.0], 1.0);
        assert_dist(&p);
        assert_eq!(p[1], 0.0, "fast node absorbs light load entirely");
        assert!((p[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_load_splits_max_ties() {
        let p = water_fill(&[50.0, 100.0, 100.0], 0.0);
        assert_dist(&p);
        assert_eq!(p[0], 0.0);
        assert!((p[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn heavy_overload_still_valid_distribution() {
        let p = water_fill(&[10.0, 10.0], 1e9);
        assert_dist(&p);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn maximin_beats_uniform_on_heterogeneous_input() {
        let b = [100.0, 100.0, 25.0];
        let t = 90.0;
        let p = water_fill(&b, t);
        let headroom = |p: &[f64]| -> f64 {
            b.iter()
                .zip(p)
                .map(|(&bi, &pi)| bi - pi * t)
                .fold(f64::MAX, f64::min)
        };
        let uniform = vec![1.0 / 3.0; 3];
        assert!(headroom(&p) > headroom(&uniform) + 1.0);
    }

    #[test]
    fn selector_updates_and_chooses() {
        let mut sel = ReducerSelector::new(3);
        let mut rng = DetRng::new(1);
        // Before any update: uniform.
        assert_dist(&sel.probs);
        sel.record_load(1_000_000);
        sel.update(SimTime::from_millis(20), &[100.0, 100.0, 10.0]);
        assert!(sel.ewma_load > 0.0);
        assert!(sel.probs[2] < sel.probs[0]);
        // Eligibility restriction: member 0 failed, never chosen.
        for _ in 0..100 {
            let c = sel.choose(&mut rng, &[1, 2]);
            assert!(c == 1 || c == 2);
        }
    }

    #[test]
    fn choose_draws_exactly_as_weighted_index() {
        let mut sel = ReducerSelector::new(5);
        sel.record_load(3_000_000);
        sel.update(SimTime::from_millis(20), &[100.0, 40.0, 100.0, 10.0, 70.0]);
        let (mut a, mut b) = (DetRng::new(9), DetRng::new(9));
        for eligible in [&[0, 1, 2, 3, 4][..], &[1, 3, 4], &[2], &[0, 3]] {
            let weights: Vec<f64> = eligible.iter().map(|&i| sel.probs[i]).collect();
            for _ in 0..200 {
                let expect = eligible[b.weighted_index(&weights)];
                assert_eq!(sel.choose(&mut a, eligible), expect);
            }
        }
    }

    #[test]
    fn selector_ignores_subperiod_updates() {
        let mut sel = ReducerSelector::new(2);
        sel.record_load(500);
        sel.update(SimTime::from_micros(10), &[10.0, 10.0]);
        assert_eq!(sel.ewma_load, 0.0, "window shorter than period");
    }

    #[test]
    fn zero_probability_eligible_falls_back_uniform() {
        let mut sel = ReducerSelector::new(3);
        sel.record_load(u64::MAX / 2);
        // Make node 2 the only attractive reducer, then exclude it.
        sel.update(SimTime::from_millis(20), &[0.0, 0.0, 1e12]);
        let mut rng = DetRng::new(2);
        let mut seen = [0; 2];
        for _ in 0..50 {
            let c = sel.choose(&mut rng, &[0, 1]);
            seen[c] += 1;
        }
        assert!(seen[0] > 0 && seen[1] > 0);
    }
}
