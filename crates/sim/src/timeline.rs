//! Windowed per-resource utilization timeline.
//!
//! A [`UtilizationTimeline`] turns cumulative elapsed-busy samples (see
//! [`RateResource::busy_elapsed`](crate::RateResource::busy_elapsed)) into
//! fixed-interval per-resource utilization buckets that are correct under
//! queueing: each bucket's busy time is bounded by the bucket width, so
//! utilization never exceeds 1.0.

use std::collections::BTreeMap;

use crate::SimTime;

/// One utilization bucket: the busy time accrued in `(prev_end, end]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UtilBucket {
    /// End of the bucket's window.
    pub end: SimTime,
    /// Width of the bucket's window.
    pub width: SimTime,
    /// Busy time accrued inside the window (`<= width` by construction when
    /// fed from clamped elapsed-busy samples).
    pub busy: SimTime,
}

impl UtilBucket {
    /// Busy fraction of the window, in `[0, 1]` for clamped inputs.
    pub fn utilization(&self) -> f64 {
        if self.width == SimTime::ZERO {
            0.0
        } else {
            self.busy.as_secs_f64() / self.width.as_secs_f64()
        }
    }
}

/// Per-resource cumulative-busy bookkeeping inside a timeline.
#[derive(Clone, Debug)]
struct SeriesState {
    last_busy: SimTime,
    buckets: Vec<UtilBucket>,
}

/// A windowed utilization timeline over named resources.
///
/// The driver samples each resource's *cumulative elapsed busy time* at
/// successive instants (typically fixed bucket boundaries reached with
/// `engine.run_until`); each sample closes a bucket holding the busy-time
/// delta. Because `busy_elapsed` is clamped to the sample instant, every
/// delta is bounded by the bucket width and Σ bucket busy equals the total
/// clamped service time — the conservation property the tests check.
#[derive(Clone, Debug, Default)]
pub struct UtilizationTimeline {
    last_sample: SimTime,
    origin: SimTime,
    series: BTreeMap<String, SeriesState>,
}

impl UtilizationTimeline {
    /// Creates a timeline whose first bucket starts at `origin`.
    pub fn new(origin: SimTime) -> Self {
        UtilizationTimeline {
            last_sample: origin,
            origin,
            series: BTreeMap::new(),
        }
    }

    /// Records one resource's cumulative elapsed busy time at instant `now`.
    /// Call once per resource per boundary; every resource must be sampled at
    /// every boundary. The first sample for a series at the timeline origin
    /// seeds its baseline without closing a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier boundary (simulated time is
    /// monotone) or if the cumulative busy value decreases.
    pub fn observe(&mut self, name: &str, now: SimTime, cumulative_busy: SimTime) {
        assert!(now >= self.last_sample, "timeline samples must be monotone");
        let state = self
            .series
            .entry(name.to_string())
            .or_insert_with(|| SeriesState {
                last_busy: SimTime::ZERO,
                buckets: Vec::new(),
            });
        if now == self.origin {
            state.last_busy = cumulative_busy;
            return;
        }
        let prev_end = state.buckets.last().map(|b| b.end).unwrap_or(self.origin);
        assert!(
            cumulative_busy >= state.last_busy,
            "cumulative busy time decreased for {name}"
        );
        state.buckets.push(UtilBucket {
            end: now,
            width: now - prev_end,
            busy: cumulative_busy - state.last_busy,
        });
        state.last_busy = cumulative_busy;
        if now > self.last_sample {
            self.last_sample = now;
        }
    }

    /// The closed buckets for `name`, oldest first.
    pub fn buckets(&self, name: &str) -> &[UtilBucket] {
        self.series
            .get(name)
            .map(|s| s.buckets.as_slice())
            .unwrap_or(&[])
    }

    /// Total busy time across all closed buckets of `name` — equals the
    /// resource's clamped busy time over the sampled span (conservation).
    pub fn total_busy(&self, name: &str) -> SimTime {
        self.buckets(name)
            .iter()
            .map(|b| b.busy)
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Series names in lexical order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(|s| s.as_str())
    }

    /// For each closed bucket boundary (aligned across series), the series
    /// with the highest utilization and that utilization — the per-phase
    /// bottleneck attribution. Buckets are matched by position.
    pub fn bottlenecks(&self) -> Vec<(SimTime, String, f64)> {
        let n = self
            .series
            .values()
            .map(|s| s.buckets.len())
            .max()
            .unwrap_or(0);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut best: Option<(SimTime, &str, f64)> = None;
            for (name, state) in &self.series {
                if let Some(b) = state.buckets.get(i) {
                    let u = b.utilization();
                    let better = match best {
                        Some((_, _, bu)) => u > bu,
                        None => true,
                    };
                    if better {
                        best = Some((b.end, name.as_str(), u));
                    }
                }
            }
            if let Some((end, name, u)) = best {
                out.push((end, name.to_string(), u));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_buckets_and_conservation() {
        let mut tl = UtilizationTimeline::new(SimTime::ZERO);
        // A resource busy 0.5ms of each 1ms bucket, sampled at boundaries.
        let mut cumulative = SimTime::ZERO;
        tl.observe("nic", SimTime::ZERO, cumulative);
        for ms in 1..=4u64 {
            cumulative += SimTime::from_micros(500);
            tl.observe("nic", SimTime::from_millis(ms), cumulative);
        }
        let buckets = tl.buckets("nic");
        assert_eq!(buckets.len(), 4);
        for b in buckets {
            assert_eq!(b.width, SimTime::from_millis(1));
            assert!((b.utilization() - 0.5).abs() < 1e-12);
        }
        assert_eq!(tl.total_busy("nic"), cumulative);
    }

    #[test]
    fn timeline_origin_sample_seeds_baseline() {
        let mut tl = UtilizationTimeline::new(SimTime::from_millis(10));
        // Warm-up accrued 7ms of busy before the timeline started.
        tl.observe("drive", SimTime::from_millis(10), SimTime::from_millis(7));
        tl.observe(
            "drive",
            SimTime::from_millis(11),
            SimTime::from_millis(7) + SimTime::from_micros(250),
        );
        let buckets = tl.buckets("drive");
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].busy, SimTime::from_micros(250));
        assert!((buckets[0].utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_attribution_names_the_saturated_series() {
        let mut tl = UtilizationTimeline::new(SimTime::ZERO);
        for name in ["cpu", "nic"] {
            tl.observe(name, SimTime::ZERO, SimTime::ZERO);
        }
        // Bucket 1: nic saturated; bucket 2: cpu saturated.
        tl.observe("cpu", SimTime::from_millis(1), SimTime::from_micros(100));
        tl.observe("nic", SimTime::from_millis(1), SimTime::from_micros(900));
        tl.observe("cpu", SimTime::from_millis(2), SimTime::from_micros(1_050));
        tl.observe("nic", SimTime::from_millis(2), SimTime::from_micros(1_000));
        let b = tl.bottlenecks();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].1, "nic");
        assert!((b[0].2 - 0.9).abs() < 1e-12);
        assert_eq!(b[1].1, "cpu");
        assert!((b[1].2 - 0.95).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn timeline_rejects_time_travel() {
        let mut tl = UtilizationTimeline::new(SimTime::ZERO);
        tl.observe("x", SimTime::from_millis(2), SimTime::ZERO);
        tl.observe("x", SimTime::from_millis(1), SimTime::ZERO);
    }
}
