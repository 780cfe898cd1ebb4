//! Named metrics registry and windowed utilization timeline.
//!
//! The observability plane's collection layer: simulation components export
//! counters, gauges and histograms under stable names, and a
//! [`UtilizationTimeline`] turns cumulative elapsed-busy samples (see
//! [`RateResource::busy_elapsed`](crate::RateResource::busy_elapsed)) into
//! fixed-interval per-resource utilization buckets that are correct under
//! queueing: each bucket's busy time is bounded by the bucket width, so
//! utilization never exceeds 1.0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{Histogram, SimTime};

/// A registry of named metrics with a Prometheus-style text exporter.
///
/// Names follow the Prometheus convention (`snake_case`, unit-suffixed, e.g.
/// `draid_nic_egress_busy_ns`). Iteration order is the lexical name order
/// (BTreeMap), so rendered output is deterministic.
///
/// ```
/// use draid_sim::{MetricsRegistry, SimTime};
/// let mut reg = MetricsRegistry::new();
/// reg.counter_add("draid_reads_total", 3);
/// reg.set_gauge("draid_drive_utilization", 0.25);
/// reg.histogram_mut("draid_read_latency_ns")
///     .record(SimTime::from_micros(120));
/// let text = reg.render_prometheus();
/// assert!(text.contains("draid_reads_total 3"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The named counter's value, or zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, creating an empty bounded-memory (bucketed) one
    /// on first use.
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::bucketed)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Removes every metric.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (counters and gauges as-is; histograms as summary quantiles plus
    /// `_sum`/`_count`). A name may carry a `{label="…"}` suffix; the
    /// `# TYPE` header names the bare family and is emitted once per
    /// family (labeled series of one family are adjacent in lexical
    /// order, which is also the emission order — deterministic).
    pub fn render_prometheus(&mut self) -> String {
        fn family(name: &str) -> &str {
            name.split('{').next().unwrap_or(name)
        }
        let mut out = String::new();
        let mut last_family = String::new();
        let mut typed = |out: &mut String, name: &str, kind: &str| {
            let fam = family(name);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} {kind}");
                last_family = fam.to_string();
            }
        };
        for (name, value) in &self.counters {
            typed(&mut out, name, "counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            typed(&mut out, name, "gauge");
            let _ = writeln!(out, "{name} {value:.6}");
        }
        for (name, hist) in &mut self.histograms {
            let s = hist.summary();
            typed(&mut out, name, "summary");
            let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", s.p50.as_nanos());
            let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", s.p99.as_nanos());
            let _ = writeln!(out, "{name}_sum {}", hist.sum_nanos());
            let _ = writeln!(out, "{name}_count {}", s.n);
        }
        out
    }
}

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

    /// Start of the first bucket.
    pub fn origin(&self) -> SimTime {
        self.origin
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
    fn registry_roundtrip_and_render() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("b_total", 1);
        reg.counter_add("a_total", 2);
        reg.counter_add("b_total", 1);
        reg.set_gauge("util", 0.5);
        reg.histogram_mut("lat_ns").record(SimTime::from_nanos(10));
        assert_eq!(reg.counter("b_total"), 2);
        assert_eq!(reg.gauges.get("util"), Some(&0.5));
        assert_eq!(reg.counter("missing"), 0);
        let text = reg.render_prometheus();
        let a = text.find("a_total 2").expect("a_total rendered");
        let b = text.find("b_total 2").expect("b_total rendered");
        assert!(a < b, "lexical order");
        assert!(text.contains("# TYPE util gauge"));
        assert!(text.contains("util 0.500000"));
        assert!(text.contains("lat_ns_count 1"));
        assert!(text.contains("lat_ns_sum 10"));
    }

    #[test]
    fn labeled_series_share_one_type_header_per_family() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("bytes_total{resource=\"a\"}", 1);
        reg.counter_add("bytes_total{resource=\"b\"}", 2);
        reg.set_gauge("util{resource=\"a\"}", 0.25);
        let text = reg.render_prometheus();
        // The TYPE header names the bare family, once, before its series.
        assert_eq!(text.matches("# TYPE bytes_total counter").count(), 1);
        assert!(!text.contains("# TYPE bytes_total{"));
        assert!(text.contains("bytes_total{resource=\"a\"} 1"));
        assert!(text.contains("bytes_total{resource=\"b\"} 2"));
        assert!(text.contains("# TYPE util gauge"));
        assert!(text.contains("util{resource=\"a\"} 0.250000"));
    }

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
