//! Array-level measurement.

use draid_sim::{Histogram, SimTime};

use crate::io::IoKind;

/// Running statistics of an array simulation.
///
/// Byte/op counters cover completed user I/Os; histograms record end-to-end
/// latency. Pair with the cluster's NIC/drive/CPU counters for resource-level
/// accounting.
#[derive(Debug, Default)]
pub struct ArrayStats {
    /// Completed user reads.
    pub reads: u64,
    /// Completed user writes.
    pub writes: u64,
    /// Bytes returned by completed reads.
    pub bytes_read: u64,
    /// Bytes accepted by completed writes.
    pub bytes_written: u64,
    /// Read latency distribution.
    pub read_latency: Histogram,
    /// Write latency distribution.
    pub write_latency: Histogram,
    /// Stripe ops retried after timeout or member error (§5.4).
    pub retries: u64,
    /// Stripe ops that hit the explicit timeout.
    pub timeouts: u64,
    /// User I/Os that needed degraded-path reconstruction.
    pub degraded_ios: u64,
    /// User I/Os that failed permanently.
    pub failed_ios: u64,
    /// Stripes whose parity was rewritten after a scrub finding.
    pub scrub_repairs: u64,
}

impl ArrayStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed user I/O in: a success counts toward its
    /// direction's ops, bytes and latency, a failure toward `failed_ios`.
    pub(crate) fn record(&mut self, kind: IoKind, len: u64, latency: SimTime, ok: bool) {
        if !ok {
            self.failed_ios += 1;
            return;
        }
        match kind {
            IoKind::Read => {
                self.reads += 1;
                self.bytes_read += len;
                self.read_latency.record(latency);
            }
            IoKind::Write => {
                self.writes += 1;
                self.bytes_written += len;
                self.write_latency.record(latency);
            }
        }
    }

    /// Total completed user I/Os.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total user bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Aggregate bandwidth over a measurement window, in decimal MB/s — the
    /// unit of the paper's bandwidth axes.
    pub fn bandwidth_mb_per_sec(&self, window: SimTime) -> f64 {
        if window == SimTime::ZERO {
            0.0
        } else {
            self.total_bytes() as f64 / 1e6 / window.as_secs_f64()
        }
    }

    /// Aggregate throughput in KIOPS (the paper's application metric).
    pub fn kiops(&self, window: SimTime) -> f64 {
        if window == SimTime::ZERO {
            0.0
        } else {
            self.total_ops() as f64 / 1e3 / window.as_secs_f64()
        }
    }

    /// Mean latency over all completed I/Os, computed from the exact
    /// nanosecond sums (recombining the per-histogram truncated means would
    /// compound rounding).
    pub fn mean_latency(&self) -> SimTime {
        let n = self.read_latency.len() + self.write_latency.len();
        if n == 0 {
            return SimTime::ZERO;
        }
        let total = self.read_latency.sum_nanos() + self.write_latency.sum_nanos();
        SimTime::from_nanos((total / n as u128) as u64)
    }

    /// Clears everything (warm-up/measurement split).
    pub fn reset(&mut self) {
        *self = ArrayStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_and_kiops() {
        let mut s = ArrayStats::new();
        s.reads = 1000;
        s.bytes_read = 128 * 1024 * 1000;
        let bw = s.bandwidth_mb_per_sec(SimTime::from_millis(100));
        assert!((bw - 1310.72).abs() < 0.1, "got {bw}");
        assert!((s.kiops(SimTime::from_millis(100)) - 10.0).abs() < 1e-9);
        assert_eq!(s.bandwidth_mb_per_sec(SimTime::ZERO), 0.0);
    }

    #[test]
    fn mean_latency_weighted() {
        let mut s = ArrayStats::new();
        s.read_latency.record(SimTime::from_micros(100));
        s.write_latency.record(SimTime::from_micros(300));
        s.write_latency.record(SimTime::from_micros(300));
        assert_eq!(s.mean_latency(), SimTime::from_nanos(233_333));
        s.reset();
        assert_eq!(s.mean_latency(), SimTime::ZERO);
    }

    #[test]
    fn mean_latency_exact_not_recombined_truncated_means() {
        // Reads sum to 11ns (truncated mean 3), writes to 7ns (truncated
        // mean 2). Recombining truncated means gives (3*3 + 2*3)/6 = 2ns;
        // the exact sum gives 18/6 = 3ns.
        let mut s = ArrayStats::new();
        for ns in [1u64, 2, 8] {
            s.read_latency.record(SimTime::from_nanos(ns));
        }
        for ns in [1u64, 1, 5] {
            s.write_latency.record(SimTime::from_nanos(ns));
        }
        assert_eq!(s.mean_latency(), SimTime::from_nanos(3));
    }
}
