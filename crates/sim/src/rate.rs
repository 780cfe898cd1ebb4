//! FIFO fluid rate servers — the resource model for NICs, drives and cores.

use std::collections::VecDeque;
use std::fmt;

use crate::SimTime;

/// A transfer/processing rate in bytes per second.
///
/// Networking rates use decimal units (1 Gbps = 10⁹ bits/s); storage rates use
/// decimal megabytes (1 MB/s = 10⁶ B/s), matching how the paper quotes both.
///
/// ```
/// use draid_sim::ByteRate;
/// assert_eq!(ByteRate::from_gbps(100.0).bytes_per_sec(), 12_500_000_000);
/// assert_eq!(ByteRate::from_mb_per_sec(2375.0).bytes_per_sec(), 2_375_000_000);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ByteRate(u64);

impl ByteRate {
    /// A rate of zero bytes per second (never serves).
    pub const ZERO: ByteRate = ByteRate(0);

    /// Creates a rate from raw bytes per second.
    pub const fn from_bytes_per_sec(bps: u64) -> Self {
        ByteRate(bps)
    }

    /// Creates a rate from gigabits per second (network convention).
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is negative or not finite.
    pub fn from_gbps(gbps: f64) -> Self {
        assert!(gbps.is_finite() && gbps >= 0.0, "invalid rate: {gbps}");
        ByteRate((gbps * 1e9 / 8.0).round() as u64)
    }

    /// Creates a rate from decimal megabytes per second (storage convention).
    ///
    /// # Panics
    ///
    /// Panics if `mbs` is negative or not finite.
    pub fn from_mb_per_sec(mbs: f64) -> Self {
        assert!(mbs.is_finite() && mbs >= 0.0, "invalid rate: {mbs}");
        ByteRate((mbs * 1e6).round() as u64)
    }

    /// The rate in bytes per second.
    pub const fn bytes_per_sec(self) -> u64 {
        self.0
    }

    /// The rate in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.0 as f64 * 8.0 / 1e9
    }

    /// The rate in decimal megabytes per second.
    pub fn as_mb_per_sec(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This rate scaled by `factor` (degraded links, fail-slow devices).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor: {factor}"
        );
        ByteRate((self.0 as f64 * factor).round() as u64)
    }

    /// Time to move `bytes` at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    pub fn time_for(self, bytes: u64) -> SimTime {
        assert!(self.0 > 0, "cannot serve at a zero rate");
        // The exact ceiling either way: a 64-bit division whenever
        // `bytes * 10⁹` fits in 64 bits (below ~18.4 GB, every simulated
        // transfer), the 128-bit one above.
        let ns = match bytes.checked_mul(1_000_000_000) {
            Some(scaled) => scaled.div_ceil(self.0),
            None => {
                let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(self.0 as u128);
                u64::try_from(ns).expect("transfer duration overflow")
            }
        };
        SimTime::from_nanos(ns)
    }
}

impl fmt::Debug for ByteRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteRate({self})")
    }
}

impl fmt::Display for ByteRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 125_000_000 {
            write!(f, "{:.2}Gbps", self.as_gbps())
        } else {
            write!(f, "{:.2}MB/s", self.as_mb_per_sec())
        }
    }
}

/// The time window during which a [`RateResource`] worked on one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Service {
    /// When the resource started on the request (>= submission time).
    pub start: SimTime,
    /// When the request's bytes finished flowing through the resource.
    pub end: SimTime,
}

impl Service {
    /// Queueing delay + service time experienced by the request.
    pub fn latency_from(&self, submitted: SimTime) -> SimTime {
        self.end.saturating_sub(submitted)
    }
}

/// A FIFO fluid server: one NIC direction, one drive channel, or one core.
///
/// Requests are served in arrival order; serving `b` bytes occupies the
/// resource for `b / rate`. This reproduces exactly the paper's bandwidth
/// accounting: a resource can move at most `rate` bytes per second of
/// simulated time, and concurrent demand queues.
///
/// ```
/// use draid_sim::{ByteRate, RateResource, SimTime};
/// let mut nic = RateResource::new(ByteRate::from_bytes_per_sec(1_000_000_000));
/// let a = nic.serve(SimTime::ZERO, 1_000_000);            // 1 MB -> 1 ms
/// let b = nic.serve(SimTime::ZERO, 1_000_000);            // queued behind a
/// assert_eq!(a.end, SimTime::from_millis(1));
/// assert_eq!(b.start, a.end);
/// assert_eq!(b.end, SimTime::from_millis(2));
/// ```
#[derive(Clone, Debug)]
pub struct RateResource {
    rate: ByteRate,
    next_free: SimTime,
    /// Busy time of service runs already folded out of `tail` (every folded
    /// run ended at or before some submission instant, hence lies entirely in
    /// the past of any later sample).
    busy_folded: SimTime,
    bytes_folded: u64,
    /// Pending and in-flight service runs in chronological order. Contiguous
    /// runs are merged, so a saturated resource holds a single entry and the
    /// deque length is bounded by the number of idle gaps among outstanding
    /// requests.
    tail: VecDeque<BusyRun>,
    requests: u64,
    /// Start of the current measurement window (set by
    /// [`RateResource::reset_counters`]).
    window_start: SimTime,
}

/// A maximal contiguous span of scheduled service on a [`RateResource`].
#[derive(Clone, Copy, Debug)]
struct BusyRun {
    start: SimTime,
    end: SimTime,
    bytes: u64,
}

impl RateResource {
    /// Creates an idle resource with the given default rate.
    pub fn new(rate: ByteRate) -> Self {
        RateResource {
            rate,
            next_free: SimTime::ZERO,
            busy_folded: SimTime::ZERO,
            bytes_folded: 0,
            tail: VecDeque::new(),
            requests: 0,
            window_start: SimTime::ZERO,
        }
    }

    /// The default service rate.
    pub fn rate(&self) -> ByteRate {
        self.rate
    }

    /// Earliest instant at which new work could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total bytes charged to this measurement window so far (traffic
    /// accounting for Table 1). Like [`RateResource::busy_time`] this counts
    /// queued work in full at submit time; a service straddling a
    /// [`RateResource::reset_counters`] boundary contributes only its
    /// time-prorated in-window share.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_folded + self.tail.iter().map(|r| r.bytes).sum::<u64>()
    }

    /// Number of requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Cumulative busy time *charged* (demand), including service scheduled
    /// beyond the current instant. Use [`RateResource::busy_elapsed`] for
    /// wall-clock-clamped utilization accounting.
    pub fn busy_time(&self) -> SimTime {
        self.busy_folded
            + self
                .tail
                .iter()
                .map(|r| r.end - r.start)
                .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Busy time that has actually elapsed by `at`: the measure of scheduled
    /// service intersected with `[window_start, at)`. Between two samples
    /// `t1 <= t2` the increment is at most `t2 - t1`, so utilization derived
    /// from this can never exceed 1.0.
    ///
    /// `at` must not precede an earlier submission instant (simulated time is
    /// monotone), otherwise already-folded runs may be over-counted.
    pub fn busy_elapsed(&self, at: SimTime) -> SimTime {
        let mut busy = self.busy_folded;
        for run in &self.tail {
            if run.start >= at {
                break;
            }
            busy += run.end.min(at) - run.start;
        }
        busy
    }

    /// Fraction of the current measurement window `[window_start, now]` the
    /// resource spent busy, clamped to the sample instant: service scheduled
    /// beyond `now` is not counted, so the result is always in `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_sub(self.window_start);
        if elapsed == SimTime::ZERO {
            0.0
        } else {
            self.busy_elapsed(now).as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    /// Start of the current measurement window.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// Queues `bytes` at the default rate. See [`RateResource::serve_at_rate`].
    pub fn serve(&mut self, now: SimTime, bytes: u64) -> Service {
        self.serve_at_rate(now, bytes, self.rate)
    }

    /// Queues `bytes` at an explicit rate (used by shared drive channels whose
    /// read and write rates differ). Returns the service window.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn serve_at_rate(&mut self, now: SimTime, bytes: u64, rate: ByteRate) -> Service {
        let start = self.next_free.max(now);
        let duration = rate.time_for(bytes);
        let end = start + duration;
        self.next_free = end;
        self.charge(now, start, end, bytes);
        Service { start, end }
    }

    /// Queues `bytes` preceded by a fixed setup occupancy (per-message NIC
    /// processing, per-I/O software overhead). The resource is busy for
    /// `setup + bytes / rate` as a single FIFO unit.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero while `bytes > 0`.
    pub fn serve_with_setup(
        &mut self,
        now: SimTime,
        bytes: u64,
        setup: SimTime,
        rate: ByteRate,
    ) -> Service {
        let start = self.next_free.max(now);
        let duration = if bytes == 0 {
            setup
        } else {
            setup + rate.time_for(bytes)
        };
        let end = start + duration;
        self.next_free = end;
        self.charge(now, start, end, bytes);
        Service { start, end }
    }

    /// Queues a fixed-duration unit of work (per-message or per-I/O software
    /// overhead) that occupies the resource without moving bytes.
    pub fn serve_fixed(&mut self, now: SimTime, duration: SimTime) -> Service {
        let start = self.next_free.max(now);
        let end = start + duration;
        self.next_free = end;
        self.charge(now, start, end, 0);
        Service { start, end }
    }

    /// Records the service run `[start, end)` submitted at `now`, folding
    /// runs that finished by `now` into the scalar totals. Folding only ever
    /// uses true submission instants, so a later `busy_elapsed(at)` query
    /// (with monotone `at >= now`) sees every folded run as fully elapsed.
    fn charge(&mut self, now: SimTime, start: SimTime, end: SimTime, bytes: u64) {
        while let Some(front) = self.tail.front() {
            if front.end > now {
                break;
            }
            let run = self.tail.pop_front().expect("front just observed");
            self.busy_folded += run.end - run.start;
            self.bytes_folded += run.bytes;
        }
        self.requests += 1;
        if let Some(last) = self.tail.back_mut() {
            if last.end == start {
                last.end = end;
                last.bytes += bytes;
                return;
            }
        }
        self.tail.push_back(BusyRun { start, end, bytes });
    }

    /// Resets accounting counters (not the clock) at measurement-window start
    /// `now`; used between warm-up and measurement phases. A service run
    /// straddling the boundary is split: the portion before `now` is
    /// discarded with the warm-up, the remainder (busy time exactly, bytes
    /// prorated by time) is attributed to the new window.
    pub fn reset_counters(&mut self, now: SimTime) {
        self.busy_folded = SimTime::ZERO;
        self.bytes_folded = 0;
        self.requests = 0;
        while let Some(front) = self.tail.front_mut() {
            if front.end <= now {
                self.tail.pop_front();
                continue;
            }
            if front.start < now {
                let total = (front.end - front.start).as_nanos() as u128;
                let kept = (front.end - now).as_nanos() as u128;
                front.bytes = u64::try_from(front.bytes as u128 * kept / total)
                    .expect("prorated bytes fit: kept <= total");
                front.start = now;
            }
            break;
        }
        self.window_start = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_conversions() {
        let r = ByteRate::from_gbps(92.0);
        assert!((r.as_gbps() - 92.0).abs() < 1e-9);
        assert_eq!(ByteRate::from_mb_per_sec(1.0).bytes_per_sec(), 1_000_000);
        assert_eq!(
            ByteRate::from_bytes_per_sec(125_000_000).as_gbps(),
            1.0 // 1 Gbps
        );
    }

    #[test]
    fn time_for_rounds_up() {
        let r = ByteRate::from_bytes_per_sec(3);
        // 10 bytes at 3 B/s = 3.33..s, rounded up to the next nanosecond.
        assert_eq!(r.time_for(10).as_nanos(), 3_333_333_334);
    }

    #[test]
    #[should_panic(expected = "zero rate")]
    fn zero_rate_panics() {
        ByteRate::ZERO.time_for(1);
    }

    #[test]
    fn fifo_queueing() {
        let mut res = RateResource::new(ByteRate::from_bytes_per_sec(1_000));
        let s1 = res.serve(SimTime::ZERO, 1_000); // 1s
        let s2 = res.serve(SimTime::from_millis(100), 500); // queued
        assert_eq!(s1.end, SimTime::from_secs(1));
        assert_eq!(s2.start, SimTime::from_secs(1));
        assert_eq!(s2.end, SimTime::from_millis(1500));
        assert_eq!(res.bytes_served(), 1_500);
        assert_eq!(res.requests(), 2);
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut res = RateResource::new(ByteRate::from_bytes_per_sec(1_000));
        res.serve(SimTime::ZERO, 1_000); // busy [0, 1s]
        res.serve(SimTime::from_secs(5), 1_000); // busy [5s, 6s]
        assert_eq!(res.busy_time(), SimTime::from_secs(2));
        assert!((res.utilization(SimTime::from_secs(10)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mixed_rates_on_shared_channel() {
        let mut drive = RateResource::new(ByteRate::from_mb_per_sec(1.0));
        let read = drive.serve_at_rate(SimTime::ZERO, 1_000_000, ByteRate::from_mb_per_sec(2.0));
        let write = drive.serve_at_rate(SimTime::ZERO, 1_000_000, ByteRate::from_mb_per_sec(1.0));
        assert_eq!(read.end, SimTime::from_millis(500));
        assert_eq!(write.start, read.end);
        assert_eq!(write.end, SimTime::from_millis(1500));
    }

    #[test]
    fn utilization_clamped_under_deep_queueing() {
        // 100 seconds of demand submitted at t=0: the old submit-time charge
        // reported utilization(1s) = 100.0; clamped accounting reports 1.0.
        let mut res = RateResource::new(ByteRate::from_bytes_per_sec(1_000));
        for _ in 0..100 {
            res.serve(SimTime::ZERO, 1_000); // 1 s of service each
        }
        assert_eq!(res.busy_time(), SimTime::from_secs(100), "demand charge");
        for t in [1u64, 7, 50, 99, 100, 250] {
            let u = res.utilization(SimTime::from_secs(t));
            assert!(u <= 1.0 + 1e-12, "utilization({t}s) = {u} exceeds 1");
        }
        assert!((res.utilization(SimTime::from_secs(50)) - 1.0).abs() < 1e-12);
        // Past the backlog, the busy fraction dilutes.
        assert!((res.utilization(SimTime::from_secs(200)) - 0.5).abs() < 1e-12);
        assert_eq!(
            res.busy_elapsed(SimTime::from_secs(30)),
            SimTime::from_secs(30)
        );
        assert_eq!(
            res.busy_elapsed(SimTime::from_secs(500)),
            SimTime::from_secs(100)
        );
    }

    #[test]
    fn busy_elapsed_monotone_increments_bounded_by_wall_clock() {
        // Sampling is interleaved with submissions, as a timeline driver
        // would do: `busy_elapsed` queries never go back in time.
        let mut res = RateResource::new(ByteRate::from_bytes_per_sec(1_000));
        let mut prev = SimTime::ZERO;
        let mut sample = |res: &RateResource, ms: u64| {
            let at = SimTime::from_millis(ms);
            let b = res.busy_elapsed(at);
            assert!(b >= prev, "busy_elapsed not monotone at {at}");
            assert!(
                b - prev <= SimTime::from_millis(250),
                "busy grew faster than wall clock at {at}"
            );
            prev = b;
        };
        res.serve(SimTime::ZERO, 2_500); // busy [0, 2.5s)
        for ms in (0..4_000).step_by(250) {
            sample(&res, ms);
        }
        res.serve(SimTime::from_secs(4), 500); // busy [4s, 4.5s)
        for ms in (4_000..6_000).step_by(250) {
            sample(&res, ms);
        }
        assert_eq!(
            res.busy_elapsed(SimTime::from_secs(6)),
            SimTime::from_secs(3)
        );
    }

    #[test]
    fn reset_attributes_straddling_service_to_measurement_window() {
        // One 10-byte / 10-second service [0, 10s); warm-up ends at 4s.
        let mut res = RateResource::new(ByteRate::from_bytes_per_sec(1));
        res.serve(SimTime::ZERO, 10);
        res.reset_counters(SimTime::from_secs(4));
        // 6 of 10 seconds (and 6 of 10 bytes) belong to the measurement window.
        assert_eq!(res.busy_time(), SimTime::from_secs(6));
        assert_eq!(res.bytes_served(), 6);
        assert_eq!(
            res.busy_elapsed(SimTime::from_secs(10)),
            SimTime::from_secs(6)
        );
        assert!((res.utilization(SimTime::from_secs(10)) - 1.0).abs() < 1e-12);
        assert!((res.utilization(SimTime::from_secs(16)) - 0.5).abs() < 1e-12);
        assert_eq!(res.requests(), 0, "the request itself counted pre-reset");
    }

    #[test]
    fn reset_discards_completed_warmup_work() {
        let mut res = RateResource::new(ByteRate::from_bytes_per_sec(1_000));
        res.serve(SimTime::ZERO, 1_000); // fully inside warm-up
        res.reset_counters(SimTime::from_secs(2));
        assert_eq!(res.busy_time(), SimTime::ZERO);
        assert_eq!(res.bytes_served(), 0);
        res.serve(SimTime::from_secs(3), 500);
        assert_eq!(res.busy_time(), SimTime::from_millis(500));
        assert_eq!(res.bytes_served(), 500);
        assert!((res.utilization(SimTime::from_secs(4)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fixed_service_and_latency() {
        let mut cpu = RateResource::new(ByteRate::from_bytes_per_sec(1));
        let s = cpu.serve_fixed(SimTime::from_micros(3), SimTime::from_micros(2));
        assert_eq!(s.end, SimTime::from_micros(5));
        assert_eq!(
            s.latency_from(SimTime::from_micros(1)),
            SimTime::from_micros(4)
        );
    }
}
