//! The NVMe drive model.

use draid_sim::{ByteRate, RateResource, Service, SimTime};

// Every drive is the paper's testbed drive (§9.1), a Dell Ent NVMe AGN MU
// U.2 1.6 TB, so its profile is a set of constants.

/// Sustained read bandwidth of the testbed drive (§9.1): ~3200 MB/s.
const READ_RATE: ByteRate = ByteRate::from_bytes_per_sec(3_200_000_000);
/// Sustained random-write bandwidth of the testbed drive: ~19 Gbps
/// (2375 MB/s), §2.3's motivating experiment.
const WRITE_RATE: ByteRate = ByteRate::from_bytes_per_sec(2_375_000_000);
/// Fixed read access latency, tens of µs for the testbed's NVMe drive
/// (overlaps across queued I/Os).
const READ_LATENCY: SimTime = SimTime::from_micros(80);
/// Fixed write access latency, tens of µs for the testbed's NVMe drive
/// (overlaps across queued I/Os).
const WRITE_LATENCY: SimTime = SimTime::from_micros(20);

/// Health of a drive (§5.4's failure model: transient or prolonged).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveState {
    /// Serving I/O normally.
    Healthy,
    /// Temporarily unreachable (network jitter, resets) until the given time.
    Transient(SimTime),
    /// Permanently failed; a RAID array marks the member faulty.
    Failed,
}

/// Error returned when a drive cannot serve an I/O.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveError {
    /// The drive is in a transient failure window; retry later.
    TransientFailure {
        /// When the drive becomes reachable again.
        until: SimTime,
    },
    /// The drive is permanently failed.
    Failed,
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::TransientFailure { until } => {
                write!(f, "drive transiently unavailable until {until}")
            }
            DriveError::Failed => write!(f, "drive permanently failed"),
        }
    }
}

impl std::error::Error for DriveError {}

/// A simulated NVMe drive: the paper's testbed drive.
///
/// Reads and writes share one FIFO channel (the drive's controller/flash
/// bus), each charged at its direction's rate; a fixed access latency is
/// added *after* the channel, so latency overlaps across queued I/Os while
/// bandwidth remains the contended resource — the behaviour that makes
/// "queuing I/Os as soon as possible" profitable for dRAID's pipeline (§5.3).
#[derive(Clone, Debug)]
pub struct Drive {
    channel: RateResource,
    state: DriveState,
    /// Fail-slow multiplier: ≥ 1.0; bandwidth divides by it and access
    /// latency multiplies by it. 1.0 = nominal.
    slow_factor: f64,
    reads: u64,
    writes: u64,
    /// Bytes presented to the channel (served + refused), conservation ledger.
    bytes_offered: u64,
    /// Bytes refused by a failure window; `offered == served + dropped`.
    bytes_dropped: u64,
}

impl Drive {
    /// Creates a healthy drive.
    pub(crate) fn new() -> Self {
        Drive {
            channel: RateResource::new(READ_RATE),
            state: DriveState::Healthy,
            slow_factor: 1.0,
            reads: 0,
            writes: 0,
            bytes_offered: 0,
            bytes_dropped: 0,
        }
    }

    /// Current health, given the clock (transient windows expire on their
    /// own).
    #[inline]
    pub fn state(&self, now: SimTime) -> DriveState {
        match self.state {
            DriveState::Transient(until) if now >= until => DriveState::Healthy,
            s => s,
        }
    }

    /// Injects a transient failure lasting `duration` from `now`.
    pub fn fail_transiently(&mut self, now: SimTime, duration: SimTime) {
        if self.state != DriveState::Failed {
            self.state = DriveState::Transient(now + duration);
        }
    }

    /// Permanently fails the drive.
    pub fn fail_permanently(&mut self) {
        self.state = DriveState::Failed;
    }

    /// Injects (or clears, with `factor = 1.0`) a fail-slow condition: the
    /// drive keeps answering without errors but serves at `1/factor` of its
    /// nominal bandwidth with `factor`× its access latency — the gray-failure
    /// mode a fault-management plane must detect from latency alone.
    ///
    /// # Panics
    ///
    /// Panics unless `factor >= 1.0`.
    pub fn set_fail_slow(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 1.0, "factor must be >= 1");
        self.slow_factor = factor;
    }

    /// Queues a read of `bytes`. Returns the service window whose `end`
    /// includes the access latency.
    ///
    /// # Errors
    ///
    /// [`DriveError`] if the drive is failed or in a transient window.
    #[inline]
    pub fn read(&mut self, now: SimTime, bytes: u64) -> Result<Service, DriveError> {
        self.bytes_offered += bytes;
        if let Err(e) = self.check(now) {
            self.bytes_dropped += bytes;
            return Err(e);
        }
        self.reads += 1;
        let svc = self
            .channel
            .serve_at_rate(now, bytes, self.effective(READ_RATE));
        Ok(Service {
            start: svc.start,
            end: svc.end + self.stretch(READ_LATENCY),
        })
    }

    /// Queues a write of `bytes`. Returns the service window whose `end`
    /// includes the access latency.
    ///
    /// # Errors
    ///
    /// [`DriveError`] if the drive is failed or in a transient window.
    #[inline]
    pub fn write(&mut self, now: SimTime, bytes: u64) -> Result<Service, DriveError> {
        self.bytes_offered += bytes;
        if let Err(e) = self.check(now) {
            self.bytes_dropped += bytes;
            return Err(e);
        }
        self.writes += 1;
        let svc = self
            .channel
            .serve_at_rate(now, bytes, self.effective(WRITE_RATE));
        Ok(Service {
            start: svc.start,
            end: svc.end + self.stretch(WRITE_LATENCY),
        })
    }

    #[inline]
    fn effective(&self, rate: ByteRate) -> ByteRate {
        rate.scaled(1.0 / self.slow_factor)
    }

    /// `latency` stretched by the fail-slow factor; a healthy drive's factor
    /// of exactly 1 skips the float math (bit-identical below 2^53 ns).
    #[inline]
    fn stretch(&self, latency: SimTime) -> SimTime {
        if self.slow_factor == 1.0 {
            return latency;
        }
        SimTime::from_nanos((latency.as_nanos() as f64 * self.slow_factor).round() as u64)
    }

    #[inline]
    fn check(&mut self, now: SimTime) -> Result<(), DriveError> {
        match self.state(now) {
            DriveState::Healthy => {
                self.state = DriveState::Healthy;
                Ok(())
            }
            DriveState::Transient(until) => Err(DriveError::TransientFailure { until }),
            DriveState::Failed => Err(DriveError::Failed),
        }
    }

    /// Completed read count.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Completed write count.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes moved through the channel.
    pub fn bytes_served(&self) -> u64 {
        self.channel.bytes_served()
    }

    /// Bytes presented to the channel (served plus refused by faults).
    pub fn bytes_offered(&self) -> u64 {
        self.bytes_offered
    }

    /// Bytes refused by failure windows.
    pub fn bytes_dropped(&self) -> u64 {
        self.bytes_dropped
    }

    /// Checks the channel's byte-conservation invariant:
    /// `offered == served + dropped`. A no-op unless invariants are enabled.
    ///
    /// # Panics
    ///
    /// Panics when the ledger does not balance.
    pub fn audit_conservation(&self) {
        draid_sim::draid_invariant!(
            self.bytes_offered == self.channel.bytes_served() + self.bytes_dropped,
            "drive channel conservation: offered={} served={} dropped={}",
            self.bytes_offered,
            self.channel.bytes_served(),
            self.bytes_dropped
        );
    }

    /// Cumulative channel busy time charged (demand, counts queued service
    /// in full at submit). Use [`Drive::busy_elapsed`] for wall-clock-clamped
    /// utilization accounting.
    pub fn busy_time(&self) -> SimTime {
        self.channel.busy_time()
    }

    /// Channel busy time actually elapsed by `at` — clamped to the sample
    /// instant so utilization derived from it never exceeds 1.0.
    pub fn busy_elapsed(&self, at: SimTime) -> SimTime {
        self.channel.busy_elapsed(at)
    }

    /// Busy fraction of the current measurement window, clamped to `now`
    /// (always in `[0, 1]`).
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.channel.utilization(now)
    }

    /// Resets traffic counters (not health or queue state) at
    /// measurement-window start `now`. An I/O straddling the boundary keeps
    /// its time-prorated in-window share, and the conservation ledger is
    /// re-seeded to match so `offered == served + dropped` keeps holding.
    pub fn reset_counters(&mut self, now: SimTime) {
        self.channel.reset_counters(now);
        self.reads = 0;
        self.writes = 0;
        self.bytes_offered = self.channel.bytes_served();
        self.bytes_dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive() -> Drive {
        Drive::new()
    }

    #[test]
    fn healthy_stretch_is_the_identity_the_float_path_computes() {
        let mut d = drive();
        for ns in [0, 1, 20_000, 80_000, 123_456_789, (1 << 53) - 1] {
            let t = SimTime::from_nanos(ns);
            let float = SimTime::from_nanos((ns as f64 * 1.0).round() as u64);
            assert_eq!(d.stretch(t), float, "{ns} ns");
        }
        d.set_fail_slow(2.5);
        assert_eq!(
            d.stretch(SimTime::from_nanos(1_000)),
            SimTime::from_nanos(2_500)
        );
    }

    #[test]
    fn read_write_rates_differ_on_shared_channel() {
        let mut d = drive();
        let r = d.read(SimTime::ZERO, 19_000_000).unwrap(); // 5.9375 ms + 80 us
        let w = d.write(SimTime::ZERO, 19_000_000).unwrap(); // queued: +8 ms + 20 us
        assert_eq!(r.end, SimTime::from_nanos(6_017_500));
        assert_eq!(w.end, SimTime::from_nanos(13_957_500));
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.bytes_served(), 38_000_000);
    }

    #[test]
    fn latency_is_post_channel() {
        let mut d = drive();
        let a = d.read(SimTime::ZERO, 3_200_000).unwrap(); // 1 ms channel
        let b = d.read(SimTime::ZERO, 3_200_000).unwrap();
        // b waits only for a's channel time, not a's access latency.
        assert_eq!(b.start, a.end - SimTime::from_micros(80));
        assert_eq!(b.end, SimTime::from_micros(2_080));
    }

    #[test]
    fn transient_failure_expires() {
        let mut d = drive();
        d.fail_transiently(SimTime::ZERO, SimTime::from_millis(10));
        assert_eq!(
            d.read(SimTime::from_millis(1), 512),
            Err(DriveError::TransientFailure {
                until: SimTime::from_millis(10)
            })
        );
        assert!(d.read(SimTime::from_millis(10), 512).is_ok());
        assert_eq!(d.state(SimTime::from_millis(11)), DriveState::Healthy);
    }

    #[test]
    fn permanent_failure_is_final() {
        let mut d = drive();
        d.fail_permanently();
        assert_eq!(d.write(SimTime::ZERO, 512), Err(DriveError::Failed));
        // Transient injection cannot resurrect a failed drive.
        d.fail_transiently(SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(
            d.write(SimTime::from_millis(1_000), 512),
            Err(DriveError::Failed)
        );
    }

    #[test]
    fn conservation_ledger_balances_under_faults() {
        let mut d = drive();
        d.read(SimTime::ZERO, 4096).unwrap();
        d.fail_transiently(SimTime::from_millis(100), SimTime::from_millis(10));
        assert!(d.write(SimTime::from_millis(101), 1000).is_err());
        assert!(d.read(SimTime::from_millis(120), 512).is_ok());
        d.audit_conservation();
        assert_eq!(d.bytes_offered(), 4096 + 1000 + 512);
        assert_eq!(d.bytes_dropped(), 1000);
        assert_eq!(d.bytes_served(), 4096 + 512);
        d.reset_counters(SimTime::from_millis(1_000));
        assert_eq!(d.bytes_offered(), 0);
        d.audit_conservation();
    }

    #[test]
    fn reset_mid_io_keeps_ledger_balanced_and_prorates() {
        let mut d = drive(); // 2375 MB/s write rate
        d.write(SimTime::ZERO, 2_375_000).unwrap(); // channel busy [0, 1 ms)
        d.reset_counters(SimTime::from_micros(250));
        d.audit_conservation();
        // 75 % of the I/O lands in the measurement window.
        assert_eq!(d.bytes_served(), 1_781_250);
        assert_eq!(d.bytes_offered(), 1_781_250);
        assert_eq!(d.busy_time(), SimTime::from_micros(750));
        assert_eq!(
            d.busy_elapsed(SimTime::from_micros(500)),
            SimTime::from_micros(250)
        );
    }

    #[test]
    fn paper_drive_serves_at_its_rates_plus_latency() {
        // 3200 MB/s read, 2375 MB/s (~19 Gbps) write, each followed by its
        // access latency.
        let r = drive().read(SimTime::ZERO, 3_200_000_000).unwrap();
        assert_eq!(r.end, SimTime::from_micros(1_000_080));
        let w = drive().write(SimTime::ZERO, 2_375_000_000).unwrap();
        assert_eq!(w.end, SimTime::from_micros(1_000_020));
    }
}
