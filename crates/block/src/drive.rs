//! The NVMe drive model.

use draid_sim::{ByteRate, RateResource, Service, SimTime};

/// Performance/health profile of an NVMe drive.
///
/// Defaults model the paper's Dell Ent NVMe AGN MU U.2 1.6 TB: ~19 Gbps
/// (2375 MB/s) sustained random write (§2.3's motivating experiment) and
/// ~3200 MB/s read, with tens-of-µs access latency.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriveSpec {
    /// Sustained read bandwidth.
    pub read_rate: ByteRate,
    /// Sustained write bandwidth.
    pub write_rate: ByteRate,
    /// Fixed read access latency (overlaps across queued I/Os).
    pub read_latency: SimTime,
    /// Fixed write access latency (overlaps across queued I/Os).
    pub write_latency: SimTime,
    /// Usable capacity in bytes.
    pub capacity: u64,
}

impl DriveSpec {
    /// The paper's testbed drive: Dell Ent NVMe AGN MU U.2 1.6 TB.
    pub fn dell_ent_nvme() -> Self {
        DriveSpec {
            read_rate: ByteRate::from_mb_per_sec(3200.0),
            write_rate: ByteRate::from_mb_per_sec(2375.0), // ~19 Gbps
            read_latency: SimTime::from_micros(80),
            write_latency: SimTime::from_micros(20),
            capacity: 1_600_000_000_000,
        }
    }
}

impl Default for DriveSpec {
    fn default() -> Self {
        Self::dell_ent_nvme()
    }
}

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

/// A simulated NVMe drive.
///
/// Reads and writes share one FIFO channel (the drive's controller/flash
/// bus), each charged at its direction's rate; a fixed access latency is
/// added *after* the channel, so latency overlaps across queued I/Os while
/// bandwidth remains the contended resource — the behaviour that makes
/// "queuing I/Os as soon as possible" profitable for dRAID's pipeline (§5.3).
#[derive(Clone, Debug)]
pub struct Drive {
    spec: DriveSpec,
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
    pub fn new(spec: DriveSpec) -> Self {
        Drive {
            spec,
            channel: RateResource::new(spec.read_rate),
            state: DriveState::Healthy,
            slow_factor: 1.0,
            reads: 0,
            writes: 0,
            bytes_offered: 0,
            bytes_dropped: 0,
        }
    }

    /// The drive's profile.
    pub fn spec(&self) -> &DriveSpec {
        &self.spec
    }

    /// Current health, given the clock (transient windows expire on their
    /// own).
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

    /// The current fail-slow multiplier (1.0 = healthy speed).
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }

    /// Replaces the drive with a healthy one (hot-spare swap from the shared
    /// storage pool, Table 1).
    pub fn replace(&mut self) {
        self.state = DriveState::Healthy;
        self.channel = RateResource::new(self.spec.read_rate);
        self.slow_factor = 1.0;
        self.reads = 0;
        self.writes = 0;
        self.bytes_offered = 0;
        self.bytes_dropped = 0;
    }

    /// Queues a read of `bytes`. Returns the service window whose `end`
    /// includes the access latency.
    ///
    /// # Errors
    ///
    /// [`DriveError`] if the drive is failed or in a transient window.
    pub fn read(&mut self, now: SimTime, bytes: u64) -> Result<Service, DriveError> {
        self.bytes_offered += bytes;
        if let Err(e) = self.check(now) {
            self.bytes_dropped += bytes;
            return Err(e);
        }
        self.reads += 1;
        let svc = self
            .channel
            .serve_at_rate(now, bytes, self.effective(self.spec.read_rate));
        Ok(Service {
            start: svc.start,
            end: svc.end + self.stretch(self.spec.read_latency),
        })
    }

    /// Queues a write of `bytes`. Returns the service window whose `end`
    /// includes the access latency.
    ///
    /// # Errors
    ///
    /// [`DriveError`] if the drive is failed or in a transient window.
    pub fn write(&mut self, now: SimTime, bytes: u64) -> Result<Service, DriveError> {
        self.bytes_offered += bytes;
        if let Err(e) = self.check(now) {
            self.bytes_dropped += bytes;
            return Err(e);
        }
        self.writes += 1;
        let svc = self
            .channel
            .serve_at_rate(now, bytes, self.effective(self.spec.write_rate));
        Ok(Service {
            start: svc.start,
            end: svc.end + self.stretch(self.spec.write_latency),
        })
    }

    fn effective(&self, rate: draid_sim::ByteRate) -> draid_sim::ByteRate {
        rate.scaled(1.0 / self.slow_factor)
    }

    fn stretch(&self, latency: SimTime) -> SimTime {
        SimTime::from_nanos((latency.as_nanos() as f64 * self.slow_factor).round() as u64)
    }

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
        Drive::new(DriveSpec {
            read_rate: ByteRate::from_mb_per_sec(2.0),
            write_rate: ByteRate::from_mb_per_sec(1.0),
            read_latency: SimTime::from_micros(80),
            write_latency: SimTime::from_micros(20),
            capacity: 1 << 30,
        })
    }

    #[test]
    fn read_write_rates_differ_on_shared_channel() {
        let mut d = drive();
        let r = d.read(SimTime::ZERO, 1_000_000).unwrap(); // 0.5 s + 80 us
        let w = d.write(SimTime::ZERO, 1_000_000).unwrap(); // queued: +1 s + 20 us
        assert_eq!(r.end, SimTime::from_micros(500_080));
        assert_eq!(w.end, SimTime::from_micros(1_500_020));
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.bytes_served(), 2_000_000);
    }

    #[test]
    fn latency_is_post_channel() {
        let mut d = drive();
        let a = d.read(SimTime::ZERO, 2_000).unwrap(); // 1 ms channel
        let b = d.read(SimTime::ZERO, 2_000).unwrap();
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
    fn permanent_failure_and_replace() {
        let mut d = drive();
        d.fail_permanently();
        assert_eq!(d.write(SimTime::ZERO, 512), Err(DriveError::Failed));
        // Transient injection cannot resurrect a failed drive.
        d.fail_transiently(SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(d.write(SimTime::from_secs(1), 512), Err(DriveError::Failed));
        d.replace();
        assert!(d.write(SimTime::from_secs(1), 512).is_ok());
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
        d.reset_counters(SimTime::from_secs(1));
        assert_eq!(d.bytes_offered(), 0);
        d.audit_conservation();
    }

    #[test]
    fn reset_mid_io_keeps_ledger_balanced_and_prorates() {
        let mut d = drive(); // 1 MB/s write rate
        d.write(SimTime::ZERO, 1_000_000).unwrap(); // channel busy [0, 1s)
        d.reset_counters(SimTime::from_millis(250));
        d.audit_conservation();
        // 75 % of the I/O lands in the measurement window.
        assert_eq!(d.bytes_served(), 750_000);
        assert_eq!(d.bytes_offered(), 750_000);
        assert_eq!(d.busy_time(), SimTime::from_millis(750));
        assert_eq!(
            d.busy_elapsed(SimTime::from_millis(500)),
            SimTime::from_millis(250)
        );
    }

    #[test]
    fn default_spec_is_paper_drive() {
        let spec = DriveSpec::default();
        assert!((spec.write_rate.as_gbps() - 19.0).abs() < 0.1);
        assert_eq!(spec.capacity, 1_600_000_000_000);
    }
}
