//! The per-node polling-core model.

use draid_sim::{ByteRate, RateResource, Service, SimTime};

/// Compute profile of one polling core.
///
/// The paper accelerates XOR and GF multiplication with ISA-L (§8) and limits
/// dRAID to one core per SSD on storage servers (§7); the defaults are in
/// ISA-L's ballpark on the testbed's EPYC 7402P.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CpuSpec {
    /// XOR (RAID-5 parity / parity reduction) throughput.
    pub xor_rate: ByteRate,
    /// GF(256) multiply-accumulate (RAID-6 Q) throughput.
    pub gf_rate: ByteRate,
    /// Fixed software cost to admit/complete one I/O (SPDK-class user-space
    /// stack).
    pub per_io: SimTime,
}

impl CpuSpec {
    /// A user-space polling core with ISA-L acceleration (SPDK / dRAID).
    /// AVX2 XOR is close to memory-bandwidth-bound on the testbed's EPYC.
    pub fn spdk_core() -> Self {
        CpuSpec {
            xor_rate: ByteRate::from_mb_per_sec(25_000.0),
            gf_rate: ByteRate::from_mb_per_sec(12_000.0),
            per_io: SimTime::from_micros(3),
        }
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        Self::spdk_core()
    }
}

/// A single polling core executing parity math and I/O software overhead.
#[derive(Clone, Debug)]
pub struct Cpu {
    spec: CpuSpec,
    core: RateResource,
}

impl Cpu {
    /// Creates an idle core.
    pub fn new(spec: CpuSpec) -> Self {
        Cpu {
            spec,
            core: RateResource::new(spec.xor_rate),
        }
    }

    /// The core's profile.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Charges an XOR pass over `bytes`.
    #[inline]
    pub fn xor(&mut self, now: SimTime, bytes: u64) -> Service {
        self.core.serve_at_rate(now, bytes, self.spec.xor_rate)
    }

    /// Charges a GF(256) multiply-accumulate pass over `bytes`.
    #[inline]
    pub fn gf_mul(&mut self, now: SimTime, bytes: u64) -> Service {
        self.core.serve_at_rate(now, bytes, self.spec.gf_rate)
    }

    /// Charges the fixed per-I/O software cost.
    #[inline]
    pub fn per_io(&mut self, now: SimTime) -> Service {
        self.core.serve_fixed(now, self.spec.per_io)
    }

    /// Charges an arbitrary fixed cost (e.g. Linux stripe-cache page
    /// handling).
    #[inline]
    pub fn busy_for(&mut self, now: SimTime, duration: SimTime) -> Service {
        self.core.serve_fixed(now, duration)
    }

    /// Cumulative busy time charged (demand, counts queued work in full at
    /// submit). Use [`Cpu::busy_elapsed`] for wall-clock-clamped accounting.
    pub fn busy_time(&self) -> SimTime {
        self.core.busy_time()
    }

    /// Busy time actually elapsed by `at` — clamped to the sample instant.
    pub fn busy_elapsed(&self, at: SimTime) -> SimTime {
        self.core.busy_elapsed(at)
    }

    /// Busy fraction of the current measurement window, clamped to `now` —
    /// the §7 "dRAID uses <25 % of the CPU cycles" check. Always in `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.core.utilization(now)
    }

    /// Resets accounting counters at measurement-window start `now`; work
    /// straddling the boundary keeps its in-window share.
    pub fn reset_counters(&mut self, now: SimTime) {
        self.core.reset_counters(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_and_gf_rates_apply() {
        let mut cpu = Cpu::new(CpuSpec {
            xor_rate: ByteRate::from_mb_per_sec(2.0),
            gf_rate: ByteRate::from_mb_per_sec(1.0),
            per_io: SimTime::from_micros(5),
        });
        let x = cpu.xor(SimTime::ZERO, 1_000_000);
        assert_eq!(x.end, SimTime::from_millis(500));
        let g = cpu.gf_mul(SimTime::ZERO, 1_000_000);
        assert_eq!(g.end, SimTime::from_millis(1500), "queued behind xor");
        let p = cpu.per_io(SimTime::ZERO);
        assert_eq!(p.end, SimTime::from_nanos(1_500_005_000));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut cpu = Cpu::new(CpuSpec::spdk_core());
        cpu.busy_for(SimTime::ZERO, SimTime::from_millis(250));
        assert!((cpu.utilization(SimTime::from_millis(1_000)) - 0.25).abs() < 1e-9);
    }
}
