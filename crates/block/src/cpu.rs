//! The per-node polling-core model.

use draid_sim::{ByteRate, RateResource, Service, SimTime};

// Every core is one user-space polling core with ISA-L acceleration (SPDK /
// dRAID): the paper accelerates XOR and GF multiplication with ISA-L (§8)
// and limits dRAID to one core per SSD on storage servers (§7).

/// XOR (RAID-5 parity / parity reduction) throughput: 25 GB/s, ISA-L's
/// AVX2 XOR close to memory-bandwidth-bound on the testbed's EPYC 7402P
/// (§9.1).
const XOR_RATE: ByteRate = ByteRate::from_bytes_per_sec(25_000_000_000);
/// GF(256) multiply-accumulate (RAID-6 Q) throughput: 12 GB/s, in ISA-L's
/// ballpark on the testbed's EPYC 7402P (§9.1).
const GF_RATE: ByteRate = ByteRate::from_bytes_per_sec(12_000_000_000);
/// Fixed software cost to admit/complete one I/O on an SPDK-class
/// user-space stack (§8).
const PER_IO: SimTime = SimTime::from_micros(3);

/// A single polling core executing parity math and I/O software overhead.
#[derive(Clone, Debug)]
pub struct Cpu {
    core: RateResource,
}

impl Cpu {
    /// Creates an idle core.
    pub(crate) fn new() -> Self {
        Cpu {
            core: RateResource::new(XOR_RATE),
        }
    }

    /// Charges an XOR pass over `bytes`.
    #[inline]
    pub fn xor(&mut self, now: SimTime, bytes: u64) -> Service {
        self.core.serve_at_rate(now, bytes, XOR_RATE)
    }

    /// Charges a GF(256) multiply-accumulate pass over `bytes`.
    #[inline]
    pub fn gf_mul(&mut self, now: SimTime, bytes: u64) -> Service {
        self.core.serve_at_rate(now, bytes, GF_RATE)
    }

    /// Charges the fixed per-I/O software cost.
    #[inline]
    pub fn per_io(&mut self, now: SimTime) -> Service {
        self.core.serve_fixed(now, PER_IO)
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
        let mut cpu = Cpu::new(); // 25 GB/s XOR, 12 GB/s GF, 3 us per I/O
        let x = cpu.xor(SimTime::ZERO, 3_000_000);
        assert_eq!(x.end, SimTime::from_micros(120));
        let g = cpu.gf_mul(SimTime::ZERO, 3_000_000);
        assert_eq!(g.end, SimTime::from_micros(370), "queued behind xor");
        let p = cpu.per_io(SimTime::ZERO);
        assert_eq!(p.end, SimTime::from_micros(373));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut cpu = Cpu::new();
        cpu.busy_for(SimTime::ZERO, SimTime::from_millis(250));
        assert!((cpu.utilization(SimTime::from_millis(1_000)) - 0.25).abs() < 1e-9);
    }
}
