//! §5.5 storage QoS: token-bucket rate limiting so a tenant "does not exceed
//! its I/O budget" (the volume layer's admission shaper).

use draid_sim::{ByteRate, SimTime};

/// A token bucket limiting a tenant's drive bandwidth.
///
/// Admission returns the earliest instant the I/O may start; short bursts up
/// to the bucket size pass immediately, sustained load is shaped to the
/// configured rate.
///
/// ```
/// use draid_block::TokenBucket;
/// use draid_sim::{ByteRate, SimTime};
///
/// let mut tb = TokenBucket::new(ByteRate::from_mb_per_sec(100.0), 1 << 20);
/// // The initial burst passes at t=0; the next MiB is shaped to 100 MB/s.
/// assert_eq!(tb.admit(SimTime::ZERO, 1 << 20), SimTime::ZERO);
/// let next = tb.admit(SimTime::ZERO, 1 << 20);
/// assert!(next > SimTime::from_millis(10));
/// ```
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: ByteRate,
    burst: u64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket allowing `rate` sustained and `burst` bytes of slack.
    ///
    /// # Panics
    ///
    /// Panics if the rate or burst is zero.
    pub fn new(rate: ByteRate, burst: u64) -> Self {
        assert!(rate.bytes_per_sec() > 0, "rate must be positive");
        assert!(burst > 0, "burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst as f64,
            last: SimTime::ZERO,
        }
    }

    /// The sustained rate.
    pub fn rate(&self) -> ByteRate {
        self.rate
    }

    /// Consumes `bytes` of budget; returns the earliest start time (`now` if
    /// tokens suffice, later once the deficit refills). Tokens may go
    /// negative — the debt shapes subsequent admissions.
    pub fn admit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let rate = self.rate.bytes_per_sec() as f64;
        // Refill for elapsed time.
        let elapsed = now.saturating_sub(self.last).as_secs_f64();
        self.tokens = (self.tokens + elapsed * rate).min(self.burst as f64);
        self.last = self.last.max(now);
        self.tokens -= bytes as f64;
        if self.tokens >= 0.0 {
            now
        } else {
            let wait = -self.tokens / rate;
            let ready = self.last + SimTime::from_secs_f64(wait);
            // The deficit is repaid at `ready`; account the refill now.
            self.tokens = 0.0;
            self.last = ready;
            ready
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_shapes_sustained_load() {
        let mut tb = TokenBucket::new(ByteRate::from_mb_per_sec(10.0), 100_000);
        // Demand 10 x 100 KB at t=0: first passes on burst, remainder shaped
        // to 10 MB/s => last admission near 900 KB / 10 MB/s = 90 ms.
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            last = tb.admit(SimTime::ZERO, 100_000);
        }
        assert!(
            (85..=95).contains(&(last.as_millis_f64() as i64)),
            "last admission at {last}"
        );
    }

    #[test]
    fn bucket_recovers_after_idle() {
        let mut tb = TokenBucket::new(ByteRate::from_mb_per_sec(1.0), 50_000);
        tb.admit(SimTime::ZERO, 50_000); // drain the burst
                                         // After a long idle period the bucket refills; admission is instant.
        let t = SimTime::from_secs(1);
        assert_eq!(tb.admit(t, 50_000), t);
    }

    #[test]
    fn bucket_never_reorders_admissions() {
        let mut tb = TokenBucket::new(ByteRate::from_mb_per_sec(5.0), 10_000);
        let mut prev = SimTime::ZERO;
        for i in 0..50u64 {
            let now = SimTime::from_micros(i * 100);
            let at = tb.admit(now, 4_000);
            assert!(at >= prev, "admission went backwards");
            assert!(at >= now);
            prev = at;
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        TokenBucket::new(ByteRate::ZERO, 1);
    }
}
