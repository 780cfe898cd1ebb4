//! A hasher for the integer keys of the per-I/O tables (user I/O ids,
//! stripe numbers).
//!
//! `std`'s default SipHash resists keys chosen by an adversary. These keys
//! come from the simulator's own counters and layout, and the tables are hit
//! several times per I/O, so one multiply by an odd constant does. The
//! product's low bits depend only on the key's low bits, so keys on a
//! power-of-two stride (stripe numbers of a strided workload) would share
//! the low bits the table indexes by; rotating the well-mixed high bits down
//! spreads them. The tables are only accessed by key (the
//! `no-unordered-iter` lint holds them to that), so hash order never reaches
//! a result.

use std::hash::Hasher;

/// 2⁶⁴ divided by the golden ratio, rounded to odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for integer keys; build maps with
/// `BuildHasherDefault<IdHasher>`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;

    #[test]
    fn consecutive_and_strided_keys_spread_over_the_low_bits() {
        let hash = |n: u64| {
            let mut h = IdHasher::default();
            h.write_u64(n);
            h.finish()
        };
        for stride in [1u64, 3, 4096, 1 << 20, 1 << 32] {
            let mut buckets = [0u32; 64];
            for i in 0..1024 {
                buckets[(hash(i * stride) & 63) as usize] += 1;
            }
            // 16 keys per bucket on average.
            assert!(
                buckets.iter().all(|&b| (8..=32).contains(&b)),
                "stride {stride}: {buckets:?}"
            );
        }
    }

    #[test]
    fn keyed_access_works() {
        let mut m: HashMap<u64, u64, BuildHasherDefault<IdHasher>> = HashMap::default();
        for n in 0..1_000 {
            m.insert(n * 4096, n);
        }
        assert!((0..1_000).all(|n| m.get(&(n * 4096)) == Some(&n)));
        assert_eq!(m.remove(&4096), Some(1));
        assert_eq!(m.len(), 999);
    }
}
