//! Randomized property tests for the erasure-coding substrate, driven by a
//! seeded deterministic generator (the environment has no crates.io access,
//! so these are plain loops rather than `proptest` strategies — same
//! invariants, reproducible cases).

use draid_ec::{gf256, xor_into, ReedSolomon};

/// Minimal deterministic generator (splitmix64).
struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }

    fn chunk(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.byte()).collect()
    }

    /// A random stripe: `2..=max_width` chunks of a common random length.
    fn stripe(&mut self, max_width: usize, max_len: usize) -> Vec<Vec<u8>> {
        let w = 2 + self.below((max_width - 1) as u64) as usize;
        let l = 1 + self.below(max_len as u64) as usize;
        (0..w).map(|_| self.chunk(l)).collect()
    }
}

#[test]
fn gf_mul_commutative_associative_distributive() {
    let mut rng = TestRng(0xEC01);
    for _ in 0..2000 {
        let (a, b, c) = (rng.byte(), rng.byte(), rng.byte());
        assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        assert_eq!(
            gf256::mul(a, gf256::mul(b, c)),
            gf256::mul(gf256::mul(a, b), c)
        );
        assert_eq!(gf256::mul(a, b ^ c), gf256::mul(a, b) ^ gf256::mul(a, c));
    }
}

#[test]
fn parity_deltas_any_arrival_order() {
    // dRAID §5.2: each data bdev forwards `c·(old ⊕ new)` toward every
    // parity row, and the reducer may apply the terms in any order.
    let mut rng = TestRng(0xEC06);
    for round in 0..200 {
        let mut data = rng.stripe(6, 24);
        let swap = round % 2 == 0;
        let rs = ReedSolomon::new(data.len(), 2);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let mut parity = rs.encode(&refs);
        let len = data[0].len();
        let ia = 0;
        let ib = data.len() - 1;
        let mut updates = [(ia, vec![rng.byte(); len]), (ib, vec![rng.byte(); len])];
        if swap {
            updates.reverse();
        }
        for (i, new) in &updates {
            let mut delta = data[*i].clone();
            xor_into(&mut delta, new);
            for (row, p) in parity.iter_mut().enumerate() {
                gf256::mul_acc(p, &delta, rs.coefficient(row, *i));
            }
        }
        for (i, new) in updates {
            data[i] = new;
        }
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        assert_eq!(parity, rs.encode(&refs), "round {round}");
    }
}

#[test]
fn reed_solomon_roundtrip() {
    let mut rng = TestRng(0xEC07);
    for _ in 0..100 {
        let data = rng.stripe(6, 16);
        let parity_count = 1 + rng.below(3) as usize;
        let k = data.len();
        let rs = ReedSolomon::new(k, parity_count);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        let n = k + parity_count;

        // Pick up to `parity_count` distinct erasures.
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        let mut erased = 0usize;
        while erased < parity_count {
            let idx = rng.below(n as u64) as usize;
            if shards[idx].is_some() {
                shards[idx] = None;
                erased += 1;
            }
        }
        rs.reconstruct(&mut shards).expect("within tolerance");
        for (shard, original) in shards.iter().zip(&full) {
            assert_eq!(shard.as_ref().expect("restored"), original);
        }
    }
}
