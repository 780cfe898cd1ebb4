//! Differential tests of the wide GF(256) kernels against the scalar
//! reference (`gf256::mul_acc_ref`/`scale_ref`, the seed's byte-at-a-time
//! path): every one of the 256 coefficients, at odd buffer lengths including
//! non-multiple-of-8 tails, must be bit-identical — plus Reed-Solomon
//! encode→corrupt→decode round-trips running through the new paths.

use draid_ec::{gf256, kernels, xor_of, xor_of_into, Raid5, Raid6, ReedSolomon};

/// Lengths that exercise the empty case, the scalar tail alone, one wide
/// step, wide + tail, SIMD-register multiples (16/32), and sizes past them.
const LENGTHS: &[usize] = &[
    0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 255, 1024,
];

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (i as u8)
                .wrapping_mul(113)
                .wrapping_add(seed)
                .rotate_left(3)
        })
        .collect()
}

#[test]
fn mul_acc_matches_scalar_for_all_coefficients_and_tails() {
    for c in 0..=255u8 {
        for &len in LENGTHS {
            let src = pattern(len, c);
            let mut wide = pattern(len, c.wrapping_add(91));
            let mut scalar = wide.clone();
            gf256::mul_acc(&mut wide, &src, c);
            gf256::mul_acc_ref(&mut scalar, &src, c);
            assert_eq!(wide, scalar, "mul_acc c={c} len={len}");
        }
    }
}

#[test]
fn scale_matches_scalar_for_all_coefficients_and_tails() {
    for c in 0..=255u8 {
        for &len in LENGTHS {
            let mut wide = pattern(len, c.wrapping_mul(3));
            let mut scalar = wide.clone();
            gf256::scale(&mut wide, c);
            gf256::scale_ref(&mut scalar, c);
            assert_eq!(wide, scalar, "scale c={c} len={len}");
        }
    }
}

#[test]
fn kernel_entry_points_match_scalar_directly() {
    // Drive `kernels::{mul_acc, scale}` through the `MulTable` API too, so
    // the cache handles and the gf256 wrappers are both covered.
    for c in 1..=255u8 {
        let t = kernels::mul_table(c);
        assert_eq!(t.c, c);
        let src = pattern(77, c);
        let mut wide = pattern(77, 7);
        let mut scalar = wide.clone();
        kernels::mul_acc(&mut wide, &src, t);
        gf256::mul_acc_ref(&mut scalar, &src, c);
        assert_eq!(wide, scalar, "kernels::mul_acc c={c}");

        let mut wide = src.clone();
        let mut scalar = src.clone();
        kernels::scale(&mut wide, t);
        gf256::scale_ref(&mut scalar, c);
        assert_eq!(wide, scalar, "kernels::scale c={c}");
    }
}

#[test]
fn q_syndrome_matches_scalar_construction() {
    for width in [1usize, 2, 5, 8, 17] {
        for &len in LENGTHS {
            if len == 0 {
                continue;
            }
            let data: Vec<Vec<u8>> = (0..width)
                .map(|d| pattern(len, (d as u8).wrapping_mul(29) ^ 0xA5))
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
            let mut q = vec![0xEEu8; len];
            kernels::raid6_q_into(&mut q, &refs);
            let mut expect = vec![0u8; len];
            for (i, d) in refs.iter().enumerate() {
                gf256::mul_acc_ref(&mut expect, d, gf256::exp(i));
            }
            assert_eq!(q, expect, "q width={width} len={len}");
        }
    }
}

#[test]
fn xor_of_into_matches_xor_of() {
    for &len in LENGTHS {
        let bufs: Vec<Vec<u8>> = (0..5).map(|i| pattern(len, i * 41)).collect();
        let refs: Vec<&[u8]> = bufs.iter().map(|b| &b[..]).collect();
        let mut out = vec![0xABu8; len];
        xor_of_into(&mut out, &refs);
        assert_eq!(out, xor_of(&refs), "len={len}");
    }
}

#[test]
fn raid6_encode_into_matches_encode_and_verifies() {
    for width in [2usize, 6, 11] {
        for &len in &[1usize, 9, 64, 100, 4096] {
            let data: Vec<Vec<u8>> = (0..width).map(|d| pattern(len, d as u8 ^ 0x3C)).collect();
            let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
            let (p, q) = Raid6::encode(&refs);
            let mut p2 = vec![0x11u8; len];
            let mut q2 = vec![0x22u8; len];
            Raid6::encode_into(&refs, &mut p2, &mut q2);
            assert_eq!(p, p2);
            assert_eq!(q, q2);
            assert!(Raid6::verify(&refs, &p, &q), "width={width} len={len}");
        }
    }
}

#[test]
fn raid5_encode_into_and_reconstruct_into_roundtrip() {
    let data: Vec<Vec<u8>> = (0..7).map(|d| pattern(100, d as u8 * 13)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
    let mut p = vec![0u8; 100];
    Raid5::encode_into(&mut p, &refs);
    assert_eq!(p, Raid5::encode(&refs));
    // Lose chunk 3, rebuild it into a reused buffer.
    let mut survivors: Vec<&[u8]> = refs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 3)
        .map(|(_, d)| *d)
        .collect();
    survivors.push(&p);
    let mut rebuilt = vec![0xCDu8; 100];
    Raid5::reconstruct_into(&mut rebuilt, &survivors);
    assert_eq!(rebuilt, data[3]);
}

#[test]
fn rs_encode_corrupt_decode_roundtrips_through_new_paths() {
    // Every (k, m) in a small grid; every erasure pattern of exactly m
    // shards for the smaller codes; odd chunk length to exercise tails.
    for (k, m) in [(3usize, 1usize), (4, 2), (5, 3), (10, 4)] {
        let rs = ReedSolomon::new(k, m);
        let len = 97;
        let data: Vec<Vec<u8>> = (0..k)
            .map(|d| pattern(len, (d as u8).wrapping_mul(17) ^ 0x66))
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();
        let n = k + m;

        // Cap the pattern sweep for the big code (10+4 has 1001 patterns of
        // size 4 — fine, still fast).
        for mask in 1u32..(1 << n) {
            if mask.count_ones() as usize != m {
                continue;
            }
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for (i, shard) in shards.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    *shard = None; // "corrupt" = erase the shard
                }
            }
            rs.reconstruct(&mut shards).expect("within tolerance");
            for (i, (shard, original)) in shards.iter().zip(&full).enumerate() {
                assert_eq!(
                    shard.as_ref().expect("restored"),
                    original,
                    "k={k} m={m} i={i} mask={mask:b}"
                );
            }
        }
    }
}

#[test]
fn raid6_full_recovery_matrix_through_wide_kernels() {
    // Byte-level corruption detection via verify + every 2-loss recovery,
    // all running on the cached-table kernels.
    let data: Vec<Vec<u8>> = (0..8).map(|d| pattern(513, d as u8 * 7 + 1)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
    let (p, q) = Raid6::encode(&refs);
    assert!(Raid6::verify(&refs, &p, &q));

    // A corrupted parity byte must be detected…
    let mut bad_q = q.clone();
    bad_q[512] ^= 0x01;
    assert!(!Raid6::verify(&refs, &p, &bad_q));

    // …and every two-data-loss pattern must decode bit-identically.
    for x in 0..8 {
        for y in (x + 1)..8 {
            let survivors: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != x && *i != y)
                .map(|(i, d)| (i, &d[..]))
                .collect();
            let (dx, dy) = Raid6::recover_two_data(8, x, y, &survivors, &p, &q);
            assert_eq!(dx, data[x], "x={x} y={y}");
            assert_eq!(dy, data[y], "x={x} y={y}");
        }
    }
}
