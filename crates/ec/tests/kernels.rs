//! Differential tests of the wide GF(256) kernels against the scalar
//! reference (`gf256::mul_acc_ref`/`scale_ref`, the seed's byte-at-a-time
//! path): every one of the 256 coefficients, at odd buffer lengths including
//! non-multiple-of-8 tails, must be bit-identical — plus Reed-Solomon
//! encode→corrupt→decode round-trips running through the new paths.

use draid_ec::{gf256, kernels, xor_into, xor_of_into, ReedSolomon};

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
        let folded = refs[1..].iter().fold(bufs[0].clone(), |mut acc, b| {
            xor_into(&mut acc, b);
            acc
        });
        assert_eq!(out, folded, "len={len}");
    }
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
    // Every two-of-eight loss of a 6+2 RAID-6 stripe, data and parity alike,
    // decodes bit-identically on the cached-table kernels.
    let rs = ReedSolomon::new(6, 2);
    let data: Vec<Vec<u8>> = (0..6).map(|d| pattern(513, d as u8 * 7 + 1)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
    let full: Vec<Vec<u8>> = data.iter().cloned().chain(rs.encode(&refs)).collect();

    // A corrupted parity byte must differ from the re-encoded parity…
    let mut bad_q = full[7].clone();
    bad_q[512] ^= 0x01;
    assert_ne!(bad_q, rs.encode(&refs)[1]);

    // …and every two-shard loss must decode bit-identically.
    for x in 0..8 {
        for y in (x + 1)..8 {
            let shards: Vec<Option<&[u8]>> = full
                .iter()
                .enumerate()
                .map(|(i, s)| (i != x && i != y).then_some(&s[..]))
                .collect();
            let mut dx = vec![0u8; 513];
            let mut dy = vec![0u8; 513];
            rs.decode_rows(&shards, &mut [(x, &mut dx[..]), (y, &mut dy[..])])
                .expect("two losses are within tolerance");
            assert_eq!(dx, full[x], "x={x} y={y}");
            assert_eq!(dy, full[y], "x={x} y={y}");
        }
    }
}
