//! Differential tests of the GF(256) kernels against the scalar reference
//! (`gf256::mul_acc_ref`, the seed's byte-at-a-time path): every one of the
//! 256 coefficients, at odd buffer lengths including non-multiple-of-8
//! tails, must be bit-identical for the one-pass `encode` and `update` —
//! plus Reed-Solomon encode→corrupt→decode round-trips running through
//! them.

use draid_ec::{gf256, kernels, ReedSolomon};

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

/// A coefficient other than the swept one: cycles through 0 (skipped),
/// 1 (plain XOR) and general multipliers.
fn background(j: usize, i: usize) -> u8 {
    [0u8, 1, 2, 0x8E, 1, 0xFF, 0x1D][(3 * j + i) % 7]
}

/// `Σᵢ coeffs[i]·srcs[i]` on the scalar reference.
fn dot_ref(coeffs: &[u8], srcs: &[&[u8]], len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    for (s, &c) in srcs.iter().zip(coeffs) {
        gf256::mul_acc_ref(&mut out, s, c);
    }
    out
}

#[test]
fn encode_matches_scalar_for_every_coefficient_in_every_position() {
    // 1, 2, 6 and 7 sources into 1–3 outputs: every coefficient 0–255 in
    // every source position of every output row, the buffer length cycling
    // through all of LENGTHS as the coefficient sweeps.
    for k in [1usize, 2, 6, 7] {
        for m in 1..=3usize {
            for pos in 0..k {
                for c in 0..=255u8 {
                    let len = LENGTHS[(c as usize + pos) % LENGTHS.len()];
                    let srcs: Vec<Vec<u8>> = (0..k)
                        .map(|i| pattern(len, (i as u8).wrapping_mul(53) ^ c))
                        .collect();
                    let refs: Vec<&[u8]> = srcs.iter().map(|s| &s[..]).collect();
                    let coeffs: Vec<u8> = (0..m)
                        .flat_map(|j| {
                            (0..k).map(move |i| {
                                if i == pos {
                                    c.wrapping_add(85 * j as u8)
                                } else {
                                    background(j, i)
                                }
                            })
                        })
                        .collect();
                    let mut outs = vec![pattern(len, 0xC3); m];
                    kernels::encode(
                        &coeffs,
                        &refs,
                        &mut outs.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
                    );
                    for (j, out) in outs.iter().enumerate() {
                        let row = &coeffs[j * k..][..k];
                        assert_eq!(
                            *out,
                            dot_ref(row, &refs, len),
                            "k={k} m={m} pos={pos} c={c} len={len} out={j}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn update_matches_scalar_for_every_coefficient_in_every_position() {
    // 1–3 parities: every coefficient 0–255 on every parity, the length
    // cycling through LENGTHS. The parities move by `c·old ⊕ c·new` and
    // the data ends up equal to the new bytes.
    for m in 1..=3usize {
        for pos in 0..m {
            for c in 0..=255u8 {
                let len = LENGTHS[(c as usize + pos) % LENGTHS.len()];
                let coeffs: Vec<u8> = (0..m)
                    .map(|j| if j == pos { c } else { background(j, 5) })
                    .collect();
                let mut data = pattern(len, c);
                let new = pattern(len, c ^ 0x5A);
                let mut parity: Vec<Vec<u8>> =
                    (0..m).map(|j| pattern(len, 17 * j as u8 + 3)).collect();
                let mut expect = parity.clone();
                for (p, &cj) in expect.iter_mut().zip(&coeffs) {
                    gf256::mul_acc_ref(p, &data, cj);
                    gf256::mul_acc_ref(p, &new, cj);
                }
                kernels::update(
                    &coeffs,
                    &mut data,
                    &new,
                    &mut parity.iter_mut().map(|p| &mut p[..]).collect::<Vec<_>>(),
                );
                assert_eq!(data, new, "m={m} pos={pos} c={c} len={len}: data = new");
                assert_eq!(parity, expect, "m={m} pos={pos} c={c} len={len}");
            }
        }
    }
}

#[test]
fn kernels_match_scalar_on_wide_stripes() {
    // Past any per-pass register or table budget: up to 33 sources and 9
    // outputs, where encode takes several passes and update its fallback.
    let len = 100;
    for k in [16usize, 17, 33] {
        for m in [4usize, 5, 9] {
            let srcs: Vec<Vec<u8>> = (0..k).map(|i| pattern(len, i as u8)).collect();
            let refs: Vec<&[u8]> = srcs.iter().map(|s| &s[..]).collect();
            let coeffs: Vec<u8> = (0..m * k).map(|t| (t * 37 % 256) as u8).collect();
            let mut outs = vec![vec![0xEEu8; len]; m];
            kernels::encode(
                &coeffs,
                &refs,
                &mut outs.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
            );
            for (j, out) in outs.iter().enumerate() {
                let row = &coeffs[j * k..][..k];
                assert_eq!(*out, dot_ref(row, &refs, len), "k={k} m={m} out={j}");
            }

            let mut data = srcs[0].clone();
            let mut expect = outs.clone();
            for (p, &c) in expect.iter_mut().zip(&coeffs) {
                gf256::mul_acc_ref(p, &data, c);
                gf256::mul_acc_ref(p, &srcs[1], c);
            }
            kernels::update(
                &coeffs[..m],
                &mut data,
                &srcs[1],
                &mut outs.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
            );
            assert_eq!(data, srcs[1], "k={k} m={m}: data = new");
            assert_eq!(outs, expect, "k={k} m={m}");
        }
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

/// Long streams: 64 KiB and lengths beside it (tails of 1, 31 and 63 bytes
/// past the last 32-byte vector), two odd lengths beyond, and 1 MiB.
const LONG_LENGTHS: &[usize] = &[65_535, 65_536, 65_537, 65_599, 98_311, 100_001, 1 << 20];

#[test]
fn long_encode_matches_scalar_for_one_to_six_outputs() {
    // 1–4 outputs take one pass of the AVX2 kernel, 5 and 6 a second. Six
    // sources, as in a width-8 RAID-6 decode.
    let k = 6;
    for &len in LONG_LENGTHS {
        let srcs: Vec<Vec<u8>> = (0..k).map(|i| pattern(len, 29 * i as u8 + 1)).collect();
        let refs: Vec<&[u8]> = srcs.iter().map(|s| &s[..]).collect();
        for m in 1..=6usize {
            let coeffs: Vec<u8> = (0..m * k)
                .map(|t| background(t / k, t % k) ^ t as u8)
                .collect();
            let mut outs = vec![pattern(len, 0x3C); m];
            kernels::encode(
                &coeffs,
                &refs,
                &mut outs.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
            );
            for (j, out) in outs.iter().enumerate() {
                let row = &coeffs[j * k..][..k];
                assert!(*out == dot_ref(row, &refs, len), "len={len} m={m} out={j}");
            }
        }
    }
}

/// `update` coefficients for up to four parities: 0 (skipped), 1 (plain
/// XOR) and general multipliers in every position.
const UPDATE_COEFFS: [[u8; 4]; 5] = [
    [1, 0, 2, 0x8E],
    [1, 1, 1, 1],
    [0, 0x8E, 0xFF, 1],
    [1, 0x1D, 4, 0x53],
    [0xFF, 2, 0, 0x1D],
];

/// Runs `update` on `data`, `new` and `parity` and checks them against the
/// scalar reference: the data takes the new bytes and each parity moves
/// by `c·old ⊕ c·new`.
fn check_update(coeffs: &[u8], data: &mut [u8], new: &[u8], parity: &mut [&mut [u8]], what: &str) {
    let expect: Vec<Vec<u8>> = parity
        .iter()
        .zip(coeffs)
        .map(|(p, &c)| {
            let mut e = p.to_vec();
            gf256::mul_acc_ref(&mut e, data, c);
            gf256::mul_acc_ref(&mut e, new, c);
            e
        })
        .collect();
    kernels::update(coeffs, data, new, parity);
    assert!(data == new, "{what}: data = new");
    for (j, (p, e)) in parity.iter().zip(&expect).enumerate() {
        assert!(**p == e[..], "{what}: parity {j}");
    }
}

#[test]
fn update_with_no_parity_copies_the_new_bytes() {
    // A RAID-5 write whose P member is lost updates no parity: the data
    // chunk just takes the new bytes. (The long and edge tests below cover
    // zero parities at their lengths.)
    for &len in LENGTHS {
        let mut data = pattern(len, 0x21);
        let new = pattern(len, 0x9C);
        check_update(&[], &mut data, &new, &mut [], &format!("len={len}"));
    }
}

#[test]
fn long_update_matches_scalar_for_zero_to_four_parities() {
    for &len in LONG_LENGTHS {
        for coeffs in UPDATE_COEFFS {
            for m in 0..=4 {
                let coeffs = &coeffs[..m];
                let mut data = pattern(len, 0x11);
                let new = pattern(len, 0x6B);
                let mut parity: Vec<Vec<u8>> = (0..m).map(|j| pattern(len, 90 + j as u8)).collect();
                check_update(
                    coeffs,
                    &mut data,
                    &new,
                    &mut parity.iter_mut().map(|p| &mut p[..]).collect::<Vec<_>>(),
                    &format!("len={len} coeffs={coeffs:?}"),
                );
            }
        }
    }
}

/// Lengths on either side of every distance the AVX2 kernels' prefetch was
/// tuned over (512 B to 4 KiB, the page size at which the hardware
/// prefetchers stop) and of two pages plus most of a line.
fn edge_lengths() -> Vec<usize> {
    let mut lengths: Vec<usize> = [512usize, 1024, 2048, 4096]
        .into_iter()
        .flat_map(|d| [d - 1, d, d + 1, d + 63, d + 64, d + 65])
        .collect();
    lengths.extend([4095, 4097, 8191 + 63]);
    lengths
}

/// Bytes after each stream's sub-slice, which no kernel may touch.
const GUARD: usize = 4096 + 64;

/// A buffer with room for a `len`-byte stream at offset `at` and [`GUARD`]
/// bytes after it.
fn framed(len: usize, at: usize, seed: u8) -> Vec<u8> {
    pattern(len + at + GUARD, seed)
}

/// Checks that the bytes of a [`framed`] buffer outside its stream are
/// still the pattern they were built with.
fn untouched(buf: &[u8], len: usize, at: usize, seed: u8, what: &str) {
    let fresh = pattern(buf.len(), seed);
    assert!(buf[..at] == fresh[..at], "{what}: bytes before the slice");
    assert!(
        buf[at + len..] == fresh[at + len..],
        "{what}: bytes after the slice"
    );
}

#[test]
fn kernels_match_scalar_across_prefetch_and_page_edges_on_offset_subslices() {
    // Every stream is a sub-slice at its own odd offset inside a larger
    // buffer, so no stream is aligned and each ends mid-line; the bytes
    // around every sub-slice must stay as they were.
    let k = 6;
    for len in edge_lengths() {
        for shift in [1usize, 33, 63] {
            let at = |i: usize| (shift + 2 * i) | 1;
            let srcs: Vec<Vec<u8>> = (0..k).map(|i| framed(len, at(i), i as u8)).collect();
            let refs: Vec<&[u8]> = srcs
                .iter()
                .enumerate()
                .map(|(i, s)| &s[at(i)..][..len])
                .collect();
            for m in [1usize, 2, 3, 4, 6] {
                let what = format!("encode len={len} shift={shift} m={m}");
                let coeffs: Vec<u8> = (0..m * k)
                    .map(|t| background(t / k, t % k) ^ t as u8)
                    .collect();
                let seed = |j: usize| 0x40 + j as u8;
                let mut outs: Vec<Vec<u8>> =
                    (0..m).map(|j| framed(len, at(k + j), seed(j))).collect();
                kernels::encode(
                    &coeffs,
                    &refs,
                    &mut outs
                        .iter_mut()
                        .enumerate()
                        .map(|(j, o)| &mut o[at(k + j)..][..len])
                        .collect::<Vec<_>>(),
                );
                for (j, out) in outs.iter().enumerate() {
                    let row = &coeffs[j * k..][..k];
                    assert!(
                        out[at(k + j)..][..len] == dot_ref(row, &refs, len)[..],
                        "{what} out={j}"
                    );
                    untouched(out, len, at(k + j), seed(j), &what);
                }
            }
            for m in 0..=4 {
                let what = format!("update len={len} shift={shift} m={m}");
                let coeffs = &UPDATE_COEFFS[(len + shift) % UPDATE_COEFFS.len()][..m];
                let seed = |j: usize| 0x80 + j as u8;
                let mut data = framed(len, at(0), seed(0));
                let mut parity: Vec<Vec<u8>> = (0..m)
                    .map(|j| framed(len, at(2 + j), seed(2 + j)))
                    .collect();
                check_update(
                    coeffs,
                    &mut data[at(0)..][..len],
                    refs[1],
                    &mut parity
                        .iter_mut()
                        .enumerate()
                        .map(|(j, p)| &mut p[at(2 + j)..][..len])
                        .collect::<Vec<_>>(),
                    &what,
                );
                untouched(&data, len, at(0), seed(0), &what);
                for (j, p) in parity.iter().enumerate() {
                    untouched(p, len, at(2 + j), seed(2 + j), &what);
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "length mismatch")]
fn encode_length_mismatch_panics() {
    kernels::encode(&[1, 2], &[&[0u8; 4], &[0u8; 3]], &mut [&mut [0u8; 4]]);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn update_length_mismatch_panics() {
    kernels::update(&[1], &mut [0u8; 4], &[0u8; 4], &mut [&mut [0u8; 3]]);
}
