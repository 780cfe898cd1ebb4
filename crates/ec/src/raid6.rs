//! RAID-6 dual-parity (P+Q) codec, after H. P. Anvin's
//! *The mathematics of RAID-6* (the reference the paper cites for XOR
//! associativity, [22]).
//!
//! For data chunks `d_0 … d_{k-1}`:
//!
//! * `P = d_0 ⊕ d_1 ⊕ … ⊕ d_{k-1}`
//! * `Q = g⁰·d_0 ⊕ g¹·d_1 ⊕ … ⊕ g^{k-1}·d_{k-1}` over GF(2⁸)
//!
//! Both are sums of per-chunk partial terms, so dRAID can generate them
//! distributedly: each data bdev contributes `d_i ⊕ d_i'` toward P and
//! `g^i·(d_i ⊕ d_i')` toward Q (the coefficient travels in the command's
//! second SG list, §4 "other command data").

use crate::gf256;
use crate::kernels;
use crate::{xor_into, xor_of_into};

/// RAID-6 P+Q operations on chunk buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Raid6;

impl Raid6 {
    /// Encodes the P and Q parity chunks of a full stripe.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, chunks differ in length, or there are more
    /// than 255 data chunks (the field's limit).
    pub fn encode(data: &[&[u8]]) -> (Vec<u8>, Vec<u8>) {
        assert!(!data.is_empty(), "stripe needs at least one data chunk");
        let mut p = vec![0u8; data[0].len()];
        let mut q = vec![0u8; data[0].len()];
        Self::encode_into(data, &mut p, &mut q);
        (p, q)
    }

    /// Zero-copy full-stripe encode: writes P and Q into caller-provided
    /// buffers. P is a wide XOR reduction; Q is the table-free one-pass
    /// Horner syndrome ([`kernels::raid6_q_into`]), so a full-stripe encode
    /// touches every data byte exactly twice and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, holds more than 255 chunks, or chunk
    /// lengths differ from the parity buffers'.
    pub fn encode_into(data: &[&[u8]], p: &mut [u8], q: &mut [u8]) {
        assert!(!data.is_empty(), "stripe needs at least one data chunk");
        assert!(
            data.len() <= 255,
            "GF(256) supports at most 255 data chunks"
        );
        xor_of_into(p, data);
        kernels::raid6_q_into(q, data);
    }

    /// The partial Q-term contributed by data chunk index `i` whose content
    /// changes from `old` to `new`: `g^i · (old ⊕ new)`.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths differ.
    pub fn partial_q_delta(index: usize, old: &[u8], new: &[u8]) -> Vec<u8> {
        let mut delta = old.to_vec();
        xor_into(&mut delta, new);
        gf256::scale(&mut delta, gf256::exp(index));
        delta
    }

    /// Read-modify-write update of both parities for a single changed chunk.
    pub fn update(
        index: usize,
        old_data: &[u8],
        new_data: &[u8],
        old_p: &[u8],
        old_q: &[u8],
    ) -> (Vec<u8>, Vec<u8>) {
        let mut p = old_p.to_vec();
        xor_into(&mut p, old_data);
        xor_into(&mut p, new_data);
        let mut q = old_q.to_vec();
        xor_into(&mut q, &Self::partial_q_delta(index, old_data, new_data));
        (p, q)
    }

    /// Recovers one lost **data** chunk using P (identical to RAID-5).
    ///
    /// `survivors` holds the other data chunks (indices irrelevant); `p` is
    /// the parity chunk.
    pub fn recover_data_with_p(survivors: &[&[u8]], p: &[u8]) -> Vec<u8> {
        let mut acc = p.to_vec();
        for s in survivors {
            xor_into(&mut acc, s);
        }
        acc
    }

    /// Recovers one lost data chunk `x` using Q (when P is also gone):
    /// `d_x = g^{-x} · (Q ⊕ Σ_{i≠x} g^i·d_i)`.
    ///
    /// `survivors` carries `(index, chunk)` pairs for every surviving data
    /// chunk.
    pub fn recover_data_with_q(lost: usize, survivors: &[(usize, &[u8])], q: &[u8]) -> Vec<u8> {
        let mut acc = q.to_vec();
        for &(i, d) in survivors {
            debug_assert_ne!(i, lost);
            gf256::mul_acc(&mut acc, d, gf256::exp(i));
        }
        gf256::scale(&mut acc, gf256::pow_g(-(lost as isize)));
        acc
    }

    /// Recovers two lost **data** chunks `x < y` from the survivors plus both
    /// parities (Anvin §4):
    ///
    /// ```text
    /// A = g^{y-x} / (g^{y-x} ⊕ 1)      B = g^{-x} / (g^{y-x} ⊕ 1)
    /// d_x = A·(P ⊕ P_xy) ⊕ B·(Q ⊕ Q_xy)   d_y = (P ⊕ P_xy) ⊕ d_x
    /// ```
    ///
    /// where `P_xy`/`Q_xy` are the parities of the surviving data alone.
    /// Returns `(d_x, d_y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x == y` or indices are out of the `width` range.
    pub fn recover_two_data(
        width: usize,
        x: usize,
        y: usize,
        survivors: &[(usize, &[u8])],
        p: &[u8],
        q: &[u8],
    ) -> (Vec<u8>, Vec<u8>) {
        assert!(x < y, "lost indices must be ordered and distinct");
        assert!(y < width, "lost index out of range");
        // Pxy / Qxy: parity of the surviving chunks only.
        let mut pxy = p.to_vec();
        let mut qxy = q.to_vec();
        for &(i, d) in survivors {
            debug_assert!(i != x && i != y && i < width);
            xor_into(&mut pxy, d);
            gf256::mul_acc(&mut qxy, d, gf256::exp(i));
        }
        let gyx = gf256::pow_g((y - x) as isize);
        let denom = gf256::add(gyx, 1);
        let a = gf256::div(gyx, denom);
        let b = gf256::div(gf256::pow_g(-(x as isize)), denom);

        let mut dx = vec![0u8; p.len()];
        gf256::mul_acc(&mut dx, &pxy, a);
        gf256::mul_acc(&mut dx, &qxy, b);
        let mut dy = pxy;
        xor_into(&mut dy, &dx);
        (dx, dy)
    }

    /// Recomputes Q from full data (for the data+Q failure case after the
    /// data chunk was recovered via P).
    pub fn recompute_q(data: &[&[u8]]) -> Vec<u8> {
        Self::encode(data).1
    }

    /// Verifies stripe consistency of data against both parities.
    pub fn verify(data: &[&[u8]], p: &[u8], q: &[u8]) -> bool {
        let (ep, eq) = Self::encode(data);
        ep == p && eq == q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe(width: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..width)
            .map(|d| {
                (0..len)
                    .map(|i| {
                        (i as u8)
                            .wrapping_mul(seed)
                            .wrapping_add((d as u8).wrapping_mul(31))
                            .wrapping_add(1)
                    })
                    .collect()
            })
            .collect()
    }

    fn refs(v: &[Vec<u8>]) -> Vec<&[u8]> {
        v.iter().map(|d| &d[..]).collect()
    }

    #[test]
    fn single_data_failure_via_p() {
        let data = stripe(6, 48, 7);
        let (p, q) = Raid6::encode(&refs(&data));
        for lost in 0..6 {
            let survivors: Vec<&[u8]> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != lost)
                .map(|(_, d)| &d[..])
                .collect();
            assert_eq!(Raid6::recover_data_with_p(&survivors, &p), data[lost]);
        }
        assert!(Raid6::verify(&refs(&data), &p, &q));
    }

    #[test]
    fn data_plus_p_failure_via_q() {
        let data = stripe(6, 48, 11);
        let (_p, q) = Raid6::encode(&refs(&data));
        for lost in 0..6 {
            let survivors: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != lost)
                .map(|(i, d)| (i, &d[..]))
                .collect();
            assert_eq!(
                Raid6::recover_data_with_q(lost, &survivors, &q),
                data[lost],
                "lost={lost}"
            );
        }
    }

    #[test]
    fn two_data_failures_all_pairs() {
        let data = stripe(8, 32, 13);
        let (p, q) = Raid6::encode(&refs(&data));
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

    #[test]
    fn rmw_update_equals_reencode() {
        let mut data = stripe(7, 24, 17);
        let (p, q) = Raid6::encode(&refs(&data));
        let new: Vec<u8> = (0..24).map(|i| (i * 5 + 3) as u8).collect();
        let (np, nq) = Raid6::update(4, &data[4], &new, &p, &q);
        data[4] = new;
        let (ep, eq) = Raid6::encode(&refs(&data));
        assert_eq!(np, ep);
        assert_eq!(nq, eq);
    }

    #[test]
    fn partial_q_deltas_compose() {
        let mut data = stripe(5, 16, 19);
        let (_, q) = Raid6::encode(&refs(&data));
        let new1: Vec<u8> = (0..16).map(|i| i as u8 ^ 0x3C).collect();
        let new4: Vec<u8> = (0..16).map(|i| i as u8 ^ 0xC3).collect();
        let mut nq = q.clone();
        // Reversed arrival order relative to index order.
        xor_into(&mut nq, &Raid6::partial_q_delta(4, &data[4], &new4));
        xor_into(&mut nq, &Raid6::partial_q_delta(1, &data[1], &new1));
        data[1] = new1;
        data[4] = new4;
        assert_eq!(nq, Raid6::recompute_q(&refs(&data)));
    }

    #[test]
    #[should_panic(expected = "ordered and distinct")]
    fn two_data_requires_ordered_indices() {
        let d = stripe(3, 8, 2);
        let (p, q) = Raid6::encode(&refs(&d));
        let _ = Raid6::recover_two_data(3, 2, 2, &[], &p, &q);
    }
}
