//! Wide XOR kernels.
//!
//! XOR is the parity operation of RAID-5 and the reduction operator of
//! dRAID's distributed partial-parity aggregation (§5.2). The kernel works on
//! `u64` lanes so the compiler can auto-vectorize, standing in for the ISA-L
//! SIMD path the paper uses.

/// XORs `src` into `acc` element-wise: `acc[i] ^= src[i]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// use draid_ec::xor_into;
/// let mut acc = vec![0b1010u8; 8];
/// xor_into(&mut acc, &vec![0b0110u8; 8]);
/// assert_eq!(acc, vec![0b1100u8; 8]);
/// ```
pub fn xor_into(acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "buffer length mismatch");
    let mut a = acc.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (ac, sc) in a.by_ref().zip(s.by_ref()) {
        let av = u64::from_ne_bytes(ac.try_into().expect("chunk is 8 bytes"));
        let sv = u64::from_ne_bytes(sc.try_into().expect("chunk is 8 bytes"));
        ac.copy_from_slice(&(av ^ sv).to_ne_bytes());
    }
    for (ac, sc) in a.into_remainder().iter_mut().zip(s.remainder()) {
        *ac ^= sc;
    }
}

/// XOR-reduces a set of equally sized buffers into a caller-provided buffer:
/// `out = s_0 ⊕ s_1 ⊕ …`. The buffer's previous contents are overwritten,
/// not accumulated.
///
/// # Panics
///
/// Panics if `sources` is empty or any buffer's length differs from
/// `out.len()`.
///
/// ```
/// use draid_ec::xor_of_into;
/// let mut p = vec![0xFFu8; 2];
/// xor_of_into(&mut p, &[&[1u8, 2][..], &[3u8, 4][..]]);
/// assert_eq!(p, vec![2, 6]);
/// ```
pub fn xor_of_into(out: &mut [u8], sources: &[&[u8]]) {
    assert!(!sources.is_empty(), "xor_of_into needs at least one source");
    out.copy_from_slice(sources[0]);
    for src in &sources[1..] {
        xor_into(out, src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_is_involutive() {
        let data: Vec<u8> = (0..100).map(|i| (i * 37 % 251) as u8).collect();
        let key: Vec<u8> = (0..100).map(|i| (i * 91 % 241) as u8).collect();
        let mut buf = data.clone();
        xor_into(&mut buf, &key);
        assert_ne!(buf, data);
        xor_into(&mut buf, &key);
        assert_eq!(buf, data);
    }

    #[test]
    fn handles_non_multiple_of_eight_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 65] {
            let a: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(3)).collect();
            let mut acc = a.clone();
            xor_into(&mut acc, &b);
            let expect: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(acc, expect, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        xor_into(&mut [0u8; 3], &[0u8; 4]);
    }
}
