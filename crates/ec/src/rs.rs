//! General systematic Reed-Solomon codec (Vandermonde construction): the one
//! erasure codec behind every RAID level.
//!
//! For data chunks `d_0 … d_{k-1}`, parity row `j` is `Σ g^(i·j)·d_i` over
//! GF(2⁸). Row 0 is RAID-5's `P = d_0 ⊕ … ⊕ d_{k-1}` and row 1 is RAID-6's
//! `Q = Σ g^i·d_i` (H. P. Anvin's *The mathematics of RAID-6*, the reference
//! the paper cites for XOR associativity). Every row is a sum of per-chunk
//! partial terms, so dRAID can generate parity distributedly: the data bdev
//! of chunk `i` contributes `c·(d_i ⊕ d_i')` toward row `j`, with
//! `c = g^(i·j)` travelling in the command's second SG list (§4 "other
//! command data"), and the reducer may apply the terms in any order (§5.2).
//! The same holds for any `m`, the paper's §7 generalization to other
//! erasure codes: `k` data + `m` parity with recovery from any `≤ m`
//! erasures.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::gf256;
use crate::kernels;
use crate::Matrix;

/// Errors returned by [`ReedSolomon`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// More chunks were lost than the code can repair.
    TooManyErasures {
        /// Number of missing chunks.
        missing: usize,
        /// Parity count `m` of the code.
        tolerance: usize,
    },
    /// The surviving set does not form an invertible decode matrix.
    Unrecoverable,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooManyErasures { missing, tolerance } => write!(
                f,
                "{missing} chunks missing but the code only tolerates {tolerance}"
            ),
            CodecError::Unrecoverable => write!(f, "surviving chunk set is not decodable"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A systematic `(k, m)` Reed-Solomon codec over GF(2⁸).
///
/// Chunk indices `0..k` are data; `k..k+m` are parity. Parity row `j` uses
/// coefficients `g^(i·j)` (row 0 is plain XOR — RAID-5's P; row 1 is RAID-6's
/// Q), so `ReedSolomon::new(k, 2)` is exactly the paper's RAID-6 code.
///
/// The code acts on one byte position at a time, so every operation works
/// on any equal-length sub-range of the chunks: [`ReedSolomon::decode_rows`]
/// restores just the rows and bytes a caller needs. Decode matrices are
/// built on first use of each erasure pattern and cached.
///
/// ```
/// use draid_ec::ReedSolomon;
/// let rs = ReedSolomon::new(4, 2);
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 8]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
/// let parity = rs.encode(&refs);
///
/// // Lose data chunk 1 and parity chunk 0; recover data chunk 1.
/// let mut shards: Vec<Option<Vec<u8>>> =
///     data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
/// shards[1] = None;
/// shards[4] = None;
/// let restored = rs.reconstruct(&mut shards).unwrap();
/// assert_eq!(restored, ());
/// assert_eq!(shards[1].as_deref(), Some(&[2u8; 8][..]));
/// ```
#[derive(Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// `(k + m) × k` generator matrix: identity on top, Vandermonde below.
    generator: Matrix,
    /// Decoders by erasure pattern, filled lazily.
    decoders: Mutex<BTreeMap<Pattern, Arc<Decoder>>>,
}

/// Bitmask of missing shard indices (`k + m ≤ 255`).
type Pattern = [u64; 4];

/// How one erasure pattern's missing rows follow from `k` survivors.
#[derive(Debug)]
struct Decoder {
    /// The `k` surviving shard indices the coefficients apply to.
    survivors: Vec<usize>,
    /// Row `r`'s coefficients over `survivors` at `r·k..(r+1)·k`; filled
    /// for the missing rows only.
    coeffs: Vec<u8>,
}

impl Clone for ReedSolomon {
    fn clone(&self) -> Self {
        ReedSolomon {
            k: self.k,
            m: self.m,
            generator: self.generator.clone(),
            decoders: Mutex::new(self.cache().clone()),
        }
    }
}

impl ReedSolomon {
    /// Creates a codec with `k` data chunks and `m` parity chunks.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `m == 0`, or `k + m > 255`.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k > 0 && m > 0, "k and m must be positive");
        assert!(k + m <= 255, "GF(256) limits k+m to 255");
        let mut rows = Vec::with_capacity(k + m);
        for r in 0..k {
            let mut row = vec![0u8; k];
            row[r] = 1;
            rows.push(row);
        }
        for j in 0..m {
            rows.push((0..k).map(|i| gf256::exp(i * j)).collect());
        }
        ReedSolomon {
            k,
            m,
            generator: Matrix::from_rows(&rows),
            decoders: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of data chunks.
    pub fn data_chunks(&self) -> usize {
        self.k
    }

    /// Number of parity chunks.
    pub fn parity_chunks(&self) -> usize {
        self.m
    }

    /// The parity coefficient applied to data chunk `i` for parity row `j`
    /// (what a dRAID data bdev would use when forwarding its partial term).
    pub fn coefficient(&self, parity_row: usize, data_index: usize) -> u8 {
        self.generator.get(self.k + parity_row, data_index)
    }

    /// Encodes the `m` parity chunks for a full stripe of `k` data chunks.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or chunk lengths differ.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut parity = vec![vec![0u8; data.first().map_or(0, |d| d.len())]; self.m];
        let mut out: Vec<(usize, &mut [u8])> = parity
            .iter_mut()
            .enumerate()
            .map(|(j, p)| (self.k + j, &mut p[..]))
            .collect();
        self.encode_into(data, &mut out);
        parity
    }

    /// Encodes the parity rows named in `out` in one pass over `data`: each
    /// `(row, buf)` names a parity shard (`k..k + m`) and receives its bytes
    /// (overwritten). Works on any equal-length sub-range.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k`, a row is not a parity row, or a chunk's
    /// length differs from a buffer's.
    pub fn encode_into(&self, data: &[&[u8]], out: &mut [(usize, &mut [u8])]) {
        assert_eq!(data.len(), self.k, "expected {} data chunks", self.k);
        for (row, _) in out.iter() {
            assert!(
                (self.k..self.k + self.m).contains(row),
                "parity row out of range"
            );
        }
        dot(data, out, |row| self.generator.row(row));
    }

    /// Decodes the requested missing rows over equal-length borrowed slices.
    /// `shards` holds `k + m` entries (data then parity), `None` marking an
    /// erasure; each `(row, buf)` in `out` names a missing row and receives
    /// its bytes (overwritten). Only `k` survivors are read, and the decode
    /// matrix of the erasure pattern is built once and cached.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooManyErasures`] if more than `m` shards are missing;
    /// [`CodecError::Unrecoverable`] if the survivors cannot decode.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != k + m`, a requested row is present, or a
    /// slice's length differs from the first present shard's.
    pub fn decode_rows(
        &self,
        shards: &[Option<&[u8]>],
        out: &mut [(usize, &mut [u8])],
    ) -> Result<(), CodecError> {
        assert_eq!(shards.len(), self.k + self.m, "wrong shard count");
        let mut pattern: Pattern = [0; 4];
        let mut missing = 0;
        for (i, s) in shards.iter().enumerate() {
            if s.is_none() {
                pattern[i / 64] |= 1 << (i % 64);
                missing += 1;
            }
        }
        if missing > self.m {
            return Err(CodecError::TooManyErasures {
                missing,
                tolerance: self.m,
            });
        }
        let len = shards
            .iter()
            .flatten()
            .map(|s| s.len())
            .next()
            .expect("at least one shard must be present");
        for s in shards.iter().flatten() {
            assert_eq!(s.len(), len, "chunk length mismatch");
        }
        let decoder = self.decoder(pattern, shards)?;
        let sources: Vec<&[u8]> = decoder
            .survivors
            .iter()
            .map(|&r| shards[r].expect("survivor present"))
            .collect();
        for (row, buf) in out.iter() {
            assert!(shards[*row].is_none(), "row {row} is not missing");
            assert_eq!(buf.len(), len, "chunk length mismatch");
        }
        // With every data shard present the survivors are the data and each
        // missing parity row's coefficients are its generator row.
        dot(&sources, out, |row| {
            &decoder.coeffs[row * self.k..][..self.k]
        });
        Ok(())
    }

    /// Reconstructs every missing shard in place. `shards` holds `k + m`
    /// entries (data then parity); `None` marks an erasure.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooManyErasures`] if more than `m` shards are missing;
    /// [`CodecError::Unrecoverable`] if the survivor set cannot decode (does
    /// not happen for the Vandermonde construction with `≤ m` losses, but the
    /// API reports it rather than panicking).
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != k + m`, all shards are missing, or present
    /// shards differ in length.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodecError> {
        assert_eq!(shards.len(), self.k + self.m, "wrong shard count");
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        if missing.is_empty() {
            return Ok(());
        }
        // With every shard gone, `decode_rows` reports too many erasures.
        let len = shards.iter().flatten().map(Vec::len).next().unwrap_or(0);
        let mut bufs: Vec<Vec<u8>> = missing.iter().map(|_| vec![0u8; len]).collect();
        {
            let view: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
            let mut out: Vec<(usize, &mut [u8])> = missing
                .iter()
                .copied()
                .zip(bufs.iter_mut().map(|b| &mut b[..]))
                .collect();
            self.decode_rows(&view, &mut out)?;
        }
        for (idx, buf) in missing.into_iter().zip(bufs) {
            shards[idx] = Some(buf);
        }
        Ok(())
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, BTreeMap<Pattern, Arc<Decoder>>> {
        // The map is only ever inserted into whole, so a panic elsewhere
        // cannot leave it torn.
        self.decoders
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The cached decoder of `pattern`, built on first use.
    fn decoder(
        &self,
        pattern: Pattern,
        shards: &[Option<&[u8]>],
    ) -> Result<Arc<Decoder>, CodecError> {
        if let Some(d) = self.cache().get(&pattern) {
            return Ok(Arc::clone(d));
        }
        // Pick the first k survivors; invert their generator rows to express
        // the data in terms of them, then every missing row as
        // `generator row × inverse`.
        let survivors: Vec<usize> = (0..shards.len())
            .filter(|&i| shards[i].is_some())
            .take(self.k)
            .collect();
        if survivors.len() < self.k {
            return Err(CodecError::Unrecoverable);
        }
        let sub = Matrix::from_rows(
            &survivors
                .iter()
                .map(|&r| self.generator.row(r).to_vec())
                .collect::<Vec<_>>(),
        );
        let inverse = sub.inverse().ok_or(CodecError::Unrecoverable)?;
        let mut coeffs = vec![0u8; (self.k + self.m) * self.k];
        for r in (0..shards.len()).filter(|&r| shards[r].is_none()) {
            let row = &mut coeffs[r * self.k..][..self.k];
            for (i, &g) in self.generator.row(r).iter().enumerate() {
                for (j, c) in row.iter_mut().enumerate() {
                    *c ^= gf256::mul(g, inverse.get(i, j));
                }
            }
        }
        let decoder = Arc::new(Decoder { survivors, coeffs });
        self.cache().insert(pattern, Arc::clone(&decoder));
        Ok(decoder)
    }
}

/// One [`kernels::encode`] pass over `sources` writing every `(row, buf)`
/// of `out` as `Σᵢ coeffs(row)[i] · sources[i]`.
fn dot<'c>(sources: &[&[u8]], out: &mut [(usize, &mut [u8])], coeffs: impl Fn(usize) -> &'c [u8]) {
    let rows: Vec<u8> = out
        .iter()
        .flat_map(|(row, _)| coeffs(*row))
        .copied()
        .collect();
    let mut bufs: Vec<&mut [u8]> = out.iter_mut().map(|(_, buf)| &mut **buf).collect();
    kernels::encode(&rows, sources, &mut bufs);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stripe(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|d| {
                (0..len)
                    .map(|i| ((i * 7 + d * 13 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rows_are_raid5_p_and_raid6_q() {
        // P = Σ 1·d_i and Q = Σ g^i·d_i, built on the scalar reference, at
        // widths and lengths that reach every kernel tail; `encode_into`
        // overwrites whatever its buffer held.
        for k in [1usize, 2, 5, 6, 11] {
            for len in [1usize, 9, 64, 100, 4096] {
                let data = sample_stripe(k, len);
                let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
                let rs = ReedSolomon::new(k, 2);
                for (row, encoded) in rs.encode(&refs).iter().enumerate() {
                    let mut expect = vec![0u8; len];
                    for (i, d) in refs.iter().enumerate() {
                        let coeff = if row == 0 { 1 } else { gf256::exp(i) };
                        assert_eq!(rs.coefficient(row, i), coeff);
                        gf256::mul_acc_ref(&mut expect, d, coeff);
                    }
                    assert_eq!(*encoded, expect, "row {row} k={k} len={len}");
                    let mut out = vec![0xA5u8; len];
                    rs.encode_into(&refs, &mut [(k + row, &mut out[..])]);
                    assert_eq!(out, expect, "row {row} k={k} len={len}");
                }
            }
        }
    }

    #[test]
    fn recovers_all_loss_patterns_up_to_m() {
        let k = 4;
        let m = 3;
        let rs = ReedSolomon::new(k, m);
        let data = sample_stripe(k, 16);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();

        let n = k + m;
        // Every subset of up to m erasures (bitmask enumeration).
        for mask in 1u32..(1 << n) {
            if mask.count_ones() as usize > m {
                continue;
            }
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for (i, shard) in shards.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    *shard = None;
                }
            }
            rs.reconstruct(&mut shards).expect("within tolerance");
            for (i, (shard, original)) in shards.iter().zip(&full).enumerate() {
                assert_eq!(
                    shard.as_ref().expect("restored"),
                    original,
                    "i={i} mask={mask:b}"
                );
            }
        }
    }

    #[test]
    fn too_many_erasures_reported() {
        let rs = ReedSolomon::new(3, 2);
        let data = sample_stripe(3, 8);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().cloned().chain(parity).map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[3] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(CodecError::TooManyErasures {
                missing: 3,
                tolerance: 2
            })
        );
    }

    #[test]
    fn decoders_are_built_once_per_erasure_pattern() {
        for (k, m) in [(4, 1), (6, 2), (4, 3)] {
            let rs = ReedSolomon::new(k, m);
            let n = k + m;
            let data = sample_stripe(k, 16);
            let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
            let full: Vec<Vec<u8>> = data.iter().cloned().chain(rs.encode(&refs)).collect();
            assert!(rs.cache().is_empty(), "nothing is built before a decode");
            let mut patterns = 0;
            for mask in 1u32..(1 << n) {
                if mask.count_ones() as usize > m {
                    continue;
                }
                patterns += 1;
                let view: Vec<Option<&[u8]>> = full
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (mask & (1 << i) == 0).then_some(&s[..]))
                    .collect();
                let row = mask.trailing_zeros() as usize;
                for lo in [0, 5] {
                    let view: Vec<Option<&[u8]>> =
                        view.iter().map(|s| s.map(|s| &s[lo..])).collect();
                    let mut buf = vec![0u8; 16 - lo];
                    rs.decode_rows(&view, &mut [(row, &mut buf[..])])
                        .expect("within tolerance");
                    assert_eq!(buf, full[row][lo..], "k={k} m={m} mask={mask:b}");
                    assert_eq!(
                        rs.cache().len(),
                        patterns,
                        "k={k} m={m} mask={mask:b}: one decoder per pattern, reused"
                    );
                }
            }
        }
    }

    #[test]
    fn failed_decodes_cache_nothing() {
        let rs = ReedSolomon::new(3, 1);
        let a = [1u8; 4];
        let shards = [None, None, Some(&a[..]), Some(&a[..])];
        let mut buf = [0u8; 4];
        assert!(rs.decode_rows(&shards, &mut [(0, &mut buf[..])]).is_err());
        assert!(rs.cache().is_empty());
    }

    #[test]
    fn no_erasures_is_noop() {
        let rs = ReedSolomon::new(2, 1);
        let data = sample_stripe(2, 4);
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().cloned().chain(parity).map(Some).collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards).expect("nothing to do");
        assert_eq!(shards, before);
    }
}
