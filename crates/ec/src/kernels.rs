//! Wide GF(256) kernels and the process-wide coefficient-table cache.
//!
//! The paper's dRAID prototype offloads parity math to ISA-L's SIMD
//! GF(256) kernels so that erasure coding never throttles the NIC/drive
//! rate servers. This module is the reproduction's equivalent: the same
//! split-nibble technique ISA-L drives with `pshufb`, behind two entry
//! points, the analogues of ISA-L's `ec_encode_data` and
//! `ec_encode_data_update`:
//!
//! * [`encode`], a dot product: `outs[j] = Σᵢ c[j][i]·srcs[i]` — RAID-5/6
//!   parity, Reed-Solomon decode, any `m`;
//! * [`update`], Algorithm 1's "ship the diff" at byte level:
//!   `δ = data ⊕ new`, `data = new`, `parity[j] ^= c_j·δ`.
//!
//! Both read every source and write every output once, interleaved. On
//! chunks that are not in cache, one pass over all streams at once keeps
//! several cache-line misses in flight, where a pass per source waits on one
//! stream at a time and re-reads the outputs on every pass. Each has two
//! implementations:
//!
//! * an **AVX2 `pshufb` path** behind the `simd` feature (on by default,
//!   runtime-detected): the classic two-16-entry-table shuffle, 32 products
//!   per instruction, interleaved one 64-byte line of every stream per
//!   step; each source vector is multiplied into up to four output
//!   accumulators held in registers, and [`update`] holds its parities'
//!   tables in registers for the whole call. Once per line each prefetches
//!   every stream 2 KiB ahead: the hardware prefetchers stop at each 4 KiB
//!   page, so on cold chunks the software prefetch is what keeps misses in
//!   flight across page boundaries;
//! * a **portable blocked fallback** for every other configuration (CPUs
//!   without AVX2, non-x86 targets, `--no-default-features`, and [`update`]
//!   with more than four parities): one multiply-accumulate per source over
//!   blocks of at most 512 bytes, so the outputs stay in L1 between
//!   sources. Multiplication by a fixed coefficient `c` is GF(2)-linear in
//!   the bits of the operand, so
//!   `c·x = ⊕_{j : bit j of x set} c·2^j`. For eight bytes packed in a `u64`
//!   it extracts bit-plane `j` of every byte lane at once
//!   (`(w >> j) & 0x0101…01`), widens each set bit to a full-byte mask, and
//!   ANDs it with a broadcast of the precomputed constant `c·2^j`: eight
//!   shift/mask/xor rounds multiply eight bytes, branch-free and load-free.
//!   The final `len % 8` bytes take the nibble tables,
//!   `c·x = lo[x & 0xF] ⊕ hi[x >> 4]`.
//!
//! Both evaluate the same per-coefficient linear map, so they are
//! bit-identical.
//!
//! Every call runs on the calling thread, as ISA-L does on one core.
//!
//! Per-coefficient tables live in a lazily built, process-wide cache, so
//! encode, update and decode never rebuild tables — the seed implementation
//! rebuilt a 256-entry product table on *every* multiply-accumulate call. A
//! kernel call looks its tables up once and allocates nothing.

use std::sync::OnceLock;

use crate::gf256;

/// Broadcasts a byte into all eight lanes of a `u64`.
const fn broadcast(b: u8) -> u64 {
    0x0101_0101_0101_0101u64.wrapping_mul(b as u64)
}

/// Bit-plane mask: the least significant bit of every byte lane.
const LSB: u64 = broadcast(0x01);

/// Bytes per block of the [`encode`]/[`update`] fallback: small enough that
/// a block of every output (and of `update`'s delta) stays in L1 while each
/// source streams through.
const BLOCK: usize = 512;

/// Precomputed multiplication tables for one fixed coefficient — the cached
/// analogue of ISA-L's per-coefficient `gf_vect_mul` tables.
struct MulTable {
    /// The coefficient these tables multiply by.
    c: u8,
    /// `lo[n] = c·n` for `n in 0..16` — the `pshufb` low-nibble table.
    lo: [u8; 16],
    /// `hi[n] = c·(n << 4)` for `n in 0..16` — the high-nibble table.
    hi: [u8; 16],
    /// `bits[j] = c·2^j` broadcast into all eight byte lanes — the
    /// bit-plane constants of the portable u64 path.
    bits: [u64; 8],
}

impl MulTable {
    fn build(c: u8) -> MulTable {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for n in 0..16u8 {
            lo[n as usize] = gf256::mul(c, n);
            hi[n as usize] = gf256::mul(c, n << 4);
        }
        let mut bits = [0u64; 8];
        for (j, b) in bits.iter_mut().enumerate() {
            *b = broadcast(gf256::mul(c, 1 << j));
        }
        MulTable { c, lo, hi, bits }
    }

    /// Multiplies a single byte: `c·x` via the two nibble tables (the same
    /// lookup the SIMD shuffle performs per lane).
    #[inline]
    fn mul_byte(&self, x: u8) -> u8 {
        self.lo[(x & 0x0F) as usize] ^ self.hi[(x >> 4) as usize]
    }

    /// Multiplies eight bytes packed in a `u64`, lane-wise, using the
    /// bit-plane constants. Endianness-independent: every operation treats
    /// byte lanes independently.
    #[inline(always)]
    fn mul_word(&self, w: u64) -> u64 {
        let mut r = 0u64;
        let mut x = w;
        for j in 0..8 {
            // 0x01 per lane where bit j is set, widened to 0xFF per lane.
            let m = x & LSB;
            let full = (m << 8).wrapping_sub(m);
            r ^= full & self.bits[j];
            x >>= 1;
        }
        r
    }
}

/// One `OnceLock` slot per coefficient: threads race only on first use of a
/// given coefficient, and every later call is a single atomic load.
static TABLES: [OnceLock<MulTable>; 256] = [const { OnceLock::new() }; 256];

/// The process-wide multiplication table for coefficient `c`, built on first
/// use and shared forever after.
#[inline]
fn mul_table(c: u8) -> &'static MulTable {
    TABLES[c as usize].get_or_init(|| MulTable::build(c))
}

/// Whether the AVX2 [`encode`]/[`update`] kernels are compiled in *and*
/// usable on the running CPU. `false` means the portable blocked fallback
/// serves every call (the `simd` feature is off, the target is not x86-64,
/// or the CPU lacks AVX2).
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        x86::avx2()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// One-pass dot product (ISA-L's `ec_encode_data`): with `k = srcs.len()`,
/// `outs[j] = Σᵢ coeffs[j·k + i] · srcs[i]`, overwriting every output.
/// `coeffs` holds one row of `k` coefficients per output. A coefficient of
/// 1 is a plain XOR and 0 is skipped.
///
/// # Panics
///
/// Panics if `srcs` is empty, `coeffs.len() != k · outs.len()`, or any
/// buffer's length differs from `srcs[0].len()`.
pub fn encode(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    assert!(!srcs.is_empty(), "encode needs at least one source");
    assert_eq!(
        coeffs.len(),
        srcs.len() * outs.len(),
        "one coefficient per (output, source)"
    );
    let len = srcs[0].len();
    for s in srcs {
        assert_eq!(s.len(), len, "buffer length mismatch");
    }
    for o in outs.iter() {
        assert_eq!(o.len(), len, "buffer length mismatch");
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if x86::avx2() {
        x86::encode(coeffs, srcs, outs);
        return;
    }
    encode_blocked(coeffs, srcs, outs);
}

/// One-pass small-write parity update (ISA-L's `ec_encode_data_update`,
/// Algorithm 1's "ship the diff"): `δ = data ⊕ new`, then `data = new` and
/// `parity[j] ^= coeffs[j] · δ`, reading each stream once. A coefficient of
/// 1 is a plain XOR and 0 is skipped.
///
/// # Panics
///
/// Panics if `coeffs.len() != parity.len()` or any buffer's length differs
/// from `data.len()`.
pub fn update(coeffs: &[u8], data: &mut [u8], new: &[u8], parity: &mut [&mut [u8]]) {
    assert_eq!(coeffs.len(), parity.len(), "one coefficient per parity");
    assert_eq!(new.len(), data.len(), "buffer length mismatch");
    for p in parity.iter() {
        assert_eq!(p.len(), data.len(), "buffer length mismatch");
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if x86::avx2() && parity.len() <= x86::MAX_OUTS {
        x86::update(coeffs, data, new, parity);
        return;
    }
    update_blocked(coeffs, data, new, parity);
}

/// The [`encode`] fallback: per [`BLOCK`], every output is zeroed and
/// multiply-accumulated source by source.
fn encode_blocked(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
    let len = srcs[0].len();
    for lo in (0..len).step_by(BLOCK) {
        let r = lo..(lo + BLOCK).min(len);
        for (out, row) in outs.iter_mut().zip(coeffs.chunks_exact(srcs.len())) {
            let out = &mut out[r.clone()];
            out.fill(0);
            for (src, &c) in srcs.iter().zip(row) {
                mul_acc(out, &src[r.clone()], mul_table(c));
            }
        }
    }
}

/// The [`update`] fallback: per [`BLOCK`], the delta is formed in a stack
/// buffer and multiply-accumulated into each parity.
fn update_blocked(coeffs: &[u8], data: &mut [u8], new: &[u8], parity: &mut [&mut [u8]]) {
    let mut delta = [0u8; BLOCK];
    for lo in (0..data.len()).step_by(BLOCK) {
        let r = lo..(lo + BLOCK).min(data.len());
        let delta = &mut delta[..r.len()];
        delta.copy_from_slice(&data[r.clone()]);
        mul_acc(delta, &new[r.clone()], mul_table(1));
        data[r.clone()].copy_from_slice(&new[r.clone()]);
        for (p, &c) in parity.iter_mut().zip(coeffs) {
            mul_acc(&mut p[r.clone()], delta, mul_table(c));
        }
    }
}

/// The fallback's multiply-accumulate, `acc[i] ^= t.c·src[i]`, on `u64`
/// lanes. A coefficient of 1 is a plain XOR and 0 is skipped.
fn mul_acc(acc: &mut [u8], src: &[u8], t: &MulTable) {
    debug_assert_eq!(acc.len(), src.len(), "buffer length mismatch");
    match t.c {
        0 => {}
        1 => xor_lanes(acc, src, |w| w, |b| b),
        _ => xor_lanes(acc, src, |w| t.mul_word(w), |b| t.mul_byte(b)),
    }
}

/// `acc[i] ^= f(src[i])`: `word` maps eight bytes at a time, `byte` the
/// final `len % 8`.
#[inline(always)]
fn xor_lanes(acc: &mut [u8], src: &[u8], word: impl Fn(u64) -> u64, byte: impl Fn(u8) -> u8) {
    let mut a = acc.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (ac, sc) in a.by_ref().zip(s.by_ref()) {
        let av = u64::from_ne_bytes(ac.try_into().expect("chunk is 8 bytes"));
        let sv = u64::from_ne_bytes(sc.try_into().expect("chunk is 8 bytes"));
        ac.copy_from_slice(&(av ^ word(sv)).to_ne_bytes());
    }
    for (ac, &sc) in a.into_remainder().iter_mut().zip(s.remainder()) {
        *ac ^= byte(sc);
    }
}

/// Explicit AVX2 `pshufb` kernels — the instruction ISA-L builds its
/// GF(256) routines around. Semantically identical to the portable
/// fallback: both evaluate the same per-coefficient linear map, the shuffle
/// just evaluates 32 nibble lookups per instruction.
///
/// Raw SIMD intrinsics are the only `unsafe` in the crate, gated behind the
/// `simd` feature and a runtime CPU check.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod x86 {
    use super::{mul_table, MulTable};
    use std::arch::x86_64::*;

    /// Outputs whose accumulators one pass of [`encode`] keeps in
    /// registers; [`update`] takes at most this many parities.
    pub(super) const MAX_OUTS: usize = 4;
    /// Sources whose tables one pass of [`encode`] holds on the stack; a
    /// wider stripe takes a further, accumulating pass per group.
    const MAX_SRCS: usize = 16;
    /// Bytes per step of both kernels: one cache line of every stream.
    const LINE: usize = 64;
    /// How far ahead of its step each kernel prefetches every stream. The
    /// hardware prefetchers stop at each 4 KiB page, so on cold chunks they
    /// leave most lines to demand misses; prefetching this far ahead keeps
    /// lines of every stream in flight across page boundaries. Measured end
    /// to end at 512 B to 4 KiB: 2 KiB was best, 1 and 4 KiB within noise
    /// of it.
    const AHEAD: usize = 2048;

    /// Whether the running CPU runs the fused [`encode`] and [`update`]
    /// kernels.
    #[inline]
    pub(super) fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// A coefficient's two nibble tables, each broadcast into both 128-bit
    /// lanes of a vector for `pshufb`.
    #[derive(Clone, Copy)]
    struct Wide {
        c: u8,
        lo: __m256i,
        hi: __m256i,
    }

    impl Wide {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(t: &MulTable) -> Wide {
            // SAFETY: `lo`/`hi` are 16-byte arrays; the unaligned 128-bit
            // loads stay in bounds.
            let (lo, hi) = unsafe {
                (
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast())),
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast())),
                )
            };
            Wide { c: t.c, lo, hi }
        }
    }

    /// `acc[v] ^= t.c·x[v]` for `V` vectors whose low and high nibbles are
    /// `nib[v]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_acc_vectors<const V: usize>(
        t: &Wide,
        acc: &mut [__m256i; V],
        x: &[__m256i; V],
        nib: &[(__m256i, __m256i); V],
    ) {
        match t.c {
            0 => {}
            1 => {
                for (a, x) in acc.iter_mut().zip(x) {
                    *a = _mm256_xor_si256(*a, *x);
                }
            }
            _ => {
                for (a, &(lo_n, hi_n)) in acc.iter_mut().zip(nib) {
                    let prod = _mm256_xor_si256(
                        _mm256_shuffle_epi8(t.lo, lo_n),
                        _mm256_shuffle_epi8(t.hi, hi_n),
                    );
                    *a = _mm256_xor_si256(*a, prod);
                }
            }
        }
    }

    /// Low and high nibbles of every lane of `x`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn nibbles(x: __m256i) -> (__m256i, __m256i) {
        let mask = _mm256_set1_epi8(0x0F);
        (
            _mm256_and_si256(x, mask),
            _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask),
        )
    }

    /// The `V` vectors of `s` from `off` on.
    ///
    /// # Safety
    ///
    /// `off + 32·V` must not exceed `s.len()`.
    // SAFETY: an `unsafe fn` so the bound above is the caller's to keep.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load<const V: usize>(s: &[u8], off: usize) -> [__m256i; V] {
        // SAFETY: the caller keeps `off + 32·V` within `s`.
        std::array::from_fn(|v| unsafe { _mm256_loadu_si256(s.as_ptr().add(off + 32 * v).cast()) })
    }

    /// Stores `V` vectors into `s` from `off` on.
    ///
    /// # Safety
    ///
    /// `off + 32·V` must not exceed `s.len()`.
    // SAFETY: an `unsafe fn` so the bound above is the caller's to keep.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store<const V: usize>(s: &mut [u8], off: usize, x: &[__m256i; V]) {
        for (v, x) in x.iter().enumerate() {
            // SAFETY: the caller keeps `off + 32·V` within `s`.
            unsafe { _mm256_storeu_si256(s.as_mut_ptr().add(off + 32 * v).cast(), *x) };
        }
    }

    /// Prefetches the line of `s` holding byte `at` into every cache
    /// level. The kernels guard every call with `off + AHEAD < len`, so the
    /// line lies inside `s`; `wrapping_add` keeps the address computation
    /// defined even past the end, and a prefetch never faults.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn prefetch(s: &[u8], at: usize) {
        _mm_prefetch::<_MM_HINT_T0>(s.as_ptr().wrapping_add(at).cast());
    }

    /// [`super::encode`] on AVX2: outputs in groups of [`MAX_OUTS`], each
    /// group one pass over the sources.
    pub(super) fn encode(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
        let k = srcs.len();
        for (rows, outs) in coeffs.chunks(MAX_OUTS * k).zip(outs.chunks_mut(MAX_OUTS)) {
            // SAFETY: the caller checked AVX2 (`avx2()`), the callee's ISA.
            // One or two outputs leave registers to load a line of each
            // source at once.
            unsafe {
                match outs.len() {
                    1 => encode_group::<1, 2>(rows, srcs, outs),
                    2 => encode_group::<2, 2>(rows, srcs, outs),
                    3 => encode_group::<3, 1>(rows, srcs, outs),
                    _ => encode_group::<4, 1>(rows, srcs, outs),
                }
            }
        }
    }

    /// `N` outputs over every source, [`MAX_SRCS`] sources per pass, one
    /// [`LINE`] at a time in steps of `V` vectors; the first step of each
    /// line prefetches every stream [`AHEAD`].
    #[target_feature(enable = "avx2")]
    fn encode_group<const N: usize, const V: usize>(
        rows: &[u8],
        srcs: &[&[u8]],
        outs: &mut [&mut [u8]],
    ) {
        let k = srcs.len();
        for (g, group) in srcs.chunks(MAX_SRCS).enumerate() {
            let mut terms = [[mul_table(0); N]; MAX_SRCS];
            for (i, col) in terms.iter_mut().take(group.len()).enumerate() {
                for (j, t) in col.iter_mut().enumerate() {
                    *t = mul_table(rows[j * k + g * MAX_SRCS + i]);
                }
            }
            let terms = &terms[..group.len()];
            let accumulate = g > 0;
            let len = group[0].len();
            let mut off = 0;
            while off + LINE <= len {
                let ahead = off + AHEAD < len;
                for at in (off..off + LINE).step_by(32 * V) {
                    let ahead = ahead && at == off;
                    // SAFETY: `at + 32·V <= off + LINE <= len`, the length
                    // of every buffer.
                    unsafe { encode_step::<N, V>(terms, group, outs, at, accumulate, ahead) };
                }
                off += LINE;
            }
            if off + 32 <= len {
                // SAFETY: as above, one vector.
                unsafe { encode_step::<N, 1>(terms, group, outs, off, accumulate, false) };
                off += 32;
            }
            for x in off..len {
                for (j, o) in outs.iter_mut().enumerate() {
                    let init = if accumulate { o[x] } else { 0 };
                    o[x] = group
                        .iter()
                        .zip(terms)
                        .fold(init, |v, (src, col)| v ^ col[j].mul_byte(src[x]));
                }
            }
        }
    }

    /// One interleaved step over `32·V` bytes at `off`: every source is
    /// loaded once and multiplied into `N × V` register accumulators, which
    /// start from zero or, with `accumulate`, from the outputs. With
    /// `ahead`, it also prefetches each stream at `off + AHEAD`, which the
    /// caller keeps below the streams' length.
    ///
    /// # Safety
    ///
    /// `off + 32·V` must not exceed the length of any source or output.
    // SAFETY: an `unsafe fn` so the bounds above are the caller's to keep;
    // every load and store below relies on them.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn encode_step<const N: usize, const V: usize>(
        terms: &[[&MulTable; N]],
        srcs: &[&[u8]],
        outs: &mut [&mut [u8]],
        off: usize,
        accumulate: bool,
        ahead: bool,
    ) {
        // SAFETY: the caller keeps `off + 32·V` within every source and
        // output, which is all `load` and `store` require.
        unsafe {
            let mut acc = [[_mm256_setzero_si256(); V]; N];
            if accumulate {
                for (a, o) in acc.iter_mut().zip(outs.iter()) {
                    *a = load(o, off);
                }
            }
            for (src, col) in srcs.iter().zip(terms) {
                if ahead {
                    prefetch(src, off + AHEAD);
                }
                let x: [__m256i; V] = load(src, off);
                let nib = x.map(|x| nibbles(x));
                for (a, t) in acc.iter_mut().zip(col) {
                    mul_acc_vectors(&Wide::new(t), a, &x, &nib);
                }
            }
            for (a, o) in acc.iter().zip(outs.iter_mut()) {
                if ahead {
                    prefetch(o, off + AHEAD);
                }
                store(o, off, a);
            }
        }
    }

    /// [`super::update`] on AVX2, for at most [`MAX_OUTS`] parities.
    pub(super) fn update(coeffs: &[u8], data: &mut [u8], new: &[u8], parity: &mut [&mut [u8]]) {
        // SAFETY: the caller checked AVX2 (`avx2()`), the callee's ISA.
        unsafe {
            match parity.len() {
                0 => update_pass::<0>(coeffs, data, new, parity),
                1 => update_pass::<1>(coeffs, data, new, parity),
                2 => update_pass::<2>(coeffs, data, new, parity),
                3 => update_pass::<3>(coeffs, data, new, parity),
                _ => update_pass::<4>(coeffs, data, new, parity),
            }
        }
    }

    /// `N` parities, one [`LINE`] of every stream per step, with the
    /// tables in registers for the whole pass; each step prefetches every
    /// stream [`AHEAD`]. With `N = 0` it is the copy `data = new`.
    #[target_feature(enable = "avx2")]
    fn update_pass<const N: usize>(
        coeffs: &[u8],
        data: &mut [u8],
        new: &[u8],
        parity: &mut [&mut [u8]],
    ) {
        let coeffs: &[u8; N] = coeffs.try_into().expect("one coefficient per parity");
        let parity: &mut [&mut [u8]; N] =
            parity.try_into().expect("dispatched on the parity count");
        let terms = coeffs.map(mul_table);
        let wide = terms.map(|t| Wide::new(t));
        let len = data.len();
        let mut off = 0;
        while off + LINE <= len {
            let ahead = off + AHEAD < len;
            // SAFETY: `off + LINE <= len`, and `new` and every parity are
            // `len` long (the public entry point asserts it).
            unsafe { update_step::<N, 2>(&wide, data, new, parity, off, ahead) };
            off += LINE;
        }
        if off + 32 <= len {
            // SAFETY: as above, one vector.
            unsafe { update_step::<N, 1>(&wide, data, new, parity, off, false) };
            off += 32;
        }
        for x in off..len {
            let delta = data[x] ^ new[x];
            data[x] = new[x];
            for (p, t) in parity.iter_mut().zip(terms) {
                p[x] ^= t.mul_byte(delta);
            }
        }
    }

    /// One step over `32·V` bytes at `off`: load the old and new data,
    /// store the new, and fold the delta into every parity. With `ahead`,
    /// it also prefetches each stream at `off + AHEAD`, which the caller
    /// keeps below the streams' length.
    ///
    /// # Safety
    ///
    /// `off + 32·V` must not exceed the length of `data`, `new` or any
    /// parity.
    // SAFETY: an `unsafe fn` so the bounds above are the caller's to keep;
    // every load and store below relies on them.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn update_step<const N: usize, const V: usize>(
        terms: &[Wide; N],
        data: &mut [u8],
        new: &[u8],
        parity: &mut [&mut [u8]; N],
        off: usize,
        ahead: bool,
    ) {
        // SAFETY: the caller keeps `off + 32·V` within `data`, `new` and
        // every parity, which is all `load` and `store` require.
        unsafe {
            if ahead {
                prefetch(data, off + AHEAD);
                prefetch(new, off + AHEAD);
            }
            let (old, n): ([__m256i; V], [__m256i; V]) = (load(data, off), load(new, off));
            store(data, off, &n);
            let delta: [__m256i; V] = std::array::from_fn(|v| _mm256_xor_si256(old[v], n[v]));
            let nib = delta.map(|x| nibbles(x));
            for (p, t) in parity.iter_mut().zip(terms) {
                if ahead {
                    prefetch(p, off + AHEAD);
                }
                let mut acc = load(p, off);
                mul_acc_vectors(t, &mut acc, &delta, &nib);
                store(p, off, &acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(167).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn table_matches_field_multiply() {
        for c in [0u8, 1, 2, 0x1D, 0x80, 0xFF] {
            let t = mul_table(c);
            assert_eq!(t.c, c);
            for x in 0..=255u8 {
                assert_eq!(t.mul_byte(x), gf256::mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn cache_returns_same_table() {
        let a = mul_table(0x57) as *const MulTable;
        let b = mul_table(0x57) as *const MulTable;
        assert_eq!(a, b, "second lookup hits the cache");
    }

    #[test]
    fn mul_word_matches_bytewise() {
        for c in [2u8, 0x1D, 0xC3] {
            let t = mul_table(c);
            let src = buf(8, c);
            let w = u64::from_ne_bytes(src[..8].try_into().expect("8 bytes"));
            let got = t.mul_word(w).to_ne_bytes();
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(got[i], gf256::mul(c, s), "c={c} lane={i}");
            }
        }
    }

    #[test]
    fn concurrent_kernel_callers_get_the_reference_bytes() {
        // Two threads each make hundreds of long-stream calls of both
        // kernels at once, sharing the process-wide coefficient-table cache
        // (and racing to build any table neither has used yet). Every result
        // must still be the portable reference's.
        struct Case {
            coeffs: Vec<u8>,
            srcs: Vec<Vec<u8>>,
            encoded: Vec<Vec<u8>>,
            updated: Vec<Vec<u8>>,
        }
        let cases: Vec<Case> = [64 * 1024, 64 * 1024 + 37, 100_000, 128 * 1024]
            .into_iter()
            .enumerate()
            .map(|(n, len)| {
                let srcs: Vec<Vec<u8>> = (0..6u8).map(|i| buf(len, 29 * i + n as u8)).collect();
                let refs: Vec<&[u8]> = srcs.iter().map(|s| &s[..]).collect();
                let coeffs: Vec<u8> = (0..12u8).map(|c| c.wrapping_mul(37) ^ n as u8).collect();
                let mut encoded = vec![vec![0u8; len]; 2];
                encode_blocked(
                    &coeffs,
                    &refs,
                    &mut encoded.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
                );
                // `update(data = srcs[0], new = srcs[1])` into the encoded
                // rows: parity ^= c·(data ⊕ new).
                let mut updated = encoded.clone();
                for (p, &c) in updated.iter_mut().zip(&coeffs[..2]) {
                    gf256::mul_acc_ref(p, &srcs[0], c);
                    gf256::mul_acc_ref(p, &srcs[1], c);
                }
                Case {
                    coeffs,
                    srcs,
                    encoded,
                    updated,
                }
            })
            .collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2usize {
                let (cases, start) = (&cases, &start);
                scope.spawn(move || {
                    start.wait();
                    for call in 0..300 {
                        let case = &cases[(call + t) % cases.len()];
                        let len = case.srcs[0].len();
                        let refs: Vec<&[u8]> = case.srcs.iter().map(|s| &s[..]).collect();
                        let mut outs = vec![vec![0xA5u8; len]; 2];
                        encode(
                            &case.coeffs,
                            &refs,
                            &mut outs.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
                        );
                        assert_eq!(outs, case.encoded, "encode: thread {t} call {call}");
                        let mut data = case.srcs[0].clone();
                        update(
                            &case.coeffs[..2],
                            &mut data,
                            &case.srcs[1],
                            &mut outs.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
                        );
                        assert_eq!(data, case.srcs[1], "update data: thread {t} call {call}");
                        assert_eq!(outs, case.updated, "update: thread {t} call {call}");
                    }
                });
            }
        });
    }

    #[test]
    fn blocked_fallbacks_match_scalar_across_block_edges() {
        // The fused kernels serve `encode`/`update` on AVX2 machines, so
        // drive the fallback directly: every coefficient (0 skipped, 1 a
        // plain XOR, the rest through `mul_word`), at lengths with every
        // `len % 8` tail and across BLOCK boundaries.
        let lengths = [
            0usize,
            1,
            3,
            7,
            8,
            9,
            15,
            17,
            33,
            63,
            65,
            100,
            255,
            BLOCK - 1,
            BLOCK,
            BLOCK + 33,
            3 * BLOCK + 7,
        ];
        for c in 0..=255u8 {
            for len in lengths {
                let srcs: Vec<Vec<u8>> = (0..3u8)
                    .map(|i| buf(len, (40 * i).wrapping_add(c)))
                    .collect();
                let refs: Vec<&[u8]> = srcs.iter().map(|s| &s[..]).collect();
                let coeffs = [c, 1, 0, 0x8E, c, 2];
                let mut outs = vec![vec![0xA5u8; len]; 2];
                encode_blocked(
                    &coeffs,
                    &refs,
                    &mut outs.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
                );
                for (j, out) in outs.iter().enumerate() {
                    let mut expect = vec![0u8; len];
                    for (i, s) in refs.iter().enumerate() {
                        gf256::mul_acc_ref(&mut expect, s, coeffs[j * 3 + i]);
                    }
                    assert_eq!(*out, expect, "encode c={c} len={len} out={j}");
                }

                let (mut data, new) = (srcs[0].clone(), srcs[1].clone());
                let mut expect = outs.clone();
                for (p, c) in expect.iter_mut().zip([c, 1]) {
                    gf256::mul_acc_ref(p, &data, c);
                    gf256::mul_acc_ref(p, &new, c);
                }
                update_blocked(
                    &[c, 1],
                    &mut data,
                    &new,
                    &mut outs.iter_mut().map(|o| &mut o[..]).collect::<Vec<_>>(),
                );
                assert_eq!(
                    data, new,
                    "update c={c} len={len}: data takes the new bytes"
                );
                assert_eq!(outs, expect, "update c={c} len={len}");
            }
        }
    }
}
