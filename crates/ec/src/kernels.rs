//! Wide GF(256) kernels and the process-wide coefficient-table cache.
//!
//! The paper's dRAID prototype offloads parity math to ISA-L's SIMD
//! GF(256) kernels so that erasure coding never throttles the NIC/drive
//! rate servers. This module is the reproduction's equivalent: the same
//! split-nibble technique ISA-L drives with `pshufb`, behind three entry
//! points, the analogues of ISA-L's `ec_encode_data` and
//! `ec_encode_data_update` plus a copy:
//!
//! * [`encode`], a dot product: `outs[j] = Σᵢ c[j][i]·srcs[i]` — RAID-5/6
//!   parity, Reed-Solomon decode, any `m`;
//! * [`update`], Algorithm 1's "ship the diff" at byte level:
//!   `δ = data ⊕ new`, `data = new`, `parity[j] ^= c_j·δ`;
//! * [`copy`], the healthy segments of a read.
//!
//! [`encode`] and [`update`] read every source and write every output once,
//! interleaved. On chunks that are not in cache, one pass over all streams
//! at once keeps several cache-line misses in flight, where a pass per
//! source waits on one stream at a time and re-reads the outputs on every
//! pass. Each has two implementations:
//!
//! * an **AVX2 `pshufb` path** behind the `simd` feature (on by default,
//!   runtime-detected): the classic two-16-entry-table shuffle, 32 products
//!   per instruction, interleaved 32 bytes at a time (64 for one or two
//!   outputs); each source vector is multiplied into up to four output
//!   accumulators held in registers;
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
//! With the `simd` feature, [`encode`], [`update`] and [`copy`] split every
//! stream of at least 64 KiB at a 64-byte-aligned midpoint and run the upper
//! half on one persistent helper thread, spawned on first use on a machine
//! with two or more hardware threads. A core streaming cold chunks is bound
//! by the misses it keeps in flight, so a second core nearly doubles the
//! rate. GF(256) math is per-byte, so the halves produce exactly the serial
//! bytes. Shorter streams, a busy helper, and `--no-default-features` builds
//! run on the calling thread.
//!
//! Per-coefficient tables live in a lazily built, process-wide cache, so
//! encode, update and decode never rebuild tables — the seed implementation
//! rebuilt a 256-entry product table on *every* multiply-accumulate call. A
//! kernel call looks its tables up once and allocates nothing, on the split
//! path too.

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
    #[cfg(feature = "simd")]
    if let Some(mid) = fork::split(len)
        .filter(|_| srcs.len() <= fork::SPLIT_SRCS && outs.len() <= fork::SPLIT_OUTS)
    {
        let (k, m) = (srcs.len(), outs.len());
        let mut lo_srcs = [&[][..]; fork::SPLIT_SRCS];
        let mut hi_srcs = lo_srcs;
        for ((s, lo), hi) in srcs.iter().zip(&mut lo_srcs).zip(&mut hi_srcs) {
            (*lo, *hi) = s.split_at(mid);
        }
        let [mut lo_outs, mut hi_outs] = fork::split_outs(outs, mid);
        fork::join(
            || encode_serial(coeffs, &lo_srcs[..k], &mut lo_outs[..m]),
            || encode_serial(coeffs, &hi_srcs[..k], &mut hi_outs[..m]),
        );
        return;
    }
    encode_serial(coeffs, srcs, outs);
}

/// [`encode`] on the calling thread.
fn encode_serial(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
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
    #[cfg(feature = "simd")]
    if let Some(mid) = fork::split(data.len()).filter(|_| parity.len() <= fork::SPLIT_OUTS) {
        let m = parity.len();
        let (lo_data, hi_data) = data.split_at_mut(mid);
        let (lo_new, hi_new) = new.split_at(mid);
        let [mut lo_par, mut hi_par] = fork::split_outs(parity, mid);
        fork::join(
            || update_serial(coeffs, lo_data, lo_new, &mut lo_par[..m]),
            || update_serial(coeffs, hi_data, hi_new, &mut hi_par[..m]),
        );
        return;
    }
    update_serial(coeffs, data, new, parity);
}

/// [`update`] on the calling thread.
fn update_serial(coeffs: &[u8], data: &mut [u8], new: &[u8], parity: &mut [&mut [u8]]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if x86::avx2() && parity.len() <= x86::MAX_OUTS {
        x86::update(coeffs, data, new, parity);
        return;
    }
    update_blocked(coeffs, data, new, parity);
}

/// `dst.copy_from_slice(src)`, a long slice split between two cores like
/// the streams of [`encode`]: the chunk store copies a healthy read segment
/// with it, a cold stream like any parity source.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn copy(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "buffer length mismatch");
    #[cfg(feature = "simd")]
    if let Some(mid) = fork::split(dst.len()) {
        let (lo_dst, hi_dst) = dst.split_at_mut(mid);
        let (lo_src, hi_src) = src.split_at(mid);
        fork::join(
            || lo_dst.copy_from_slice(lo_src),
            || hi_dst.copy_from_slice(hi_src),
        );
        return;
    }
    dst.copy_from_slice(src);
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

/// A two-way fork-join over one persistent helper thread: [`encode`],
/// [`update`] and [`copy`] hand the upper half of a long stream to it.
///
/// One core streaming cold chunks is limited by the cache-line misses it
/// can keep in flight, not by DRAM bandwidth, so a second core on the other
/// half nearly doubles the rate. A `thread::scope` spawn per call costs
/// tens of microseconds, as much as the half it would run; this helper is
/// spawned once, lazily, and only on a machine with at least two hardware
/// threads.
///
/// The protocol is a state machine on one atomic, `IDLE → OWNED → POSTED`,
/// then either `→ CLAIMED → DONE → IDLE` (the helper ran the half) or
/// `→ IDLE` (the caller took it back unrun):
///
/// * a caller takes the slot (`IDLE → OWNED`), writes a pointer to its
///   second half, which lives on its own stack, and posts it; a caller that
///   finds the slot taken runs both halves itself;
/// * the helper claims a posted half (`POSTED → CLAIMED`), runs it under
///   `catch_unwind`, stores any panic next to it and marks it `DONE`;
/// * the caller runs its first half under `catch_unwind`, then steals the
///   second half back if it is still unclaimed (`POSTED → IDLE`) or waits
///   for `DONE`. Only then does it return or resume a panic, so the helper
///   is finished with every borrow before the caller's frame goes away.
///
/// The helper spins a bounded number of iterations (no clock reads) after
/// each half, then parks on a `Condvar` until the next post. It is never
/// joined: it lives as long as the process, and it runs every half under
/// `catch_unwind`, so no panic is lost with it.
#[cfg(feature = "simd")]
#[allow(unsafe_code)]
mod fork {
    use std::any::Any;
    use std::cell::UnsafeCell;
    use std::hint::spin_loop;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

    /// Streams shorter than twice this run on the calling thread: below it,
    /// handing a half over costs more than it saves.
    pub(super) const SPLIT_MIN: usize = 32 * 1024;
    /// Outputs a split call carries (on the stack, without allocating);
    /// wider calls stay serial.
    pub(super) const SPLIT_OUTS: usize = 4;
    /// Sources a split [`super::encode`] carries; wider calls stay serial.
    pub(super) const SPLIT_SRCS: usize = 32;
    /// Iterations the helper spins on the slot before parking: about 40 µs
    /// on a 2-vCPU Xeon VM, longer than most gaps between the chunk
    /// store's kernel calls.
    const SPIN: u32 = 2048;
    /// The spinning helper yields every this many iterations, and a caller
    /// waiting on a claimed half spins this many before it yields. When the
    /// scheduler has put both threads on one core (it may keep them there
    /// for a second after the helper starts), a yield hands the core to the
    /// thread with work instead of burning its time slice.
    const YIELD_EVERY: u32 = 64;

    const IDLE: u8 = 0;
    const OWNED: u8 = 1;
    const POSTED: u8 = 2;
    const CLAIMED: u8 = 3;
    const DONE: u8 = 4;

    type Panic = Box<dyn Any + Send>;

    /// Where a stream of `len` bytes splits: a 64-byte-aligned midpoint,
    /// or `None` for a stream too short to split.
    pub(super) fn split(len: usize) -> Option<usize> {
        (len >= 2 * SPLIT_MIN).then_some((len / 2) & !63)
    }

    /// Each of up to [`SPLIT_OUTS`] buffers cut at `mid`, the low and the
    /// high parts in two stack arrays (unused entries empty).
    pub(super) fn split_outs<'a>(
        outs: &'a mut [&mut [u8]],
        mid: usize,
    ) -> [[&'a mut [u8]; SPLIT_OUTS]; 2] {
        let mut lo: [&mut [u8]; SPLIT_OUTS] = Default::default();
        let mut hi: [&mut [u8]; SPLIT_OUTS] = Default::default();
        for ((o, lo), hi) in outs.iter_mut().zip(&mut lo).zip(&mut hi) {
            (*lo, *hi) = o.split_at_mut(mid);
        }
        [lo, hi]
    }

    /// A posted half, type-erased: a pointer to a [`Half`] on the caller's
    /// stack and the function that runs it.
    #[derive(Clone, Copy)]
    struct HalfRef {
        half: *const (),
        // SAFETY: `run` is only ever `run::<F>` for the `F` of `half`, or
        // `run_nothing`; see `run` for its contract.
        run: unsafe fn(*const ()),
    }

    /// The second half of a `join`, and its panic if it had one.
    struct Half<F> {
        f: UnsafeCell<Option<F>>,
        panic: UnsafeCell<Option<Panic>>,
    }

    /// Runs the [`Half<F>`] at `half` and records its panic.
    ///
    /// # Safety
    ///
    /// `half` must point to a live `Half<F>` that no other thread touches
    /// until this returns.
    // SAFETY: an `unsafe fn` so the exclusivity above is the caller's to
    // keep; the helper keeps it by claiming the half first.
    unsafe fn run<F: FnOnce()>(half: *const ()) {
        // SAFETY: the caller guarantees a live, unshared `Half<F>`.
        let half = unsafe { &*half.cast::<Half<F>>() };
        // SAFETY: as above, nothing else touches the cells meanwhile.
        let f = unsafe { (*half.f.get()).take() }.expect("a half runs once");
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(f)) {
            // SAFETY: as above.
            unsafe { *half.panic.get() = Some(p) };
        }
    }

    /// Placeholder in the slot before the first post.
    // SAFETY: never called (nothing is claimed before the first post), and
    // touches nothing if it were.
    unsafe fn run_nothing(_: *const ()) {}

    struct Helper {
        state: AtomicU8,
        slot: UnsafeCell<HalfRef>,
        sleeping: AtomicBool,
        lock: Mutex<()>,
        wake: Condvar,
    }

    // SAFETY: `slot` is written only by the thread that moved `state` from
    // IDLE to OWNED, before its release store of POSTED, and read only by
    // the helper after its acquire `POSTED → CLAIMED`; the pointee is a
    // `Half<F>` with `F: Send`. Every other field is thread-safe.
    unsafe impl Sync for Helper {}

    static HELPER: Helper = Helper {
        state: AtomicU8::new(IDLE),
        slot: UnsafeCell::new(HalfRef {
            half: std::ptr::null(),
            run: run_nothing,
        }),
        sleeping: AtomicBool::new(false),
        lock: Mutex::new(()),
        wake: Condvar::new(),
    };

    /// The helper, spawned on first use if the machine has at least two
    /// hardware threads.
    fn helper() -> Option<&'static Helper> {
        static UP: OnceLock<bool> = OnceLock::new();
        let up = *UP.get_or_init(|| {
            std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
                && std::thread::Builder::new()
                    .name("draid-ec-helper".into())
                    .spawn(|| serve(&HELPER))
                    .is_ok()
        });
        up.then_some(&HELPER)
    }

    /// The helper's loop: wait for a posted half, claim it, run it.
    fn serve(h: &Helper) {
        loop {
            let mut spins = 0;
            while h.state.load(Ordering::Relaxed) != POSTED {
                if spins < SPIN {
                    spins += 1;
                    spin_loop();
                    if spins % YIELD_EVERY == 0 {
                        std::thread::yield_now();
                    }
                    continue;
                }
                let mut guard = h.lock.lock().unwrap_or_else(PoisonError::into_inner);
                // Paired with `join`'s SeqCst post and `sleeping` load:
                // either it sees this flag and notifies under the lock, or
                // the check below sees its post.
                h.sleeping.store(true, Ordering::SeqCst);
                while h.state.load(Ordering::SeqCst) != POSTED {
                    guard = h.wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
                h.sleeping.store(false, Ordering::Relaxed);
            }
            if h.state
                .compare_exchange(POSTED, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the claim makes this thread the slot's only
                // reader, and its acquire orders the poster's write first.
                let half = unsafe { *h.slot.get() };
                // SAFETY: the poster keeps the half alive and untouched
                // until it sees DONE.
                unsafe { (half.run)(half.half) };
                h.state.store(DONE, Ordering::Release);
            }
        }
    }

    /// Runs `a` and `b`, `b` on the helper when it is free, and returns
    /// once both are done. A panic in either is resumed here, `a`'s first.
    pub(super) fn join<A: FnOnce(), B: FnOnce() + Send>(a: A, b: B) {
        let Some(h) = helper().filter(|h| {
            h.state
                .compare_exchange(IDLE, OWNED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        }) else {
            a();
            b();
            return;
        };
        let half = Half {
            f: UnsafeCell::new(Some(b)),
            panic: UnsafeCell::new(None),
        };
        // SAFETY: OWNED makes this thread the slot's only writer, and the
        // helper reads it only after the post below.
        unsafe {
            *h.slot.get() = HalfRef {
                half: (&half as *const Half<B>).cast(),
                run: run::<B>,
            }
        };
        h.state.store(POSTED, Ordering::SeqCst);
        if h.sleeping.load(Ordering::SeqCst) {
            let _guard = h.lock.lock().unwrap_or_else(PoisonError::into_inner);
            h.wake.notify_one();
        }
        let a_done = panic::catch_unwind(AssertUnwindSafe(a));
        let b_done = if h
            .state
            .compare_exchange(POSTED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // Never claimed: the helper will not touch `half` again.
            let f = half.f.into_inner().expect("an unclaimed half is unrun");
            panic::catch_unwind(AssertUnwindSafe(f))
        } else {
            let mut spins = 0;
            while h.state.load(Ordering::Acquire) != DONE {
                if spins < YIELD_EVERY {
                    spins += 1;
                    spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            // The acquire load of DONE orders the helper's panic write
            // before this read, and the helper is done with `half`.
            let p = half.panic.into_inner();
            h.state.store(IDLE, Ordering::Release);
            p.map_or(Ok(()), Err)
        };
        if let Err(p) = a_done.and(b_done) {
            panic::resume_unwind(p);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread::{self, ThreadId};
        use std::time::{Duration, Instant};

        #[test]
        fn split_points_are_aligned_and_leave_short_streams_whole() {
            assert_eq!(split(2 * SPLIT_MIN - 1), None);
            for len in [
                2 * SPLIT_MIN,
                2 * SPLIT_MIN + 1,
                2 * SPLIT_MIN + 63,
                1 << 20,
                999_999,
            ] {
                let mid = split(len).expect("long enough to split");
                assert_eq!(mid % 64, 0, "len {len}");
                assert!(
                    mid >= SPLIT_MIN - 64 && mid <= len / 2,
                    "len {len}: mid {mid}"
                );
            }
        }

        #[test]
        fn join_runs_both_halves() {
            for n in 0..200u64 {
                let (mut x, mut y) = (0, 0);
                join(|| x = n * 3, || y = n * 5);
                assert_eq!((x, y), (n * 3, n * 5));
            }
        }

        #[test]
        fn a_panic_in_either_half_reaches_the_caller_and_join_still_works() {
            for first in [true, false] {
                let hit = panic::catch_unwind(|| {
                    join(
                        || assert!(!first, "first half"),
                        || assert!(first, "second half"),
                    )
                });
                let msg = hit.expect_err("the panic propagates");
                let msg = msg.downcast_ref::<&str>().copied().unwrap_or_default();
                let want = if first { "first half" } else { "second half" };
                assert!(msg.contains(want), "{msg:?}");
                let mut y = 0;
                join(|| {}, || y = 7);
                assert_eq!(y, 7, "join works after a panic");
            }
        }

        #[test]
        fn a_join_while_the_helper_is_busy_runs_inline() {
            let Some(_) = helper() else {
                return; // one hardware thread: every join is inline
            };
            let me = thread::current().id();
            // Retry until the outer half lands on the helper: another test
            // may hold the slot when this one posts.
            for _ in 0..100 {
                let outer: Mutex<Option<ThreadId>> = Mutex::new(None);
                let mut nested: Vec<ThreadId> = Vec::new();
                join(
                    || {
                        let t = Instant::now();
                        while outer.lock().expect("lock").is_none()
                            && t.elapsed() < Duration::from_millis(200)
                        {
                            thread::yield_now();
                        }
                        let (mut x, mut y) = (None, None);
                        join(
                            || x = Some(thread::current().id()),
                            || y = Some(thread::current().id()),
                        );
                        nested.extend(x.into_iter().chain(y));
                    },
                    || *outer.lock().expect("lock") = Some(thread::current().id()),
                );
                if outer.into_inner().expect("lock") != Some(me) {
                    assert_eq!(nested, [me, me], "a busy helper runs both halves inline");
                    return;
                }
            }
            panic!("the helper never claimed a half");
        }
    }
}

/// Explicit AVX2 `pshufb` kernels — the instruction ISA-L builds its
/// GF(256) routines around. Semantically identical to the portable
/// fallback: both evaluate the same per-coefficient linear map, the shuffle
/// just evaluates 32 nibble lookups per instruction.
///
/// Raw SIMD intrinsics are, with the [`fork`] helper's hand-off, the only
/// `unsafe` in the crate, gated behind the `simd` feature and a runtime CPU
/// check.
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

    /// Whether the running CPU runs the fused [`encode`] and [`update`]
    /// kernels.
    #[inline]
    pub(super) fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// `acc[v] ^= t.c·x[v]` for `V` vectors whose low and high nibbles are
    /// `nib[v]`, loading the tables once for all of them.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_acc_vectors<const V: usize>(
        t: &MulTable,
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
                // SAFETY: `lo`/`hi` are 16-byte arrays; the unaligned
                // 128-bit loads stay in bounds.
                let (lo, hi) = unsafe {
                    (
                        _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast())),
                        _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast())),
                    )
                };
                for (a, &(lo_n, hi_n)) in acc.iter_mut().zip(nib) {
                    let prod = _mm256_xor_si256(
                        _mm256_shuffle_epi8(lo, lo_n),
                        _mm256_shuffle_epi8(hi, hi_n),
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

    /// [`super::encode`] on AVX2: outputs in groups of [`MAX_OUTS`], each
    /// group one pass over the sources.
    pub(super) fn encode(coeffs: &[u8], srcs: &[&[u8]], outs: &mut [&mut [u8]]) {
        let k = srcs.len();
        for (rows, outs) in coeffs.chunks(MAX_OUTS * k).zip(outs.chunks_mut(MAX_OUTS)) {
            // SAFETY: the caller checked AVX2 (`avx2()`), the callee's ISA.
            // One or two outputs leave registers to step 64 bytes at a time.
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

    /// `N` outputs over every source, [`MAX_SRCS`] sources per pass, `V`
    /// vectors per step.
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
            while off + 32 * V <= len {
                // SAFETY: `off + 32·V <= len`, the length of every buffer.
                unsafe { encode_step::<N, V>(terms, group, outs, off, accumulate) };
                off += 32 * V;
            }
            while off + 32 <= len {
                // SAFETY: as above, one vector at a time.
                unsafe { encode_step::<N, 1>(terms, group, outs, off, accumulate) };
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
    /// start from zero or, with `accumulate`, from the outputs.
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
    ) {
        let mut acc = [[_mm256_setzero_si256(); V]; N];
        if accumulate {
            for (a, o) in acc.iter_mut().zip(outs.iter()) {
                for (v, a) in a.iter_mut().enumerate() {
                    // SAFETY: the caller keeps `off + 32·V` within `o`.
                    *a = unsafe { _mm256_loadu_si256(o.as_ptr().add(off + 32 * v).cast()) };
                }
            }
        }
        for (src, col) in srcs.iter().zip(terms) {
            // SAFETY: the caller keeps `off + 32·V` within `src`.
            let x: [__m256i; V] = std::array::from_fn(|v| unsafe {
                _mm256_loadu_si256(src.as_ptr().add(off + 32 * v).cast())
            });
            let nib = x.map(|x| nibbles(x));
            for (a, t) in acc.iter_mut().zip(col) {
                mul_acc_vectors(t, a, &x, &nib);
            }
        }
        for (a, o) in acc.iter().zip(outs.iter_mut()) {
            for (v, a) in a.iter().enumerate() {
                // SAFETY: the caller keeps `off + 32·V` within `o`.
                unsafe { _mm256_storeu_si256(o.as_mut_ptr().add(off + 32 * v).cast(), *a) };
            }
        }
    }

    /// [`super::update`] on AVX2, for at most [`MAX_OUTS`] parities.
    pub(super) fn update(coeffs: &[u8], data: &mut [u8], new: &[u8], parity: &mut [&mut [u8]]) {
        let mut terms = [mul_table(0); MAX_OUTS];
        for (t, &c) in terms.iter_mut().zip(coeffs) {
            *t = mul_table(c);
        }
        // SAFETY: the caller checked AVX2 (`avx2()`), the callee's ISA.
        unsafe { update_pass(&terms[..parity.len()], data, new, parity) }
    }

    /// Per 32 bytes: load the old and new data, store the new, and fold the
    /// delta into every parity.
    #[target_feature(enable = "avx2")]
    fn update_pass(terms: &[&MulTable], data: &mut [u8], new: &[u8], parity: &mut [&mut [u8]]) {
        let len = data.len();
        let wide = len / 32 * 32;
        let mut off = 0;
        while off < wide {
            // SAFETY: `off + 32 <= wide <= len`, and `new` and every parity
            // are `len` long (the public entry point asserts it), so every
            // unaligned 256-bit load/store stays in bounds.
            unsafe {
                let old = _mm256_loadu_si256(data.as_ptr().add(off).cast());
                let n = _mm256_loadu_si256(new.as_ptr().add(off).cast());
                _mm256_storeu_si256(data.as_mut_ptr().add(off).cast(), n);
                let delta = [_mm256_xor_si256(old, n)];
                let nib = [nibbles(delta[0])];
                for (p, t) in parity.iter_mut().zip(terms) {
                    let at = p.as_mut_ptr().add(off).cast();
                    let mut acc = [_mm256_loadu_si256(at)];
                    mul_acc_vectors(t, &mut acc, &delta, &nib);
                    _mm256_storeu_si256(at, acc[0]);
                }
            }
            off += 32;
        }
        for x in wide..len {
            let delta = data[x] ^ new[x];
            data[x] = new[x];
            for (p, t) in parity.iter_mut().zip(terms) {
                p[x] ^= t.mul_byte(delta);
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
    fn concurrent_callers_of_split_kernels_get_the_reference_bytes() {
        // Two threads race for the one fork helper: each makes hundreds of
        // split-size calls of all three kernels, and the caller that loses
        // the slot runs both halves inline. Every result must still be the
        // portable reference's, whichever thread ran which half.
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
                        let mut copied = vec![0u8; len];
                        copy(&mut copied, &case.srcs[2]);
                        assert_eq!(copied, case.srcs[2], "copy: thread {t} call {call}");
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
