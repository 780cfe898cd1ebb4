//! Seeded bounded-interleaving concurrency stress.
//!
//! Real thread schedules cannot be enumerated from safe code, but they
//! *can* be perturbed: each run derives per-(seed, index) jitter from a
//! splitmix64 stream and spends it as spin-loops and yields inside the
//! worker closure, biasing the OS scheduler into a different interleaving
//! of `draid_bench::parallel::map`'s atomic-cursor claims per seed. Every
//! run asserts the library's contract regardless of schedule:
//!
//! * `map` returns results **in input order**, each input consumed
//!   exactly once;
//! * [`ChunkStore`]s driven from several threads at once, sharing the
//!   kernels' process-wide coefficient-table cache, return exactly the
//!   bytes written and keep their parity consistent.
//!
//! Panics on the first violated assertion; the driver maps that to a
//! failing exit.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use draid_bench::parallel;
use draid_core::{ArrayConfig, ChunkStore, Layout, RaidLevel, SystemKind, WriteMode};

/// Default number of seeds (the CI gate requires at least 64).
pub const DEFAULT_SEEDS: u64 = 64;

/// Aggregate counters from a stress run.
#[derive(Debug, Default)]
pub struct Report {
    /// Seeds executed.
    pub seeds: u64,
    /// Total `parallel::map` items pushed through order checks.
    pub mapped_items: u64,
    /// Total chunk-store writes and checked reads executed from several
    /// threads at once.
    pub store_cycles: u64,
}

/// splitmix64: tiny, seedable, statistically fine for schedule jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Burns a seed-derived amount of CPU and optionally yields, to push the
/// scheduler toward a different interleaving.
fn jitter(h: u64) {
    for _ in 0..(h % 1_500) {
        std::hint::spin_loop();
    }
    if h & 0x8000 != 0 {
        std::thread::yield_now();
    }
}

/// Runs the full harness over `seeds` seeds (use [`DEFAULT_SEEDS`] for
/// the CI gate). Panics on any contract violation.
pub fn run(seeds: u64) -> Report {
    let mut report = Report::default();
    for seed in 0..seeds {
        report.mapped_items += stress_map_order(seed);
        report.store_cycles += stress_chunk_stores(seed);
        report.seeds += 1;
    }
    report
}

/// One seed of order-preservation stress: jittered workers race over the
/// atomic cursor; the output must still be `f(inputs)` in input order.
fn stress_map_order(seed: u64) -> u64 {
    let h = splitmix64(seed);
    let n = 16 + (h % 97) as usize;
    let inputs: Vec<u64> = (0..n as u64).collect();
    let out = parallel::map(inputs, |x| {
        jitter(splitmix64(seed.wrapping_mul(0x9E37).wrapping_add(x)));
        x * 31 + seed
    });
    let expected: Vec<u64> = (0..n as u64).map(|x| x * 31 + seed).collect();
    assert_eq!(
        out, expected,
        "parallel::map broke order preservation under seed {seed}"
    );
    n as u64
}

/// Threads per seed that drive chunk stores at once.
const STORE_THREADS: u64 = 3;
/// The paper's default chunk size: every full-chunk stream is a long one.
const STORE_CHUNK: u64 = 512 * 1024;
/// Members per store: four data chunks per RAID-5 stripe, three per RAID-6
/// stripe.
const STORE_WIDTH: usize = 5;
/// Writes per thread; each is followed by a checked read, and a member is
/// lost before the middle one.
const STORE_WRITES: u64 = 4;

/// One seed of chunk-store contention: [`STORE_THREADS`] threads, each
/// with its own one-stripe RAID-5 or RAID-6 store of 512 KiB chunks, mix
/// read-modify-write, reconstruct-write and full-stripe writes, losing a
/// member halfway. The threads share the kernels' process-wide table cache;
/// each store keeps its own decoder cache. Every read must return the shadow
/// copy's bytes, and parity must check out as far as the surviving
/// redundancy allows.
fn stress_chunk_stores(seed: u64) -> u64 {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..STORE_THREADS)
            .map(|t| s.spawn(move || drive_store(seed, t)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a chunk-store thread panicked"))
            .sum()
    })
}

/// Payload bytes: a splitmix64 stream, built once; each write takes a
/// seed-derived window of it.
fn payload_pool() -> &'static [u8] {
    static POOL: OnceLock<Vec<u8>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..(2 * STORE_CHUNK * STORE_WIDTH as u64) / 8)
            .flat_map(|i| splitmix64(i).to_le_bytes())
            .collect()
    })
}

/// Thread `t`'s share of [`stress_chunk_stores`]; returns its cycles.
fn drive_store(seed: u64, t: u64) -> u64 {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = if (seed + t).is_multiple_of(2) {
        RaidLevel::Raid6
    } else {
        RaidLevel::Raid5
    };
    cfg.width = STORE_WIDTH;
    cfg.chunk_size = STORE_CHUNK;
    let layout = Layout::new(&cfg);
    let mut store = ChunkStore::new(layout);
    let stripe_bytes = layout.stripe_data_bytes();
    let mut shadow = vec![0u8; stripe_bytes as usize];
    let mut failed = BTreeSet::new();
    let mut cycles = 0;
    for w in 0..STORE_WRITES {
        let h = splitmix64(seed.wrapping_mul(0x5851_F42D) ^ (t << 40) ^ (w << 20));
        jitter(h);
        if w == STORE_WRITES / 2 {
            assert!(
                store.verify_all().is_empty(),
                "parity inconsistent before the loss under seed {seed} (thread {t})"
            );
            let member = (h % STORE_WIDTH as u64) as usize;
            store.drop_member(member);
            failed.insert(member);
        }
        // The full stripe, one or two whole chunks, or an unaligned range
        // longer than 128 KiB.
        let (off, len) = match (h >> 12) % 3 {
            0 => (0, stripe_bytes),
            1 => {
                let chunks = 1 + (h >> 16) % 2;
                let first = (h >> 20) % (layout.data_chunks() as u64 - chunks + 1);
                (first * STORE_CHUNK, chunks * STORE_CHUNK)
            }
            _ => {
                let len = 128 * 1024 + 1 + (h >> 16) % STORE_CHUNK;
                ((h >> 40) % (stripe_bytes - len), len)
            }
        };
        let from = ((h >> 24) % (payload_pool().len() as u64 - len)) as usize;
        let payload = &payload_pool()[from..from + len as usize];
        for io in layout.map(off, len) {
            let at = io.buf_offset as usize;
            let bytes = &payload[at..at + io.bytes() as usize];
            let mode = match layout.write_mode(&io) {
                WriteMode::FullStripe => WriteMode::FullStripe,
                _ if h & 0x10 != 0 => WriteMode::ReconstructWrite,
                _ => WriteMode::ReadModifyWrite,
            };
            store.apply_write(&io, bytes, mode, &failed);
        }
        shadow[off as usize..(off + len) as usize].copy_from_slice(payload);
        cycles += 1;

        jitter(h.rotate_left(17));
        for io in layout.map(0, stripe_bytes) {
            let at = io.buf_offset as usize;
            assert!(
                store.read(&io, &failed) == shadow[at..at + io.bytes() as usize],
                "read back wrong bytes under seed {seed} (thread {t}, write {w})"
            );
        }
        cycles += 1;
    }
    assert!(
        store.verify_survivors(0, &failed),
        "surviving parity inconsistent under seed {seed} (thread {t})"
    );
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_seeds_pass() {
        let r = run(4);
        assert_eq!(r.seeds, 4);
        assert!(r.mapped_items >= 4 * 16);
        assert_eq!(r.store_cycles, 4 * STORE_THREADS * 2 * STORE_WRITES);
    }

    #[test]
    fn splitmix_streams_differ_by_seed() {
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
    }
}
