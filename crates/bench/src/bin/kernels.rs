//! Kernel-throughput report: measures the erasure-coding data-plane kernels
//! (a one-source GF(256) multiply through `kernels::encode` against the
//! seed's scalar multiply-accumulate, the one-pass RAID-6 P+Q encode and
//! small-write update, Reed-Solomon decode) at several buffer sizes and
//! writes `BENCH_kernels.json`. `mul_wide` and `mul_acc_scalar_ref` count
//! the source's bytes per call, `encode_pq_6` and `rs_decode_2_of_6+2` the
//! six sources' bytes; `update_pq` counts the bytes of data written. The
//! five rows of one size are timed five times over, round-robin, and each
//! reports its median: a change in the shared host's speed then lands on
//! every row of the size alike, instead of on whichever row ran during
//! it, so same-size ratios such as decode / `mul_wide` at 1 MiB hold still.
//!
//! The `_cold` rows run `update_pq`, a one-parity update (`update_p_cold`,
//! what a RAID-6 write runs when one parity is lost),
//! `rs_decode_2_of_6+2` and a slice copy (`copy_cold`, how the chunk store
//! gathers a healthy segment) at 128 KiB (the chunk store's I/O size) on
//! buffers drawn at random from a 256 MiB pool (64 MiB with `--quick`), far
//! past the last-level cache, as the chunk store's are. They too are timed
//! round-robin and report medians. Every row runs on the calling thread.
//!
//! ```text
//! cargo run --release -p draid-bench --bin kernels [--quick] [--out PATH]
//! ```
//!
//! `--quick` shortens each measurement (CI smoke); `--out` overrides the
//! output path; any other argument exits 2 before anything is measured.
//! The JSON records the machine (core count, CPU model, whether the SIMD
//! kernels are active) and carries GB/s per (kernel, size) plus the
//! `mul_wide` / `mul_acc_scalar_ref` speedup at 64 KiB — the number the
//! acceptance bar (≥ 5×) checks.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use draid_bench::json::Json;
use draid_ec::{gf256, kernels, ReedSolomon};

const SIZES: &[usize] = &[4 * 1024, 64 * 1024, 1024 * 1024];

/// Buffer size of the cold rows: one chunk-store I/O.
const COLD_SIZE: usize = 128 * 1024;

struct Measurement {
    kernel: &'static str,
    size: usize,
    /// Bytes of payload the kernel processes per call.
    bytes_per_call: usize,
    ns_per_call: f64,
}

impl Measurement {
    fn gb_per_sec(&self) -> f64 {
        self.bytes_per_call as f64 / self.ns_per_call
    }
}

/// Timings per row; each reports the median.
const REPEATS: usize = 5;

/// One row: a kernel call on buffers the closure owns or borrows.
struct Row<'a> {
    kernel: &'static str,
    /// Bytes of payload the kernel processes per call.
    bytes_per_call: usize,
    call: Box<dyn FnMut() + 'a>,
}

impl<'a> Row<'a> {
    fn new(kernel: &'static str, bytes_per_call: usize, call: impl FnMut() + 'a) -> Self {
        Row {
            kernel,
            bytes_per_call,
            call: Box::new(call),
        }
    }
}

/// Times every row [`REPEATS`] times, round-robin, so a change in the
/// host's speed lands on all of them alike (the decode bar compares two of
/// them); returns each row's median nanoseconds per call.
fn median_round_robin(budget: Duration, rows: &mut [Row]) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(REPEATS); rows.len()];
    for _ in 0..REPEATS {
        for (row, times) in rows.iter_mut().zip(&mut samples) {
            times.push(time_for(budget, &mut row.call));
        }
    }
    samples
        .into_iter()
        .map(|mut times| {
            times.sort_by(f64::total_cmp);
            times[REPEATS / 2]
        })
        .collect()
}

/// Times `f` by running it repeatedly for at least `budget`, after a short
/// warm-up; returns mean wall-clock nanoseconds per call.
fn time_for(budget: Duration, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        f();
        calls += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Draws distinct [`COLD_SIZE`] blocks of a pool at random (xorshift64).
struct ColdBlocks {
    blocks: usize,
    rng: u64,
}

impl ColdBlocks {
    fn new(blocks: usize) -> ColdBlocks {
        ColdBlocks {
            blocks,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The byte ranges of `N` distinct blocks.
    fn pick<const N: usize>(&mut self) -> [std::ops::Range<usize>; N] {
        let mut picked = [0; N];
        let mut n = 0;
        while n < N {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let b = (self.rng % self.blocks as u64) as usize;
            if !picked[..n].contains(&b) {
                picked[n] = b;
                n += 1;
            }
        }
        picked.map(|b| b * COLD_SIZE..(b + 1) * COLD_SIZE)
    }
}

fn buf(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect()
}

fn main() {
    let (quick, out_path) = draid_bench::bench_args(
        "usage: kernels [--quick] [--out PATH]",
        "BENCH_kernels.json",
    );
    // Each sized row is timed `REPEATS` times at `budget`, each cold row at
    // `cold_budget`.
    let (budget, cold_budget) = if quick {
        (Duration::from_millis(2), Duration::from_millis(5))
    } else {
        (Duration::from_millis(60), Duration::from_millis(150))
    };

    let mut results: Vec<Measurement> = Vec::new();
    let mut record = |kernel: &'static str, size: usize, bytes_per_call: usize, ns: f64| {
        let m = Measurement {
            kernel,
            size,
            bytes_per_call,
            ns_per_call: ns,
        };
        println!(
            "{:<28} {:>8} B  {:>10.2} GB/s",
            kernel,
            size,
            m.gb_per_sec()
        );
        results.push(m);
    };

    for &size in SIZES {
        let rs = ReedSolomon::new(6, 2);
        // RAID-6's P and Q rows: all ones, then g^i.
        let pq: Vec<u8> = (0..2)
            .flat_map(|j| (0..6).map(move |i| (j, i)))
            .map(|(j, i)| rs.coefficient(j, i))
            .collect();
        let data: Vec<Vec<u8>> = (0..6).map(|i| buf(size, i as u8 * 13 + 1)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let parity = rs.encode(&refs);
        let (rs, pq, refs) = (&rs, &pq, &refs);
        let mut rows: Vec<Row> = Vec::new();

        let (src, mut acc) = (buf(size, 3), buf(size, 5));
        rows.push(Row::new("mul_wide", size, move || {
            kernels::encode(
                std::hint::black_box(&[0x1D]),
                &[std::hint::black_box(&src)],
                &mut [&mut acc[..]],
            )
        }));
        let (src, mut acc) = (buf(size, 3), buf(size, 5));
        rows.push(Row::new("mul_acc_scalar_ref", size, move || {
            gf256::mul_acc_ref(
                std::hint::black_box(&mut acc),
                std::hint::black_box(&src),
                0x1D,
            )
        }));

        let (mut p, mut q) = (vec![0u8; size], vec![0u8; size]);
        rows.push(Row::new("encode_pq_6", 6 * size, move || {
            kernels::encode(
                std::hint::black_box(pq),
                std::hint::black_box(refs),
                &mut [&mut p[..], &mut q[..]],
            )
        }));

        // A small write: one data chunk moves to new bytes and P and Q take
        // the delta. Alternating two payloads keeps every delta nonzero.
        let mut chunk = buf(size, 7);
        let news = [buf(size, 11), buf(size, 19)];
        let (mut p, mut q) = (vec![0u8; size], vec![0u8; size]);
        let mut turn = 0;
        rows.push(Row::new("update_pq", size, move || {
            turn ^= 1;
            kernels::update(
                std::hint::black_box(&[pq[2], pq[8]]),
                std::hint::black_box(&mut chunk),
                std::hint::black_box(&news[turn]),
                &mut [&mut p[..], &mut q[..]],
            )
        }));

        // Shards 1 and 4 are lost; the decode writes them into buffers
        // allocated once, as the chunk store's decode does. (`reconstruct`
        // would allocate both afresh on every call, and at 1 MiB the page
        // faults of that fresh memory, not the decode, would set the rate.)
        let survivors: Vec<Option<&[u8]>> = refs
            .iter()
            .copied()
            .chain(parity.iter().map(|p| &p[..]))
            .enumerate()
            .map(|(i, shard)| (i != 1 && i != 4).then_some(shard))
            .collect();
        let (mut d1, mut d4) = (vec![0u8; size], vec![0u8; size]);
        rows.push(Row::new("rs_decode_2_of_6+2", 6 * size, move || {
            rs.decode_rows(
                std::hint::black_box(&survivors),
                &mut [(1, &mut d1[..]), (4, &mut d4[..])],
            )
            .expect("decodable");
        }));

        let medians = median_round_robin(budget, &mut rows);
        for (row, ns) in rows.iter().zip(medians) {
            record(row.kernel, size, row.bytes_per_call, ns);
        }
    }

    // Cold rows: every call takes fresh, distinct blocks of the one pool
    // all rows share.
    let pool_bytes = if quick { 64 << 20 } else { 256 << 20 };
    let pool = RefCell::new((buf(pool_bytes, 23), ColdBlocks::new(pool_bytes / COLD_SIZE)));
    let cold = &pool;
    let rs = ReedSolomon::new(6, 2);
    let pq = [rs.coefficient(0, 2), rs.coefficient(1, 2)];
    let mut rows = vec![
        Row::new("update_pq_cold", COLD_SIZE, move || {
            let (pool, blocks) = &mut *cold.borrow_mut();
            let [data, new, p, q] = pool.get_disjoint_mut(blocks.pick()).expect("distinct");
            kernels::update(std::hint::black_box(&pq), data, new, &mut [p, q]);
        }),
        Row::new("update_p_cold", COLD_SIZE, move || {
            let (pool, blocks) = &mut *cold.borrow_mut();
            let [data, new, p] = pool.get_disjoint_mut(blocks.pick()).expect("distinct");
            kernels::update(std::hint::black_box(&pq[..1]), data, new, &mut [p]);
        }),
        Row::new("rs_decode_2_of_6+2_cold", 6 * COLD_SIZE, || {
            let (pool, blocks) = &mut *cold.borrow_mut();
            let [s0, d1, s2, s3, d4, s5, s6, s7] =
                pool.get_disjoint_mut(blocks.pick()).expect("distinct");
            let shards =
                [s0, &mut [], s2, s3, &mut [], s5, s6, s7].map(|s| (!s.is_empty()).then_some(&*s));
            rs.decode_rows(std::hint::black_box(&shards), &mut [(1, d1), (4, d4)])
                .expect("decodable");
        }),
        Row::new("copy_cold", COLD_SIZE, move || {
            let (pool, blocks) = &mut *cold.borrow_mut();
            let [dst, src] = pool.get_disjoint_mut(blocks.pick()).expect("distinct");
            dst.copy_from_slice(std::hint::black_box(src));
        }),
    ];
    let medians = median_round_robin(cold_budget, &mut rows);
    for (row, ns) in rows.iter().zip(medians) {
        record(row.kernel, COLD_SIZE, row.bytes_per_call, ns);
    }
    drop(rows);
    drop(pool);

    let speedup = {
        let at = |kernel: &str| {
            results
                .iter()
                .find(|m| m.kernel == kernel && m.size == 64 * 1024)
                .expect("64 KiB point measured")
                .gb_per_sec()
        };
        at("mul_wide") / at("mul_acc_scalar_ref")
    };
    println!("mul_wide/mul_acc_scalar_ref speedup at 64 KiB: {speedup:.1}x");

    let (cores, cpu_model) = draid_bench::machine();
    let doc = Json::obj([
        ("bench", "kernels".into()),
        ("unit", "GB/s".into()),
        ("quick", quick.into()),
        ("cores", cores.into()),
        ("cpu_model", cpu_model.as_str().into()),
        ("simd_active", kernels::simd_active().into()),
        ("mul_speedup_at_64KiB", Json::rounded(speedup, 2)),
        (
            "results",
            results
                .iter()
                .map(|m| {
                    Json::obj([
                        ("kernel", m.kernel.into()),
                        ("size", m.size.into()),
                        ("bytes_per_call", m.bytes_per_call.into()),
                        ("gb_per_sec", Json::rounded(m.gb_per_sec(), 3)),
                    ])
                })
                .collect(),
        ),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write kernel report");
    println!("wrote {out_path}");
}
