//! Kernel-throughput report: measures the erasure-coding data-plane kernels
//! (a one-source GF(256) multiply through `kernels::encode` against the
//! seed's scalar multiply-accumulate, the one-pass RAID-6 P+Q encode and
//! small-write update, Reed-Solomon decode) at several buffer sizes and
//! writes `BENCH_kernels.json`. `mul_wide` and `mul_acc_scalar_ref` count
//! the source's bytes per call, `encode_pq_6` and `rs_decode_2_of_6+2` the
//! six sources' bytes; `update_pq` counts the bytes of data written.
//!
//! The `_cold` rows run `update_pq`, `rs_decode_2_of_6+2` and `copy` at
//! 128 KiB (the chunk store's I/O size) on buffers drawn at random from a
//! 256 MiB pool (64 MiB with `--quick`), far past the last-level cache, as
//! the chunk store's are. Streams of 64 KiB and more are split between two
//! cores when the machine has them, so these rows and every 64 KiB and
//! 1 MiB row except `mul_acc_scalar_ref` (`mul_wide` included) measure two
//! cores.
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
    let budget = if quick {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(150)
    };

    let mut results: Vec<Measurement> = Vec::new();
    let mut measure =
        |kernel: &'static str, size: usize, bytes_per_call: usize, f: &mut dyn FnMut()| {
            let ns = time_for(budget, f);
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
        let src = buf(size, 3);
        let mut acc = buf(size, 5);
        measure("mul_wide", size, size, &mut || {
            kernels::encode(
                std::hint::black_box(&[0x1D]),
                &[std::hint::black_box(&src)],
                &mut [&mut acc[..]],
            )
        });
        measure("mul_acc_scalar_ref", size, size, &mut || {
            gf256::mul_acc_ref(
                std::hint::black_box(&mut acc),
                std::hint::black_box(&src),
                0x1D,
            )
        });

        let data: Vec<Vec<u8>> = (0..6).map(|i| buf(size, i as u8 * 13 + 1)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let rs = ReedSolomon::new(6, 2);
        // RAID-6's P and Q rows: all ones, then g^i.
        let pq: Vec<u8> = (0..2)
            .flat_map(|j| (0..6).map(move |i| (j, i)))
            .map(|(j, i)| rs.coefficient(j, i))
            .collect();
        let (mut p, mut q) = (vec![0u8; size], vec![0u8; size]);
        measure("encode_pq_6", size, 6 * size, &mut || {
            kernels::encode(
                std::hint::black_box(&pq),
                std::hint::black_box(&refs),
                &mut [&mut p[..], &mut q[..]],
            )
        });

        // A small write: one data chunk moves to new bytes and P and Q take
        // the delta. Alternating two payloads keeps every delta nonzero.
        let mut chunk = buf(size, 7);
        let news = [buf(size, 11), buf(size, 19)];
        let mut turn = 0;
        measure("update_pq", size, size, &mut || {
            turn ^= 1;
            kernels::update(
                std::hint::black_box(&[pq[2], pq[8]]),
                std::hint::black_box(&mut chunk),
                std::hint::black_box(&news[turn]),
                &mut [&mut p[..], &mut q[..]],
            )
        });

        let parity = rs.encode(&refs);
        // Built once: the timed closure only drops and rebuilds two shards.
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        measure("rs_decode_2_of_6+2", size, 6 * size, &mut || {
            shards[1] = None;
            shards[4] = None;
            rs.reconstruct(std::hint::black_box(&mut shards))
                .expect("decodable");
        });
    }

    // Cold rows: every call takes fresh, distinct blocks of the pool.
    let pool_bytes = if quick { 64 << 20 } else { 256 << 20 };
    let mut pool = buf(pool_bytes, 23);
    let mut blocks = ColdBlocks::new(pool_bytes / COLD_SIZE);
    let rs = ReedSolomon::new(6, 2);
    let pq = [rs.coefficient(0, 2), rs.coefficient(1, 2)];
    measure("update_pq_cold", COLD_SIZE, COLD_SIZE, &mut || {
        let [data, new, p, q] = pool.get_disjoint_mut(blocks.pick()).expect("distinct");
        kernels::update(std::hint::black_box(&pq), data, new, &mut [p, q]);
    });
    measure(
        "rs_decode_2_of_6+2_cold",
        COLD_SIZE,
        6 * COLD_SIZE,
        &mut || {
            let [s0, d1, s2, s3, d4, s5, s6, s7] =
                pool.get_disjoint_mut(blocks.pick()).expect("distinct");
            let shards =
                [s0, &mut [], s2, s3, &mut [], s5, s6, s7].map(|s| (!s.is_empty()).then_some(&*s));
            rs.decode_rows(std::hint::black_box(&shards), &mut [(1, d1), (4, d4)])
                .expect("decodable");
        },
    );
    measure("copy_cold", COLD_SIZE, COLD_SIZE, &mut || {
        let [dst, src] = pool.get_disjoint_mut(blocks.pick()).expect("distinct");
        kernels::copy(dst, std::hint::black_box(src));
    });
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
