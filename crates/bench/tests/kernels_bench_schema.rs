//! The checked-in `BENCH_kernels.json` kernel-throughput report must parse,
//! name the machine it was measured on, cover every kernel at every size
//! and every cold row at its one size, and keep Reed-Solomon decode within
//! reach of the one-source multiply it is built from.

#[path = "common/json.rs"]
mod json;

use json::{Json, JsonExt};

const BENCH: &str = include_str!("../../../BENCH_kernels.json");

const KERNELS: [&str; 5] = [
    "mul_wide",
    "mul_acc_scalar_ref",
    "encode_pq_6",
    "update_pq",
    "rs_decode_2_of_6+2",
];

const SIZES: [f64; 3] = [4096.0, 65536.0, 1048576.0];

/// Rows measured at 128 KiB on buffers drawn from a pool far larger than
/// the last-level cache.
const COLD: [&str; 4] = [
    "update_pq_cold",
    "update_p_cold",
    "rs_decode_2_of_6+2_cold",
    "copy_cold",
];
const COLD_SIZE: f64 = 131072.0;

fn gb_per_sec(results: &[Json], kernel: &str, size: f64) -> f64 {
    let rows: Vec<&Json> = results
        .iter()
        .filter(|r| r.get("kernel").and_then(Json::as_str) == Some(kernel))
        .filter(|r| r.get("size").and_then(Json::as_num) == Some(size))
        .collect();
    assert_eq!(rows.len(), 1, "{kernel} at {size} B measured exactly once");
    rows[0]
        .get("gb_per_sec")
        .and_then(Json::as_num)
        .expect("gb_per_sec")
}

#[test]
fn checked_in_kernel_bench_has_expected_shape() {
    let doc = json::parse(BENCH).expect("BENCH_kernels.json parses");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("kernels"));
    assert_eq!(doc.get("unit").and_then(Json::as_str), Some("GB/s"));
    // The checked-in numbers must come from a full run, not a CI smoke.
    assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(false));

    // A throughput means little without the machine that produced it.
    let cores = doc.get("cores").and_then(Json::as_num).expect("cores");
    assert!(cores >= 1.0, "core count recorded");
    let cpu = doc
        .get("cpu_model")
        .and_then(Json::as_str)
        .expect("cpu_model");
    assert!(!cpu.trim().is_empty(), "CPU model recorded");
    assert!(
        doc.get("simd_active").and_then(Json::as_bool).is_some(),
        "simd_active recorded"
    );

    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results.len(), KERNELS.len() * SIZES.len() + COLD.len());
    for kernel in KERNELS {
        for size in SIZES {
            let rate = gb_per_sec(results, kernel, size);
            assert!(rate > 0.0, "{kernel} at {size} B: non-positive rate");
        }
    }
    for kernel in COLD {
        let rate = gb_per_sec(results, kernel, COLD_SIZE);
        assert!(rate > 0.0, "{kernel}: non-positive rate");
    }

    let speedup = doc
        .get("mul_speedup_at_64KiB")
        .and_then(Json::as_num)
        .expect("mul speedup");
    assert!(speedup >= 5.0, "mul_wide only {speedup}x over scalar");

    // Decoding two lost shards of a 6+2 stripe reads six survivors once,
    // for both restored rows together; with cached decode matrices and no
    // shard copies it stays a fixed fraction of one one-source multiply
    // pass. Same-file ratio, so the machine cancels out.
    let mib = 1048576.0;
    let ratio =
        gb_per_sec(results, "rs_decode_2_of_6+2", mib) / gb_per_sec(results, "mul_wide", mib);
    assert!(
        ratio >= 0.2,
        "rs_decode_2_of_6+2 / mul_wide at 1 MiB is {ratio:.3}, below 0.2"
    );
}
