//! # draid-bench — the paper's evaluation, regenerated
//!
//! One experiment per table and figure of §9 and Appendix A of
//! *Disaggregated RAID Storage in Modern Datacenters* (ASPLOS '23). Each
//! figure is a [`Figure`]: a set of series over a sweep variable, printed as
//! the same rows the paper plots, together with the paper's claims for that
//! figure as checked [`Claim`] rows: a gated claim outside its band fails
//! `all_figures`, and a known gap renders ⚠️.
//!
//! `all_figures` runs the whole evaluation and emits a Markdown report;
//! `all_figures <id>...` regenerates individual figures (`fig09` … `fig30`,
//! `table1`, `ablation`, and the extensions `cpu_util`, `breakdown`,
//! `openloop`, `oversubscription` and `bottleneck`, which attributes one
//! loaded run's time to resource classes and its busiest resource to each
//! slice of the window). The `kernels` and `simperf` binaries time the
//! GF(256) kernels and the event engine against recorded baselines
//! (`BENCH_kernels.json`, `BENCH_sim.json`).
//!
//! ## Example
//!
//! ```no_run
//! let fig = draid_bench::figures::by_id("fig10").expect("known figure").build();
//! println!("{fig}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod claim;
mod exp_app;
mod exp_fio;
mod exp_misc;
mod figure;
pub mod figures;
pub mod json;
pub mod parallel;
mod setup;

pub use claim::{headline_table, Band, Claim, Kind, Value};
pub use figure::{Figure, Point, Series};
pub use setup::{build_array, build_hetero_array, Scenario};

/// The machine a wall-clock report ran on, as `(logical cores, CPU model)`.
/// The model comes from `/proc/cpuinfo` and is `"unknown"` off Linux.
pub fn machine() -> (usize, String) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (cores, model)
}

/// The arguments of a timing binary, `[--quick] [--out PATH]`: whether to
/// run the short smoke, and where to write the report (`default_out` unless
/// `--out` names a path). Any other argument prints `usage` and exits 2,
/// before anything is measured.
pub fn bench_args(usage: &str, default_out: &str) -> (bool, String) {
    let mut quick = false;
    let mut out = default_out.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if let Some(path) = (arg == "--out").then(|| args.next()).flatten() {
            out = path;
        } else {
            eprintln!("unexpected argument: {arg}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
    (quick, out)
}
