//! Bottleneck-attribution report for a reference RAID-6 scenario.
//!
//! ```text
//! cargo run --release -p draid-bench --bin report            # aligned text
//! cargo run --release -p draid-bench --bin report -- --json  # machine-readable
//! cargo run --release -p draid-bench --bin report -- --quick # short CI smoke
//! ```
//!
//! `--json` output validates against `crates/bench/schema/report.schema.json`.

use draid_bench::{run_report, ReportConfig};

fn main() {
    let mut cfg = ReportConfig::reference();
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => cfg = ReportConfig::quick(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: report [--json] [--quick]");
                std::process::exit(2);
            }
        }
    }
    let report = run_report(&cfg);
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    if !report.reconciled() {
        eprintln!("error: byte-conservation ledgers do not balance");
        std::process::exit(1);
    }
}
