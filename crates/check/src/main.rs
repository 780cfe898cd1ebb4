//! `draid-check` — run the workspace verification plane.
//!
//! ```text
//! cargo run -p draid-check -- lint            # source-hygiene lints
//! cargo run -p draid-check -- determinism     # double-run byte diff
//! cargo run -p draid-check -- interleave      # bounded-interleaving stress
//! cargo run -p draid-check -- all             # the three legs above (CI gate)
//! cargo run --release -p draid-check -- repro # 8 reproduction gates
//! ```
//!
//! `repro` runs the paper's headline experiments, which need a release
//! build to finish in seconds, so `all` (run as a debug build) leaves it out.
//!
//! Options: `--seed N` (determinism scenario seed, default 42),
//! `--seeds N` (interleaving seed count, default 64, CI floor 64),
//! `--rules` (print the lint rule table and exit).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use draid_bench::repro;
use draid_check::{determinism, interleave, lint};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut seed = 42u64;
    let mut seeds = interleave::DEFAULT_SEEDS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "lint" | "determinism" | "interleave" | "all" | "repro" if cmd.is_none() => {
                cmd = Some(args[i].clone());
            }
            "--seed" => {
                i += 1;
                seed = parse_u64(&args, i, "--seed");
            }
            "--seeds" => {
                i += 1;
                seeds = parse_u64(&args, i, "--seeds");
            }
            "--rules" => {
                for r in lint::all_rules() {
                    println!("{:22} {}", r.name, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: draid-check [lint|determinism|interleave|all|repro] [--seed N] [--seeds N] [--rules]");
                eprintln!("`all` runs lint, determinism and interleave; `repro` runs alone, in a release build");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let cmd = cmd.unwrap_or_else(|| "all".to_string());
    let mut failed = false;
    if cmd == "lint" || cmd == "all" {
        failed |= !run_lint();
    }
    if cmd == "determinism" || cmd == "all" {
        failed |= !run_determinism(seed);
    }
    if cmd == "interleave" || cmd == "all" {
        failed |= !run_interleave(seeds);
    }
    if cmd == "repro" {
        failed |= !run_repro();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_u64(args: &[String], i: usize, flag: &str) -> u64 {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires an integer argument");
        std::process::exit(2);
    })
}

fn run_lint() -> bool {
    let Some(root) = lint::workspace_root() else {
        eprintln!("lint: could not locate workspace root");
        return false;
    };
    match lint::lint_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!(
                "lint: OK ({} rules, allowlist {} entries)",
                lint::all_rules().len(),
                lint::ALLOWLIST.len()
            );
            true
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("lint: FAILED ({} findings)", findings.len());
            false
        }
        Err(e) => {
            eprintln!("lint: I/O error walking workspace: {e}");
            false
        }
    }
}

fn run_determinism(seed: u64) -> bool {
    let report = determinism::run(seed);
    match &report.first_divergence {
        None => {
            println!(
                "determinism: OK (seed {seed}, artifact {} bytes / {} lines, two runs byte-identical)",
                report.artifact_bytes, report.artifact_lines
            );
            true
        }
        Some((line, a, b)) => {
            println!(
                "determinism: FAILED (seed {seed}) — first divergence at artifact line {line}:"
            );
            println!("  run A: {a}");
            println!("  run B: {b}");
            false
        }
    }
}

fn run_interleave(seeds: u64) -> bool {
    // Contract violations panic inside the harness with a seed-tagged
    // message; a clean return means every assertion held on every seed.
    let report = interleave::run(seeds);
    println!(
        "interleave: OK ({} seeds, {} ordered map items, {} chunked items, {} pool cycles)",
        report.seeds, report.mapped_items, report.chunked_items, report.pool_cycles
    );
    true
}

fn run_repro() -> bool {
    let gates = repro::gates();
    for g in &gates {
        let verdict = if g.pass { "PASS" } else { "FAIL" };
        println!("{verdict} {}: {}", g.name, g.detail);
    }
    let passed = gates.iter().filter(|g| g.pass).count();
    println!("\n{passed}/{} reproduction gates passed", gates.len());
    passed == gates.len()
}
