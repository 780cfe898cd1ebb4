//! `draid-check` — run the workspace verification plane.
//!
//! ```text
//! cargo run -p draid-check -- lint            # source-hygiene lints
//! cargo run -p draid-check -- determinism     # double-run byte diff
//! cargo run -p draid-check -- interleave      # bounded-interleaving stress
//! cargo run -p draid-check -- all             # the three legs above (CI gate)
//! ```
//!
//! The paper's claims are checked by `all_figures`, which exits non-zero
//! when a gated claim misses its band.
//!
//! Options: `--seed N` (determinism scenario seed, default 42),
//! `--seeds N` (interleaving seed count, default 64, CI floor 64),
//! `--out PATH` (determinism also writes its artifact to `PATH`, so two
//! builds compare with `cmp`), `--rules` (print the lint rule table and
//! the allowlist, then exit).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use draid_check::{determinism, interleave, lint};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut seed = 42u64;
    let mut seeds = interleave::DEFAULT_SEEDS;
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "lint" | "determinism" | "interleave" | "all" if cmd.is_none() => {
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
            "--out" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                };
                out = Some(path.clone());
            }
            "--rules" => {
                for r in lint::all_rules() {
                    println!("{:22} {}", r.name, r.summary);
                }
                println!("\nallowlist ({} entries):", lint::ALLOWLIST.len());
                for a in lint::ALLOWLIST {
                    println!(
                        "{:22} {} `{}`: {}",
                        a.rule, a.path_suffix, a.line_contains, a.reason
                    );
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: draid-check [lint|determinism|interleave|all] [--seed N] [--seeds N] [--out PATH] [--rules]");
                eprintln!("`all` runs lint, determinism and interleave; `--out` writes the determinism artifact to PATH");
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
        failed |= !run_determinism(seed, out.as_deref());
    }
    if cmd == "interleave" || cmd == "all" {
        failed |= !run_interleave(seeds);
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

fn run_determinism(seed: u64, out: Option<&str>) -> bool {
    let report = determinism::run(seed);
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, &report.artifact) {
            eprintln!("determinism: could not write the artifact to {path}: {e}");
            return false;
        }
    }
    match &report.first_divergence {
        None => {
            println!(
                "determinism: OK (seed {seed}, artifact {} bytes / {} lines, two runs byte-identical)",
                report.artifact.len(),
                report.artifact.lines().count()
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
        "interleave: OK ({} seeds, {} ordered map items, {} chunk-store cycles)",
        report.seeds, report.mapped_items, report.store_cycles
    );
    true
}
