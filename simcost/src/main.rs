//! `simcost --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metadata line, the `sim_digest` line and, last, one JSON
//! result line. The traced run also prints its span table to stderr and
//! writes every span to `simcost-out/spans-<workload>.tsv`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use simcost::scenario::Workload;
use simcost::spans::Name;
use simcost::{meta, run, Opts};

const USAGE: &str =
    "usage: simcost --workload <rmw_write_128k|small_read_4k|full_degraded_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simcost: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = opts.workload.name();
    println!("{}", meta::line(name, opts.seed, opts.trace));
    let outcome = run(&opts);
    println!("sim_digest {} {}", outcome.digest, outcome.digest_fields);

    if let Some(spans) = &outcome.spans {
        let totals = spans.totals();
        eprintln!(
            "{:<24} {:>10} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for n in Name::ALL {
            let t = totals[n as usize];
            eprintln!(
                "{:<24} {:>10} {:>14.3} {:>14.3}",
                n.as_str(),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        // One file per workload, overwritten by its next traced run.
        let path = format!("simcost-out/spans-{name}.tsv");
        let written = std::fs::create_dir_all("simcost-out")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| spans.write_tsv(f));
        match written {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
