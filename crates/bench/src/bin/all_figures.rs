//! Regenerates the tables and figures of the paper's evaluation and prints a
//! Markdown report (the source of `EXPERIMENTS.md`).
//!
//! ```text
//! cargo run --release -p draid-bench --bin all_figures               # everything
//! cargo run --release -p draid-bench --bin all_figures fig10 fig15   # a subset
//! ```
//!
//! Ids are those of `draid_bench::figures::all` (`table1`, `fig09` … `fig30`,
//! `ablation`). When ids are named, each figure is followed by its terminal
//! bar chart.

use std::time::Instant;

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let specs: Vec<_> = draid_bench::figures::all()
        .into_iter()
        .filter(|s| filter.is_empty() || filter.iter().any(|f| f == s.id))
        .collect();
    if specs.is_empty() {
        eprintln!("no figures matched {filter:?}");
        std::process::exit(1);
    }
    println!("# dRAID reproduction — regenerated evaluation\n");
    let total = Instant::now();
    for spec in specs {
        eprintln!("running {} — {} ...", spec.id, spec.title);
        let started = Instant::now();
        let fig = spec.build();
        eprintln!("  done in {:.1}s", started.elapsed().as_secs_f64());
        println!("{fig}");
        let chart = fig.to_ascii_chart();
        if !filter.is_empty() && !chart.is_empty() {
            println!("```\n{chart}```");
        }
    }
    eprintln!("total wall time {:.1}s", total.elapsed().as_secs_f64());
}
