//! Regenerates the tables and figures of the paper's evaluation and prints a
//! Markdown report (the source of `EXPERIMENTS.md`): the "Headline claims"
//! table first, then every figure with its claims as note lines.
//!
//! ```text
//! cargo run --release -p draid-bench --bin all_figures               # everything
//! cargo run --release -p draid-bench --bin all_figures fig10 fig15   # a subset
//! ```
//!
//! Ids are those of `draid_bench::figures::all`: `table1`, `fig09` …
//! `fig30`, `ablation`, and the extensions `cpu_util`, `breakdown`,
//! `openloop`, `oversubscription` and `bottleneck`. When ids are named, each
//! figure is followed by its terminal bar chart. An argument that names no
//! figure exits 2 before any figure runs. The run exits 1 when a gated
//! claim misses its band.

use std::time::Instant;

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let all = draid_bench::figures::all();
    if let Some(unknown) = filter.iter().find(|f| all.iter().all(|s| s.id != *f)) {
        let ids: Vec<&str> = all.iter().map(|s| s.id).collect();
        eprintln!("unknown figure: {unknown}");
        eprintln!("usage: all_figures [ID ...], ID one of {}", ids.join(" "));
        std::process::exit(2);
    }
    let specs: Vec<_> = all
        .into_iter()
        .filter(|s| filter.is_empty() || filter.iter().any(|f| f == s.id))
        .collect();
    let total = Instant::now();
    let figs: Vec<_> = specs
        .iter()
        .map(|spec| {
            eprintln!("running {} — {} ...", spec.id, spec.title);
            let started = Instant::now();
            let fig = spec.build();
            eprintln!("  done in {:.1}s", started.elapsed().as_secs_f64());
            fig
        })
        .collect();
    eprintln!("total wall time {:.1}s", total.elapsed().as_secs_f64());
    println!("# dRAID reproduction — regenerated evaluation\n");
    println!("{}", draid_bench::headline_table(&figs));
    for fig in &figs {
        println!("{fig}");
        let chart = fig.to_ascii_chart();
        if !filter.is_empty() && !chart.is_empty() {
            println!("```\n{chart}```");
        }
    }
    if figs
        .iter()
        .flat_map(|f| &f.claims)
        .any(draid_bench::Claim::fails)
    {
        eprintln!("gated claims outside their bands: see the ❌ rows");
        std::process::exit(1);
    }
}
