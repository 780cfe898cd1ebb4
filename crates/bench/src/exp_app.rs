//! Application figures (§9.6): the LSM KV store (RocksDB stand-in, Fig. 19)
//! and the hash-based object store (Figs. 20–21) under YCSB.

use draid_core::SystemKind;
use draid_sim::SimTime;
use draid_store::{AppRunner, Distribution, LsmStore, ObjectStore, YcsbGen, YcsbWorkload};

use crate::claim::Band::{Above, Below};
use crate::claim::Kind::{Gated, KnownGap};
use crate::claim::Value::Times;
use crate::figure::{Figure, Point, Series};
use crate::parallel;
use crate::setup::{build_array, Scenario};

const APP_SYSTEMS: [SystemKind; 2] = [SystemKind::SpdkRaid, SystemKind::Draid];

/// Which application backs the figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum App {
    Lsm,
    Object,
}

fn ycsb_x(w: YcsbWorkload) -> f64 {
    match w {
        YcsbWorkload::A => 0.0,
        YcsbWorkload::B => 1.0,
        YcsbWorkload::C => 2.0,
        YcsbWorkload::D => 3.0,
        YcsbWorkload::F => 4.0,
    }
}

fn run_app_sweep(app: App, degraded: bool) -> Vec<Series> {
    let mut specs = Vec::new();
    for &system in &APP_SYSTEMS {
        for w in YcsbWorkload::ALL {
            specs.push((system, w));
        }
    }
    let results = parallel::map(specs, |(system, w)| {
        let scenario = Scenario::paper(system).failed(usize::from(degraded));
        let array = build_array(&scenario);
        let report = match app {
            App::Lsm => {
                // A single RocksDB-like instance: bounded internal
                // parallelism, 1 KiB records, zipfian per YCSB defaults.
                let runner = AppRunner {
                    concurrency: 8,
                    warmup: SimTime::from_millis(20),
                    measure: SimTime::from_millis(120),
                };
                runner.run(
                    array,
                    LsmStore::paper_default(),
                    YcsbGen::new(w, 1_000_000, 7),
                )
            }
            App::Object => {
                // §9.6: 200 K × 128 KiB objects, uniform distribution, many
                // client threads.
                let runner = AppRunner {
                    concurrency: 48,
                    warmup: SimTime::from_millis(20),
                    measure: SimTime::from_millis(120),
                };
                runner.run(
                    array,
                    ObjectStore,
                    YcsbGen::with_distribution(w, Distribution::Uniform, 200_000, 7),
                )
            }
        };
        (
            system.label().to_string(),
            Point {
                x: ycsb_x(w),
                y: report.kiops,
                latency_us: Some(report.mean_latency_us),
            },
        )
    });
    Series::group(results)
}

fn workload_axis_note(fig: &mut Figure) {
    fig.note("x axis: 0=YCSB-A, 1=YCSB-B, 2=YCSB-C, 3=YCSB-D, 4=YCSB-F".to_string());
}

/// Fig. 19a/19b: LSM KV (RocksDB stand-in) YCSB throughput.
pub(crate) fn lsm_ycsb(id: &str, degraded: bool) -> Figure {
    let state = if degraded { "degraded" } else { "normal" };
    let mut fig = Figure::new(
        id,
        format!("LSM KV store (RocksDB stand-in) YCSB throughput, {state}-state RAID-5"),
        "YCSB workload",
        "KIOPS",
    );
    fig.series = run_app_sweep(App::Lsm, degraded);
    workload_axis_note(&mut fig);
    let r = Times(fig.ratio_at("dRAID", "SPDK", ycsb_x(YcsbWorkload::A)));
    #[rustfmt::skip]
    let (band, paper) = if degraded {
        (Above(1.27), "further improvement over normal state's 1.27x for all workloads (dRAID/SPDK on YCSB-A)")
    } else {
        (Above(1.2), "1.27x on YCSB-A, 1.28x on YCSB-F; ~1x on read-heavy B/C/D (dRAID/SPDK on YCSB-A)")
    };
    fig.claim([(KnownGap, format!("{id}-ycsb-a"), band, r, paper)]);
    fig.note(
        "paper: a single locked KV instance uses <5% of array bandwidth, compressing the gain"
            .to_string(),
    );
    fig
}

/// Figs. 20/21: object store YCSB throughput + latency.
pub(crate) fn object_ycsb(id: &str, degraded: bool) -> Figure {
    let state = if degraded { "degraded" } else { "normal" };
    let mut fig = Figure::new(
        id,
        format!("Object store YCSB on {state}-state RAID-5"),
        "YCSB workload",
        "KIOPS",
    );
    fig.series = run_app_sweep(App::Object, degraded);
    workload_axis_note(&mut fig);
    let n = |s| format!("{id}-{s}");
    let r = |w| Times(fig.ratio_at("dRAID", "SPDK", ycsb_x(w)));
    #[rustfmt::skip]
    let claims = if degraded {
        vec![(Gated, n("ycsb-b"), Above(1.5), r(YcsbWorkload::B), "~2.35x on read-heavy B/C/D in degraded state (dRAID/SPDK on YCSB-B)")]
    } else {
        vec![
            (KnownGap, n("ycsb-a"), Above(1.6), r(YcsbWorkload::A), "1.7x on YCSB-A (dRAID/SPDK)"),
            (KnownGap, n("ycsb-f"), Above(1.4), r(YcsbWorkload::F), "1.5x on YCSB-F (dRAID/SPDK)"),
            (Gated, n("ycsb-c"), Below(1.2), r(YcsbWorkload::C), "limited gain on read-heavy B/C/D (dRAID/SPDK on YCSB-C)"),
        ]
    };
    fig.claim(claims);
    fig
}
