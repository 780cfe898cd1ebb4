//! The paper's §9.6 object-store scenario: a hash-based object store under
//! YCSB, comparing dRAID against the centralized SPDK baseline on the same
//! simulated hardware.
//!
//! ```text
//! cargo run --release --example object_store
//! ```

use draid::block::Cluster;
use draid::core::{ArrayConfig, ArraySim, SystemKind};
use draid::sim::SimTime;
use draid::store::{AppRunner, Distribution, ObjectStore, YcsbGen, YcsbWorkload};

fn run(system: SystemKind, workload: YcsbWorkload) -> draid::store::AppReport {
    let cfg = ArrayConfig::paper_default(system);
    let array = ArraySim::new(Cluster::homogeneous(cfg.width), cfg).expect("valid config");
    let runner = AppRunner {
        concurrency: 48,
        warmup: SimTime::from_millis(10),
        measure: SimTime::from_millis(80),
    };
    // §9.6: 200 K objects of 128 KiB, uniform key distribution.
    runner.run(
        array,
        ObjectStore,
        YcsbGen::with_distribution(workload, Distribution::Uniform, 200_000, 42),
    )
}

fn main() {
    println!("object store (200K x 128 KiB objects, uniform), RAID-5 x8:\n");
    println!(
        "{:<8} {:>12} {:>12} {:>9} {:>14}",
        "workload", "SPDK KIOPS", "dRAID KIOPS", "speedup", "dRAID lat (us)"
    );
    for workload in YcsbWorkload::ALL {
        let spdk = run(SystemKind::SpdkRaid, workload);
        let draid = run(SystemKind::Draid, workload);
        println!(
            "{:<8} {:>12.1} {:>12.1} {:>8.2}x {:>14.0}",
            workload.label(),
            spdk.kiops,
            draid.kiops,
            draid.kiops / spdk.kiops,
            draid.mean_latency_us
        );
    }
    println!(
        "\npaper (Fig. 20): dRAID ~1.7x on YCSB-A, ~1.5x on YCSB-F, little gain on read-heavy B/C/D"
    );
}
