//! The reproduction gates: a fast subset of the evaluation that checks the
//! paper's key *directional* claims with tolerances. `draid-check repro`
//! prints them and fails on any regression; CI runs it as the guard for the
//! reproduction. The runs take about 2 s in a release build.

use draid_core::{DraidOptions, RaidLevel, ReducerPolicy, SystemKind};
use draid_workload::{FioJob, Runner};

use crate::{build_array, build_hetero_array, Scenario};

/// One gate's outcome.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Stable gate name (`fig10-draid-plateau`, …).
    pub name: &'static str,
    /// Whether the measured value is inside the gate's tolerance.
    pub pass: bool,
    /// The measured values next to the paper's.
    pub detail: String,
}

/// Runs every gate, in a fixed order.
pub fn gates() -> Vec<Gate> {
    let runner = Runner::new();
    let mut gates = Vec::new();
    let mut gate = |name, pass, detail| gates.push(Gate { name, pass, detail });

    // 1. Normal reads saturate NIC goodput for every system (Fig 9).
    let read_job = FioJob::random_read(128 * 1024).queue_depth(32);
    let read_bw: Vec<f64> = [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid]
        .iter()
        .map(|&s| {
            runner
                .run(build_array(&Scenario::paper(s).width(6)), &read_job)
                .bandwidth_mb_per_sec
        })
        .collect();
    gate(
        "fig09-read-goodput",
        read_bw.iter().all(|&bw| bw > 10_500.0),
        format!("{read_bw:.0?} MB/s (need all > 10500)"),
    );

    // 2. dRAID write plateau at the 8-SSD RMW bound (Fig 10).
    let w = runner.run(
        build_array(&Scenario::paper(SystemKind::Draid)),
        &FioJob::random_write(512 * 1024).queue_depth(32),
    );
    gate(
        "fig10-draid-plateau",
        (4_500.0..5_600.0).contains(&w.bandwidth_mb_per_sec),
        format!("{:.0} MB/s (paper ~5000)", w.bandwidth_mb_per_sec),
    );

    // 3. Width-18 separation: dRAID near goodput, SPDK near half (Fig 12/14).
    let wide_job = FioJob::random_write(128 * 1024).queue_depth(96);
    let draid18 = runner
        .run(
            build_array(&Scenario::paper(SystemKind::Draid).width(18)),
            &wide_job,
        )
        .bandwidth_mb_per_sec;
    let spdk18 = runner
        .run(
            build_array(&Scenario::paper(SystemKind::SpdkRaid).width(18)),
            &wide_job,
        )
        .bandwidth_mb_per_sec;
    gate(
        "fig12-scaling",
        draid18 > 9_000.0 && spdk18 < 6_000.0 && draid18 > 1.8 * spdk18,
        format!("dRAID {draid18:.0}, SPDK {spdk18:.0} MB/s (paper 10500 vs 5750)"),
    );

    // 4. Degraded read: dRAID ≈ normal, SPDK ~0.55-0.7, Linux collapsed (Fig 15).
    let dread_job = FioJob::random_read(128 * 1024).queue_depth(32);
    let normal = runner
        .run(build_array(&Scenario::paper(SystemKind::Draid)), &dread_job)
        .bandwidth_mb_per_sec;
    let degraded: Vec<f64> = [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid]
        .iter()
        .map(|&s| {
            runner
                .run(build_array(&Scenario::paper(s).failed(1)), &dread_job)
                .bandwidth_mb_per_sec
        })
        .collect();
    gate(
        "fig15-degraded-read",
        degraded[2] > 0.9 * normal && degraded[1] < 0.7 * normal && degraded[0] < 2_000.0,
        format!(
            "dRAID {:.0}/{normal:.0}, SPDK {:.0}, Linux {:.0} MB/s",
            degraded[2], degraded[1], degraded[0]
        ),
    );

    // 5. Table 1 traffic asymmetry: host copies per user byte.
    let t_draid = runner.run(
        build_array(&Scenario::paper(SystemKind::Draid)),
        &FioJob::random_write(128 * 1024).queue_depth(16),
    );
    let t_spdk = runner.run(
        build_array(&Scenario::paper(SystemKind::SpdkRaid)),
        &FioJob::random_write(128 * 1024).queue_depth(16),
    );
    let copies = |r: &draid_workload::RunReport| {
        (r.host_tx_bytes + r.host_rx_bytes) as f64 / (r.writes as f64 * 131_072.0)
    };
    let (cd, cs) = (copies(&t_draid), copies(&t_spdk));
    gate(
        "table1-host-copies",
        cd < 1.2 && cs > 3.5,
        format!("dRAID {cd:.2}x, centralized {cs:.2}x (paper 1x vs 4x)"),
    );

    // 6. Bandwidth-aware reducer beats random on a heterogeneous net (Fig 17b).
    let hetero_job = FioJob::random_read(128 * 1024)
        .queue_depth(16)
        .target_member(0);
    let hetero = |policy| {
        let opts = DraidOptions {
            reducer: policy,
            ..DraidOptions::default()
        };
        runner
            .run(
                build_hetero_array(&Scenario::paper(SystemKind::Draid).failed(1).draid(opts), 3),
                &hetero_job,
            )
            .bandwidth_mb_per_sec
    };
    let (rnd, aware) = (
        hetero(ReducerPolicy::Random),
        hetero(ReducerPolicy::BandwidthAware),
    );
    gate(
        "fig17b-bw-aware",
        aware > 1.2 * rnd,
        format!("{aware:.0} vs {rnd:.0} MB/s (paper +53%)"),
    );

    // 7. RAID-6: the extra Q forward widens dRAID's margin (Fig 23).
    let r6_job = FioJob::random_write(128 * 1024).queue_depth(32);
    let r6 = |s| {
        runner
            .run(
                build_array(&Scenario::paper(s).level(RaidLevel::Raid6)),
                &r6_job,
            )
            .bandwidth_mb_per_sec
    };
    let (d6, s6) = (r6(SystemKind::Draid), r6(SystemKind::SpdkRaid));
    gate(
        "fig23-raid6-margin",
        d6 > 1.5 * s6,
        format!("dRAID {d6:.0} vs SPDK {s6:.0} MB/s (paper 2.3x)"),
    );

    // 8. §7: dRAID member cores stay below 25%.
    let util = runner.run(
        build_array(&Scenario::paper(SystemKind::Draid)),
        &FioJob::random_write(128 * 1024).queue_depth(48),
    );
    gate(
        "sec7-member-cpu",
        util.max_member_cpu < 0.25,
        format!(
            "{:.1}% of one core (paper <25%)",
            util.max_member_cpu * 100.0
        ),
    );

    gates
}
