//! FIO-based figures: §9.2–§9.5 (RAID-5, Figs. 9–18) and Appendix A
//! (RAID-6, Figs. 22–30).

use draid_core::{RaidLevel, ReducerPolicy, SystemKind};
use draid_workload::{FioJob, Runner};

use crate::claim::Band::{Above, Below, Within};
use crate::claim::Kind::{Gated, KnownGap};
use crate::claim::Value::{Mbps, Share, Times};
use crate::figure::{Figure, Point, Series};
use crate::parallel;
use crate::setup::{build_array, build_hetero_array, Scenario};

const SYSTEMS: [SystemKind; 3] = [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid];

struct PointSpec {
    label: String,
    x: f64,
    scenario: Scenario,
    hetero_slow: usize,
    job: FioJob,
}

fn run_sweep(specs: Vec<PointSpec>) -> Vec<Series> {
    let runner = Runner::new();
    let results = parallel::map(specs, |spec| {
        let array = if spec.hetero_slow > 0 {
            build_hetero_array(&spec.scenario, spec.hetero_slow)
        } else {
            build_array(&spec.scenario)
        };
        let report = runner.run(array, &spec.job);
        (
            spec.label,
            Point {
                x: spec.x,
                y: report.bandwidth_mb_per_sec,
                latency_us: Some(report.mean_latency_us),
            },
        )
    });
    Series::group(results)
}

fn three_system_sweep(
    xs: &[f64],
    mut scenario_of: impl FnMut(SystemKind, f64) -> (Scenario, FioJob),
) -> Vec<Series> {
    let mut specs = Vec::new();
    for &system in &SYSTEMS {
        for &x in xs {
            let (scenario, job) = scenario_of(system, x);
            specs.push(PointSpec {
                label: system.label().to_string(),
                x,
                scenario,
                hetero_slow: 0,
                job,
            });
        }
    }
    run_sweep(specs)
}

fn level_suffix(level: RaidLevel) -> &'static str {
    match level {
        RaidLevel::Raid5 => "RAID-5",
        RaidLevel::Raid6 => "RAID-6",
    }
}

/// Figs. 9/22: normal-state read bandwidth+latency vs I/O size (6 targets).
pub(crate) fn read_vs_io_size(id: &str, level: RaidLevel) -> Figure {
    let xs = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let mut fig = Figure::new(
        id,
        format!(
            "{} normal-state read on different I/O sizes",
            level_suffix(level)
        ),
        "I/O size (KiB)",
        "MB/s",
    );
    fig.series = three_system_sweep(&xs, |system, kib| {
        (
            Scenario::paper(system).level(level).width(6),
            FioJob::random_read(kib as u64 * 1024).queue_depth(32),
        )
    });
    let (n, bw) = (|s| format!("{id}-{s}"), |label| Mbps(fig.y(label, 128.0)));
    #[rustfmt::skip]
    let claims = [
        (Gated, n("read-goodput"), Above(10_500.0), bw("Linux"), "all systems reach NIC goodput (~92 Gbps = 11500 MB/s) beyond 64 KiB (Linux @128 KiB)"),
        (Gated, n("read-goodput"), Above(10_500.0), bw("SPDK"), "all systems reach NIC goodput (~92 Gbps = 11500 MB/s) beyond 64 KiB (SPDK @128 KiB)"),
        (Gated, n("read-goodput"), Above(10_500.0), bw("dRAID"), "all systems reach NIC goodput (~92 Gbps = 11500 MB/s) beyond 64 KiB (dRAID @128 KiB)"),
        (Gated, n("small-read"), Above(1.2), Times(fig.ratio_at("dRAID", "SPDK", 4.0)), "dRAID gains on small I/O from lock-free reads (dRAID/SPDK @4 KiB)"),
    ];
    fig.claim(claims);
    fig
}

/// Figs. 10/23: normal-state write vs I/O size (8 targets), spanning the
/// RMW → reconstruct-write → full-stripe boundaries.
pub(crate) fn write_vs_io_size(id: &str, level: RaidLevel) -> Figure {
    let xs: Vec<f64> = match level {
        RaidLevel::Raid5 => vec![
            4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 3584.0,
        ],
        RaidLevel::Raid6 => vec![
            4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 3072.0,
        ],
    };
    let mut fig = Figure::new(
        id,
        format!("{} write on different I/O sizes", level_suffix(level)),
        "I/O size (KiB)",
        "MB/s",
    );
    fig.series = three_system_sweep(&xs, |system, kib| {
        (
            Scenario::paper(system).level(level),
            FioJob::random_write(kib as u64 * 1024).queue_depth(32),
        )
    });
    let n = |s| format!("{id}-{s}");
    let r = |x| Times(fig.ratio_at("dRAID", "SPDK", x));
    let plateau = Mbps(fig.y("dRAID", 512.0));
    #[rustfmt::skip]
    let claims = match level {
        RaidLevel::Raid5 => [
            (KnownGap, n("ratio"), Above(1.6), r(128.0), "dRAID/SPDK @128 KiB = 1.7x"),
            (Gated, n("draid-plateau"), Within(4_500.0, 5_600.0), plateau, "dRAID plateaus at the 8-SSD read-modify-write bound (~5000 MB/s) between 256 KiB and 1024 KiB (@512 KiB)"),
            (Gated, n("full-stripe"), Within(0.95, 1.05), r(3584.0), "full-stripe writes identical, host-side parity for both (dRAID/SPDK @3584 KiB)"),
        ],
        RaidLevel::Raid6 => [
            (Gated, n("raid6-margin"), Above(1.5), r(128.0), "dRAID/SPDK @128 KiB = 2.3x: dRAID saves the extra Q forward"),
            (Gated, n("draid-plateau"), Within(3_000.0, 3_700.0), plateau, "dRAID plateaus at ~2/3 of RAID-5's ~5000 MB/s (@512 KiB)"),
            (Gated, n("full-stripe"), Within(0.95, 1.05), r(3072.0), "full-stripe writes identical, host-side parity for both (dRAID/SPDK @3072 KiB)"),
        ],
    };
    fig.claim(claims);
    fig
}

/// Figs. 11/24: write vs chunk size at 128 KiB I/O.
pub(crate) fn write_vs_chunk(id: &str, level: RaidLevel) -> Figure {
    let xs = [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0];
    let mut fig = Figure::new(
        id,
        format!("{} write on different chunk sizes", level_suffix(level)),
        "chunk size (KiB)",
        "MB/s",
    );
    fig.series = three_system_sweep(&xs, |system, chunk| {
        (
            Scenario::paper(system).level(level).chunk_kib(chunk as u64),
            FioJob::random_write(128 * 1024).queue_depth(32),
        )
    });
    let r = Times(fig.ratio_at("dRAID", "SPDK", 512.0));
    #[rustfmt::skip]
    let (kind, band, paper) = match level {
        RaidLevel::Raid5 => (KnownGap, Above(1.6), "dRAID improvement up to 1.7x (dRAID/SPDK @512 KiB chunks)"),
        RaidLevel::Raid6 => (Gated, Above(2.0), "dRAID improvement up to 2.6x (dRAID/SPDK @512 KiB chunks)"),
    };
    fig.claim([(kind, format!("{id}-ratio"), band, r, paper)]);
    fig
}

/// Figs. 12/25: write vs stripe width at 128 KiB.
pub(crate) fn write_vs_width(id: &str, level: RaidLevel) -> Figure {
    let xs = [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0];
    let mut fig = Figure::new(
        id,
        format!("{} write on different stripe widths", level_suffix(level)),
        "stripe width",
        "MB/s",
    );
    fig.series = three_system_sweep(&xs, |system, w| {
        (
            Scenario::paper(system).level(level).width(w as usize),
            FioJob::random_write(128 * 1024).queue_depth(96),
        )
    });
    let n = |s| format!("{id}-{s}");
    let (draid18, spdk18) = (fig.y("dRAID", 18.0), fig.y("SPDK", 18.0));
    let trend = |label| Times(fig.y(label, 18.0) / fig.y(label, 6.0));
    #[rustfmt::skip]
    let claims = match level {
        RaidLevel::Raid5 => vec![
            (Gated, n("scaling"), Above(9_000.0), Mbps(draid18), "dRAID scales linearly, 84 Gbps (10500 MB/s) at width 18 toward NIC goodput 11500 (@18)"),
            (Gated, n("scaling"), Below(6_000.0), Mbps(spdk18), "SPDK capped at half NIC goodput, ~5750 MB/s (@18)"),
            (Gated, n("scaling"), Above(1.8), Times(draid18 / spdk18), "dRAID 10500 vs SPDK 5750 MB/s (dRAID/SPDK @18)"),
            (Gated, n("linux-declines"), Below(1.0), trend("Linux"), "Linux declines with width, stripe-cache overhead (@18 / @6)"),
        ],
        RaidLevel::Raid6 => vec![
            (Gated, n("draid-scales"), Above(2.5), trend("dRAID"), "dRAID scales near-linearly with width (@18 / @6)"),
            (Gated, n("spdk-flat"), Below(1.2), trend("SPDK"), "SPDK hardly scales with width (@18 / @6)"),
        ],
    };
    fig.claim(claims);
    fig
}

/// Figs. 13/26: write vs read ratio.
pub(crate) fn write_vs_mix(id: &str, level: RaidLevel) -> Figure {
    let xs = [0.0, 25.0, 50.0, 75.0, 100.0];
    let mut fig = Figure::new(
        id,
        format!(
            "{} write on different read/write ratios",
            level_suffix(level)
        ),
        "read %",
        "MB/s",
    );
    fig.series = three_system_sweep(&xs, |system, pct| {
        (
            Scenario::paper(system).level(level),
            FioJob::mixed(pct / 100.0, 128 * 1024).queue_depth(32),
        )
    });
    let n = |s| format!("{id}-{s}");
    let r = |x| Times(fig.ratio_at("dRAID", "SPDK", x));
    #[rustfmt::skip]
    let (kind, band, paper) = match level {
        RaidLevel::Raid5 => (KnownGap, Above(1.4), "dRAID/SPDK 1.4x-1.7x on all mixed ratios (@50% read)"),
        RaidLevel::Raid6 => (Gated, Above(1.6), "dRAID/SPDK 1.6x-2.3x on all mixed ratios (@50% read)"),
    };
    #[rustfmt::skip]
    let claims = [
        (kind, n("mixed"), band, r(50.0), paper),
        (Gated, n("read-only"), Within(0.95, 1.05), r(100.0), "no improvement on read-only (dRAID/SPDK @100% read)"),
    ];
    fig.claim(claims);
    fig
}

/// Figs. 14/27: latency vs bandwidth, width 18, write-only or 50/50 mix.
pub(crate) fn latency_vs_bandwidth(id: &str, level: RaidLevel, read_ratio: f64) -> Figure {
    let qds = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 96.0, 128.0, 192.0];
    let kind = if read_ratio == 0.0 {
        "write-only"
    } else {
        "50% read + 50% write"
    };
    let mut fig = Figure::new(
        id,
        format!(
            "{} latency vs bandwidth ({kind}, 18 targets)",
            level_suffix(level)
        ),
        "queue depth",
        "MB/s",
    );
    fig.series = three_system_sweep(&qds, |system, qd| {
        (
            Scenario::paper(system).level(level).width(18),
            FioJob::mixed(read_ratio, 128 * 1024).queue_depth(qd as usize),
        )
    });
    for s in &fig.series {
        fig.notes
            .push(format!("{} max bandwidth = {:.0} MB/s", s.label, s.peak()));
    }
    let n = |s| format!("{id}-{s}");
    let peak = |label| fig.series(label).map_or(f64::NAN, Series::peak);
    let (draid, ratio) = (Mbps(peak("dRAID")), Times(peak("dRAID") / peak("SPDK")));
    #[rustfmt::skip]
    let claims = match (level, read_ratio == 0.0) {
        (RaidLevel::Raid5, true) => [
            (Gated, n("draid-peak"), Above(9_000.0), draid, "dRAID ~92 Gbps (11500 MB/s) theoretical (max bandwidth)"),
            (Gated, n("ratio"), Above(1.8), ratio, "SPDK half of dRAID (max bandwidths)"),
        ],
        (RaidLevel::Raid5, false) => [
            (Gated, n("draid-peak"), Above(9_000.0), draid, "dRAID approaching NIC goodput (max bandwidth)"),
            (Gated, n("ratio"), Above(2.0), ratio, "dRAID up to 3x SPDK (max bandwidths)"),
        ],
        (RaidLevel::Raid6, true) => [
            (Gated, n("draid-peak"), Above(7_000.0), draid, "dRAID max 8692 MB/s write-only"),
            (Gated, n("ratio"), Above(2.5), ratio, "dRAID ~3x SPDK (max bandwidths)"),
        ],
        (RaidLevel::Raid6, false) => [
            (Gated, n("draid-peak"), Above(12_000.0), draid, "dRAID max 15822 MB/s on 50/50"),
            (Gated, n("ratio"), Above(2.5), ratio, "dRAID ~3x SPDK (max bandwidths)"),
        ],
    };
    fig.claim(claims);
    fig
}

/// Figs. 15/28: degraded-state read vs I/O size (one failed member).
pub(crate) fn degraded_read_vs_io(id: &str, level: RaidLevel) -> Figure {
    let xs = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let mut fig = Figure::new(
        id,
        format!(
            "{} degraded read on different I/O sizes",
            level_suffix(level)
        ),
        "I/O size (KiB)",
        "MB/s",
    );
    fig.series = three_system_sweep(&xs, |system, kib| {
        (
            Scenario::paper(system).level(level).failed(1),
            FioJob::random_read(kib as u64 * 1024).queue_depth(32),
        )
    });
    // Normal-state reference at 128 KiB for the "95% of normal" claim.
    let runner = Runner::new();
    let normal = runner
        .run(
            build_array(&Scenario::paper(SystemKind::Draid).level(level)),
            &FioJob::random_read(128 * 1024).queue_depth(32),
        )
        .bandwidth_mb_per_sec;
    let n = format!("{id}-degraded-read");
    let of_normal = |label| Share(fig.y(label, 128.0) / normal);
    #[rustfmt::skip]
    let claims = [
        (Gated, n.clone(), Above(0.9), of_normal("dRAID"), "dRAID degraded read reaches 95% of normal-state read (@128 KiB)"),
        (Gated, n.clone(), Below(0.7), of_normal("SPDK"), "SPDK degraded read reaches ~57-61% of normal-state read (@128 KiB)"),
        (Gated, n, Below(2_000.0), Mbps(fig.y("Linux", 128.0)), "Linux only reaches 834 MB/s (@128 KiB)"),
    ];
    fig.claim(claims);
    fig
}

/// Figs. 16/29: degraded read vs stripe width.
pub(crate) fn degraded_read_vs_width(id: &str, level: RaidLevel) -> Figure {
    let xs = [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0];
    let mut fig = Figure::new(
        id,
        format!(
            "{} degraded read on different stripe widths",
            level_suffix(level)
        ),
        "stripe width",
        "MB/s",
    );
    fig.series = three_system_sweep(&xs, |system, w| {
        (
            Scenario::paper(system)
                .level(level)
                .width(w as usize)
                .failed(1),
            FioJob::random_read(128 * 1024).queue_depth(48),
        )
    });
    let n = |s| format!("{id}-{s}");
    let spdk_peak = fig.series("SPDK").map_or(f64::NAN, Series::peak);
    #[rustfmt::skip]
    let claims = [
        (Gated, n("ratio"), Above(1.5), Times(fig.ratio_at("dRAID", "SPDK", 16.0)), "dRAID improvement up to 2.4x as width grows (dRAID/SPDK @16)"),
        (Gated, n("linux-declines"), Below(1.0), Times(fig.y("Linux", 18.0) / fig.y("Linux", 4.0)), "Linux worsens with width (@18 / @4)"),
        (Gated, n("spdk-declines"), Below(0.95), Times(fig.y("SPDK", 18.0) / spdk_peak), "SPDK peaks near width 6-8 then declines (@18 / peak)"),
    ];
    fig.claim(claims);
    fig
}

/// Fig. 17a: reconstruction scalability — every read reconstructs the failed
/// member's chunks (rebuild-style load), SPDK vs dRAID.
pub(crate) fn reconstruction_scalability(id: &str) -> Figure {
    let xs = [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0];
    let mut fig = Figure::new(
        id,
        "Reconstruction scalability (all reads degraded)",
        "stripe width",
        "MB/s",
    );
    let mut specs = Vec::new();
    for system in [SystemKind::SpdkRaid, SystemKind::Draid] {
        for &w in &xs {
            specs.push(PointSpec {
                label: system.label().to_string(),
                x: w,
                scenario: Scenario::paper(system).width(w as usize).failed(1),
                hetero_slow: 0,
                job: FioJob::random_read(128 * 1024)
                    .queue_depth(48)
                    .target_member(0),
            });
        }
    }
    fig.series = run_sweep(specs);
    let trend = |label| Times(fig.y(label, 18.0) / fig.y(label, 4.0));
    #[rustfmt::skip]
    let claims = [
        (Gated, format!("{id}-draid-flat"), Above(0.95), trend("dRAID"), "dRAID near-optimal for all widths (@18 / @4)"),
        (Gated, format!("{id}-spdk-declines"), Below(1.0), trend("SPDK"), "SPDK flattens then declines (@18 / @4)"),
    ];
    fig.claim(claims);
    fig
}

/// Fig. 17b: random vs bandwidth-aware reducer selection over a
/// heterogeneous 25/100 Gbps network, latency vs load.
pub(crate) fn bandwidth_aware_reconstruction(id: &str) -> Figure {
    let qds = [4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0];
    let mut fig = Figure::new(
        id,
        "Degraded read with heterogeneous NICs: random vs bandwidth-aware reducer",
        "queue depth",
        "MB/s",
    );
    let mut specs = Vec::new();
    for (label, policy) in [
        ("Random", ReducerPolicy::Random),
        ("BW-Aware", ReducerPolicy::BandwidthAware),
    ] {
        for &qd in &qds {
            let draid = draid_core::DraidOptions {
                reducer: policy,
                ..Default::default()
            };
            specs.push(PointSpec {
                label: label.to_string(),
                x: qd,
                scenario: Scenario::paper(SystemKind::Draid).failed(1).draid(draid),
                hetero_slow: 3,
                job: FioJob::random_read(128 * 1024)
                    .queue_depth(qd as usize)
                    .target_member(0),
            });
        }
    }
    fig.series = run_sweep(specs);
    // Both reducers at the same queue depth (DESIGN.md §3 says why).
    let r = Times(fig.ratio_at("BW-Aware", "Random", 16.0));
    #[rustfmt::skip]
    let claim = (Gated, format!("{id}-bw-aware"), Above(1.2), r, "bandwidth-aware improves read bandwidth by 53% over random (BW-Aware/Random @QD 16)");
    fig.claim([claim]);
    fig
}

/// Figs. 18/30: degraded-state write vs I/O size.
pub(crate) fn degraded_write_vs_io(id: &str, level: RaidLevel) -> Figure {
    let xs = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
    let mut fig = Figure::new(
        id,
        format!(
            "{} degraded-state write on different I/O sizes",
            level_suffix(level)
        ),
        "I/O size (KiB)",
        "MB/s",
    );
    fig.series = three_system_sweep(&xs, |system, kib| {
        (
            Scenario::paper(system).level(level).failed(1),
            FioJob::random_write(kib as u64 * 1024).queue_depth(32),
        )
    });
    let r = Times(fig.ratio_at("dRAID", "SPDK", 128.0));
    #[rustfmt::skip]
    let (band, paper) = match level {
        RaidLevel::Raid5 => (Above(1.6), "dRAID/SPDK @128 KiB = 1.7x (both ~5% below normal state)"),
        RaidLevel::Raid6 => (Above(2.5), "dRAID/SPDK @128 KiB = 2.6x (SPDK -23%, dRAID -11% vs normal)"),
    };
    fig.claim([(KnownGap, format!("{id}-ratio"), band, r, paper)]);
    fig
}
