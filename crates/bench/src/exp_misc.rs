//! Table 1 (remote-RAID architecture overheads), the design-choice
//! ablations called out in DESIGN.md, and the extensions beyond the paper's
//! artifact: the §7 server-CPU claim, traced per-op resource demand,
//! open-loop latency, a two-tier oversubscribed core and the bottleneck
//! attribution of one loaded run.

use draid_block::ClusterBuilder;
use draid_core::trace::{ClassBreakdown, StepClass};
use draid_core::{
    run_measured, ArrayConfig, ArraySim, DraidOptions, RaidLevel, ReducerPolicy, SystemKind,
    UserIo, MEASURE_SLICES,
};
use draid_net::CX5_100G;
use draid_sim::{ByteRate, Engine, SimTime, UtilizationTimeline};
use draid_workload::{start_closed_loop, ArrivalPattern, FioJob, OpenLoopRunner, Runner};

use crate::claim::Band::{Above, Below};
use crate::claim::Kind::Gated;
use crate::claim::Value::{Share, Times};
use crate::figure::{Figure, Point, Series};
use crate::parallel;
use crate::setup::{build_array, build_hetero_array, Scenario};

/// Table 1: measured network overheads of the remote-RAID architectures.
///
/// The paper's table is architectural (fault tolerance, hot spare, scaling,
/// write overhead, degraded-read overhead). The static rows are reproduced
/// in the notes; the overhead rows are *measured* from simulation as host
/// NIC bytes per user byte and checked as the table's claims.
pub(crate) fn table1(id: &str) -> Figure {
    let mut fig = Figure::new(
        id,
        "Remote RAID architectures: measured host-NIC traffic per user byte",
        "row (0=write overhead, 1=degraded-read overhead)",
        "host bytes / user byte",
    );
    let runner = Runner::new();
    let systems = [
        ("Distributed", SystemKind::SpdkRaid),
        ("dRAID", SystemKind::Draid),
    ];
    let results = parallel::map(systems.to_vec(), |(label, system)| {
        // Write overhead: sub-chunk partial writes (the worst case Table 1
        // quotes as 1-4x for a distributed architecture, 1x for dRAID).
        let w = runner.run(
            build_array(&Scenario::paper(system)),
            &FioJob::random_write(128 * 1024).queue_depth(16),
        );
        let write_overhead =
            (w.host_tx_bytes + w.host_rx_bytes) as f64 / (w.writes as f64 * 128.0 * 1024.0);
        // Degraded-read overhead: reads of the failed member's chunks.
        let r = runner.run(
            build_array(&Scenario::paper(system).failed(1)),
            &FioJob::random_read(128 * 1024)
                .queue_depth(16)
                .target_member(0),
        );
        let dread_overhead = r.host_rx_bytes as f64 / (r.reads as f64 * 128.0 * 1024.0);
        (label, write_overhead, dread_overhead)
    });
    for (label, write_overhead, dread_overhead) in results {
        fig.series
            .push(rows(label, &[write_overhead, dread_overhead]));
    }
    let n = |s| format!("{id}-{s}");
    let copies = |label, row| Times(fig.y(label, row));
    #[rustfmt::skip]
    let claims = [
        (Gated, n("host-copies"), Below(1.2), copies("dRAID", 0.0), "write overhead: dRAID 1x"),
        (Gated, n("host-copies"), Above(3.5), copies("Distributed", 0.0), "write overhead: distributed 1-4x (4x on sub-chunk writes)"),
        (Gated, n("dread-copies"), Below(1.2), copies("dRAID", 1.0), "D-read overhead: dRAID 1x"),
        (Gated, n("dread-copies"), Above(6.0), copies("Distributed", 1.0), "D-read overhead: distributed Nx (N-1 = 7 survivors at width 8)"),
    ];
    fig.claim(claims);
    fig.note("static rows: fault tolerance — single-machine: disk only; distributed & dRAID: disk & server".to_string());
    fig.note("static rows: hot spare — single-machine: dedicated; distributed & dRAID: shared storage pool".to_string());
    fig.note(
        "static rows: scaling — single-machine: pre-provisioned; distributed & dRAID: on demand"
            .to_string(),
    );
    fig
}

/// Ablations of dRAID's three §5–§6 techniques plus the lock-free read.
pub(crate) fn ablation(id: &str) -> Figure {
    let mut fig = Figure::new(
        id,
        "dRAID design ablations (128 KiB, 8 targets)",
        "variant (see notes)",
        "MB/s",
    );
    let full = DraidOptions::default();
    let variants: Vec<(f64, &'static str, DraidOptions, bool)> = vec![
        (0.0, "full dRAID", full, false),
        (
            1.0,
            "no pipeline (serial per-bdev I/O, ablates Fig.7/§5.3)",
            DraidOptions {
                pipeline: false,
                ..full
            },
            false,
        ),
        (
            2.0,
            "blocking reduce (barrier between phases, ablates §5.2; cost shows under contention/stagger, small at low load)",
            DraidOptions {
                nonblocking: false,
                ..full
            },
            false,
        ),
        (
            3.0,
            "no peer-to-peer (partials via host, ablates §2.3; binding in the NIC-bound regime — see the width-18 rows)",
            DraidOptions {
                peer_to_peer: false,
                ..full
            },
            false,
        ),
        (
            4.0,
            "locked reads (ablates lock-free read, §8)",
            DraidOptions {
                lockfree_read: false,
                ..full
            },
            true,
        ),
    ];
    let runner = Runner::new();
    let results = parallel::map(variants, |(x, name, opts, read_side)| {
        let scenario = Scenario::paper(SystemKind::Draid).draid(opts);
        let job = if read_side {
            FioJob::random_read(4 * 1024).queue_depth(32)
        } else {
            FioJob::random_write(128 * 1024).queue_depth(32)
        };
        let report = runner.run(build_array(&scenario), &job);
        (x, name, report.bandwidth_mb_per_sec, report.mean_latency_us)
    });
    let mut write_series = Series {
        label: "dRAID variant".to_string(),
        points: Vec::new(),
    };
    for (x, name, bw, lat) in results {
        write_series.points.push(Point {
            x,
            y: bw,
            latency_us: Some(lat),
        });
        fig.notes.push(format!("variant {x:.0}: {name}"));
    }
    fig.series.push(write_series);

    // The same variants at width 18, where the host NIC (not the drives)
    // is the bottleneck and the data-path ablations bind.
    let wide = parallel::map(
        vec![
            (0.0, full),
            (
                1.0,
                DraidOptions {
                    pipeline: false,
                    ..full
                },
            ),
            (
                2.0,
                DraidOptions {
                    nonblocking: false,
                    ..full
                },
            ),
            (
                3.0,
                DraidOptions {
                    peer_to_peer: false,
                    ..full
                },
            ),
        ],
        |(x, opts)| {
            let scenario = Scenario::paper(SystemKind::Draid).width(18).draid(opts);
            let report = runner.run(
                build_array(&scenario),
                &FioJob::random_write(128 * 1024).queue_depth(96),
            );
            (x, report.bandwidth_mb_per_sec, report.mean_latency_us)
        },
    );
    let no_p2p = Times(wide[3].1 / wide[0].1);
    fig.series.push(Series {
        label: "dRAID variant (width 18)".to_string(),
        points: wide
            .into_iter()
            .map(|(x, y, lat)| Point {
                x,
                y,
                latency_us: Some(lat),
            })
            .collect(),
    });

    // Unloaded latency (queue depth 2): the §5.2/§5.3 techniques shorten
    // the op critical path, which queueing hides at saturation.
    let low_qd = parallel::map(
        vec![
            ("full dRAID", full),
            (
                "no pipeline",
                DraidOptions {
                    pipeline: false,
                    ..full
                },
            ),
            (
                "blocking reduce",
                DraidOptions {
                    nonblocking: false,
                    ..full
                },
            ),
        ],
        |(name, opts)| {
            let scenario = Scenario::paper(SystemKind::Draid).draid(opts);
            let report = runner.run(
                build_array(&scenario),
                &FioJob::random_write(1024 * 1024).queue_depth(2),
            );
            (name, report.mean_latency_us)
        },
    );
    let serial = Times(low_qd[1].1 / low_qd[0].1);
    for (name, lat) in low_qd {
        fig.notes
            .push(format!("unloaded 1 MiB write latency, {name}: {lat:.0} us"));
    }
    #[rustfmt::skip]
    let claims = [
        (Gated, format!("{id}-p2p"), Below(0.7), no_p2p, "peer-to-peer partials are load-bearing where the host NIC binds (no-p2p / full @ width 18)"),
        (Gated, format!("{id}-pipeline"), Above(1.1), serial, "the Fig. 7 pipeline shortens the op (unloaded 1 MiB write latency, serial / pipelined)"),
    ];
    fig.claim(claims);

    // Reducer-policy ablation on the heterogeneous network.
    let hetero = parallel::map(
        vec![
            ("random reducer (hetero net)", ReducerPolicy::Random),
            (
                "bw-aware reducer (hetero net)",
                ReducerPolicy::BandwidthAware,
            ),
        ],
        |(name, policy)| {
            let opts = DraidOptions {
                reducer: policy,
                ..DraidOptions::default()
            };
            let scenario = Scenario::paper(SystemKind::Draid).failed(1).draid(opts);
            let report = runner.run(
                build_hetero_array(&scenario, 3),
                &FioJob::random_read(128 * 1024)
                    .queue_depth(48)
                    .target_member(0),
            );
            (name, report.bandwidth_mb_per_sec)
        },
    );
    for (i, (name, bw)) in hetero.into_iter().enumerate() {
        fig.notes
            .push(format!("reducer ablation {i}: {name} = {bw:.0} MB/s"));
    }
    fig
}

/// A series of `(x, y)` points without latencies.
fn series(label: &str, points: impl IntoIterator<Item = (f64, f64)>) -> Series {
    Series {
        label: label.to_string(),
        points: points
            .into_iter()
            .map(|(x, y)| Point {
                x,
                y,
                latency_us: None,
            })
            .collect(),
    }
}

/// A series in table1's "row" convention: row `i` carries `values[i]`.
fn rows(label: &str, values: &[f64]) -> Series {
    series(
        label,
        values.iter().enumerate().map(|(i, &y)| (i as f64, y)),
    )
}

/// §7 server-CPU claim: "we strictly limit dRAID to use only one core per
/// SSD on the storage server … dRAID uses <25% of the CPU cycles", measured
/// at each system's peak partial-stripe-write load.
pub(crate) fn cpu_util(id: &str) -> Figure {
    let mut fig = Figure::new(
        id,
        "Server-side core utilization at saturated 128 KiB writes (RAID-5 x8)",
        "row (0=MB/s, 1=max member core %, 2=host core %)",
        "value",
    );
    let runner = Runner::new();
    let job = FioJob::random_write(128 * 1024).queue_depth(48);
    let results = parallel::map(vec![SystemKind::SpdkRaid, SystemKind::Draid], |system| {
        let report = runner.run(build_array(&Scenario::paper(system)), &job);
        (system, report)
    });
    let member_cpu = results[1].1.max_member_cpu;
    for (system, r) in results {
        let (bw, member, host) = (
            r.bandwidth_mb_per_sec,
            r.max_member_cpu * 100.0,
            r.host_cpu * 100.0,
        );
        fig.series.push(rows(system.label(), &[bw, member, host]));
        fig.note(format!(
            "{}: {bw:.0} MB/s, max member core {member:.1}%, host core {host:.1}%",
            system.label()
        ));
    }
    #[rustfmt::skip]
    let claim = (Gated, "sec7-member-cpu".into(), Below(0.25), Share(member_cpu), "§7: dRAID uses <25% of one core per SSD at peak write bandwidth (max member core)");
    fig.claim([claim]);
    fig
}

/// Traced per-op resource demand of partial-stripe writes — the paper's
/// Table 1 bandwidth argument quantified from inside the simulator — plus
/// the critical-path attribution of one unloaded write per system.
pub(crate) fn breakdown(id: &str) -> Figure {
    const OPS: u64 = 64;
    const IO: u64 = 128 * 1024;
    let mut fig = Figure::new(
        id,
        "Per-op resource demand for 64 x 128 KiB partial-stripe writes (RAID-5 x8)",
        "row (0=net bytes/op, 1=drive bytes/op, 2=cpu bytes/op, 3=net span us/op)",
        "value",
    );
    let systems = vec![SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid];
    let results = parallel::map(systems, |system| {
        let mut array = build_array(&Scenario::paper(system));
        array.enable_tracing(1_000_000);
        let mut engine = Engine::new();
        let stripe = array.layout().stripe_data_bytes();
        for i in 0..OPS {
            array.submit(&mut engine, UserIo::write(i * stripe, IO));
        }
        engine.run(&mut array);
        assert!(array.drain_completions().iter().all(|r| r.is_ok()));
        let bd = array.take_trace().expect("tracing on").breakdown();
        let get = |class: StepClass| {
            bd.iter()
                .find(|(c, _)| *c == class)
                .map(|(_, a)| *a)
                .unwrap_or_default()
        };
        let (net, drive, cpu) = (
            get(StepClass::Network),
            get(StepClass::Drive),
            get(StepClass::Cpu),
        );
        let demand = [
            (net.bytes / OPS) as f64,
            (drive.bytes / OPS) as f64,
            (cpu.bytes / OPS) as f64,
            net.total_span.as_micros_f64() / OPS as f64,
        ];

        // Where a single unloaded op's latency goes (queueing included).
        let mut array = build_array(&Scenario::paper(system));
        array.enable_tracing(10_000);
        let mut engine = Engine::new();
        array.submit(&mut engine, UserIo::write(0, IO));
        engine.run(&mut array);
        assert!(array.drain_completions().pop().expect("done").is_ok());
        let trace = array.take_trace().expect("tracing on");
        let op = trace.ops().first().expect("the write launched an op");
        let path = trace.critical_path(op).map(|path| {
            [
                path.total,
                path.class(StepClass::Network),
                path.class(StepClass::Drive),
                path.class(StepClass::Cpu),
                path.class(StepClass::Control),
            ]
            .map(|t| t.as_micros_f64())
        });
        (system, demand, path)
    });
    for (system, demand, _) in &results {
        fig.series.push(rows(system.label(), demand));
        fig.note(format!(
            "{}: net span {:.1} us/op",
            system.label(),
            demand[3]
        ));
    }
    for (system, _, path) in &results {
        if let Some([total, network, drive, cpu, control]) = path {
            fig.note(format!(
                "{}: unloaded 128 KiB write critical path {total:.0} us — network {network:.0}, drive {drive:.0}, cpu {cpu:.0}, control {control:.0}",
                system.label()
            ));
        }
    }
    fig.note(format!(
        "reading: all three systems do the same drive work (row 1), while SPDK moves {:.2}x dRAID's network bytes per op (row 0) — the Table 1 asymmetry",
        fig.ratio_at("SPDK", "dRAID", 0.0)
    ));
    fig
}

/// Open-loop latency under offered load — the serverless-style view (§1
/// motivates disaggregation with serverless elasticity): a Poisson sweep per
/// system, then bursty arrivals against Poisson at equal mean rate on dRAID.
pub(crate) fn openloop(id: &str) -> Figure {
    const LOADS: [f64; 9] = [2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0];
    let mut fig = Figure::new(
        id,
        "Open-loop 128 KiB random writes, RAID-5 x8",
        "offered Kops/s",
        "mean latency us",
    );
    let job = FioJob::random_write(128 * 1024);
    let run = |system, pattern, max_inflight| {
        let runner = OpenLoopRunner {
            pattern,
            warmup: SimTime::from_millis(30),
            measure: SimTime::from_millis(150),
            max_inflight,
        };
        runner.run(build_array(&Scenario::paper(system)), &job)
    };
    let systems = [SystemKind::SpdkRaid, SystemKind::Draid];
    let sweep = parallel::map(
        systems
            .iter()
            .flat_map(|&s| LOADS.map(|kops| (s, kops)))
            .collect(),
        |(system, kops)| {
            let out = run(system, ArrivalPattern::Poisson { rate: kops * 1e3 }, 2048);
            (out.report.mean_latency_us, out.stable())
        },
    );
    for (system, points) in systems.iter().zip(sweep.chunks(LOADS.len())) {
        let points = LOADS.iter().zip(points);
        fig.series.push(series(
            system.label(),
            points.clone().map(|(&x, &(y, _))| (x, y)),
        ));
        let overloaded: Vec<String> = points
            .filter(|(_, &(_, stable))| !stable)
            .map(|(kops, _)| format!("{kops:.0}"))
            .collect();
        if !overloaded.is_empty() {
            fig.note(format!(
                "{} overloaded at {} Kops/s",
                system.label(),
                overloaded.join(", ")
            ));
        }
    }

    // Bursts at the same 16 Kops/s mean: `factor`× the mean for `duty` of
    // each `period_ms`, a quarter of it in between.
    let mean = 16_000.0;
    let burst = |factor, period_ms, duty| ArrivalPattern::Burst {
        burst_rate: mean * factor,
        idle_rate: mean * 0.25,
        period: SimTime::from_millis(period_ms),
        duty,
    };
    let bursts = parallel::map(
        vec![
            ("poisson", ArrivalPattern::Poisson { rate: mean }),
            ("burst 2.5x/8ms", burst(2.5, 8, 0.5)),
            ("burst 4x/20ms", burst(4.0, 20, 0.2)),
        ],
        |(name, pattern)| (name, run(SystemKind::Draid, pattern, 8192)),
    );
    for (name, out) in bursts {
        fig.note(format!(
            "dRAID at 16 Kops/s mean, {name}: p50 {:.0} us, p99 {:.0} us, peak inflight {}, {}",
            out.report.p50_latency_us,
            out.report.p99_latency_us,
            out.peak_inflight,
            if out.stable() { "stable" } else { "OVERLOADED" }
        ));
    }
    fig
}

/// A two-tier datacenter whose storage rack sits behind an oversubscribed
/// core uplink. dRAID's partial parities travel peer-to-peer inside the
/// storage rack, so one copy of the user data crosses the core per
/// partial-stripe write; the centralized designs drag old data + old parity
/// up and new data + new parity down — 4 core crossings.
pub(crate) fn oversubscription(id: &str) -> Figure {
    const WIDTH: usize = 8;
    const FACTORS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
    let mut fig = Figure::new(
        id,
        "Two-tier topology with an oversubscribed storage core, 128 KiB writes, RAID-5 x8",
        "storage core oversubscription (N:1)",
        "MB/s",
    );
    let build = |system, oversub: f64| {
        let mut b = ClusterBuilder::new();
        // Uplink capacity = aggregate NIC bandwidth / oversubscription
        // factor. The compute rack holds one host; its uplink is a full NIC.
        b.two_tier(ByteRate::from_gbps(92.0 * WIDTH as f64 / oversub));
        for _ in 0..WIDTH {
            b.server(CX5_100G);
        }
        ArraySim::new(b.build(), ArrayConfig::paper_default(system)).expect("valid config")
    };
    let runner = Runner::new();
    let job = FioJob::random_write(128 * 1024).queue_depth(48);
    let systems = [SystemKind::SpdkRaid, SystemKind::Draid];
    let results = parallel::map(
        systems
            .iter()
            .flat_map(|&s| FACTORS.map(|f| (s, f)))
            .collect(),
        |(system, oversub)| {
            let report = runner.run(build(system, oversub), &job);
            (report.bandwidth_mb_per_sec, report.host_cpu)
        },
    );
    let per_system: Vec<_> = systems.iter().zip(results.chunks(FACTORS.len())).collect();
    for (system, runs) in &per_system {
        let bw = runs.iter().map(|&(bw, _)| bw);
        fig.series
            .push(series(system.label(), FACTORS.into_iter().zip(bw)));
    }
    for x in FACTORS {
        let ratio = fig.ratio_at("dRAID", "SPDK", x);
        fig.note(format!("dRAID/SPDK at {x:.0}:1 = {ratio:.2}x"));
    }
    for (system, runs) in per_system {
        let host: Vec<String> = runs
            .iter()
            .map(|&(_, cpu)| format!("{:.1}%", cpu * 100.0))
            .collect();
        fig.note(format!(
            "{} host core at 1, 2, 4, 8, 16:1: {}",
            system.label(),
            host.join(", ")
        ));
    }
    fig
}

/// Where one loaded run's time goes: dRAID RAID-6 x8 under 128 KiB random
/// writes at queue depth 32, in [`Runner::new`]'s window. Steps are traced
/// from the warm-up boundary, and every resource's busy time is sampled at
/// each slice boundary. The rows split each resource class's per-write
/// demand into queueing and service; the notes name the busiest resources
/// over the window and the busiest one in each slice. The run ends with the
/// cluster's byte-conservation audit.
pub(crate) fn bottleneck(id: &str) -> Figure {
    let mut fig = Figure::new(
        id,
        "Step time per write by resource class, dRAID RAID-6 x8, 128 KiB random writes at QD 32",
        "class (0=network, 1=drive, 2=cpu, 3=control)",
        "us/write",
    );
    let Runner { warmup, measure } = Runner::new();
    let mut array = build_array(&Scenario::paper(SystemKind::Draid).level(RaidLevel::Raid6));
    let mut engine = Engine::new();
    let job = FioJob::random_write(128 * 1024).queue_depth(32);
    start_closed_loop(&mut array, &mut engine, &job);
    let mut timeline = UtilizationTimeline::new(warmup);
    run_measured(
        &mut engine,
        &mut array,
        warmup,
        measure,
        MEASURE_SLICES,
        |array, at| {
            if at == warmup {
                array.enable_tracing(2_000_000);
            }
            array.cluster.sample_busy(&mut timeline, at);
        },
    );
    let trace = array
        .take_trace()
        .expect("tracing enabled at the warm-up boundary");
    let stats = &mut array.stats;
    let writes = stats.writes.max(1) as f64;
    let breakdown = trace.breakdown();
    let column = |part: fn(&ClassBreakdown) -> SimTime| -> Vec<f64> {
        let per_write = |(_, c): &_| part(c).as_micros_f64() / writes;
        breakdown.iter().map(per_write).collect()
    };
    fig.series.push(rows("queue", &column(|c| c.queue)));
    fig.series.push(rows("service", &column(|c| c.service)));
    fig.series.push(rows("span", &column(|c| c.total_span)));
    fig.note("rows: traced step time per completed write; steps overlap, so a row can exceed the write latency");
    fig.note(format!(
        "{:.0} MB/s, {:.1} KIOPS; write latency {}",
        stats.bandwidth_mb_per_sec(measure),
        stats.kiops(measure),
        stats.write_latency.summary()
    ));
    let mut busiest: Vec<(SimTime, &str)> = timeline
        .names()
        .map(|name| (timeline.total_busy(name), name))
        .collect();
    busiest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    for (busy, name) in busiest.into_iter().take(8) {
        let share = busy.as_secs_f64() / measure.as_secs_f64();
        fig.note(format!(
            "busy over the window: {name} {:.1}%",
            share * 100.0
        ));
    }
    for (end, name, share) in timeline.bottlenecks() {
        fig.note(format!("busiest up to {end}: {name} {:.1}%", share * 100.0));
    }
    if trace.dropped() > 0 {
        fig.note(format!(
            "{} trace events dropped at capacity: the rows are partial",
            trace.dropped()
        ));
    }
    array.audit_invariants();
    fig
}
