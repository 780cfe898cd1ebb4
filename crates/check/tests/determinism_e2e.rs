//! E2E determinism: the same seed must reproduce the simulation
//! byte-for-byte — stats, histograms, resource ledgers and the full step
//! trace — both through the reference scenario and through an
//! independent FaultSchedule-driven run built here.

use bytes::Bytes;
use draid_block::Cluster;
use draid_core::{
    ArrayConfig, ArraySim, DataMode, FaultAction, FaultSchedule, RaidLevel, SystemKind, UserIo,
};
use draid_sim::{DetRng, Engine, SimTime};

#[test]
fn reference_scenario_is_byte_identical_across_runs() {
    let report = draid_check::determinism::run(0xD1CE);
    assert!(
        report.first_divergence.is_none(),
        "double run diverged: {:?}",
        report.first_divergence
    );
    assert!(
        report.artifact.lines().count() > 50,
        "artifact suspiciously small"
    );
}

#[test]
fn reference_scenario_differs_across_seeds() {
    // Guards against the artifact accidentally ignoring the workload
    // (a constant artifact would pass the identity check vacuously).
    let a = draid_check::determinism::artifact(1);
    let b = draid_check::determinism::artifact(2);
    assert_ne!(a, b, "different seeds must produce different artifacts");
}

#[test]
fn seed_42_artifact_matches_recorded_digest() {
    // FNV-1a over the whole seed-42 artifact (227,392 bytes): any change to
    // the simulated behaviour it records (stats, histograms, ledgers, the
    // step trace) changes it.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in draid_check::determinism::artifact(42).as_bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    assert_eq!(
        hash, 0x524e_4211_8682_db8c,
        "the seed-42 determinism artifact changed: re-record this digest only \
         for an intended behaviour change, and say why in CHANGES.md"
    );
}

/// One independent fault-schedule run; returns (stats line, trace lines,
/// completion oks) for exact comparison.
fn fault_run(seed: u64) -> (String, Vec<String>, Vec<bool>) {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid5;
    cfg.width = 5;
    cfg.chunk_size = 16 * 1024;
    cfg.data_mode = DataMode::Full;
    cfg.op_deadline = SimTime::from_millis(5);
    let mut array = ArraySim::new(Cluster::homogeneous(5), cfg).expect("valid");
    array.enable_tracing(4096);
    let mut engine: Engine<ArraySim> = Engine::new();
    let mut rng = DetRng::new(seed);
    let stripe = array.layout().stripe_data_bytes();

    for i in 0..24u64 {
        let off = rng.below(8) * stripe;
        let mut data = vec![0u8; 8 * 1024];
        rng.fill_bytes(&mut data);
        let at = SimTime::from_micros(i * 300 + rng.below(150));
        engine.schedule_at(at, move |w: &mut ArraySim, eng| {
            w.submit(eng, UserIo::write_bytes(off, Bytes::from(data)));
        });
    }
    let (ms, us) = (SimTime::from_millis, SimTime::from_micros);
    let transient = |member, duration| FaultAction::Transient { member, duration };
    let fail_slow = |member, factor| FaultAction::FailSlow { member, factor };
    FaultSchedule::new()
        .at(ms(1), transient(2, us(800)))
        .at(ms(4), transient(0, us(1_200)))
        .at(ms(2), fail_slow(3, 2.5))
        .at(ms(5), fail_slow(3, 1.0))
        .install(&mut engine);
    engine.run(&mut array);

    let oks: Vec<bool> = array
        .drain_completions()
        .iter()
        .map(|r| r.is_ok())
        .collect();
    let s = &array.stats;
    let stats = format!(
        "{} {} {} {} {} {} {} {} {}",
        s.reads,
        s.writes,
        s.bytes_read,
        s.bytes_written,
        s.retries,
        s.timeouts,
        s.degraded_ios,
        s.failed_ios,
        s.scrub_repairs
    );
    let trace: Vec<String> = array
        .trace()
        .expect("tracing enabled")
        .events()
        .iter()
        .map(|e| {
            format!(
                "{} {} {} {} {}",
                e.user,
                e.op,
                e.step,
                e.issued.as_nanos(),
                e.completed.as_nanos()
            )
        })
        .collect();
    (stats, trace, oks)
}

#[test]
fn fault_schedule_runs_reproduce_stats_and_trace_exactly() {
    let (stats_a, trace_a, oks_a) = fault_run(0xFA57);
    let (stats_b, trace_b, oks_b) = fault_run(0xFA57);
    assert_eq!(oks_a, oks_b, "completion outcomes diverged");
    assert_eq!(stats_a, stats_b, "ArrayStats diverged between runs");
    assert_eq!(trace_a.len(), trace_b.len(), "trace length diverged");
    assert_eq!(trace_a, trace_b, "trace events diverged");
    assert!(!trace_a.is_empty(), "trace capture was empty");
    assert!(
        oks_a.iter().all(|ok| *ok),
        "workload should survive transients"
    );
}
