//! End-to-end tests of the simulated array: every system, every path —
//! normal/degraded reads and writes, data integrity, traffic invariants,
//! failure handling with timeouts and retries.

use bytes::Bytes;
use draid_block::Cluster;
use draid_core::{
    ArrayConfig, ArraySim, DataMode, IoError, RaidLevel, SystemKind, UserIo, WriteMode,
};
use draid_sim::{DetRng, Engine, SimTime};

const KIB: u64 = 1024;

fn small_cfg(system: SystemKind, level: RaidLevel) -> ArrayConfig {
    let mut cfg = ArrayConfig::paper_default(system);
    cfg.level = level;
    cfg.width = 5;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    cfg
}

fn make(system: SystemKind, level: RaidLevel) -> (ArraySim, Engine<ArraySim>) {
    let cfg = small_cfg(system, level);
    let cluster = Cluster::homogeneous(cfg.width);
    (
        ArraySim::new(cluster, cfg).expect("valid config"),
        Engine::new(),
    )
}

fn rand_bytes(rng: &mut DetRng, len: u64) -> Bytes {
    let mut buf = vec![0u8; len as usize];
    rng.fill_bytes(&mut buf);
    Bytes::from(buf)
}

#[test]
fn write_read_roundtrip_all_systems_and_levels() {
    for system in [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid] {
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let (mut array, mut eng) = make(system, level);
            let mut rng = DetRng::new(42);
            // A mix of sizes/alignments: sub-chunk, chunk-spanning,
            // stripe-spanning, full-stripe.
            let stripe = array.layout().stripe_data_bytes();
            // Non-overlapping ranges: sub-chunk, chunk-spanning,
            // stripe-boundary-spanning, full-stripe.
            let cases = [
                (0, 4 * KIB),
                (7 * KIB, 9 * KIB),
                (30 * KIB, 20 * KIB),
                (2 * stripe - 8 * KIB, 20 * KIB),
                (4 * stripe, stripe),
            ];
            let mut expected = Vec::new();
            for &(off, len) in &cases {
                let data = rand_bytes(&mut rng, len);
                expected.push((off, data.clone()));
                array.submit(&mut eng, UserIo::write_bytes(off, data));
                eng.run(&mut array);
            }
            let done = array.drain_completions();
            assert_eq!(done.len(), cases.len());
            assert!(done.iter().all(|r| r.is_ok()), "{system:?}/{level:?}");

            for (off, data) in expected {
                array.submit(&mut eng, UserIo::read(off, data.len() as u64));
                eng.run(&mut array);
                let res = array.drain_completions().pop().expect("read completion");
                assert!(res.is_ok());
                assert_eq!(
                    res.data.as_deref(),
                    Some(&data[..]),
                    "{system:?}/{level:?} read at {off}"
                );
            }
            assert_eq!(array.stats.failed_ios, 0);
        }
    }
}

#[test]
fn concurrent_writes_to_one_stripe_serialize_and_stay_consistent() {
    let (mut array, mut eng) = make(SystemKind::Draid, RaidLevel::Raid5);
    let mut rng = DetRng::new(7);
    // Ten overlapping writes to the same stripe submitted at once.
    let mut last = None;
    for _ in 0..10 {
        let data = rand_bytes(&mut rng, 8 * KIB);
        last = Some(data.clone());
        array.submit(&mut eng, UserIo::write_bytes(4 * KIB, data));
    }
    eng.run(&mut array);
    assert_eq!(array.drain_completions().len(), 10);
    // FIFO lock admission ⇒ the last submitted write wins.
    array.submit(&mut eng, UserIo::read(4 * KIB, 8 * KIB));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&last.expect("ten writes")[..]));
    let store = array.store().expect("full data mode");
    assert!(store.verify_stripe(0), "parity consistent after contention");
}

#[test]
fn degraded_read_returns_correct_data_everywhere() {
    for system in [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid] {
        let (mut array, mut eng) = make(system, RaidLevel::Raid5);
        let mut rng = DetRng::new(3);
        let stripe_bytes = array.layout().stripe_data_bytes();
        let data = rand_bytes(&mut rng, 2 * stripe_bytes);
        array.submit(&mut eng, UserIo::write_bytes(0, data.clone()));
        eng.run(&mut array);
        assert!(array.drain_completions().iter().all(|r| r.is_ok()));

        array.fail_member(2);
        assert!(array.is_degraded());

        array.submit(&mut eng, UserIo::read(0, 2 * stripe_bytes));
        eng.run(&mut array);
        let res = array.drain_completions().pop().expect("degraded read");
        assert!(res.is_ok(), "{system:?}");
        assert_eq!(res.data.as_deref(), Some(&data[..]), "{system:?}");
        assert!(array.stats.degraded_ios >= 1);
    }
}

#[test]
fn degraded_write_then_degraded_read_roundtrip() {
    for system in [SystemKind::SpdkRaid, SystemKind::Draid] {
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let (mut array, mut eng) = make(system, level);
            let mut rng = DetRng::new(11);
            array.fail_member(1);
            let stripe_bytes = array.layout().stripe_data_bytes();
            // Writes of several shapes onto the degraded array.
            for &(off, len) in &[
                (0u64, 4 * KIB),
                (16 * KIB, 16 * KIB),
                (0, stripe_bytes),
                (stripe_bytes + 5 * KIB, 30 * KIB),
            ] {
                let data = rand_bytes(&mut rng, len);
                array.submit(&mut eng, UserIo::write_bytes(off, data.clone()));
                eng.run(&mut array);
                assert!(array.drain_completions().pop().expect("write").is_ok());
                array.submit(&mut eng, UserIo::read(off, len));
                eng.run(&mut array);
                let res = array.drain_completions().pop().expect("read");
                assert_eq!(
                    res.data.as_deref(),
                    Some(&data[..]),
                    "{system:?}/{level:?} at {off}+{len}"
                );
            }
        }
    }
}

#[test]
fn raid6_survives_double_failure() {
    let (mut array, mut eng) = make(SystemKind::Draid, RaidLevel::Raid6);
    let mut rng = DetRng::new(13);
    let stripe_bytes = array.layout().stripe_data_bytes();
    let data = rand_bytes(&mut rng, stripe_bytes);
    array.submit(&mut eng, UserIo::write_bytes(0, data.clone()));
    eng.run(&mut array);
    array.drain_completions();

    array.fail_member(0);
    array.fail_member(3);
    assert!(array.is_degraded());
    assert!(!array.is_failed());

    array.submit(&mut eng, UserIo::read(0, stripe_bytes));
    eng.run(&mut array);
    let res = array
        .drain_completions()
        .pop()
        .expect("double-degraded read");
    assert!(res.is_ok());
    assert_eq!(res.data.as_deref(), Some(&data[..]));
}

#[test]
fn raid5_third_failure_fails_ios() {
    let (mut array, mut eng) = make(SystemKind::Draid, RaidLevel::Raid5);
    array.fail_member(0);
    array.fail_member(1);
    assert!(array.is_failed());
    array.submit(&mut eng, UserIo::read(0, 4 * KIB));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("completion");
    assert_eq!(res.error, Some(IoError::ArrayFailed));
    assert_eq!(array.stats.failed_ios, 1);
}

#[test]
fn transient_failure_recovers_via_timeout_and_retry() {
    let (mut array, mut eng) = make(SystemKind::Draid, RaidLevel::Raid5);
    let mut cfg_rng = DetRng::new(17);
    let data = rand_bytes(&mut cfg_rng, 8 * KIB);
    // Knock member 0 out briefly; the write hits the error, the host
    // retries as a reconstruct-write after backoff, and succeeds.
    array.inject_transient(SimTime::ZERO, 0, SimTime::from_millis(20));
    array.submit(&mut eng, UserIo::write_bytes(0, data.clone()));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("write");
    assert!(res.is_ok(), "write survives the transient: {:?}", res.error);
    assert!(array.stats.retries >= 1, "at least one §5.4 retry");
    assert!(!array.is_degraded(), "transient does not fault the member");

    array.submit(&mut eng, UserIo::read(0, 8 * KIB));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&data[..]));
    let store = array.store().expect("full mode");
    assert!(store.verify_stripe(0));
}

#[test]
fn persistent_errors_mark_member_faulty() {
    let (mut array, mut eng) = make(SystemKind::Draid, RaidLevel::Raid5);
    // Long transient: errors exceed the fault threshold, member is faulted,
    // the array goes degraded, and the I/O then completes degraded.
    array.inject_transient(SimTime::ZERO, 0, SimTime::from_secs(3600));
    array.submit(&mut eng, UserIo::write(0, 8 * KIB));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("write");
    assert!(
        res.is_ok(),
        "write completes after fault isolation: {:?}",
        res.error
    );
    assert!(array.is_degraded(), "member 0 marked faulty");
    assert_eq!(array.faulty_members(), vec![0]);
}

#[test]
fn draid_host_traffic_is_minimal_on_partial_writes() {
    // Table 1 / §2.3: dRAID's RMW moves only the new data through the host
    // NIC; the centralized baseline moves old data + old parity in and new
    // data + new parity out.
    let run = |system: SystemKind| -> (u64, u64) {
        let mut cfg = small_cfg(system, RaidLevel::Raid5);
        cfg.data_mode = DataMode::Timing;
        let cluster = Cluster::homogeneous(cfg.width);
        let mut array = ArraySim::new(cluster, cfg).expect("valid");
        let mut eng = Engine::new();
        for i in 0..32u64 {
            // Sub-chunk writes: read-modify-write path.
            array.submit(
                &mut eng,
                UserIo::write(i * array.layout().stripe_data_bytes(), 8 * KIB),
            );
        }
        eng.run(&mut array);
        assert!(array.drain_completions().iter().all(|r| r.is_ok()));
        let host = array.cluster.host_node();
        (
            array.cluster.fabric().bytes_sent(host),
            array.cluster.fabric().bytes_received(host),
        )
    };
    let (draid_out, draid_in) = run(SystemKind::Draid);
    let (spdk_out, spdk_in) = run(SystemKind::SpdkRaid);
    let payload = 32 * 8 * KIB;
    // dRAID egress ≈ payload + command capsules; ingress ≈ callbacks only.
    assert!(draid_out < payload + 64 * KIB, "draid egress {draid_out}");
    assert!(draid_in < 64 * KIB, "draid ingress {draid_in}");
    // Centralized egress ≈ 2× payload (data + parity); ingress ≈ 2× payload.
    assert!(spdk_out > 2 * payload - 64 * KIB, "spdk egress {spdk_out}");
    assert!(spdk_in > 2 * payload - 64 * KIB, "spdk ingress {spdk_in}");
}

#[test]
fn draid_degraded_read_host_traffic_is_single_copy() {
    // Table 1 "D-Read overhead": 1× for dRAID, N−1× for centralized.
    let run = |system: SystemKind| -> u64 {
        let mut cfg = small_cfg(system, RaidLevel::Raid5);
        cfg.data_mode = DataMode::Timing;
        let cluster = Cluster::homogeneous(cfg.width);
        let mut array = ArraySim::new(cluster, cfg).expect("valid");
        let mut eng = Engine::new();
        array.fail_member(0);
        array.cluster.reset_counters(eng.now());
        for s in 0..16u64 {
            // Read exactly the chunk that lives on the dead member.
            let stripe_bytes = array.layout().stripe_data_bytes();
            let k =
                (0..array.layout().data_chunks()).find(|&k| array.layout().data_member(s, k) == 0);
            if let Some(k) = k {
                let off = s * stripe_bytes + k as u64 * 16 * KIB;
                array.submit(&mut eng, UserIo::read(off, 16 * KIB));
            }
        }
        eng.run(&mut array);
        assert!(array.drain_completions().iter().all(|r| r.is_ok()));
        array
            .cluster
            .fabric()
            .bytes_received(array.cluster.host_node())
    };
    let draid_in = run(SystemKind::Draid);
    let spdk_in = run(SystemKind::SpdkRaid);
    assert!(
        spdk_in > 3 * draid_in,
        "centralized degraded read pulls survivors through the host: {spdk_in} vs {draid_in}"
    );
}

#[test]
fn write_modes_selected_by_size() {
    let (array, _) = make(SystemKind::Draid, RaidLevel::Raid5);
    let l = array.layout();
    // width 5, chunk 16 KiB: 4 data chunks, stripe 64 KiB.
    assert_eq!(
        l.write_mode(&l.map(0, 8 * KIB)[0]),
        WriteMode::ReadModifyWrite
    );
    assert_eq!(
        l.write_mode(&l.map(0, 48 * KIB)[0]),
        WriteMode::ReconstructWrite
    );
    assert_eq!(l.write_mode(&l.map(0, 64 * KIB)[0]), WriteMode::FullStripe);
}

#[test]
fn timing_mode_runs_without_payloads() {
    let mut cfg = small_cfg(SystemKind::Draid, RaidLevel::Raid5);
    cfg.data_mode = DataMode::Timing;
    let cluster = Cluster::homogeneous(cfg.width);
    let mut array = ArraySim::new(cluster, cfg).expect("valid");
    let mut eng = Engine::new();
    for i in 0..100 {
        array.submit(&mut eng, UserIo::write(i * 128 * KIB, 128 * KIB));
        array.submit(&mut eng, UserIo::read(i * 64 * KIB, 32 * KIB));
    }
    eng.run(&mut array);
    let done = array.drain_completions();
    assert_eq!(done.len(), 200);
    assert!(done.iter().all(|r| r.is_ok()));
    assert_eq!(array.stats.total_ops(), 200);
    assert!(array.stats.mean_latency() > SimTime::ZERO);
    assert_eq!(array.inflight_ops(), 0);
}

#[test]
fn hooks_fire_on_completion() {
    let (mut array, mut eng) = make(SystemKind::Draid, RaidLevel::Raid5);
    array.submit_with_hook(
        &mut eng,
        UserIo::write(0, 4 * KIB),
        Some(Box::new(|array, eng, res| {
            assert!(res.is_ok());
            // Chain a follow-up I/O from inside the hook (closed-loop style).
            array.submit(eng, UserIo::read(0, 4 * KIB));
        })),
    );
    eng.run(&mut array);
    let done = array.drain_completions();
    assert_eq!(done.len(), 2, "hook-submitted read also completed");
}

#[test]
fn tracing_captures_step_timelines() {
    use draid_core::trace::StepClass;
    let (mut array, mut eng) = make(SystemKind::Draid, RaidLevel::Raid5);
    array.enable_tracing(10_000);
    array.submit(&mut eng, UserIo::write(0, 8 * KIB));
    eng.run(&mut array);
    assert!(array.drain_completions().pop().expect("done").is_ok());
    let trace = array.take_trace().expect("tracing enabled");
    assert!(trace.dropped() == 0);
    let events = trace.events();
    assert!(!events.is_empty());
    // Causality: every event completes at or after it was issued.
    assert!(events.iter().all(|e| e.completed >= e.issued));
    // A dRAID RMW touches all three resource classes.
    let bd = trace.breakdown();
    for class in [StepClass::Network, StepClass::Drive, StepClass::Cpu] {
        let agg = bd
            .iter()
            .find(|(c, _)| *c == class)
            .expect("class present")
            .1;
        assert!(agg.steps > 0, "{class:?} missing from trace");
    }
    // All events belong to the single submitted I/O.
    assert!(events.iter().all(|e| e.user == 1));
    assert!(trace.summary().contains("drive"));
}
