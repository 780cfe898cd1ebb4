//! End-to-end tests of hot-spare rebuild: a faulty member is reconstructed
//! onto a spare drive from the shared pool while the array stays online.

use bytes::Bytes;
use draid_block::{Cluster, ServerId};
use draid_core::{ArrayConfig, ArraySim, DataMode, RaidLevel, SystemKind, UserIo};
use draid_sim::{DetRng, Engine, SimTime};

const KIB: u64 = 1024;

/// Array of width 5 over a 6-server cluster — server 5 is the pool spare.
fn array_with_spare(level: RaidLevel) -> (ArraySim, Engine<ArraySim>) {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = level;
    cfg.width = 5;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    let cluster = Cluster::homogeneous(6);
    (ArraySim::new(cluster, cfg).expect("valid"), Engine::new())
}

fn fill(array: &mut ArraySim, eng: &mut Engine<ArraySim>, stripes: u64, seed: u64) -> Vec<u8> {
    let bytes = stripes * array.layout().stripe_data_bytes();
    let mut rng = DetRng::new(seed);
    let mut data = vec![0u8; bytes as usize];
    rng.fill_bytes(&mut data);
    array.submit(eng, UserIo::write_bytes(0, Bytes::from(data.clone())));
    eng.run(array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));
    data
}

#[test]
fn rebuild_restores_optimal_state_and_data() {
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        let (mut array, mut eng) = array_with_spare(level);
        let stripes = 6u64;
        let data = fill(&mut array, &mut eng, stripes, 1);

        array.fail_member(2);
        assert!(array.is_degraded());

        array.start_rebuild(&mut eng, 2, ServerId(5), stripes, 2);
        assert!(array.rebuild_status().is_some());
        eng.run(&mut array);

        assert!(array.rebuild_status().is_none(), "rebuild finished");
        assert!(!array.is_degraded(), "{level:?}: member restored");

        // All data intact, now served from the spare without reconstruction.
        array.submit(&mut eng, UserIo::read(0, data.len() as u64));
        eng.run(&mut array);
        let res = array.drain_completions().pop().expect("read");
        assert_eq!(res.data.as_deref(), Some(&data[..]), "{level:?}");
        // Post-rebuild reads are normal-state (no degraded path).
        assert_eq!(array.stats.degraded_ios, 0);

        // The rebuilt member's stripes verify against stored parity.
        let store = array.store().expect("full mode");
        for s in 0..stripes {
            assert!(store.verify_stripe(s), "{level:?} stripe {s}");
        }
    }
}

#[test]
fn writes_during_rebuild_are_preserved() {
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    let stripes = 8u64;
    fill(&mut array, &mut eng, stripes, 2);
    array.fail_member(1);

    // Start the rebuild, then immediately overwrite data while it runs —
    // including chunks of the dead member.
    array.start_rebuild(&mut eng, 1, ServerId(5), stripes, 1);
    let mut rng = DetRng::new(3);
    let mut fresh = vec![0u8; (stripes * array.layout().stripe_data_bytes()) as usize];
    rng.fill_bytes(&mut fresh);
    array.submit(&mut eng, UserIo::write_bytes(0, Bytes::from(fresh.clone())));
    eng.run(&mut array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));
    assert!(!array.is_degraded(), "rebuild completed");

    array.submit(&mut eng, UserIo::read(0, fresh.len() as u64));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&fresh[..]), "no lost updates");
}

#[test]
fn failed_stripe_is_relaunched_alone_and_counted_once() {
    // A transient error on a survivor fails one stripe op mid-rebuild. The
    // stripe must be relaunched on its own: rewinding the cursor to it would
    // rebuild and count the stripes launched after it a second time, so the
    // rebuild would report done — and remap the member to the spare —
    // before its last stripes were rebuilt.
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    let stripes = 16u64;
    let data = fill(&mut array, &mut eng, stripes, 6);
    array.enable_tracing(1 << 16);
    array.fail_member(2);
    array.start_rebuild(&mut eng, 2, ServerId(5), stripes, 4);
    eng.schedule_in(SimTime::from_micros(5), |array: &mut ArraySim, eng| {
        array.inject_transient(eng.now(), 0, SimTime::from_micros(5));
    });
    eng.run(&mut array);
    assert!(array.rebuild_status().is_none(), "rebuild finished");
    assert!(!array.is_degraded(), "member restored");

    let launched = array.trace().expect("tracing").ops().len() as u64;
    assert!(launched > stripes, "the transient failed a stripe op");
    assert_eq!(
        array.cluster.drive(ServerId(5)).writes(),
        stripes,
        "each stripe is written to the spare exactly once"
    );
    array.submit(&mut eng, UserIo::read(0, data.len() as u64));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&data[..]));
    let store = array.store().expect("full mode");
    for s in 0..stripes {
        assert!(store.verify_stripe(s), "stripe {s}");
    }
}

#[test]
fn rebuild_keeps_host_nic_idle() {
    // The reconstruction data path is peer-to-peer: survivors -> reducer ->
    // spare. The host sees only commands and callbacks.
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    let stripes = 16u64;
    fill(&mut array, &mut eng, stripes, 4);
    array.fail_member(0);
    array.cluster.reset_counters(eng.now());

    array.start_rebuild(&mut eng, 0, ServerId(5), stripes, 4);
    eng.run(&mut array);
    assert!(!array.is_degraded());

    let host = array.cluster.host_node();
    let rebuilt_bytes = stripes * array.layout().chunk_size();
    let host_traffic =
        array.cluster.fabric().bytes_sent(host) + array.cluster.fabric().bytes_received(host);
    assert!(
        host_traffic < rebuilt_bytes / 4,
        "host moved {host_traffic} bytes for a {rebuilt_bytes}-byte rebuild"
    );
    // The spare's drive received every reconstructed chunk.
    assert_eq!(array.cluster.drive(ServerId(5)).writes(), stripes);
}

#[test]
fn rebuild_progress_is_observable() {
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    let stripes = 12u64;
    fill(&mut array, &mut eng, stripes, 5);
    array.fail_member(3);
    array.start_rebuild(&mut eng, 3, ServerId(5), stripes, 1);
    let status = array.rebuild_status().expect("running");
    assert_eq!(status.member, 3);
    assert_eq!(status.total, stripes);
    assert_eq!(status.rebuilt, 0);
    assert_eq!(status.progress(), 0.0);

    // Run a slice of time, check partial progress.
    eng.run_until(&mut array, SimTime::from_millis(2));
    if let Some(mid) = array.rebuild_status() {
        assert!(mid.rebuilt <= stripes);
    }
    eng.run(&mut array);
    assert!(array.rebuild_status().is_none());
}

#[test]
#[should_panic(expected = "not faulty")]
fn rebuilding_healthy_member_rejected() {
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    array.start_rebuild(&mut eng, 0, ServerId(5), 4, 1);
}

#[test]
#[should_panic(expected = "already belongs")]
fn spare_must_be_outside_array() {
    let (mut array, mut eng) = array_with_spare(RaidLevel::Raid5);
    array.fail_member(0);
    array.start_rebuild(&mut eng, 0, ServerId(1), 4, 1);
}
