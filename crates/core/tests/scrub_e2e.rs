//! Background-scrub tests: patrol reads verify parity without host traffic
//! and surface latent corruption.

use bytes::Bytes;
use draid_block::{Cluster, ServerId};
use draid_core::{ArrayConfig, ArraySim, DataMode, RaidLevel, SystemKind, UserIo};
use draid_sim::{DetRng, Engine};

const KIB: u64 = 1024;

fn make() -> (ArraySim, Engine<ArraySim>) {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.width = 5;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    (
        ArraySim::new(Cluster::homogeneous(5), cfg).expect("valid"),
        Engine::new(),
    )
}

fn fill(array: &mut ArraySim, eng: &mut Engine<ArraySim>, stripes: u64) {
    let bytes = stripes * array.layout().stripe_data_bytes();
    let mut rng = DetRng::new(1);
    let mut data = vec![0u8; bytes as usize];
    rng.fill_bytes(&mut data);
    array.submit(eng, UserIo::write_bytes(0, Bytes::from(data)));
    eng.run(array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));
}

#[test]
fn clean_array_scrubs_clean() {
    let (mut array, mut eng) = make();
    fill(&mut array, &mut eng, 8);
    array.start_scrub(&mut eng, 8, 2);
    eng.run(&mut array);
    let report = array.take_scrub_report().expect("scrub ran");
    assert_eq!(report.checked, 8);
    assert!(report.mismatches.is_empty());
    assert!(!report.running);
}

#[test]
fn scrub_finds_latent_corruption() {
    let (mut array, mut eng) = make();
    fill(&mut array, &mut eng, 8);
    // Silent bit rot on two stripes: one data chunk, one parity chunk.
    let victim_data = array.layout().data_member(3, 1);
    let victim_parity = array.layout().p_member(6);
    let store = array.store_mut().expect("full mode");
    store.corrupt_chunk(3, victim_data, 100);
    store.corrupt_chunk(6, victim_parity, 5);

    array.start_scrub(&mut eng, 8, 3);
    eng.run(&mut array);
    let report = array.take_scrub_report().expect("scrub ran");
    assert_eq!(report.checked, 8);
    assert_eq!(report.mismatches, vec![3, 6]);
}

#[test]
fn scrub_data_path_is_peer_to_peer() {
    let (mut array, mut eng) = make();
    fill(&mut array, &mut eng, 16);
    array.cluster.reset_counters(eng.now());
    array.start_scrub(&mut eng, 16, 4);
    eng.run(&mut array);
    let host = array.cluster.host_node();
    let host_traffic =
        array.cluster.fabric().bytes_sent(host) + array.cluster.fabric().bytes_received(host);
    let scrubbed = 16 * 5 * array.layout().chunk_size();
    assert!(
        host_traffic < scrubbed / 16,
        "scrub moved {host_traffic} bytes through the host for {scrubbed} scanned"
    );
    // Every healthy drive was read once per stripe.
    for m in 0..5 {
        assert_eq!(array.cluster.drive(ServerId(m)).reads(), 16);
    }
}

#[test]
fn scrub_skips_faulty_members() {
    let (mut array, mut eng) = make();
    fill(&mut array, &mut eng, 4);
    array.fail_member(1);
    array.start_scrub(&mut eng, 4, 1);
    eng.run(&mut array);
    let report = array.take_scrub_report().expect("scrub ran");
    assert_eq!(report.checked, 4);
    // A lost chunk is absent, not corrupt: RAID-5 with one loss has no
    // redundancy left to check, so the degraded array scrubs clean and no
    // stripe is "repaired".
    assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    assert_eq!(array.stats.scrub_repairs, 0);
}

#[test]
fn raid6_degraded_scrub_flags_only_corrupt_survivors() {
    // RAID-6 with one loss keeps one row of redundancy: the survivors still
    // check each other, so bit rot on a surviving chunk is caught while the
    // lost member's chunks are not mistaken for corruption.
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid6;
    cfg.width = 5;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    let mut array = ArraySim::new(Cluster::homogeneous(5), cfg).expect("valid");
    let mut eng: Engine<ArraySim> = Engine::new();
    fill(&mut array, &mut eng, 4);
    array.fail_member(1);
    let victim = (0..3)
        .map(|k| array.layout().data_member(2, k))
        .find(|&m| m != 1)
        .expect("a surviving data member");
    array
        .store_mut()
        .expect("full mode")
        .corrupt_chunk(2, victim, 300);

    array.start_scrub(&mut eng, 4, 1);
    eng.run(&mut array);
    let report = array.take_scrub_report().expect("scrub ran");
    assert_eq!(report.checked, 4);
    assert_eq!(report.mismatches, vec![2]);
    assert_eq!(array.stats.scrub_repairs, 1, "only the finding is repaired");
}

#[test]
#[should_panic(expected = "already in progress")]
fn concurrent_scrubs_rejected() {
    let (mut array, mut eng) = make();
    array.start_scrub(&mut eng, 4, 1);
    array.start_scrub(&mut eng, 4, 1);
}

#[test]
fn raid6_double_failure_rebuilds_both_members() {
    // Extension: RAID-6 loses two members; rebuild them one after another
    // onto two pool spares, ending fully optimal with data intact.
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid6;
    cfg.width = 6;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    let mut array = ArraySim::new(Cluster::homogeneous(8), cfg).expect("valid");
    let mut eng: Engine<ArraySim> = Engine::new();
    let stripes = 6u64;
    let bytes = stripes * array.layout().stripe_data_bytes();
    let mut rng = DetRng::new(9);
    let mut data = vec![0u8; bytes as usize];
    rng.fill_bytes(&mut data);
    array.submit(&mut eng, UserIo::write_bytes(0, Bytes::from(data.clone())));
    eng.run(&mut array);
    array.drain_completions();

    array.fail_member(0);
    array.fail_member(4);
    assert!(array.is_degraded() && !array.is_failed());

    array.start_rebuild(&mut eng, 0, ServerId(6), stripes, 2);
    eng.run(&mut array);
    assert_eq!(array.faulty_members(), vec![4]);
    array.start_rebuild(&mut eng, 4, ServerId(7), stripes, 2);
    eng.run(&mut array);
    assert!(!array.is_degraded(), "both members restored");

    array.submit(&mut eng, UserIo::read(0, bytes));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&data[..]));
    assert!(array.store().expect("full").verify_all().is_empty());
}

#[test]
fn scrub_auto_repairs_mismatches() {
    // Like md's `repair` sync action, the scrubber rewrites parity as it
    // finds mismatches — no operator pass over the report needed.
    let (mut array, mut eng) = make();
    fill(&mut array, &mut eng, 8);
    let p1 = array.layout().p_member(1);
    let p4 = array.layout().p_member(4);
    let store = array.store_mut().expect("full mode");
    store.corrupt_chunk(1, p1, 40);
    store.corrupt_chunk(4, p4, 8_000);
    assert_eq!(store.verify_all(), vec![1, 4]);

    array.start_scrub(&mut eng, 8, 2);
    eng.run(&mut array);
    let report = array.take_scrub_report().expect("scrub ran");
    assert_eq!(report.mismatches, vec![1, 4], "findings still reported");
    assert_eq!(array.stats.scrub_repairs, 2, "each finding repaired once");
    assert!(
        array.store().expect("full mode").verify_all().is_empty(),
        "parity rewritten without a manual repair pass"
    );
}

#[test]
fn repair_fixes_scrub_findings() {
    let (mut array, mut eng) = make();
    fill(&mut array, &mut eng, 6);
    let store = array.store_mut().expect("full mode");
    store.corrupt_chunk(2, 0, 9);
    store.corrupt_chunk(5, 1, 77);
    array.start_scrub(&mut eng, 6, 2);
    eng.run(&mut array);
    let report = array.take_scrub_report().expect("scrub ran");
    assert_eq!(report.mismatches, vec![2, 5]);
    for &s in &report.mismatches {
        array.repair_stripe(&mut eng, s);
    }
    eng.run(&mut array);
    assert!(
        array.store().expect("full mode").verify_all().is_empty(),
        "repair re-encoded the parity"
    );
}
