//! §5.4 host-failure handling: write-intent bitmap tracking and
//! bitmap-driven parity resync after a simulated host crash.

use bytes::Bytes;
use draid_block::{Cluster, TokenBucket};
use draid_core::{ArrayConfig, ArraySim, DataMode, IoId, SystemKind, UserIo};
use draid_sim::{ByteRate, DetRng, Engine, SimTime};

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

#[test]
fn bitmap_tracks_inflight_writes() {
    let (mut array, mut eng) = make();
    assert_eq!(array.write_intent().dirty_count(), 0);
    // Submit writes to three different stripes; while in flight all three
    // stripes are dirty.
    let stripe = array.layout().stripe_data_bytes();
    for s in 0..3u64 {
        array.submit(&mut eng, UserIo::write(s * stripe, 8 * KIB));
    }
    assert_eq!(array.write_intent().dirty_count(), 3);
    assert!(array.write_intent().is_dirty(1));
    eng.run(&mut array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));
    // Completed writes cleared their intents.
    assert_eq!(array.write_intent().dirty_count(), 0);
}

#[test]
fn reads_do_not_dirty_the_bitmap() {
    let (mut array, mut eng) = make();
    array.submit(&mut eng, UserIo::read(0, 8 * KIB));
    assert_eq!(array.write_intent().dirty_count(), 0);
    eng.run(&mut array);
}

#[test]
fn crash_resync_repairs_torn_parity() {
    let (mut array, mut eng) = make();
    let mut rng = DetRng::new(0xC0A5);
    let stripe_bytes = array.layout().stripe_data_bytes();

    // Populate four stripes.
    let mut payload = vec![0u8; (4 * stripe_bytes) as usize];
    rng.fill_bytes(&mut payload);
    array.submit(
        &mut eng,
        UserIo::write_bytes(0, Bytes::from(payload.clone())),
    );
    eng.run(&mut array);
    assert!(array.drain_completions().iter().all(|r| r.is_ok()));

    // Start writes to stripes 1 and 2, then crash the host mid-flight.
    array.submit(&mut eng, UserIo::write(stripe_bytes, 8 * KIB));
    array.submit(&mut eng, UserIo::write(2 * stripe_bytes, 8 * KIB));
    eng.run_until(&mut array, eng.now() + SimTime::from_micros(20));
    assert_eq!(array.write_intent().dirty_count(), 2);

    let resynced = array.simulate_host_crash(&mut eng);
    assert_eq!(resynced, vec![1, 2], "only dirty stripes resync");
    // The crashed writes' completions are gone with the controller; any
    // results drained now predate the crash.
    array.drain_completions();

    eng.run(&mut array);
    assert_eq!(
        array.write_intent().dirty_count(),
        0,
        "resync cleared intents"
    );
    let store = array.store().expect("full mode");
    assert!(
        store.verify_all().is_empty(),
        "parity consistent after resync"
    );

    // Stripes 0 and 3 were untouched by the crash and still hold their data.
    array.submit(&mut eng, UserIo::read(0, stripe_bytes));
    eng.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&payload[..stripe_bytes as usize]));
}

#[test]
fn resync_fixes_injected_corruption() {
    // Make the torn state explicit: corrupt a dirty stripe's parity chunk
    // (as if the crashed write persisted data but not parity), then resync.
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.width = 5;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    let mut array = ArraySim::new(Cluster::homogeneous(5), cfg).expect("valid");
    let mut eng: Engine<ArraySim> = Engine::new();
    let mut rng = DetRng::new(7);
    let stripe_bytes = array.layout().stripe_data_bytes();
    let mut payload = vec![0u8; stripe_bytes as usize];
    rng.fill_bytes(&mut payload);
    array.submit(&mut eng, UserIo::write_bytes(0, Bytes::from(payload)));
    eng.run(&mut array);
    array.drain_completions();

    // Tear stripe 0's parity and leave its intent dirty (as a crash would).
    let p_member = array.layout().p_member(0);
    array
        .store_mut()
        .expect("store")
        .corrupt_chunk(0, p_member, 123);
    assert!(!array.store().expect("store").verify_all().is_empty());

    // Simulate the crash having happened during a write to stripe 0.
    array.submit(&mut eng, UserIo::write(0, 4 * KIB));
    let resynced = array.simulate_host_crash(&mut eng);
    assert_eq!(resynced, vec![0]);
    eng.run(&mut array);
    assert!(
        array.store().expect("store").verify_all().is_empty(),
        "resync recomputed the torn parity"
    );
}

#[test]
fn crash_with_clean_bitmap_resyncs_nothing() {
    let (mut array, mut eng) = make();
    array.submit(&mut eng, UserIo::write(0, 8 * KIB));
    eng.run(&mut array);
    array.drain_completions();
    let resynced = array.simulate_host_crash(&mut eng);
    assert!(resynced.is_empty(), "no dirty stripes, no scan needed");
    eng.run(&mut array);
}

#[test]
fn crash_drops_budget_shaped_volume_admissions() {
    // A tenant over its budget has its admissions held back until the
    // bucket refills. Those belong to the crashed controller: none may be
    // issued, complete or be counted after the crash, and no volume tag
    // may outlive the I/Os the crash dropped.
    let (mut array, mut eng) = make();
    let volume = array.create_volume("tenant", 64 * KIB);
    let budget = TokenBucket::new(ByteRate::from_mb_per_sec(1.0), 8 * KIB);
    array.set_volume_limit(volume, Some(budget));
    for i in 0..8 {
        let io = UserIo::write(i * 8 * KIB, 8 * KIB);
        array
            .submit_to_volume(&mut eng, volume, io)
            .expect("in bounds");
    }
    eng.run_until(&mut array, SimTime::from_micros(100));
    assert!(
        array.drain_completions().is_empty(),
        "the first write is in flight"
    );

    array.simulate_host_crash(&mut eng);
    eng.run(&mut array);
    let after: Vec<IoId> = array.drain_completions().iter().map(|r| r.id).collect();
    assert!(after.is_empty(), "{after:?} completed after the crash");
    let stats = array.volume_stats(volume);
    assert_eq!((stats.writes, stats.failed_ios), (0, 0));
    array.audit_invariants();
}
