//! Failure handling end to end (§5.4): transient errors absorbed by
//! timeout-and-retry, a host-controller crash recovered through the
//! write-intent bitmap, and a background scrub catching silent corruption.
//!
//! ```text
//! cargo run --release --example failure_handling
//! ```

use draid::block::Cluster;
use draid::core::{ArrayConfig, ArraySim, DataMode, FaultAction, SystemKind, UserIo};
use draid::sim::{DetRng, Engine, SimTime};

fn main() -> Result<(), String> {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.width = 6;
    cfg.chunk_size = 64 * 1024;
    cfg.data_mode = DataMode::Full;
    cfg.op_deadline = SimTime::from_millis(10);
    let mut array = ArraySim::new(Cluster::homogeneous(6), cfg)?;
    let mut engine: Engine<ArraySim> = Engine::new();
    let mut rng = DetRng::new(2024);
    let stripe = array.layout().stripe_data_bytes();

    // --- 1. A transient drive failure under a write burst. -----------------
    let mut data = vec![0u8; 64 * 1024];
    rng.fill_bytes(&mut data);
    // The transient hits the very member the write lands on.
    let written_member = array.layout().data_member(0, 0);
    let transient = FaultAction::Transient {
        member: written_member,
        duration: SimTime::from_millis(3),
    };
    array.inject(engine.now(), transient);
    array.submit(
        &mut engine,
        UserIo::write_bytes(0, bytes::Bytes::from(data.clone())),
    );
    engine.run(&mut array);
    let res = array.drain_completions().pop().expect("write");
    println!(
        "transient failure: write ok={} after {} retries, {} timeouts; degraded={}",
        res.is_ok(),
        array.stats.retries,
        array.stats.timeouts,
        array.is_degraded()
    );
    assert!(
        res.is_ok(),
        "a transient failure must be absorbed by retries"
    );

    // --- 2. Host crash mid-write: bitmap-driven resync. ---------------------
    array.submit(&mut engine, UserIo::write(stripe, 32 * 1024));
    array.submit(&mut engine, UserIo::write(3 * stripe, 32 * 1024));
    // Crash before those writes complete.
    let dirty = array.simulate_host_crash(&mut engine);
    println!(
        "host crash: {} stripes dirty in the write-intent bitmap -> resyncing {:?}",
        dirty.len(),
        dirty
    );
    engine.run(&mut array);
    let clean = array.store().expect("full mode").verify_all().is_empty();
    println!("after resync: parity consistent = {clean}");
    assert!(clean, "resync must leave every stripe's parity consistent");

    // --- 3. Silent corruption caught by a scrub pass. ------------------------
    let victim = array.layout().data_member(0, 0);
    let corrupt = FaultAction::Corrupt {
        stripe: 0,
        member: victim,
        byte: 4096,
    };
    array.inject(engine.now(), corrupt);
    array.start_scrub(&mut engine, 4, 2);
    engine.run(&mut array);
    let report = array.take_scrub_report().expect("scrub finished");
    println!(
        "scrub: checked {}/{} stripes, findings = {:?}",
        report.checked, report.total, report.mismatches
    );
    assert_eq!(
        report.mismatches,
        [0],
        "scrub must flag the corrupted stripe"
    );

    // Repair the flagged stripes: parity is re-encoded from the data (a
    // read-modify-write would *preserve* the corruption — only a full
    // re-encode fixes it, which is what md's `repair` action does too).
    for &s in &report.mismatches {
        array.repair_stripe(&mut engine, s);
    }
    engine.run(&mut array);
    let fsck = array.store().expect("full mode").verify_all().is_empty();
    println!("post-repair fsck clean = {fsck}");
    assert!(fsck, "repair must re-encode the corrupted stripe");
    Ok(())
}
