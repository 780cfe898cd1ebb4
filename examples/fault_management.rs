//! The fault-management plane end to end: a scripted chaos scenario — a
//! silent drive death, a flapping network link and a fail-slow (gray)
//! member — runs under sustained writes while the fault manager detects,
//! declares and rebuilds onto a pool spare with no operator in the loop.
//!
//! ```text
//! cargo run --release --example fault_management
//! ```

use bytes::Bytes;
use draid::block::Cluster;
use draid::core::{
    ArrayConfig, ArraySim, DataMode, FaultManagerConfig, FaultSchedule, SystemKind, UserIo,
};
use draid::sim::{DetRng, Engine, SimTime};

fn main() -> Result<(), String> {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.width = 6;
    cfg.chunk_size = 16 * 1024;
    cfg.data_mode = DataMode::Full;
    cfg.op_deadline = SimTime::from_millis(5);
    // Width 6 over an 8-server pool: servers 6 and 7 are hot spares.
    let mut array = ArraySim::new(Cluster::homogeneous(8), cfg)?;
    let mut engine: Engine<ArraySim> = Engine::new();
    let stripes = 8u64;
    array.enable_fault_manager(FaultManagerConfig {
        period: SimTime::from_micros(500),
        rebuild_stripes: stripes,
        rebuild_concurrency: 3,
    });

    // The whole scenario is declared up front and replays deterministically.
    FaultSchedule::new()
        .fail_drive(SimTime::from_millis(2), 4) // silent: must be *detected*
        .flap_link(
            SimTime::from_millis(1),
            1,
            SimTime::from_micros(300),
            SimTime::from_millis(2),
            3,
        )
        .fail_slow(SimTime::from_micros(10), 2, 8.0) // gray member, 8x latency
        .install(&mut engine);

    let mut rng = DetRng::new(7);
    let stripe = array.layout().stripe_data_bytes();
    let mut shadow = vec![0u8; (stripes * stripe) as usize];
    let mut ok = 0u64;
    let mut total = 0u64;
    for _ in 0..14 {
        for slot in 0..stripes {
            let off = slot * stripe;
            let mut data = vec![0u8; stripe as usize];
            rng.fill_bytes(&mut data);
            shadow[off as usize..(off + stripe) as usize].copy_from_slice(&data);
            array.submit(&mut engine, UserIo::write_bytes(off, Bytes::from(data)));
        }
        // Idle gap between bursts so the fail-slow grace period can elapse.
        engine.schedule_in(SimTime::from_millis(2), |_, _| {});
        engine.run(&mut array);
        let results = array.drain_completions();
        total += results.len() as u64;
        ok += results.iter().filter(|r| r.is_ok()).count() as u64;
    }

    println!(
        "workload: {ok}/{total} writes ok ({} retries, {} timeouts)",
        array.stats.retries, array.stats.timeouts
    );
    assert_eq!(ok, total, "every write must complete despite the chaos");
    println!(
        "fault manager: {} automatic rebuild(s); degraded now = {}",
        array.fault_manager_rebuilds(),
        array.is_degraded()
    );
    for m in 0..6 {
        let h = array.health().member(m);
        println!(
            "  member {m}: {:?}  (ewma latency {:?}, {} samples)",
            h.state(),
            h.ewma_latency(),
            h.samples()
        );
    }

    // Zero loss despite the chaos: fsck clean and every byte reads back.
    let fsck = array.store().expect("full mode").verify_all();
    array.submit(&mut engine, UserIo::read(0, shadow.len() as u64));
    engine.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    let intact = res.data.as_deref() == Some(&shadow[..]);
    println!(
        "fsck clean = {}, readback intact = {intact}",
        fsck.is_empty()
    );
    assert!(fsck.is_empty(), "fsck found inconsistent stripes {fsck:?}");
    assert!(intact, "read-back differs from what was written");
    Ok(())
}
