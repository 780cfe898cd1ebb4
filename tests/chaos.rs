//! Chaos testing: sustained workloads with randomized transient failures
//! injected mid-flight. The array must stay live (every I/O completes),
//! remain consistent (fsck clean), never corrupt data, and only fault
//! members when errors persist (§5.4's failure-handling contract).

use bytes::Bytes;
use draid::block::Cluster;
use draid::core::{ArrayConfig, ArraySim, DataMode, FaultAction, RaidLevel, SystemKind, UserIo};
use draid::sim::{DetRng, Engine, SimTime};

const KIB: u64 = 1024;

fn chaos_array(level: RaidLevel) -> ArraySim {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = level;
    cfg.width = 6;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    // Tight deadline so transients are discovered and retried quickly.
    cfg.op_deadline = SimTime::from_millis(5);
    ArraySim::new(Cluster::homogeneous(6), cfg).expect("valid")
}

/// Array + engine + surviving write expectations after a chaos run.
type ChaosOutcome = (ArraySim, Engine<ArraySim>, Vec<(u64, Vec<u8>)>);

/// Runs `rounds` of overlapping writes+reads while short transients strike
/// random members; returns the array for post-mortem checks.
fn run_chaos(level: RaidLevel, seed: u64, rounds: u64) -> ChaosOutcome {
    let mut array = chaos_array(level);
    let mut engine: Engine<ArraySim> = Engine::new();
    let mut rng = DetRng::new(seed);
    let stripe = array.layout().stripe_data_bytes();
    let slots = 16u64;
    let mut latest: Vec<(u64, Vec<u8>)> = Vec::new();

    for round in 0..rounds {
        // A burst of writes across the slot space, all submitted at once.
        for _ in 0..6 {
            let slot = rng.below(slots);
            let len = 4 * KIB + rng.below(28) * KIB;
            let off = slot * stripe + rng.below(2) * 8 * KIB;
            let mut data = vec![0u8; len as usize];
            rng.fill_bytes(&mut data);
            latest.retain(|(o, _)| {
                // Retire expectations this write may overwrite (overlap).
                *o + stripe <= off || off + stripe <= *o
            });
            latest.push((off, data.clone()));
            array.submit(&mut engine, UserIo::write_bytes(off, Bytes::from(data)));
        }
        // A transient failure lands mid-burst on a random member.
        // Transients stay well inside one op-deadline (5 ms) so they are
        // genuinely transient; longer outages are *supposed* to fault the
        // member (§5.4 prolonged failure), which the rebuild test covers.
        let victim = rng.below(6) as usize;
        let transient = FaultAction::Transient {
            member: victim,
            duration: SimTime::from_micros(200 + rng.below(1_800)),
        };
        let when = engine.now() + SimTime::from_micros(rng.below(300));
        engine.schedule_at(when, move |w: &mut ArraySim, eng| {
            w.inject(eng.now(), transient)
        });
        engine.run(&mut array);
        let results = array.drain_completions();
        assert!(
            results.iter().all(|r| r.is_ok()),
            "{level:?} round {round}: all I/O must survive transients \
             (faulty: {:?}, retries: {}, timeouts: {})",
            array.faulty_members(),
            array.stats.retries,
            array.stats.timeouts
        );
    }
    // Hand the engine back too: simulated time continues monotonically, and
    // the cluster's resource timelines live in the future of a fresh engine.
    (array, engine, latest)
}

#[test]
fn chaos_raid5_stays_live_and_consistent() {
    let (mut array, mut engine, latest) = run_chaos(RaidLevel::Raid5, 0xC4A05, 12);
    // fsck: every materialized stripe's parity matches its data.
    let bad = array.store().expect("full mode").verify_all();
    assert!(bad.is_empty(), "inconsistent stripes: {bad:?}");
    // The most recent writes read back verbatim.
    for (off, data) in &latest {
        array.submit(&mut engine, UserIo::read(*off, data.len() as u64));
        engine.run(&mut array);
        let res = array.drain_completions().pop().expect("read");
        assert_eq!(res.data.as_deref(), Some(&data[..]), "offset {off}");
    }
}

#[test]
fn chaos_raid6_stays_live_and_consistent() {
    let (mut array, _engine, _) = run_chaos(RaidLevel::Raid6, 0xC4A06, 10);
    let bad = array.store().expect("full mode").verify_all();
    assert!(bad.is_empty(), "inconsistent stripes: {bad:?}");
    // Short transients must not fault members permanently.
    assert!(
        array.faulty_members().len() <= 2,
        "transients faulted too many members: {:?}",
        array.faulty_members()
    );
}

#[test]
fn chaos_with_failure_and_rebuild() {
    // Interleave: workload → permanent failure → workload → rebuild →
    // workload; data must be intact at every stage.
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid5;
    cfg.width = 5;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    let mut array = ArraySim::new(Cluster::homogeneous(6), cfg).expect("valid");
    let mut engine: Engine<ArraySim> = Engine::new();
    let mut rng = DetRng::new(0xC4A07);
    let stripe = array.layout().stripe_data_bytes();
    let stripes = 10u64;

    let mut shadow = vec![0u8; (stripes * stripe) as usize];
    let write_some = |array: &mut ArraySim,
                      engine: &mut Engine<ArraySim>,
                      rng: &mut DetRng,
                      shadow: &mut Vec<u8>| {
        for _ in 0..8 {
            let len = 8 * KIB;
            let off = rng.below(stripes * stripe - len) / KIB * KIB;
            let mut data = vec![0u8; len as usize];
            rng.fill_bytes(&mut data);
            shadow[off as usize..(off + len) as usize].copy_from_slice(&data);
            array.submit(engine, UserIo::write_bytes(off, Bytes::from(data)));
        }
        engine.run(array);
        assert!(array.drain_completions().iter().all(|r| r.is_ok()));
    };
    let verify = |array: &mut ArraySim, engine: &mut Engine<ArraySim>, shadow: &[u8]| {
        array.submit(engine, UserIo::read(0, shadow.len() as u64));
        engine.run(array);
        let res = array.drain_completions().pop().expect("read");
        assert_eq!(res.data.as_deref(), Some(shadow), "device/shadow diverged");
    };

    write_some(&mut array, &mut engine, &mut rng, &mut shadow);
    verify(&mut array, &mut engine, &shadow);

    array.fail_member(2);
    write_some(&mut array, &mut engine, &mut rng, &mut shadow);
    verify(&mut array, &mut engine, &shadow);

    array.start_rebuild(&mut engine, 2, draid::block::ServerId(5), stripes, 3);
    write_some(&mut array, &mut engine, &mut rng, &mut shadow);
    assert!(!array.is_degraded(), "rebuild completed");
    verify(&mut array, &mut engine, &shadow);
    let bad = array.store().expect("full mode").verify_all();
    assert!(bad.is_empty(), "post-rebuild fsck: {bad:?}");
}
