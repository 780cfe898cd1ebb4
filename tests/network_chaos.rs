//! Network chaos: sustained workloads while member links flap and run
//! degraded. Dead links surface as §5.4 op failures through the normal
//! timeout/retry path; the array must stay live, stay consistent, and —
//! with the fault manager armed — end the run fully healed even if a member
//! was declared faulty along the way.

use bytes::Bytes;
use draid::block::Cluster;
use draid::core::{
    ArrayConfig, ArraySim, DataMode, FaultAction, FaultSchedule, RaidLevel, SystemKind, UserIo,
};
use draid::net::LinkDir;
use draid::sim::{DetRng, Engine, SimTime};

const KIB: u64 = 1024;

fn chaos_array(width: usize, pool: usize) -> ArraySim {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid5;
    cfg.width = width;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    // Tight deadline so link faults are discovered and retried quickly.
    cfg.op_deadline = SimTime::from_millis(5);
    ArraySim::new(Cluster::homogeneous(pool), cfg).expect("valid")
}

#[test]
fn link_flaps_and_degradations_do_not_lose_data() {
    let mut array = chaos_array(6, 7);
    let mut engine: Engine<ArraySim> = Engine::new();
    // A spare is on standby in case the flapping gets a member declared.
    array.enable_fault_manager(12);
    let mut rng = DetRng::new(0x4E7C4A05);
    let stripe = array.layout().stripe_data_bytes();
    let stripes = 12u64;
    let mut shadow = vec![0u8; (stripes * stripe) as usize];

    for round in 0..10u64 {
        // Network faults land mid-burst: one member's link flaps (down
        // 250 µs, up 2.75 ms — short enough that successes between flaps
        // keep resetting the §5.4 evidence), another member's links run at
        // a fraction of their rate in both directions.
        let flapper = rng.below(6) as usize;
        let laggard = rng.below(6) as usize;
        let start = engine.now() + SimTime::from_micros(rng.below(200));
        let degrade = |dir, factor| FaultAction::DegradeLink {
            member: laggard,
            dir,
            factor,
            duration: SimTime::from_millis(3),
        };
        FaultSchedule::new()
            .at(
                start,
                FaultAction::FlapLink {
                    member: flapper,
                    down_for: SimTime::from_micros(250),
                    up_for: SimTime::from_micros(2_750),
                    cycles: 2,
                },
            )
            .at(start, degrade(LinkDir::Ingress, 0.4))
            .at(start, degrade(LinkDir::Egress, 0.5))
            .install(&mut engine);

        // A burst of full-stripe writes across the slot space.
        for _ in 0..6 {
            let slot = rng.below(stripes);
            let off = slot * stripe;
            let mut data = vec![0u8; stripe as usize];
            rng.fill_bytes(&mut data);
            shadow[off as usize..(off + stripe) as usize].copy_from_slice(&data);
            array.submit(&mut engine, UserIo::write_bytes(off, Bytes::from(data)));
        }
        engine.run(&mut array);
        let results = array.drain_completions();
        assert!(
            results.iter().all(|r| r.is_ok()),
            "round {round}: all I/O must survive link chaos \
             (faulty: {:?}, retries: {}, timeouts: {})",
            array.faulty_members(),
            array.stats.retries,
            array.stats.timeouts
        );
    }

    // Whatever the chaos did, the run must end healed: either no member was
    // ever declared, or the manager rebuilt it onto the spare.
    assert!(
        !array.is_degraded(),
        "array must end optimal (faulty: {:?}, auto rebuilds: {})",
        array.faulty_members(),
        array.fault_manager_rebuilds()
    );

    // fsck + full readback: zero loss.
    let bad = array.store().expect("full mode").verify_all();
    assert!(bad.is_empty(), "inconsistent stripes: {bad:?}");
    array.submit(&mut engine, UserIo::read(0, shadow.len() as u64));
    engine.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(
        res.data.as_deref(),
        Some(&shadow[..]),
        "device/shadow diverged"
    );
}

#[test]
fn permanent_link_loss_is_declared_and_rebuilt() {
    // A link that goes down and stays down is indistinguishable from a dead
    // target: the evidence path must declare the member and the manager must
    // rebuild it onto a spare whose link is fine.
    let mut array = chaos_array(5, 6);
    let mut engine: Engine<ArraySim> = Engine::new();
    let stripes = 8u64;
    array.enable_fault_manager(stripes);
    let mut rng = DetRng::new(0x4E7C4A06);
    let stripe = array.layout().stripe_data_bytes();
    let mut shadow = vec![0u8; (stripes * stripe) as usize];

    let mut write_all = |array: &mut ArraySim, engine: &mut Engine<ArraySim>, shadow: &mut [u8]| {
        for slot in 0..stripes {
            let off = slot * stripe;
            let mut data = vec![0u8; stripe as usize];
            rng.fill_bytes(&mut data);
            shadow[off as usize..(off + stripe) as usize].copy_from_slice(&data);
            array.submit(engine, UserIo::write_bytes(off, Bytes::from(data)));
        }
        engine.run(array);
        array.drain_completions()
    };

    assert!(write_all(&mut array, &mut engine, &mut shadow)
        .iter()
        .all(|r| r.is_ok()));

    // Member 3's target falls off the fabric for good.
    FaultSchedule::new()
        .at(
            engine.now() + SimTime::from_micros(100),
            FaultAction::LinkDown {
                member: 3,
                duration: None,
            },
        )
        .install(&mut engine);

    for _ in 0..6 {
        let results = write_all(&mut array, &mut engine, &mut shadow);
        assert!(
            results.iter().all(|r| r.is_ok()),
            "writes must survive the dead link (faulty: {:?})",
            array.faulty_members()
        );
    }

    assert!(
        array.fault_manager_rebuilds() >= 1,
        "dead link must escalate to an automatic rebuild"
    );
    assert!(!array.is_degraded(), "healed onto the spare");
    let bad = array.store().expect("full mode").verify_all();
    assert!(bad.is_empty(), "fsck: {bad:?}");
}
