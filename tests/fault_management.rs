//! End-to-end tests of the fault-management plane: a member failure is
//! *detected* through the §5.4 evidence path, *declared*, and *rebuilt* onto
//! a pool spare by the fault manager — with no manual `start_rebuild` — while
//! the workload keeps running; fail-slow (gray) members are quarantined
//! without ever tripping a rebuild; transients striking mid-rebuild
//! neither corrupt the spare nor stall the pump; and a fault applied with
//! `ArraySim::inject` from an engine event acts exactly like the same fault
//! installed through a `FaultSchedule`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use draid::block::{Cluster, ServerId};
use draid::core::{
    ArrayConfig, ArraySim, CompletionHook, DataMode, FaultAction, FaultSchedule, HealthState,
    RaidLevel, SystemKind, UserIo,
};
use draid::net::{LinkDir, NodeId};
use draid::sim::{DetRng, Engine, SimTime};

const KIB: u64 = 1024;

fn managed_array(width: usize, pool: usize) -> (ArraySim, Engine<ArraySim>) {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid5;
    cfg.width = width;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    cfg.op_deadline = SimTime::from_millis(5);
    let array = ArraySim::new(Cluster::homogeneous(pool), cfg).expect("valid");
    (array, Engine::new())
}

/// Writes one full random stripe per slot in `slots`, mirroring into the
/// shadow buffer, and runs the engine to completion.
fn write_round(
    array: &mut ArraySim,
    engine: &mut Engine<ArraySim>,
    rng: &mut DetRng,
    shadow: &mut [u8],
    slots: &[u64],
) -> Vec<draid::core::IoResult> {
    let stripe = array.layout().stripe_data_bytes();
    for &slot in slots {
        let off = slot * stripe;
        let mut data = vec![0u8; stripe as usize];
        rng.fill_bytes(&mut data);
        shadow[off as usize..(off + stripe) as usize].copy_from_slice(&data);
        array.submit(engine, UserIo::write_bytes(off, Bytes::from(data)));
    }
    engine.run(array);
    array.drain_completions()
}

#[test]
fn auto_rebuild_closes_the_loop_without_operator() {
    // Width-5 array over a 7-server pool: servers 5 and 6 are spares.
    let (mut array, mut engine) = managed_array(5, 7);
    let stripes = 8u64;
    array.enable_fault_manager(stripes);
    let mut rng = DetRng::new(0xFA017);
    let stripe = array.layout().stripe_data_bytes();
    let mut shadow = vec![0u8; (stripes * stripe) as usize];
    let slots: Vec<u64> = (0..stripes).collect();

    // Baseline content everywhere.
    let results = write_round(&mut array, &mut engine, &mut rng, &mut shadow, &slots);
    assert!(results.iter().all(|r| r.is_ok()));

    // Member 2's drive dies *silently* — no declaration. The host has to
    // discover it from errored ops (§5.4 windowed evidence).
    FaultSchedule::new()
        .at(
            engine.now() + SimTime::from_micros(100),
            FaultAction::FailDrive { member: 2 },
        )
        .install(&mut engine);

    // Sustained writes: evidence accrues, the member is declared, the
    // manager draws a spare and rebuilds — all inside these rounds.
    for _ in 0..6 {
        let results = write_round(&mut array, &mut engine, &mut rng, &mut shadow, &slots);
        assert!(
            results.iter().all(|r| r.is_ok()),
            "writes must survive the failure (faulty: {:?})",
            array.faulty_members()
        );
    }

    assert!(
        array.fault_manager_rebuilds() >= 1,
        "the manager must have started the rebuild on its own"
    );
    assert!(
        !array.is_degraded(),
        "rebuild onto the pool spare must have completed (status: {:?})",
        array.rebuild_status()
    );
    assert_eq!(array.health().state(2), HealthState::Healthy);

    // Zero loss: fsck clean and every byte reads back.
    let bad = array.store().expect("full mode").verify_all();
    assert!(bad.is_empty(), "post-rebuild fsck: {bad:?}");
    array.submit(&mut engine, UserIo::read(0, shadow.len() as u64));
    engine.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&shadow[..]), "readback diverged");
}

#[test]
fn second_failure_is_rebuilt_by_the_rearmed_manager() {
    // After healing one failure the manager must pick up the next: two
    // sequential failures, two spares drawn (servers 5 then 6).
    let (mut array, mut engine) = managed_array(5, 7);
    let stripes = 6u64;
    array.enable_fault_manager(stripes);
    let mut rng = DetRng::new(0xFA018);
    let stripe = array.layout().stripe_data_bytes();
    let mut shadow = vec![0u8; (stripes * stripe) as usize];
    let slots: Vec<u64> = (0..stripes).collect();
    write_round(&mut array, &mut engine, &mut rng, &mut shadow, &slots);

    for victim in [1usize, 3] {
        FaultSchedule::new()
            .at(
                engine.now() + SimTime::from_micros(50),
                FaultAction::FailDrive { member: victim },
            )
            .install(&mut engine);
        for _ in 0..6 {
            let results = write_round(&mut array, &mut engine, &mut rng, &mut shadow, &slots);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        assert!(!array.is_degraded(), "member {victim} healed");
    }
    assert_eq!(array.fault_manager_rebuilds(), 2);
    let bad = array.store().expect("full mode").verify_all();
    assert!(bad.is_empty(), "fsck after two heals: {bad:?}");
    array.submit(&mut engine, UserIo::read(0, shadow.len() as u64));
    engine.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(res.data.as_deref(), Some(&shadow[..]));
}

/// Submits a 4 KiB read at `at` and runs the engine until it completes;
/// returns the completion instant. The sweep that completion offers has
/// run by then, and a rebuild it started is still in flight.
fn probe_read(array: &mut ArraySim, engine: &mut Engine<ArraySim>, at: SimTime) -> SimTime {
    let done = Rc::new(Cell::new(SimTime::ZERO));
    let seen = Rc::clone(&done);
    engine.schedule_at(at, move |array: &mut ArraySim, engine| {
        let hook: CompletionHook = Box::new(move |_, engine, res| {
            assert!(res.is_ok(), "probe read failed: {res:?}");
            seen.set(engine.now());
            engine.stop();
        });
        array.submit_with_hook(engine, UserIo::read(0, 4 * KIB), Some(hook));
    });
    engine.run(array);
    done.get()
}

#[test]
fn manager_sweeps_every_500us_and_rebuilds_three_stripes_at_a_time() {
    let (mut array, mut engine) = managed_array(5, 7);
    let stripes = 8u64;
    array.enable_fault_manager(stripes);
    let mut rng = DetRng::new(0xFA01B);
    let stripe = array.layout().stripe_data_bytes();
    let mut shadow = vec![0u8; (stripes * stripe) as usize];
    let slots: Vec<u64> = (0..stripes).collect();
    write_round(&mut array, &mut engine, &mut rng, &mut shadow, &slots);

    // Long after any earlier sweep, the next completion sweeps: the last
    // sweep is at `swept`.
    let idle = engine.now() + SimTime::from_millis(1);
    let swept = probe_read(&mut array, &mut engine, idle);
    FaultSchedule::new()
        .at(
            swept + SimTime::from_micros(50),
            FaultAction::DeclareFailed { member: 3 },
        )
        .install(&mut engine);

    // Completions inside the 500 µs period leave the declared member
    // alone; the first one at or past it starts the rebuild.
    let mut waited = Vec::new();
    for offset_us in [100, 250, 400, 450, 500] {
        let at = (swept + SimTime::from_micros(offset_us)).max(engine.now());
        let done = probe_read(&mut array, &mut engine, at);
        assert_eq!(array.faulty_members(), vec![3]);
        if done.saturating_sub(swept) < SimTime::from_micros(500) {
            assert_eq!(array.fault_manager_rebuilds(), 0, "rebuilt at {done:?}");
            assert!(array.rebuild_status().is_none());
            waited.push(done);
            continue;
        }
        assert_eq!(array.fault_manager_rebuilds(), 1, "no rebuild at {done:?}");
        let status = array.rebuild_status().expect("rebuild in flight");
        assert_eq!(status.member, 3);
        assert_eq!(status.started, done);
        assert_eq!(status.concurrency, 3);
        break;
    }
    assert!(
        !waited.is_empty() && array.fault_manager_rebuilds() == 1,
        "completions before the period {waited:?}, rebuilds {}",
        array.fault_manager_rebuilds()
    );
    engine.run(&mut array);
    assert!(!array.is_degraded(), "the rebuild completes");
}

#[test]
fn fail_slow_member_is_quarantined_not_rebuilt() {
    let (mut array, mut engine) = managed_array(6, 6);
    array.enable_fault_manager(4);
    let mut rng = DetRng::new(0xFA019);
    let stripe = array.layout().stripe_data_bytes();
    let stripes = 4u64;
    let mut shadow = vec![0u8; (stripes * stripe) as usize];
    let slots: Vec<u64> = (0..stripes).collect();

    // Member 1 serves 10× slower — no errors, just latency (gray failure).
    let fail_slow = |factor| FaultAction::FailSlow { member: 1, factor };
    FaultSchedule::new()
        .at(SimTime::from_micros(10), fail_slow(10.0))
        .install(&mut engine);

    // Mixed rounds, spaced out so the latency excess persists well past the
    // detector's grace period (2 × op deadline = 10 ms).
    for round in 0..12 {
        let results = write_round(&mut array, &mut engine, &mut rng, &mut shadow, &slots);
        assert!(results.iter().all(|r| r.is_ok()), "round {round}");
        array.submit(&mut engine, UserIo::read(0, stripe));
        engine.schedule_in(SimTime::from_millis(2), |_, _| {});
        engine.run(&mut array);
        assert!(array.drain_completions().iter().all(|r| r.is_ok()));
    }

    assert_eq!(
        array.health().state(1),
        HealthState::Quarantined,
        "10× latency with zero errors is a gray member (EWMA {:?} vs healthy {:?})",
        array.health().member(1).ewma_latency(),
        array.health().member(0).ewma_latency(),
    );
    // Quarantine is advisory: nothing was declared, nothing rebuilt, no I/O
    // was lost to the slow member.
    assert!(array.faulty_members().is_empty());
    assert_eq!(array.fault_manager_rebuilds(), 0);
    assert_eq!(array.stats.failed_ios, 0);

    // Restoring full speed recovers the member after fresh samples.
    array.inject(engine.now(), fail_slow(1.0));
    for _ in 0..20 {
        write_round(&mut array, &mut engine, &mut rng, &mut shadow, &slots);
    }
    assert_eq!(array.health().state(1), HealthState::Healthy);
}

#[test]
fn transient_mid_rebuild_neither_corrupts_nor_stalls() {
    // Default 250 ms deadline: the whole transient burst lands in one
    // evidence window, so the surviving member is never at risk of being
    // declared faulty by its own rebuild reads.
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid5;
    cfg.width = 5;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    let mut array = ArraySim::new(Cluster::homogeneous(6), cfg).expect("valid");
    let mut engine: Engine<ArraySim> = Engine::new();

    let mut rng = DetRng::new(0xFA01A);
    let stripes = 10u64;
    let stripe = array.layout().stripe_data_bytes();
    let mut shadow = vec![0u8; (stripes * stripe) as usize];
    let slots: Vec<u64> = (0..stripes).collect();
    write_round(&mut array, &mut engine, &mut rng, &mut shadow, &slots);

    array.fail_member(2);
    array.start_rebuild(&mut engine, 2, ServerId(5), stripes, 2);
    // A survivor goes transient while its chunks are being pulled for
    // reconstruction; failed stripe rebuilds must rewind and retry, not
    // poison the spare or wedge the pump.
    FaultSchedule::new()
        .at(
            engine.now() + SimTime::from_micros(150),
            FaultAction::Transient {
                member: 0,
                duration: SimTime::from_micros(400),
            },
        )
        .install(&mut engine);
    engine.run(&mut array);

    assert!(
        !array.is_degraded(),
        "rebuild must complete despite the transient"
    );
    assert!(array.rebuild_status().is_none(), "pump drained");
    assert!(
        array.faulty_members().is_empty(),
        "the transient member must not be declared: {:?}",
        array.faulty_members()
    );
    let bad = array.store().expect("full mode").verify_all();
    assert!(bad.is_empty(), "spare content poisoned: {bad:?}");
    array.submit(&mut engine, UserIo::read(0, shadow.len() as u64));
    engine.run(&mut array);
    let res = array.drain_completions().pop().expect("read");
    assert_eq!(
        res.data.as_deref(),
        Some(&shadow[..]),
        "data loss after rebuild"
    );
}

/// One client of [`closed_loop`]: it owns `SPAN` bytes from `base` and
/// keeps one I/O in flight there, alternating a random write with a read
/// of a random range, which must return what the shadow holds.
struct Client {
    rng: DetRng,
    base: u64,
    shadow: Vec<u8>,
    left: u32,
}

/// Two stripes of a width-6 RAID-6 array with 16 KiB chunks.
const SPAN: u64 = 2 * 4 * 16 * KIB;

fn issue(array: &mut ArraySim, engine: &mut Engine<ArraySim>, client: Rc<RefCell<Client>>) {
    let (io, want) = {
        let c = &mut *client.borrow_mut();
        if c.left == 0 {
            return;
        }
        c.left -= 1;
        let len = (1 + c.rng.below(8)) * 4 * KIB;
        let off = c.rng.below((SPAN - len) / (4 * KIB) + 1) * 4 * KIB;
        let range = off as usize..(off + len) as usize;
        if c.left % 2 == 1 {
            c.rng.fill_bytes(&mut c.shadow[range.clone()]);
            let data = Bytes::copy_from_slice(&c.shadow[range]);
            (UserIo::write_bytes(c.base + off, data), None)
        } else {
            let want = c.shadow[range].to_vec();
            (UserIo::read(c.base + off, len), Some(want))
        }
    };
    let hook: CompletionHook = Box::new(move |array, engine, res| {
        assert!(res.is_ok(), "I/O failed under the faults: {res:?}");
        if let Some(want) = want {
            assert_eq!(
                res.data.as_deref(),
                Some(&want[..]),
                "read at {}",
                res.offset
            );
        }
        issue(array, engine, client);
    });
    array.submit_with_hook(engine, io, Some(hook));
}

/// Runs four closed-loop clients of 96 I/Os each on a Full-mode RAID-6
/// array after `arm` has put its faults on the engine. Returns the
/// completion stream, the array statistics, the events fired and the final
/// clock, all rendered for comparison.
fn closed_loop(arm: impl FnOnce(&mut Engine<ArraySim>)) -> (Vec<String>, String, u64, SimTime) {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid6;
    cfg.width = 6;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    cfg.op_deadline = SimTime::from_millis(5);
    let mut array = ArraySim::new(Cluster::homogeneous(6), cfg).expect("valid");
    let mut engine = Engine::new();
    arm(&mut engine);
    for i in 0..4 {
        let client = Client {
            rng: DetRng::new(0xFA01C + i),
            base: i * SPAN,
            shadow: vec![0; SPAN as usize],
            left: 96,
        };
        issue(&mut array, &mut engine, Rc::new(RefCell::new(client)));
    }
    engine.run(&mut array);
    let done: Vec<String> = array
        .drain_completions()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    assert_eq!(done.len(), 4 * 96);
    // Both faults struck: member 1's drive refused I/O, and a transfer
    // met member 4's link down.
    assert!(array.cluster.drive(ServerId(1)).bytes_dropped() > 0);
    let fabric = array.cluster.fabric();
    let link_drops: u64 = (0..=6)
        .map(|n| fabric.bytes_dropped(NodeId(n), LinkDir::Egress))
        .sum();
    assert!(link_drops > 0, "the flap refused no transfer");
    let stats = format!("{:?}", array.stats);
    (done, stats, engine.stats().events_fired, engine.now())
}

#[test]
fn inject_from_engine_events_matches_an_installed_schedule() {
    let (ms, us) = (SimTime::from_millis, SimTime::from_micros);
    let faults = [
        (
            ms(1),
            FaultAction::Transient {
                member: 1,
                duration: us(800),
            },
        ),
        (
            ms(2),
            FaultAction::FlapLink {
                member: 4,
                down_for: us(200),
                up_for: us(300),
                cycles: 3,
            },
        ),
    ];
    let injected = closed_loop(|engine| {
        for (at, action) in faults {
            engine.schedule_at(at, move |array: &mut ArraySim, engine| {
                array.inject(engine.now(), action)
            });
        }
    });
    let installed = closed_loop(|engine| {
        faults
            .into_iter()
            .fold(FaultSchedule::new(), |s, (at, action)| s.at(at, action))
            .install(engine)
    });
    assert!(
        injected.3 > ms(4),
        "the loop outlasts the faults: {}",
        injected.3
    );
    assert_eq!(injected.0, installed.0, "completion streams differ");
    assert_eq!(injected.1, installed.1, "array statistics differ");
    assert_eq!(injected.2, installed.2, "events fired differ");
    assert_eq!(injected.3, installed.3, "final clocks differ");
}
