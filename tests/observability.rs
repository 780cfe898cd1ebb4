//! End-to-end invariants of the observability plane: trace spans must split
//! exactly into queueing + service even while faults reshape the schedules,
//! and the sampled utilization timeline must stay clamped to wall clock
//! under saturating load.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use draid::block::Cluster;
use draid::core::{
    ArrayConfig, ArraySim, DataMode, FaultAction, FaultSchedule, RaidLevel, SystemKind, UserIo,
};
use draid::net::LinkDir;
use draid::sim::{DetRng, Engine, SimTime, UtilizationTimeline};

const KIB: u64 = 1024;

fn array() -> ArraySim {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid6;
    cfg.width = 6;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    cfg.op_deadline = SimTime::from_millis(5);
    ArraySim::new(Cluster::homogeneous(6), cfg).expect("valid")
}

#[test]
fn trace_spans_split_exactly_under_fault_chaos() {
    let mut array = array();
    array.enable_tracing(200_000);
    let mut engine: Engine<ArraySim> = Engine::new();
    let mut rng = DetRng::new(0x0B5E);
    let stripe = array.layout().stripe_data_bytes();

    for i in 0..64u64 {
        let off = rng.below(16) * stripe + rng.below(2) * 8 * KIB;
        let len = 4 * KIB + rng.below(28) * KIB;
        let at = SimTime::from_micros(i * 170 + rng.below(140));
        if rng.below(3) == 0 {
            engine.schedule_at(at, move |w: &mut ArraySim, eng| {
                w.submit(eng, UserIo::read(off, len));
            });
        } else {
            let mut data = vec![0u8; len as usize];
            rng.fill_bytes(&mut data);
            engine.schedule_at(at, move |w: &mut ArraySim, eng| {
                w.submit(eng, UserIo::write_bytes(off, Bytes::from(data)));
            });
        }
    }
    // Faults of every class that still let RAID-6 complete I/O: the spans
    // must stay internally consistent while retries, degraded paths and
    // shaped links stretch them.
    let ms = SimTime::from_millis;
    let us = SimTime::from_micros;
    let fail_slow = |factor| FaultAction::FailSlow { member: 4, factor };
    FaultSchedule::new()
        .at(
            ms(1),
            FaultAction::Transient {
                member: 2,
                duration: us(800),
            },
        )
        .at(ms(2), fail_slow(2.5))
        .at(ms(5), fail_slow(1.0))
        .at(
            ms(3),
            FaultAction::DegradeLink {
                member: 1,
                dir: LinkDir::Ingress,
                factor: 0.5,
                duration: ms(2),
            },
        )
        .at(
            ms(6),
            FaultAction::FlapLink {
                member: 5,
                down_for: us(150),
                up_for: us(250),
                cycles: 3,
            },
        )
        .install(&mut engine);
    engine.run(&mut array);
    array.drain_completions();

    let trace = array.take_trace().expect("tracing on");
    assert!(trace.events().len() > 500, "chaos run traced too little");
    assert_eq!(trace.dropped(), 0);
    for e in trace.events() {
        assert!(e.issued <= e.started, "service cannot start before issue");
        assert!(
            e.started <= e.completed,
            "completion precedes service start"
        );
        assert_eq!(
            e.queue() + e.service(),
            e.span(),
            "queue + service must equal the end-to-end span"
        );
    }
    // The breakdown aggregates inherit the exact split.
    for (_, agg) in trace.breakdown() {
        assert_eq!(agg.queue + agg.service, agg.total_span);
    }
}

#[test]
fn utilization_stays_clamped_under_saturating_load() {
    let mut array = array();
    let mut engine: Engine<ArraySim> = Engine::new();
    let stripe = array.layout().stripe_data_bytes();

    // Deep closed loop: 64 outstanding partial-stripe writes, resubmitted on
    // completion — queues on every resource stay saturated throughout.
    let counter = Rc::new(RefCell::new(0u64));
    fn submit(
        array: &mut ArraySim,
        engine: &mut Engine<ArraySim>,
        counter: &Rc<RefCell<u64>>,
        stripe: u64,
    ) {
        let n = {
            let mut c = counter.borrow_mut();
            *c += 1;
            *c
        };
        let off = (n % 16) * stripe;
        let c2 = Rc::clone(counter);
        array.submit_with_hook(
            engine,
            UserIo::write(off, 24 * KIB),
            Some(Box::new(move |a, e, _res| submit(a, e, &c2, stripe))),
        );
    }
    for _ in 0..64 {
        submit(&mut array, &mut engine, &counter, stripe);
    }

    let timeline = Rc::new(RefCell::new(UtilizationTimeline::new(SimTime::ZERO)));
    for tick in 0..=20u64 {
        let tl = Rc::clone(&timeline);
        engine.schedule_at(
            SimTime::from_micros(tick * 500),
            move |w: &mut ArraySim, eng| {
                w.cluster.sample_busy(&mut tl.borrow_mut(), eng.now());
            },
        );
    }
    engine.run_until(&mut array, SimTime::from_millis(10));
    array.drain_completions();

    let tl = timeline.borrow();
    let mut peak = 0.0f64;
    let mut samples = 0usize;
    for name in tl.names() {
        for b in tl.buckets(name) {
            samples += 1;
            let u = b.utilization();
            assert!(
                u <= 1.0 + 1e-12,
                "{name}: utilization {u} exceeds 1.0 at sample {}",
                b.end
            );
            peak = peak.max(u);
        }
    }
    assert!(
        samples >= 20 * 20,
        "expected a full sample grid, got {samples}"
    );
    // The load really was saturating: something ran at (or pinned to) 100%.
    assert!(peak > 0.95, "peak utilization only {peak}");
}
