//! Double-run determinism verification.
//!
//! One reference scenario — RAID-6 over six disaggregated servers, full
//! data plane, step tracing on, and a [`FaultSchedule`] layering drive
//! transients, a fail-slow episode, link degradation and link flaps over
//! a seeded read/write workload — rendered to a canonical text artifact
//! covering user-visible results, array statistics, latency histograms,
//! engine counters, per-node fabric ledgers, per-drive byte ledgers, the
//! full step trace (with each step's queue/service split), the windowed
//! utilization timeline and a bucketed-latency cross-section. Run twice
//! with the same seed, the artifact must match **byte-for-byte**; any
//! divergence means hidden nondeterminism (hash-order iteration,
//! wall-clock reads, allocation-dependent scheduling) has leaked into the
//! simulation.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use bytes::Bytes;
use draid_block::Cluster;
use draid_core::{
    ArrayConfig, ArraySim, DataMode, FaultAction, FaultSchedule, RaidLevel, SystemKind, UserIo,
};
use draid_net::LinkDir;
use draid_sim::{DetRng, Engine, Histogram, SimTime, UtilizationTimeline};

const KIB: u64 = 1024;

/// Outcome of a double run.
#[derive(Debug)]
pub struct Report {
    /// The first run's artifact (identical for both runs when
    /// deterministic).
    pub artifact: String,
    /// First diverging line, as (1-based line, run-A text, run-B text).
    pub first_divergence: Option<(usize, String, String)>,
}

/// Runs the reference scenario twice with `seed` and diffs the artifacts.
pub fn run(seed: u64) -> Report {
    let a = artifact(seed);
    let b = artifact(seed);
    let first_divergence = if a == b {
        None
    } else {
        let mut la = a.lines();
        let mut lb = b.lines();
        let mut n = 0;
        loop {
            n += 1;
            match (la.next(), lb.next()) {
                (Some(x), Some(y)) if x == y => continue,
                (x, y) => {
                    break Some((
                        n,
                        x.unwrap_or("<EOF>").to_string(),
                        y.unwrap_or("<EOF>").to_string(),
                    ))
                }
            }
        }
    };
    Report {
        artifact: a,
        first_divergence,
    }
}

/// The reference fault schedule: every class of injectable fault that
/// leaves the array able to complete I/O (RAID-6 tolerates the overlap).
fn reference_faults() -> FaultSchedule {
    let ms = SimTime::from_millis;
    let us = SimTime::from_micros;
    let transient = |member, duration| FaultAction::Transient { member, duration };
    let fail_slow = |member, factor| FaultAction::FailSlow { member, factor };
    FaultSchedule::new()
        .at(ms(1), transient(1, us(900)))
        .at(ms(3), transient(4, us(1_400)))
        .at(ms(2), fail_slow(2, 3.0))
        .at(ms(6), fail_slow(2, 1.0))
        .at(
            ms(4),
            FaultAction::DegradeLink {
                member: 3,
                dir: LinkDir::Ingress,
                factor: 0.5,
                duration: ms(2),
            },
        )
        .at(
            ms(7),
            FaultAction::FlapLink {
                member: 5,
                down_for: us(200),
                up_for: us(300),
                cycles: 3,
            },
        )
        .at(ms(9), transient(0, us(700)))
}

/// Builds the reference array, pre-schedules the seeded workload and the
/// fault schedule, runs to quiescence, and renders the canonical artifact.
pub fn artifact(seed: u64) -> String {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = RaidLevel::Raid6;
    cfg.width = 6;
    cfg.chunk_size = 16 * KIB;
    cfg.data_mode = DataMode::Full;
    cfg.op_deadline = SimTime::from_millis(5);
    let mut array = ArraySim::new(Cluster::homogeneous(6), cfg).expect("valid reference config");
    array.enable_tracing(8192);

    let mut engine: Engine<ArraySim> = Engine::new();
    let mut rng = DetRng::new(seed);
    let stripe = array.layout().stripe_data_bytes();
    let slots = 16u64;

    // Pre-schedule the whole workload at seeded instants across 0..12 ms so
    // submissions interleave with the fault events below.
    for i in 0..48u64 {
        let slot = rng.below(slots);
        let len = 4 * KIB + rng.below(28) * KIB;
        let off = slot * stripe + rng.below(2) * 8 * KIB;
        let mut data = vec![0u8; len as usize];
        rng.fill_bytes(&mut data);
        let at = SimTime::from_micros(i * 230 + rng.below(180));
        engine.schedule_at(at, move |w: &mut ArraySim, eng| {
            w.submit(eng, UserIo::write_bytes(off, Bytes::from(data)));
        });
    }
    for i in 0..24u64 {
        let slot = rng.below(slots);
        let len = 4 * KIB + rng.below(12) * KIB;
        let off = slot * stripe;
        let at = SimTime::from_micros(1_500 + i * 410 + rng.below(220));
        engine.schedule_at(at, move |w: &mut ArraySim, eng| {
            w.submit(eng, UserIo::read(off, len));
        });
    }
    // Sample every resource's clamped elapsed-busy time at fixed 1 ms
    // boundaries, building the observability plane's utilization timeline
    // alongside the workload and faults.
    let timeline = Rc::new(RefCell::new(UtilizationTimeline::new(SimTime::ZERO)));
    for ms in 0..=13u64 {
        let tl = Rc::clone(&timeline);
        engine.schedule_at(SimTime::from_millis(ms), move |w: &mut ArraySim, eng| {
            w.cluster.sample_busy(&mut tl.borrow_mut(), eng.now());
        });
    }

    reference_faults().install(&mut engine);
    engine.run(&mut array);

    let results = array.drain_completions();
    array.audit_invariants();

    // ---- canonical rendering: integers only, fixed field order ----
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "draid-check determinism artifact");
    let _ = writeln!(w, "seed {seed}");
    let _ = writeln!(w, "now_ns {}", engine.now().as_nanos());
    let es = engine.stats();
    let _ = writeln!(
        w,
        "engine fired {} scheduled {} pending {}",
        es.events_fired,
        es.events_scheduled,
        engine.pending()
    );

    let _ = writeln!(w, "completions {}", results.len());
    for r in &results {
        let _ = writeln!(
            w,
            "  io ok {} data_len {}",
            u32::from(r.is_ok()),
            r.data.as_ref().map_or(0, |d| d.len())
        );
    }

    let s = &mut array.stats;
    let _ = writeln!(
        w,
        "stats reads {} writes {} bytes_read {} bytes_written {} retries {} \
         timeouts {} degraded {} failed {} scrub_repairs {}",
        s.reads,
        s.writes,
        s.bytes_read,
        s.bytes_written,
        s.retries,
        s.timeouts,
        s.degraded_ios,
        s.failed_ios,
        s.scrub_repairs
    );
    for (name, h) in [
        ("read_latency", &mut s.read_latency),
        ("write_latency", &mut s.write_latency),
    ] {
        let _ = writeln!(
            w,
            "hist {name} n {} mean_ns {} p50_ns {} p99_ns {} min_ns {} max_ns {}",
            h.len(),
            h.mean().as_nanos(),
            h.percentile(50.0).as_nanos(),
            h.percentile(99.0).as_nanos(),
            h.min().as_nanos(),
            h.max().as_nanos()
        );
    }

    let _ = writeln!(w, "faulty {:?}", array.faulty_members());
    let bad = array.store().expect("full data mode").verify_all();
    let _ = writeln!(w, "fsck_bad_stripes {bad:?}");

    // Resource ledgers: fabric per node+direction, drives per server.
    {
        let cluster = &array.cluster;
        let fabric = cluster.fabric();
        for node in 0..=cluster.width() {
            let node = draid_net::NodeId(node);
            let _ = writeln!(
                w,
                "fabric node {} sent {} recv {} e_off {} e_drop {} i_off {} i_drop {}",
                node.0,
                fabric.bytes_sent(node),
                fabric.bytes_received(node),
                fabric.bytes_offered(node, LinkDir::Egress),
                fabric.bytes_dropped(node, LinkDir::Egress),
                fabric.bytes_offered(node, LinkDir::Ingress),
                fabric.bytes_dropped(node, LinkDir::Ingress),
            );
        }
        for srv in 0..cluster.width() {
            let d = cluster.drive(draid_block::ServerId(srv));
            let _ = writeln!(
                w,
                "drive {} served {} offered {} dropped {}",
                srv,
                d.bytes_served(),
                d.bytes_offered(),
                d.bytes_dropped()
            );
        }
    }

    // Full step trace, byte-for-byte.
    let tracer = array.trace().expect("tracing enabled");
    let _ = writeln!(
        w,
        "trace events {} dropped {}",
        tracer.events().len(),
        tracer.dropped()
    );
    for e in tracer.events() {
        assert_eq!(
            e.queue() + e.service(),
            e.span(),
            "trace span must split exactly into queue + service"
        );
        let _ = writeln!(
            w,
            "  t user {} op {} step {} class {} issued {} started {} completed {}",
            e.user,
            e.op,
            e.step,
            draid_core::trace::StepClass::of(&e.kind).label(),
            e.issued.as_nanos(),
            e.started.as_nanos(),
            e.completed.as_nanos()
        );
    }

    // Utilization timeline: per-series bucket busy times. Each bucket is
    // bounded by its width (utilization can never exceed 1.0) and the busy
    // sum equals the clamped elapsed busy over the sampled span.
    let tl = timeline.borrow();
    let _ = writeln!(w, "timeline series {}", tl.names().count());
    for name in tl.names() {
        for b in tl.buckets(name) {
            assert!(
                b.busy <= b.width,
                "{name}: bucket busy {} exceeds width {}",
                b.busy,
                b.width
            );
        }
        let buckets: Vec<u64> = tl.buckets(name).iter().map(|b| b.busy.as_nanos()).collect();
        let _ = writeln!(
            w,
            "  tl {name} total_busy_ns {} buckets {buckets:?}",
            tl.total_busy(name).as_nanos()
        );
    }

    // Bucketed (HDR-style) latency cross-section over the completed I/Os.
    let mut lat = Histogram::bucketed();
    for r in &results {
        lat.record(r.latency());
    }
    let ls = lat.summary();
    let _ = writeln!(
        w,
        "bucketed_latency n {} mean_ns {} p50_ns {} p99_ns {} min_ns {} max_ns {} sum_ns {}",
        ls.n,
        ls.mean.as_nanos(),
        ls.p50.as_nanos(),
        ls.p99.as_nanos(),
        ls.min.as_nanos(),
        ls.max.as_nanos(),
        lat.sum_nanos()
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_is_nonempty_and_contains_sections() {
        let a = artifact(7);
        assert!(a.contains("stats reads"));
        assert!(a.contains("trace events"));
        assert!(a.contains("fsck_bad_stripes []"));
    }
}
