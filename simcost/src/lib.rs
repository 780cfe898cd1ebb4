//! # simcost — host cost of the dRAID simulator, end to end and layer by layer
//!
//! Runs one named workload in a single thread and reports what the
//! simulator costs its user in host time: simulated user I/Os completed per
//! host-second, peak memory and set-up time (the untraced run), or the
//! per-layer attribution of that cost (the traced run). Every run also
//! checks the simulated outputs. See `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod closed_loop;
pub mod meta;
pub mod metrics;
pub mod reference;
pub mod replay;
pub mod scenario;
pub mod spans;

use std::time::Instant;

use draid_block::ServerId;
use draid_core::ArraySim;

use closed_loop::{Drained, Shared};
use scenario::{Scenario, Workload, FAILED_MEMBER};
use spans::{Name, Spans};

/// Windows an untraced run's measurement is split into; `sim_ios_per_s` is
/// the median of the windows' speed-scaled rates.
const WINDOWS: usize = 16;

/// Slices per window. A slice runs the loop, then a reference slice, so
/// both sample the same host states (which change within tens of ms).
const SLICES: usize = 25;

/// Share of host time spent running the loop; the reference slices (about
/// 3 ms each) take the rest.
const LOOP_SHARE: f64 = 0.85;

/// `setup_s` is the median over this many batches of the speed-scaled mean
/// set-up time. A Timing-mode set-up takes microseconds, so one alone is
/// too short to time steadily.
const SETUP_BATCHES: usize = 7;

/// Host time of set-ups per batch slice, seconds; each is followed by a
/// reference slice.
const SETUP_SLICE_S: f64 = 0.004;

/// Slices per set-up batch.
const SETUP_SLICES: usize = 10;

/// The traced segment ends early once it holds this many spans.
const SPAN_CAP: usize = 1_000_000;

/// `ReedSolomon::reconstruct` calls timed per traced run.
const RS_CALLS: usize = 9;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload stream, the array and the payload.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
}

/// What a run produced.
pub struct Outcome {
    /// `sim_digest`: hash of the simulated outcome at the end of warm-up.
    pub digest: String,
    /// The fields the digest hashes.
    pub digest_fields: String,
    /// User I/Os completed by the closed loop.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Failed output checks (empty when correct).
    pub errors: Vec<String>,
    /// Reported metrics, by name.
    pub values: Vec<(&'static str, f64)>,
    /// The traced segment's spans (traced run only).
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Whether every output check passed and no user I/O failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The benchmark's last output line.
    pub fn result_json(&self) -> String {
        metrics::result_json(self.correct(), self.attempted, self.failed, &self.values)
    }
}

/// Runs `opts`.
pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// A running closed loop past its warm-up.
struct Started {
    sc: Scenario,
    lp: Shared,
    warm: Drained,
    digest: (String, String),
}

/// Prefills (Full mode), opens the loop, runs the warm-up and takes the
/// digest.
fn start(mut sc: Scenario, seed: u64) -> Started {
    if sc.workload.full() {
        scenario::prefill(&mut sc);
    }
    let lp = closed_loop::Loop::new(&mut sc, seed);
    lp.borrow_mut().completions_hash = Some(closed_loop::FNV_OFFSET);
    closed_loop::prime(&lp, &mut sc);
    let warmup = sc.workload.warmup();
    let warm = closed_loop::run_sim(&lp, &mut sc, warmup);
    let completions = lp.borrow_mut().completions_hash.take();
    let digest = closed_loop::sim_digest(&mut sc, completions.expect("set above"));
    Started {
        sc,
        lp,
        warm,
        digest,
    }
}

/// The untraced run. Host times are measured in windows of short slices,
/// each slice followed by a slice of the [`reference`] kernel. A window's
/// figure is scaled by the host speed its reference slices measured, and
/// the median window is reported. The unscaled medians go to stderr.
fn run_untraced(opts: &Opts) -> Outcome {
    let mut reference = reference::Reference::new(opts.workload.reference());
    let mut setup_s = Vec::with_capacity(SETUP_BATCHES);
    let mut raw_setup_s = Vec::with_capacity(SETUP_BATCHES);
    let mut built = None;
    for _ in 0..SETUP_BATCHES {
        let (mut spent, mut count) = (0.0, 0u32);
        for _ in 0..SETUP_SLICES {
            let target = spent + SETUP_SLICE_S;
            while spent < target {
                let t = Instant::now();
                let sc = scenario::setup(opts.workload, opts.seed);
                spent += t.elapsed().as_secs_f64();
                count += 1;
                // The previous scenario drops here, outside the timed region.
                built = Some(sc);
            }
            reference.slice();
        }
        let mean = spent / f64::from(count);
        raw_setup_s.push(mean);
        setup_s.push(mean * reference.take_speed());
    }
    let Started {
        mut sc,
        lp,
        warm,
        digest,
    } = start(built.expect("at least one set-up"), opts.seed);

    let slice_s = opts.seconds * LOOP_SHARE / (WINDOWS * SLICES) as f64;
    let mut total = warm;
    let mut rates = Vec::with_capacity(WINDOWS);
    let mut raw_rates = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let (mut done, mut secs) = (Drained::default(), 0.0);
        for _ in 0..SLICES {
            let (d, s) = closed_loop::run_host(&lp, &mut sc, slice_s, |_| false);
            done.add(d);
            secs += s;
            reference.slice();
        }
        total.add(done);
        let rate = done.ios as f64 / secs;
        raw_rates.push(rate);
        rates.push(rate / reference.take_speed());
    }
    total.add(closed_loop::close(&lp, &mut sc));
    eprintln!(
        "unscaled: sim_ios_per_s {:.1} setup_s {:.9}",
        median(&mut raw_rates),
        median(&mut raw_setup_s)
    );

    let errors = checks(&mut sc, &lp);
    Outcome {
        digest: digest.0,
        digest_fields: digest.1,
        attempted: total.ios,
        failed: total.failed,
        errors,
        values: vec![
            ("sim_ios_per_s", median(&mut rates)),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", median(&mut setup_s)),
        ],
        spans: None,
    }
}

/// Output checks shared by both runs, after the loop has been closed:
/// conservation ledgers, no retries or timeouts, nothing left in flight,
/// and in Full mode the shadow comparison plus a parity check of the whole
/// store once the lost member's chunks are rebuilt from the survivors.
fn checks(sc: &mut Scenario, lp: &Shared) -> Vec<String> {
    let mut errors = closed_loop::ledger_errors(&sc.array);
    let stats = &sc.array.stats;
    if stats.retries != 0 || stats.timeouts != 0 || stats.failed_ios != 0 {
        errors.push(format!(
            "retries {} timeouts {} failed {} (all must be 0)",
            stats.retries, stats.timeouts, stats.failed_ios
        ));
    }
    if sc.array.inflight_ops() != 0 {
        errors.push(format!(
            "{} stripe ops still in flight",
            sc.array.inflight_ops()
        ));
    }
    if let Some((verified, mismatches)) = lp.borrow().shadow_counts() {
        if mismatches != 0 || verified == 0 {
            errors.push(format!(
                "shadow check: {mismatches} reads returned wrong bytes, {verified} verified"
            ));
        }
        let stripes = scenario::working_stripes(sc);
        let faulty: std::collections::BTreeSet<usize> =
            sc.array.faulty_members().into_iter().collect();
        let store = sc.array.store_mut().expect("full mode has a store");
        for s in 0..stripes {
            store.rebuild_chunk(s, FAILED_MEMBER, &faulty);
        }
        let bad = store.verify_all();
        if !bad.is_empty() {
            errors.push(format!("parity inconsistent on stripes {bad:?}"));
        }
    }
    errors
}

/// Run-wide counters the traced segment is measured against.
#[derive(Clone, Copy, Debug)]
struct Counters {
    fired: u64,
    scheduled: u64,
    canceled: u64,
    drive_ops: u64,
    host_bytes: u64,
    user_bytes: u64,
    retries: u64,
}

impl Counters {
    fn of(sc: &Scenario) -> Counters {
        let a: &ArraySim = &sc.array;
        let e = sc.engine.stats();
        let host = a.cluster.host_node();
        Counters {
            fired: e.events_fired,
            scheduled: e.events_scheduled,
            canceled: e.events_canceled,
            drive_ops: (0..a.cluster.width())
                .map(|s| {
                    let d = a.cluster.drive(ServerId(s));
                    d.reads() + d.writes()
                })
                .sum(),
            host_bytes: a.cluster.fabric().bytes_sent(host)
                + a.cluster.fabric().bytes_received(host),
            user_bytes: a.stats.total_bytes(),
            retries: a.stats.retries,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            fired: self.fired - before.fired,
            scheduled: self.scheduled - before.scheduled,
            canceled: self.canceled - before.canceled,
            drive_ops: self.drive_ops - before.drive_ops,
            host_bytes: self.host_bytes - before.host_bytes,
            user_bytes: self.user_bytes - before.user_bytes,
            retries: self.retries - before.retries,
        }
    }
}

/// The traced run: an untraced segment (the overhead baseline), a traced
/// segment recording spans and inputs, then the layer replays.
fn run_traced(opts: &Opts) -> Outcome {
    let Started {
        mut sc,
        lp,
        warm,
        digest,
    } = start(scenario::setup(opts.workload, opts.seed), opts.seed);
    let half = opts.seconds / 2.0;

    let t = Instant::now();
    let mut a = closed_loop::run_host(&lp, &mut sc, half, |_| false).0;
    a.add(closed_loop::close(&lp, &mut sc));
    let a_ns_per_io = t.elapsed().as_nanos() as f64 / a.ios as f64;

    let before = Counters::of(&sc);
    {
        let mut l = lp.borrow_mut();
        l.spans = Some(Spans::new(SPAN_CAP));
        l.record = Some(Vec::new());
    }
    let t = Instant::now();
    closed_loop::prime(&lp, &mut sc);
    let mut b = closed_loop::run_host(&lp, &mut sc, half, |l| {
        l.spans.as_ref().is_some_and(|s| s.len() >= SPAN_CAP)
    })
    .0;
    b.add(closed_loop::close(&lp, &mut sc));
    let wall_ns = t.elapsed().as_nanos() as f64;
    let d = Counters::of(&sc).since(before);
    let (spans, recs) = {
        let mut l = lp.borrow_mut();
        (
            l.spans.take().expect("traced"),
            l.record.take().expect("recorded"),
        )
    };
    let ios = b.ios;

    let store_chunks = sc.array.store().map_or(0, |s| s.chunk_count());
    let slab = sc.engine.slab_slots();
    let mut errors = checks(&mut sc, &lp);
    let geo = replay::Geometry::of(&sc.array);
    let stripes = scenario::working_stripes(&sc);
    let attempted = warm.ios + a.ios + b.ios;
    let failed = warm.failed + a.failed + b.failed;
    // The run's own store is no longer needed; free it before the store
    // replay builds a second one.
    drop(sc);

    let op = replay::op_path(&geo, &recs);
    let (engine_ns, engine_events) = replay::engine(d.fired, slab);
    let store = lp
        .borrow()
        .payload()
        .map(|p| replay::store(&geo, &recs, p, stripes))
        .unwrap_or_default();
    let rs_ns = replay::rs_reconstruct(RS_CALLS);

    let mut expect = |what: &str, replayed: u64, run: u64| {
        if replayed != run {
            errors.push(format!(
                "{what}: replay reproduced {replayed}, run had {run}"
            ));
        }
    };
    expect("recorded user I/Os", recs.len() as u64, ios);
    expect("stripe ops", op.ops, d.canceled);
    expect("DAG steps", op.steps, d.scheduled - d.canceled);
    expect("drive ops", op.drive_calls, d.drive_ops);
    expect("engine events", engine_events, d.fired);
    if opts.workload.full() {
        expect("store calls", store.calls(), op.ops);
    }

    let totals = spans.totals();
    let span = |n: Name| totals[n as usize];
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let build_ns = per(op.build_ns, op.ops);
    let serve_ns = per(op.serve_ns, op.serve_calls);
    let dispatch_ns = per(engine_ns, engine_events);
    // Replayed layer time, at the run's own call counts.
    let replayed = (op.build_ns + op.serve_ns + store.ns()) as f64 + dispatch_ns * d.fired as f64;
    let program = (span(Name::Submit).total_ns + span(Name::RunUntil).self_ns) as f64;
    let ios_f = ios as f64;

    let values = vec![
        (
            "workload.next_io_ns",
            per(span(Name::NextIo).total_ns, span(Name::NextIo).count),
        ),
        (
            "core.submit_ns",
            per(span(Name::Submit).total_ns, span(Name::Submit).count),
        ),
        (
            "core.submit_share",
            span(Name::Submit).total_ns as f64 / wall_ns,
        ),
        ("core.build_dag_ns", build_ns),
        ("core.dag_steps_per_op", per(op.steps, op.ops)),
        ("core.stripe_ops_per_io", op.ops as f64 / ios_f),
        (
            "core.drain_ns_per_io",
            span(Name::Drain).total_ns as f64 / ios_f,
        ),
        ("sim.events_per_io", d.fired as f64 / ios_f),
        ("sim.events_canceled_per_io", d.canceled as f64 / ios_f),
        ("sim.slab_slots", slab as f64),
        (
            "sim.run_until_self_share",
            span(Name::RunUntil).self_ns as f64 / wall_ns,
        ),
        (
            "sim.self_ns_per_event",
            per(span(Name::RunUntil).self_ns, d.fired),
        ),
        ("sim.replay_dispatch_ns", dispatch_ns),
        ("block.serve_ns", serve_ns),
        ("block.drive_ops_per_io", d.drive_ops as f64 / ios_f),
        (
            "net.host_bytes_per_user_byte",
            per(d.host_bytes, d.user_bytes),
        ),
        ("core.exec_residual_share", (program - replayed) / wall_ns),
        ("core.store_write_ns", per(store.write_ns, store.writes)),
        ("core.store_read_ns", per(store.read_ns, store.reads)),
        (
            "core.store_read_degraded_ns",
            per(store.degraded_read_ns, store.degraded_reads),
        ),
        ("core.store_share", store.ns() as f64 / wall_ns),
        ("core.store_chunks", store_chunks as f64),
        ("ec.rs_reconstruct_ns", rs_ns),
        ("core.retries_per_io", d.retries as f64 / ios_f),
        ("bench.trace_overhead", (wall_ns / ios_f) / a_ns_per_io),
    ];
    Outcome {
        digest: digest.0,
        digest_fields: digest.1,
        attempted,
        failed,
        errors,
        values,
        spans: Some(spans),
    }
}
