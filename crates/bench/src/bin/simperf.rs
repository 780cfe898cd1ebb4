//! Scheduler-throughput report: measures the overhauled `draid_sim::Engine`
//! against the vendored pre-overhaul engine (`draid_bench::baseline`) on
//! micro scenarios that isolate the event-engine hot paths, plus the
//! wall-clock time of a reference macro run, and writes `BENCH_sim.json`
//! together with the machine it ran on (core count and CPU model).
//!
//! ```text
//! cargo run --release -p draid-bench --bin simperf [--quick] [--out PATH]
//! ```
//!
//! Scenarios (each runs bit-for-bit identically on both engines, so the
//! fired-event counts match and the speedup is a pure time ratio). The two
//! engines run each scenario round-robin, alternating which goes first, so
//! host drift does not land on the ratio:
//!
//! * `heap_random_steady` — a bounded in-flight window of events, each
//!   firing rescheduling a successor at a pseudorandom future delta (the
//!   steady-state shape of a running simulation, where every step
//!   completion goes through the heap). Measures the heap path end to end:
//!   the new engine's successor push overwrites the spent top in one
//!   sift-down where the baseline pops and then pushes, and it compares
//!   entries by one `u128` key. Its events are boxed closures, so each
//!   48-byte heap entry addresses a slot of a hot, bounded slab, where the
//!   baseline sifts boxed-closure fat entries. (The array's step
//!   completions are plain-data events, which ride in their heap entries
//!   and skip the slab.) CI floors it at 1.0×: the new engine must not be
//!   slower on its most common path.
//! * `completion_chain_backlog` — a long same-instant completion chain over
//!   a deep backlog of far-future timers; stresses the same-instant FIFO
//!   fast path against sift-to-root heap pushes. This is the headline
//!   number the acceptance bar (≥ 3×) checks: it is the shape of a busy
//!   simulated array, where every I/O completion at `now` used to pay
//!   `O(log backlog)` twice.
//! * `timer_arm_cancel` — arm a deadline per op, then cancel it from the
//!   op's completion (first-class `cancel` vs. the old tombstone-closure
//!   idiom that fires every dead deadline as a no-op closure call).
//! * `deadline_backlog` — the same op pattern with 32 ops in flight and a
//!   deadline over 1000× the completion delay, the shape of a loaded
//!   array: tens of thousands of canceled deadlines wait to be retired
//!   while every completion goes through the queue. On the new engine they
//!   wait in the timer lane, apart from the completions: each deadline is
//!   armed later than the one before, so it is pushed and retired in O(1).

use std::time::{Duration, Instant};

use draid_bench::json::Json;
use draid_bench::{baseline, figures};
use draid_sim::SimTime;

/// splitmix64, for deterministic pseudorandom event times.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Measurement {
    scenario: &'static str,
    engine: &'static str,
    /// Events retired by the run (identical across engines by construction).
    events: u64,
    elapsed: Duration,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64()
    }
}

/// Times the two engines on one scenario round-robin: one untimed warm-up
/// call each, so no engine pays the allocator's page-fault cost, then
/// `repeats` rounds that run both, alternating which goes first. Keeps each
/// engine's fastest run (the usual min-of-N noise filter for wall-clock
/// micro-benchmarks), new engine first. Host drift over the block then
/// lands on both engines alike instead of on their ratio.
fn best_of_pair(
    repeats: usize,
    mut new: impl FnMut() -> (u64, Duration),
    mut baseline: impl FnMut() -> (u64, Duration),
) -> [(u64, Duration); 2] {
    let mut run = |engine: usize| if engine == 0 { new() } else { baseline() };
    let mut best = [run(0), run(1)];
    assert_eq!(best[0].0, best[1].0, "engines fired different event counts");
    for round in 0..repeats {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for engine in order {
            let timed = run(engine);
            assert_eq!(
                timed.0, best[engine].0,
                "scenario fired a different event count"
            );
            if timed.1 < best[engine].1 {
                best[engine] = timed;
            }
        }
    }
    best
}

/// Measures one scenario on both engines and prints and records a row for
/// each.
fn measure(
    results: &mut Vec<Measurement>,
    repeats: usize,
    scenario: &'static str,
    new: impl FnMut() -> (u64, Duration),
    baseline: impl FnMut() -> (u64, Duration),
) {
    let runs = best_of_pair(repeats, new, baseline);
    for (engine, (events, elapsed)) in ["new", "baseline"].into_iter().zip(runs) {
        let m = Measurement {
            scenario,
            engine,
            events,
            elapsed,
        };
        println!(
            "{:<26} {:<9} {:>9} events  {:>8.2} M events/s",
            scenario,
            engine,
            events,
            m.events_per_sec() / 1e6
        );
        results.push(m);
    }
}

/// The two micro scenarios with a shared body (heap churn and the completion
/// chain), stamped out per engine type. The two engines share their
/// scheduling API but no trait, so a macro keeps the scenario bodies
/// literally identical instead of near-duplicated.
use baseline::Engine as EngineBaseline;
use draid_sim::Engine as EngineNew;

macro_rules! engine_scenarios {
    ($heap_fn:ident, $chain_fn:ident, $E:ident) => {
        /// Steady-state heap churn: `inflight` events seeded at pseudorandom
        /// times; each firing schedules one successor at `now + U(1..1000)`
        /// nanoseconds until `n` events have fired in total. The rng stream
        /// rides in the world and advances in firing order, so both engines
        /// execute the bit-identical event sequence.
        fn $heap_fn(n: u64, inflight: u64) -> (u64, Duration) {
            struct W {
                fired: u64,
                rng: u64,
                remaining: u64,
            }
            fn step(w: &mut W, eng: &mut $E<W>) {
                w.fired += 1;
                if w.remaining > 0 {
                    w.remaining -= 1;
                    w.rng = splitmix64(w.rng);
                    let delta = SimTime::from_nanos(1 + w.rng % 1_000);
                    eng.schedule_in(delta, |w: &mut W, eng| step(w, eng));
                }
            }
            let start = Instant::now();
            let mut eng: $E<W> = $E::new();
            let mut w = W {
                fired: 0,
                rng: 0x0123_4567_89AB_CDEF,
                remaining: n - inflight,
            };
            for i in 0..inflight {
                let at = SimTime::from_nanos(1 + splitmix64(i) % 1_000);
                eng.schedule_at(at, |w: &mut W, eng| step(w, eng));
            }
            eng.run(&mut w);
            assert_eq!(w.fired, n, "every scheduled event must fire");
            (eng.stats().events_fired, start.elapsed())
        }

        /// A same-instant completion chain of `chain` events over a backlog
        /// of `backlog` far-future timers at distinct times. The engine is
        /// stopped when the chain ends so only chain dispatch is measured.
        fn $chain_fn(chain: u64, backlog: u64) -> (u64, Duration) {
            fn step(w: &mut u64, eng: &mut $E<u64>, remaining: u64) {
                *w += 1;
                if remaining > 0 {
                    eng.schedule_in(SimTime::ZERO, move |w, eng| step(w, eng, remaining - 1));
                } else {
                    eng.stop();
                }
            }
            let start = Instant::now();
            let mut eng: $E<u64> = $E::new();
            let mut fired = 0u64;
            for i in 0..backlog {
                // Distinct far-future times, beyond the chain's instant.
                let at = SimTime::from_micros(1_000 + i);
                eng.schedule_at(at, |_, _| {});
            }
            eng.schedule_at(SimTime::from_nanos(1), move |w, eng| {
                step(w, eng, chain - 1);
            });
            eng.run(&mut fired);
            assert_eq!(fired, chain, "chain must run to completion");
            (eng.stats().events_fired, start.elapsed())
        }
    };
}

engine_scenarios!(heap_random_new, chain_backlog_new, EngineNew);
engine_scenarios!(heap_random_baseline, chain_backlog_baseline, EngineBaseline);

const COMPLETION_DELAY: SimTime = SimTime::from_nanos(200);
/// `timer_arm_cancel`'s op deadline: 500× the completion delay, so hundreds
/// of not-yet-due deadline entries are pending at any instant.
const DEADLINE_DELAY: SimTime = SimTime::from_micros(100);
/// `deadline_backlog`'s op deadline: over 1000× the completion delay, like
/// the array's 250 ms §5.4 timeout against sub-millisecond ops.
const BACKLOG_DEADLINE_DELAY: SimTime = SimTime::from_micros(250);
/// Ops in flight in `deadline_backlog`: the queue depth of simcost's loops.
const BACKLOG_INFLIGHT: u64 = 32;

/// Op counts of a timer scenario, kept in the world of either engine.
struct Ops {
    launched: u64,
    completed: u64,
    total: u64,
    deadline: SimTime,
}

impl Ops {
    fn new(total: u64, deadline: SimTime) -> Self {
        Ops {
            launched: 0,
            completed: 0,
            total,
            deadline,
        }
    }

    /// Completion delay of the `i`-th initial op: staggers the in-flight
    /// ops by a nanosecond each so their completions do not tie.
    fn stagger(i: u64) -> SimTime {
        COMPLETION_DELAY + SimTime::from_nanos(i)
    }
}

/// `n` ops on the new engine, `inflight` at a time: each arms a cancelable
/// deadline timer, then its completion (200 ns later) cancels the deadline
/// and launches the next op. No deadline handler ever runs; stale entries
/// retire at due time.
fn timer_cancel_new(n: u64, inflight: u64, deadline: SimTime) -> (u64, Duration) {
    fn arm(w: &mut Ops, eng: &mut draid_sim::Engine<Ops>, completion: SimTime) {
        w.launched += 1;
        let deadline = eng.schedule_timer_in(w.deadline, |_, _| {
            panic!("deadline fired despite cancellation");
        });
        eng.schedule_in(completion, move |w: &mut Ops, eng| {
            w.completed += 1;
            assert!(eng.cancel(deadline), "deadline still pending");
            if w.launched < w.total {
                arm(w, eng, COMPLETION_DELAY);
            }
        });
    }
    let start = Instant::now();
    let mut eng: draid_sim::Engine<Ops> = draid_sim::Engine::new();
    let mut ops = Ops::new(n, deadline);
    for i in 0..inflight {
        arm(&mut ops, &mut eng, Ops::stagger(i));
    }
    eng.run(&mut ops);
    assert_eq!(ops.completed, n, "every op must complete");
    (eng.stats().events_fired, start.elapsed())
}

/// The same op pattern on the baseline engine, written the only way it
/// could be: the deadline closure is a tombstone that checks a done flag
/// and fires as a no-op, because the old API had no way to cancel.
fn timer_cancel_baseline(n: u64, inflight: u64, deadline: SimTime) -> (u64, Duration) {
    struct World {
        ops: Ops,
        done: Vec<bool>,
    }
    fn arm(w: &mut World, eng: &mut baseline::Engine<World>, completion: SimTime) {
        let op = w.ops.launched as usize;
        w.ops.launched += 1;
        eng.schedule_in(w.ops.deadline, move |w: &mut World, _| {
            assert!(w.done[op], "deadline fired on a live op");
        });
        eng.schedule_in(completion, move |w: &mut World, eng| {
            w.ops.completed += 1;
            w.done[op] = true;
            if w.ops.launched < w.ops.total {
                arm(w, eng, COMPLETION_DELAY);
            }
        });
    }
    let start = Instant::now();
    let mut eng: baseline::Engine<World> = baseline::Engine::new();
    let mut world = World {
        ops: Ops::new(n, deadline),
        done: vec![false; n as usize],
    };
    for i in 0..inflight {
        arm(&mut world, &mut eng, Ops::stagger(i));
    }
    eng.run(&mut world);
    assert_eq!(world.ops.completed, n, "every op must complete");
    (eng.stats().events_fired, start.elapsed())
}

fn main() {
    let (quick, out_path) =
        draid_bench::bench_args("usage: simperf [--quick] [--out PATH]", "BENCH_sim.json");
    let (repeats, scale) = if quick { (2, 10) } else { (5, 1) };
    let heap_n = 200_000 / scale;
    let chain_n = 200_000 / scale;
    let backlog = 10_000 / scale;
    let ops = 100_000 / scale;

    let mut results: Vec<Measurement> = Vec::new();
    measure(
        &mut results,
        repeats,
        "heap_random_steady",
        || heap_random_new(heap_n, 1_000),
        || heap_random_baseline(heap_n, 1_000),
    );
    measure(
        &mut results,
        repeats,
        "completion_chain_backlog",
        || chain_backlog_new(chain_n, backlog),
        || chain_backlog_baseline(chain_n, backlog),
    );
    measure(
        &mut results,
        repeats,
        "timer_arm_cancel",
        || timer_cancel_new(ops, 1, DEADLINE_DELAY),
        || timer_cancel_baseline(ops, 1, DEADLINE_DELAY),
    );
    measure(
        &mut results,
        repeats,
        "deadline_backlog",
        || timer_cancel_new(ops, BACKLOG_INFLIGHT, BACKLOG_DEADLINE_DELAY),
        || timer_cancel_baseline(ops, BACKLOG_INFLIGHT, BACKLOG_DEADLINE_DELAY),
    );

    let rate = |scenario: &str, engine: &str| {
        results
            .iter()
            .find(|m| m.scenario == scenario && m.engine == engine)
            .expect("scenario measured on both engines")
            .events_per_sec()
    };
    let scenarios = [
        "heap_random_steady",
        "completion_chain_backlog",
        "timer_arm_cancel",
        "deadline_backlog",
    ];
    let speedups: Vec<(&str, f64)> = scenarios
        .iter()
        .map(|&s| (s, rate(s, "new") / rate(s, "baseline")))
        .collect();
    for (s, x) in &speedups {
        println!("{s:<26} speedup {x:.2}x");
    }
    let headline = speedups
        .iter()
        .find(|(s, _)| *s == "completion_chain_backlog")
        .expect("headline scenario present")
        .1;
    println!("headline (completion_chain_backlog) speedup: {headline:.2}x");

    // Macro check: wall time of full-event-mix runs on the real array
    // model (not micro loops): the `bottleneck` figure's single traced run,
    // plus two reference figures (skipped under --quick so the CI smoke
    // stays fast).
    let ids: &[&'static str] = if quick {
        &["bottleneck"]
    } else {
        &["bottleneck", "fig10", "fig15"]
    };
    let macros: Vec<(&'static str, f64)> = ids
        .iter()
        .map(|&id| {
            let spec = figures::by_id(id).expect("known reference figure");
            let start = Instant::now();
            let _ = spec.build();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            println!("macro {id}: {ms:.1} ms");
            (id, ms)
        })
        .collect();

    let (cores, cpu_model) = draid_bench::machine();
    let doc = Json::obj([
        ("bench", "simperf".into()),
        ("quick", quick.into()),
        ("cores", cores.into()),
        ("cpu_model", cpu_model.as_str().into()),
        (
            "results",
            results
                .iter()
                .map(|m| {
                    Json::obj([
                        ("scenario", m.scenario.into()),
                        ("engine", m.engine.into()),
                        ("events", m.events.into()),
                        ("events_per_sec", Json::rounded(m.events_per_sec(), 0)),
                    ])
                })
                .collect(),
        ),
        (
            "speedups",
            speedups
                .iter()
                .map(|&(s, x)| {
                    Json::obj([("scenario", s.into()), ("speedup", Json::rounded(x, 2))])
                })
                .collect(),
        ),
        ("headline_speedup", Json::rounded(headline, 2)),
        (
            "macro",
            macros
                .iter()
                .map(|&(name, ms)| {
                    Json::obj([("name", name.into()), ("wall_ms", Json::rounded(ms, 1))])
                })
                .collect(),
        ),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write sim report");
    println!("wrote {out_path}");
}
