//! The checked-in `BENCH_sim.json` scheduler-throughput report must parse,
//! name the machine it was measured on, have the shape `simperf` promises,
//! and carry a headline speedup at or above the engine-overhaul acceptance
//! bar, with steady heap churn no slower than on the pre-overhaul engine,
//! no scenario far below it and the deadline-backlog scenario at least 2x
//! above it.

#[path = "common/json.rs"]
mod json;

use json::{Json, JsonExt};

const BENCH: &str = include_str!("../../../BENCH_sim.json");

const SCENARIOS: [&str; 4] = [
    "heap_random_steady",
    "completion_chain_backlog",
    "timer_arm_cancel",
    "deadline_backlog",
];

#[test]
fn checked_in_sim_bench_has_expected_shape() {
    let doc = json::parse(BENCH).expect("BENCH_sim.json parses");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("simperf"));
    // The checked-in numbers must come from a full run, not a CI smoke.
    assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(false));

    // A throughput means little without the machine that produced it.
    let cores = doc.get("cores").and_then(Json::as_num).expect("cores");
    assert!(cores >= 1.0, "core count recorded");
    let cpu = doc
        .get("cpu_model")
        .and_then(Json::as_str)
        .expect("cpu_model");
    assert!(!cpu.trim().is_empty(), "CPU model recorded");

    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(
        results.len(),
        SCENARIOS.len() * 2,
        "one row per (scenario, engine)"
    );
    for row in results {
        let scenario = row
            .get("scenario")
            .and_then(Json::as_str)
            .expect("result scenario");
        assert!(
            SCENARIOS.contains(&scenario),
            "unknown scenario {scenario:?}"
        );
        let engine = row.get("engine").and_then(Json::as_str).expect("engine");
        assert!(
            engine == "new" || engine == "baseline",
            "unknown engine {engine:?}"
        );
        let events = row.get("events").and_then(Json::as_num).expect("events");
        assert!(events > 0.0, "{scenario}/{engine}: no events retired");
        let rate = row
            .get("events_per_sec")
            .and_then(Json::as_num)
            .expect("events_per_sec");
        assert!(rate > 0.0, "{scenario}/{engine}: non-positive rate");
    }
    // Both engines retire the same event count per scenario by construction;
    // a mismatch means the benchmark measured different work.
    for scenario in SCENARIOS {
        let counts: Vec<f64> = results
            .iter()
            .filter(|r| r.get("scenario").and_then(Json::as_str) == Some(scenario))
            .filter_map(|r| r.get("events").and_then(Json::as_num))
            .collect();
        assert_eq!(counts.len(), 2, "{scenario}: measured on both engines");
        assert_eq!(counts[0], counts[1], "{scenario}: event counts differ");
    }

    let speedups = doc
        .get("speedups")
        .and_then(Json::as_arr)
        .expect("speedups array");
    assert_eq!(speedups.len(), SCENARIOS.len());
    for row in speedups {
        let scenario = row
            .get("scenario")
            .and_then(Json::as_str)
            .expect("speedup scenario");
        assert!(SCENARIOS.contains(&scenario));
        let x = row.get("speedup").and_then(Json::as_num).expect("speedup");
        assert!(x > 0.0, "{scenario}: non-positive speedup");
    }

    let macros = doc
        .get("macro")
        .and_then(Json::as_arr)
        .expect("macro array");
    assert!(!macros.is_empty(), "at least one macro wall-time entry");
    for row in macros {
        assert!(row.get("name").and_then(Json::as_str).is_some());
        let ms = row.get("wall_ms").and_then(Json::as_num).expect("wall_ms");
        assert!(ms > 0.0, "non-positive macro wall time");
    }
}

#[test]
fn headline_speedup_meets_acceptance_bar() {
    let doc = json::parse(BENCH).expect("BENCH_sim.json parses");
    let headline = doc
        .get("headline_speedup")
        .and_then(Json::as_num)
        .expect("headline_speedup");
    assert!(
        headline >= 3.0,
        "completion-chain speedup {headline} below the 3x acceptance bar"
    );
    // The headline is the completion-chain scenario's entry, verbatim.
    let from_list = doc
        .get("speedups")
        .and_then(Json::as_arr)
        .expect("speedups array")
        .iter()
        .find(|r| r.get("scenario").and_then(Json::as_str) == Some("completion_chain_backlog"))
        .and_then(|r| r.get("speedup").and_then(Json::as_num))
        .expect("completion_chain_backlog speedup");
    assert_eq!(headline, from_list, "headline not the chain scenario");
}

#[test]
fn no_scenario_falls_far_below_the_baseline_engine() {
    // Steady heap churn, every event through the heap, must be at least as
    // fast as on the pre-overhaul engine: a successor push replaces the
    // spent top in one sift. Arm-and-cancel with one op in flight keeps the
    // older 0.75x floor.
    let doc = json::parse(BENCH).expect("BENCH_sim.json parses");
    let speedups = doc
        .get("speedups")
        .and_then(Json::as_arr)
        .expect("speedups array");
    for (scenario, floor) in [("heap_random_steady", 1.0), ("timer_arm_cancel", 0.75)] {
        let x = speedups
            .iter()
            .find(|r| r.get("scenario").and_then(Json::as_str) == Some(scenario))
            .and_then(|r| r.get("speedup").and_then(Json::as_num))
            .expect("scenario speedup");
        assert!(
            x >= floor,
            "{scenario} speedup {x} below the {floor}x floor"
        );
    }
}

#[test]
fn deadline_backlog_retires_canceled_deadlines_in_constant_time() {
    // Op deadlines go to the engine's timer lane, where arming and retiring
    // one are O(1); the pre-overhaul engine sifts each through its heap of
    // tens of thousands of canceled deadlines.
    let doc = json::parse(BENCH).expect("BENCH_sim.json parses");
    let x = doc
        .get("speedups")
        .and_then(Json::as_arr)
        .expect("speedups array")
        .iter()
        .find(|r| r.get("scenario").and_then(Json::as_str) == Some("deadline_backlog"))
        .and_then(|r| r.get("speedup").and_then(Json::as_num))
        .expect("deadline_backlog speedup");
    assert!(
        x >= 2.0,
        "deadline_backlog speedup {x} below the 2.0x floor"
    );
}
