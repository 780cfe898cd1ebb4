//! Quick-mode runs of every workload, untraced and traced: every output
//! check must pass, every metric must be reported, and `sim_digest` must
//! repeat for a seed and differ between seeds.

use simcost::metrics::METRICS;
use simcost::scenario::Workload;
use simcost::{run, Opts, Outcome};

fn quick(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&Opts {
        workload,
        seed,
        seconds: 0.2,
        trace,
    });
    assert!(
        out.correct(),
        "{} trace={trace}: {:?} (failed {})",
        workload.name(),
        out.errors,
        out.failed
    );
    assert!(out.attempted > 0);
    let want: Vec<&str> = METRICS
        .iter()
        .filter(|m| m.end_to_end != trace)
        .map(|m| m.name)
        .collect();
    let got: Vec<&str> = out.values.iter().map(|(n, _)| *n).collect();
    assert_eq!(got, want, "{} trace={trace}", workload.name());
    for (name, v) in &out.values {
        assert!(
            v.is_finite() && *v >= 0.0 || *name == "core.exec_residual_share",
            "{name} = {v}"
        );
    }
    out
}

fn check_workload(workload: Workload) {
    let plain = quick(workload, 5, false);
    let traced = quick(workload, 5, true);
    let again = quick(workload, 5, false);
    let other = quick(workload, 6, false);
    assert_eq!(
        plain.digest,
        traced.digest,
        "{}: digest depends on tracing",
        workload.name()
    );
    assert_eq!(
        plain.digest,
        again.digest,
        "{}: digest does not repeat",
        workload.name()
    );
    assert_ne!(
        plain.digest,
        other.digest,
        "{}: digest ignores the seed",
        workload.name()
    );
    let get = |name: &str| {
        traced
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("reported")
    };
    assert!(get("core.dag_steps_per_op") >= 5.0);
    assert!(get("sim.events_per_io") > get("sim.events_canceled_per_io"));
    assert_eq!(get("core.retries_per_io"), 0.0);
    assert_eq!(get("core.store_chunks") > 0.0, workload.full());
    assert_eq!(get("core.store_write_ns") > 0.0, workload.full());
}

#[test]
fn rmw_write_128k() {
    check_workload(Workload::RmwWrite128k);
}

#[test]
fn small_read_4k() {
    check_workload(Workload::SmallRead4k);
}

#[test]
fn full_degraded_mix() {
    check_workload(Workload::FullDegradedMix);
}
