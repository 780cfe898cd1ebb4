//! The warm-up/measure harness every load driver shares.

use draid_sim::{Engine, SimTime};

use crate::ArraySim;

/// Slices the drivers cut their measured window into. Draining completions
/// at each boundary bounds completion memory; the count has no effect on
/// the results (see [`run_measured`]).
pub const MEASURE_SLICES: u64 = 8;

/// Runs a warm-up phase and then a measured window of length `measure`.
///
/// The sequence is: run the engine to `warmup`, drain completions, reset
/// the measurement counters ([`ArraySim::reset_measurement`]), then run the
/// window in `slices` equal slices, draining completions at each slice end.
/// `at_boundary(array, at)` is called at the warm-up boundary (`at ==
/// warmup`, after the reset) and at the end of every slice; the last call
/// is at `warmup + measure`. Load must already be submitted or scheduled.
///
/// The slice count does not change what the engine executes:
/// `run_until` retires every event due at or before its deadline and events
/// keep their order, so any `slices >= 1` yields the same measurements.
///
/// # Panics
///
/// Panics if `slices` is zero.
pub fn run_measured(
    engine: &mut Engine<ArraySim>,
    array: &mut ArraySim,
    warmup: SimTime,
    measure: SimTime,
    slices: u64,
    mut at_boundary: impl FnMut(&mut ArraySim, SimTime),
) {
    assert!(slices > 0, "the measured window needs at least one slice");
    engine.run_until(array, warmup);
    array.drain_completions();
    array.reset_measurement(warmup);
    at_boundary(array, warmup);
    for i in 1..=slices {
        let at = warmup + SimTime::from_nanos(measure.as_nanos() * i / slices);
        engine.run_until(array, at);
        array.drain_completions();
        at_boundary(array, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayConfig, SystemKind, UserIo};
    use draid_block::Cluster;

    #[test]
    fn boundaries_are_the_warmup_then_every_slice_end() {
        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        let mut array = ArraySim::new(Cluster::homogeneous(cfg.width), cfg).expect("valid");
        let mut engine = Engine::new();
        array.submit(&mut engine, UserIo::write(0, 128 * 1024));
        let (warmup, measure) = (SimTime::from_millis(1), SimTime::from_nanos(1_000_003));
        let mut seen = Vec::new();
        run_measured(&mut engine, &mut array, warmup, measure, 3, |array, at| {
            seen.push((at, array.stats.writes));
        });
        let ends: Vec<SimTime> = seen.iter().map(|&(at, _)| at).collect();
        assert_eq!(
            ends,
            [0, 333_334, 666_668, 1_000_003].map(|ns| warmup + SimTime::from_nanos(ns))
        );
        // The warm-up's write was counted, then discarded by the reset.
        assert!(seen.iter().all(|&(_, writes)| writes == 0), "{seen:?}");
        assert_eq!(engine.now(), warmup + measure);
    }
}
