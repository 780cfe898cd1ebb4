//! Bounded-interleaving edge cases for `draid_bench::parallel::map` (the
//! interleave harness covers the steady state; these pin the edges: panic
//! propagation, empty input, tiny inputs).

use std::panic::{catch_unwind, AssertUnwindSafe};

use draid_bench::parallel;

#[test]
fn worker_panic_propagates_to_caller() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel::map((0..64u64).collect(), |x| {
            if x == 33 {
                panic!("injected worker panic");
            }
            x
        })
    }));
    assert!(result.is_err(), "a worker panic must not be swallowed");
}

#[test]
fn zero_input_returns_empty_without_spawning() {
    let out: Vec<u64> = parallel::map(Vec::new(), |x: u64| x + 1);
    assert!(out.is_empty());
}

#[test]
fn fewer_inputs_than_workers_still_order_preserving() {
    // With inputs ≤ available_parallelism, some workers find the cursor
    // exhausted immediately; results must still be complete and ordered.
    for n in 1..=4u64 {
        let out = parallel::map((0..n).collect(), |x| x * 7);
        assert_eq!(out, (0..n).map(|x| x * 7).collect::<Vec<_>>(), "n={n}");
    }
}

#[test]
fn map_under_contention_with_yields_preserves_order() {
    let out = parallel::map((0..256u64).collect(), |x| {
        if x % 3 == 0 {
            std::thread::yield_now();
        }
        x + 1
    });
    assert_eq!(out, (1..=256).collect::<Vec<_>>());
}
