//! Parallel sweep execution: every experiment point is an independent
//! simulation, so points fan out across cores.
//!
//! Work distribution is a single atomic cursor over a shared slice of input
//! slots: each worker claims the next index with one `fetch_add` and writes
//! its result into that index's own slot, so results stay in input order
//! regardless of which worker claims what. A sweep point is a whole
//! simulation, so one contended atomic op per point costs nothing worth
//! amortizing. No queue or result vector is globally locked — the per-slot
//! mutexes exist only to move values across the thread boundary safely and
//! are touched by exactly one worker each, so they never contend.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `inputs` on a thread pool, preserving order.
///
/// Public so the `draid-check` bounded-interleaving harness can stress the
/// atomic-cursor claiming under injected schedule perturbations.
pub fn map<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_count(n);
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let input = slots[idx]
                    .lock()
                    .expect("slot poisoned")
                    .take()
                    .expect("index claimed exactly once");
                let r = f(input);
                *results[idx].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every input produced a result")
        })
        .collect()
}

fn worker_count(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_input_runs_inline() {
        assert_eq!(map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn many_more_inputs_than_workers() {
        // Forces every worker through many claim cycles; order must hold.
        let n = 10_000;
        let out = map((0..n).collect(), |x: u64| x * x);
        assert_eq!(out, (0..n).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn non_uniform_work_is_order_preserving() {
        // Later indices finish first under skewed work; results still land
        // in input order.
        let out = map((0..64u64).collect(), |x| {
            if x % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }
}
