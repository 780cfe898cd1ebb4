//! Runtime invariant checking for the verification plane.
//!
//! [`draid_invariant!`](crate::draid_invariant) is the single assertion point
//! every layer of the simulator routes its self-checks through: monotone event
//! time in the engine, byte conservation in the rate servers, parity
//! re-verification and lock-queue sanity in the protocol core. The checks are
//! compiled in (and enabled) when either:
//!
//! * the build carries `debug_assertions` (so every `cargo test` runs them), or
//! * the `strict-invariants` feature is on (so release-mode verification runs
//!   — `draid-check` — keep them without paying debug-build codegen).
//!
//! In a plain release build both gates are off and the macro compiles to
//! nothing, keeping the measurement paths of the benchmark harness clean.

/// Whether [`draid_invariant!`](crate::draid_invariant) checks are live in
/// this build.
///
/// `true` under `debug_assertions` or with the `strict-invariants` feature.
pub const fn invariants_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "strict-invariants"))
}

/// Asserts a simulator invariant; enabled in debug builds and under the
/// `strict-invariants` feature, compiled out otherwise.
///
/// Usage mirrors [`assert!`]:
///
/// ```
/// use draid_sim::draid_invariant;
/// let delivered = 10u64;
/// let dropped = 2u64;
/// let offered = 12u64;
/// draid_invariant!(
///     offered == delivered + dropped,
///     "byte conservation: offered={} delivered={} dropped={}",
///     offered,
///     delivered,
///     dropped
/// );
/// ```
#[macro_export]
macro_rules! draid_invariant {
    ($cond:expr $(,)?) => {
        if $crate::invariants_enabled() {
            assert!($cond, concat!("invariant violated: ", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if $crate::invariants_enabled() {
            assert!($cond, $($arg)+);
        }
    };
}

#[cfg(test)]
mod tests {
    // The checks are live in `cargo test` and under `strict-invariants`;
    // a plain release test build checks that they compile to nothing.
    #[test]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn invariants_live_under_test() {
        assert!(crate::invariants_enabled());
    }

    #[test]
    #[cfg(not(any(debug_assertions, feature = "strict-invariants")))]
    fn plain_release_compiles_invariants_out() {
        assert!(!crate::invariants_enabled());
        draid_invariant!(1 + 1 == 3);
    }

    #[test]
    fn passing_invariant_is_silent() {
        draid_invariant!(1 + 1 == 2);
        draid_invariant!(true, "with message {}", 42);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    #[should_panic(expected = "invariant violated")]
    fn failing_invariant_panics() {
        draid_invariant!(1 + 1 == 3);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    #[should_panic(expected = "custom message 7")]
    fn failing_invariant_formats_message() {
        draid_invariant!(false, "custom message {}", 7);
    }
}
