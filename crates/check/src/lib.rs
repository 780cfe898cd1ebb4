//! # draid-check — the workspace verification plane
//!
//! Three subcommands, one binary (`cargo run -p draid-check -- <subcommand>`);
//! `all` runs them together:
//!
//! * [`lint`] — a file-walking lexical lint driver enforcing the workspace's
//!   source-hygiene contract: `unsafe` confined to the SIMD kernels with
//!   `// SAFETY:` justifications, no wall-clock or OS randomness inside the
//!   simulation crates, no hash-order iteration feeding event scheduling or
//!   stats serialization, and no bare `unwrap()` on the op path.
//! * [`determinism`] — a reference fault-injection scenario run twice with
//!   the same seed; the full artifact (stats, histograms, resource ledgers,
//!   step trace) must match byte-for-byte.
//! * [`interleave`] — a seeded bounded-interleaving stress harness for the
//!   `draid_bench::parallel` atomic-cursor claiming discipline and for
//!   [`draid_core::ChunkStore`]s driven from several threads at once.
//!
//! The runtime legs lean on the `draid_invariant!` checkers compiled into
//! the simulation crates under `debug_assertions` (or the opt-in
//! `strict-invariants` feature): monotone event time, per-direction byte
//! conservation (`offered == served + dropped`), lock-order and sampled
//! post-write parity re-verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod determinism;
pub mod interleave;
pub mod lint;
