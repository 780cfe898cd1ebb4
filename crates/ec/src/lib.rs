//! # draid-ec — erasure coding for disaggregated RAID
//!
//! Real parity math for the dRAID reproduction (the paper offloads this work
//! to ISA-L on x86; here it is a portable, table-driven implementation over
//! the same field).
//!
//! * [`gf256`] — arithmetic over GF(2⁸) with the `x⁸+x⁴+x³+x²+1` (0x11D)
//!   polynomial used by `linux/lib/raid6` and ISA-L.
//! * [`kernels`] — the one-pass parity kernels every encode, decode and
//!   read-modify-write runs on: [`kernels::encode`] (a dot product, like
//!   ISA-L's `ec_encode_data`) and [`kernels::update`] (the small-write
//!   delta, like `ec_encode_data_update`), on AVX2 `pshufb` with the `simd`
//!   feature or a portable u64-lane fallback, with per-coefficient tables
//!   cached per process. With `simd` they and [`kernels::copy`] run the
//!   upper half of a long stream on one persistent helper thread.
//! * [`ReedSolomon`] — the systematic Vandermonde `(k, m)` codec behind
//!   every RAID level: its parity row 0 is RAID-5's P (a plain XOR) and row
//!   1 is RAID-6's Q (H. P. Anvin's *The mathematics of RAID-6*), so
//!   `ReedSolomon::new(k, 1)` is RAID-5, `ReedSolomon::new(k, 2)` is RAID-6,
//!   and larger `m` is the paper's §7 generalization to other erasure codes.
//!
//! ## Example: survive a two-drive failure with RAID-6
//!
//! ```
//! use draid_ec::ReedSolomon;
//!
//! let raid6 = ReedSolomon::new(3, 2);
//! let data = [vec![1u8; 16], vec![2u8; 16], vec![3u8; 16]];
//! let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
//! let parity = raid6.encode(&refs); // [P, Q]
//!
//! // Drives 0 and 2 die; recover both chunks from d1, P and Q.
//! let mut shards: Vec<Option<Vec<u8>>> =
//!     data.iter().cloned().chain(parity).map(Some).collect();
//! shards[0] = None;
//! shards[2] = None;
//! raid6.reconstruct(&mut shards).unwrap();
//! assert_eq!(shards[0].as_deref(), Some(&data[0][..]));
//! assert_eq!(shards[2].as_deref(), Some(&data[2][..]));
//! ```

// With the `simd` feature the `kernels::x86` module uses raw SIMD
// intrinsics (behind a runtime CPU check) and `kernels::fork` hands borrowed
// halves to its helper thread: the only unsafe in the crate. Without it the
// whole crate forbids unsafe outright.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod gf256;
pub mod kernels;
mod matrix;
mod rs;

pub use rs::{CodecError, ReedSolomon};
