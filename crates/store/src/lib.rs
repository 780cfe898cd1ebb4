//! # draid-store — applications over the disaggregated RAID device
//!
//! The paper's application-level evaluation (§9.6) runs two systems on the
//! virtual block device: RocksDB (on the SPDK BlobFS) driven by YCSB, and a
//! purpose-built hash-based object store. This crate provides both, plus the
//! YCSB workload generator:
//!
//! * [`YcsbGen`] — YCSB core workloads A/B/C/D/F with zipfian, uniform and
//!   latest request distributions (Cooper et al., SoCC '10).
//! * [`ObjectStore`] — the paper's lightweight hash-based object store: a
//!   key maps to a fixed-size slot on the block device; GET/PUT are single
//!   block I/Os (§9.6 runs 200 K × 128 KiB objects, uniform).
//! * [`LsmStore`] — a compact LSM key-value store standing in for
//!   RocksDB+BlobFS: WAL appends, memtable flushes, leveled compaction and
//!   block reads, with the bounded internal concurrency that limits a single
//!   instance to a small fraction of array bandwidth (the effect §9.6
//!   highlights).
//! * [`AppRunner`] — closed-loop driver measuring KIOPS and latency like the
//!   paper's Figs. 19–21.
//!
//! Both stores run the one configuration §9.6 measures, so their
//! parameters are constants in their modules, not settings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod lsm;
mod object;
mod ycsb;

pub use driver::{AppReport, AppRunner, BlockApp, IoPlan};
pub use lsm::LsmStore;
pub use object::ObjectStore;
pub use ycsb::{Distribution, YcsbGen, YcsbOp, YcsbWorkload, ZipfianGen};
