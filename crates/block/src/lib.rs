//! # draid-block — simulated block layer
//!
//! Stands in for the paper's storage hardware: enterprise NVMe SSDs (Dell Ent
//! NVMe AGN MU U.2 1.6 TB) attached to storage servers, plus the per-server
//! CPU core that SPDK/dRAID dedicates to I/O handling (§7 limits dRAID to one
//! core per SSD).
//!
//! * [`Drive`] — the testbed's NVMe drive (§9.1: 3200 MB/s read, 2375 MB/s
//!   write) as a shared FIFO channel with direction-specific bandwidth and a
//!   fixed post-channel latency (modelling internal parallelism: latency
//!   overlaps, bandwidth is the contended resource). Drives support
//!   transient and permanent failure injection (§5.4's failure model).
//! * [`Cpu`] — a polling core with byte-rate costs for XOR and GF(256) work
//!   (ISA-L-class throughput) and a fixed per-I/O software cost.
//!
//! Every server carries the same drive and core, and the host the same
//! core, as on the paper's one testbed: their rates are constants in
//! `drive.rs` and `cpu.rs`, not settings.
//! * [`Cluster`] / [`ClusterBuilder`] — a host plus storage servers on a
//!   [`draid_net::Fabric`]; any two of them exchange data directly (host ↔
//!   every server, server ↔ server pairs, §3). The host has a 100 Gbps NIC,
//!   each server the goodput its builder gives it.
//!
//! ## Example
//!
//! ```
//! use draid_block::Cluster;
//! use draid_sim::SimTime;
//!
//! let mut cluster = Cluster::homogeneous(8);
//! let svc = cluster
//!     .drive_write(SimTime::ZERO, draid_block::ServerId(0), 128 * 1024)
//!     .unwrap();
//! assert!(svc.end > SimTime::ZERO);
//! assert_eq!(cluster.width(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod cpu;
mod drive;

pub use cluster::{Cluster, ClusterBuilder, ServerId};
pub use cpu::Cpu;
pub use drive::{Drive, DriveError, DriveState};
