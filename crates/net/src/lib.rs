//! # draid-net — simulated datacenter fabric
//!
//! Stands in for the paper's RDMA network (Mellanox ConnectX-5 NICs over a
//! Dell Z9264 switch). The model captures exactly what the paper's analysis
//! depends on:
//!
//! * every NIC direction (egress/ingress) is a FIFO fluid rate server, so a
//!   node can move at most its NIC bandwidth per direction per second and
//!   concurrent flows queue;
//! * transfers are *pipelined streams*: a message starts arriving one
//!   propagation delay (2 µs) after it starts leaving, and completion is
//!   gated by the slower of the two directions;
//! * each message pays a fixed per-message processing cost (0.5 µs, standing
//!   in for RDMA verbs/doorbell overhead);
//! * every node has one NIC, reduced to its goodput; a transfer is addressed
//!   by its node pair (no connection state, no multi-NIC placement);
//! * per-direction byte counters provide the traffic accounting behind
//!   Table 1.
//!
//! The fabric is passive: [`Fabric::try_transfer`] reserves resources and returns
//! the delivery [`Service`] window; the caller schedules the completion event
//! on its own [`draid_sim::Engine`]. A core-switch bottleneck is deliberately
//! not modelled — the paper's testbed switch is non-blocking at the offered
//! loads.
//!
//! ## Example
//!
//! ```
//! use draid_net::{FabricBuilder, CX5_100G};
//! use draid_sim::SimTime;
//!
//! let mut b = FabricBuilder::new();
//! let host = b.add_node(CX5_100G);
//! let target = b.add_node(CX5_100G);
//! let mut fabric = b.build();
//! let svc = fabric
//!     .try_transfer(SimTime::ZERO, host, target, 128 * 1024)
//!     .expect("both links up");
//! assert!(svc.end > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod spec;

pub use fabric::{Fabric, FabricBuilder, LinkDir, LinkError, NodeId};
pub use spec::{CX5_100G, CX5_25G};

pub use draid_sim::Service;
