//! Cluster assembly: a host plus storage servers on a fabric.

use draid_net::{Fabric, FabricBuilder, LinkDir, NodeId, CX5_100G};
use draid_sim::{ByteRate, Service, SimTime};

use crate::{Cpu, Drive, DriveError};

/// Identifies a storage server (and its drive) within a cluster; dense from
/// zero. [`Cluster`] states which fabric node each server is.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ServerId(pub usize);

/// Builder for a [`Cluster`], numbered as [`Cluster`] states.
///
/// ```
/// use draid_block::ClusterBuilder;
/// use draid_net::CX5_100G;
///
/// let mut b = ClusterBuilder::new();
/// for _ in 0..4 {
///     b.server(CX5_100G);
/// }
/// let cluster = b.build();
/// assert_eq!(cluster.width(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    servers: Vec<ByteRate>,
    storage_uplink: Option<ByteRate>,
}

impl ClusterBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places the host in a compute rack and every server in a storage rack
    /// whose core uplink carries `storage_uplink` — the oversubscribed
    /// two-tier topology of real disaggregated deployments. The compute
    /// rack holds only the host, so its uplink is a full 100 Gbps NIC.
    /// Host ↔ server traffic crosses the core; server ↔ server traffic
    /// (dRAID's partial parities) stays inside the storage rack.
    pub fn two_tier(&mut self, storage_uplink: ByteRate) -> &mut Self {
        self.storage_uplink = Some(storage_uplink);
        self
    }

    /// Adds a storage server (the paper's drive and one polling core) whose
    /// NIC moves `goodput` per direction; returns its [`ServerId`].
    pub fn server(&mut self, goodput: ByteRate) -> ServerId {
        self.servers.push(goodput);
        ServerId(self.servers.len() - 1)
    }

    /// Builds the cluster: the host, on a 100 Gbps NIC like the paper's
    /// (§9.1), and the servers.
    ///
    /// # Panics
    ///
    /// Panics unless at least two servers were configured.
    pub fn build(self) -> Cluster {
        let width = self.servers.len();
        assert!(width >= 2, "a RAID array needs at least two members");
        let mut fb = FabricBuilder::new();
        let racks = self
            .storage_uplink
            .map(|storage| (fb.add_rack(CX5_100G), fb.add_rack(storage)));
        let host = match racks {
            Some((compute, _)) => fb.add_node_in_rack(CX5_100G, compute),
            None => fb.add_node(CX5_100G),
        };
        assert_eq!(host, NodeId(0), "the host is fabric node 0");
        for goodput in self.servers {
            match racks {
                Some((_, storage)) => fb.add_node_in_rack(goodput, storage),
                None => fb.add_node(goodput),
            };
        }
        Cluster {
            fabric: fb.build(),
            cpus: vec![Cpu::new(); width + 1],
            drives: vec![Drive::new(); width],
        }
    }
}

/// A simulated storage cluster: one host and `width` storage servers on one
/// fabric. The host is fabric node 0 and server `i` is node `i + 1`; each
/// node has one polling core and each server one drive.
#[derive(Debug)]
pub struct Cluster {
    fabric: Fabric,
    /// Each node's core, indexed by node (the host's at 0).
    cpus: Vec<Cpu>,
    /// Each server's drive, indexed by server.
    drives: Vec<Drive>,
}

impl Cluster {
    /// A host plus `width` identical servers, all on 100 Gbps NICs with the
    /// paper's drive — the §9.1 testbed shape.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2`.
    pub fn homogeneous(width: usize) -> Cluster {
        let mut b = ClusterBuilder::new();
        for _ in 0..width {
            b.server(CX5_100G);
        }
        b.build()
    }

    /// Number of storage servers (the RAID stripe width).
    pub fn width(&self) -> usize {
        self.drives.len()
    }

    /// The host's fabric node.
    #[inline]
    pub fn host_node(&self) -> NodeId {
        NodeId(0)
    }

    /// A server's fabric node.
    #[inline]
    pub fn server_node(&self, server: ServerId) -> NodeId {
        NodeId(server.0 + 1)
    }

    /// A node's label in utilization series and ledgers: `host` or
    /// `server<i>`.
    pub fn node_name(&self, node: NodeId) -> String {
        match node.0 {
            0 => "host".to_string(),
            n => format!("server{}", n - 1),
        }
    }

    /// Sends `bytes` between two fabric nodes; fails fast with the refusing
    /// node when either endpoint's link is down (network fault injection).
    ///
    /// # Errors
    ///
    /// [`draid_net::LinkError`] naming the endpoint whose link is down.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (loopback does not cross the fabric).
    #[inline]
    pub fn try_transfer(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<Service, draid_net::LinkError> {
        self.fabric.try_transfer(now, from, to, bytes)
    }

    /// Queues a read on a server's drive.
    ///
    /// # Errors
    ///
    /// Propagates the drive's failure state.
    #[inline]
    pub fn drive_read(
        &mut self,
        now: SimTime,
        server: ServerId,
        bytes: u64,
    ) -> Result<Service, DriveError> {
        self.drives[server.0].read(now, bytes)
    }

    /// Queues a write on a server's drive.
    ///
    /// # Errors
    ///
    /// Propagates the drive's failure state.
    #[inline]
    pub fn drive_write(
        &mut self,
        now: SimTime,
        server: ServerId,
        bytes: u64,
    ) -> Result<Service, DriveError> {
        self.drives[server.0].write(now, bytes)
    }

    /// The CPU core of a fabric node (host or server).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this cluster.
    #[inline]
    pub fn cpu_mut(&mut self, node: NodeId) -> &mut Cpu {
        &mut self.cpus[node.0]
    }

    /// Immutable access to a node's CPU.
    pub fn cpu(&self, node: NodeId) -> &Cpu {
        &self.cpus[node.0]
    }

    /// Immutable access to a server's drive.
    pub fn drive(&self, server: ServerId) -> &Drive {
        &self.drives[server.0]
    }

    /// Mutable access to a server's drive (failure injection).
    pub fn drive_mut(&mut self, server: ServerId) -> &mut Drive {
        &mut self.drives[server.0]
    }

    /// The underlying fabric (traffic accounting, backlog probes).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable fabric access.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Checks byte conservation across the whole cluster: every NIC direction
    /// in the fabric and every drive channel must satisfy
    /// `offered == served + dropped`. A no-op unless invariants are enabled.
    ///
    /// # Panics
    ///
    /// Panics when any ledger does not balance.
    pub fn audit_conservation(&self) {
        self.fabric.audit_conservation();
        for drive in &self.drives {
            drive.audit_conservation();
        }
    }

    /// Resets all traffic/busy counters across fabric, drives and CPUs at
    /// measurement-window start `now`; work straddling the boundary keeps
    /// its time-prorated in-window share on every resource.
    pub fn reset_counters(&mut self, now: SimTime) {
        self.fabric.reset_counters(now);
        for cpu in &mut self.cpus {
            cpu.reset_counters(now);
        }
        for drive in &mut self.drives {
            drive.reset_counters(now);
        }
    }

    /// Samples the clamped elapsed busy time of every contended resource —
    /// each node's NIC directions, each server's drive channel, each CPU —
    /// into `timeline` at instant `at`, under stable series names:
    /// `net:<node>:egress`, `net:<node>:ingress`, `drive:<node>`,
    /// `cpu:<node>`, with [`Cluster::node_name`] labels. Call at fixed
    /// bucket boundaries to build the observability plane's utilization
    /// timeline.
    pub fn sample_busy(&self, timeline: &mut draid_sim::UtilizationTimeline, at: SimTime) {
        for (n, cpu) in self.cpus.iter().enumerate() {
            let node = NodeId(n);
            let name = self.node_name(node);
            timeline.observe(
                &format!("net:{name}:egress"),
                at,
                self.fabric.busy_elapsed(node, LinkDir::Egress, at),
            );
            timeline.observe(
                &format!("net:{name}:ingress"),
                at,
                self.fabric.busy_elapsed(node, LinkDir::Ingress, at),
            );
            timeline.observe(&format!("cpu:{name}"), at, cpu.busy_elapsed(at));
            if let Some(server) = n.checked_sub(1) {
                let busy = self.drives[server].busy_elapsed(at);
                timeline.observe(&format!("drive:{name}"), at, busy);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_failure_visible_through_cluster() {
        let mut c = Cluster::homogeneous(2);
        c.drive_mut(ServerId(1)).fail_permanently();
        assert_eq!(
            c.drive_write(SimTime::ZERO, ServerId(1), 4096),
            Err(DriveError::Failed)
        );
        assert!(c.drive_write(SimTime::ZERO, ServerId(0), 4096).is_ok());
    }

    #[test]
    fn cpu_access_host_and_servers() {
        let mut c = Cluster::homogeneous(2);
        let host = c.host_node();
        let s0 = c.server_node(ServerId(0));
        c.cpu_mut(host).per_io(SimTime::ZERO);
        c.cpu_mut(s0).xor(SimTime::ZERO, 1 << 20);
        assert!(c.cpu(host).busy_time() > SimTime::ZERO);
        assert!(c.cpu(s0).busy_time() > c.cpu(host).busy_time());
    }

    #[test]
    fn cluster_audit_covers_fabric_and_drives() {
        let mut c = Cluster::homogeneous(3);
        let host = c.host_node();
        let n0 = c.server_node(ServerId(0));
        c.try_transfer(SimTime::ZERO, host, n0, 1 << 16)
            .expect("link up");
        c.drive_mut(ServerId(1)).fail_permanently();
        assert!(c.drive_write(SimTime::ZERO, ServerId(1), 4096).is_err());
        c.drive_write(SimTime::ZERO, ServerId(0), 4096).unwrap();
        c.audit_conservation();
        assert_eq!(c.drive(ServerId(1)).bytes_dropped(), 4096);
    }

    #[test]
    fn reset_clears_counters() {
        let mut c = Cluster::homogeneous(2);
        let host = c.host_node();
        let n0 = c.server_node(ServerId(0));
        c.try_transfer(SimTime::ZERO, host, n0, 1 << 20)
            .expect("link up");
        c.drive_write(SimTime::ZERO, ServerId(0), 1 << 20).unwrap();
        c.reset_counters(SimTime::from_millis(1_000));
        assert_eq!(c.fabric().bytes_sent(host), 0);
        assert_eq!(c.drive(ServerId(0)).bytes_served(), 0);
    }

    #[test]
    fn sample_busy_feeds_named_timeline_series() {
        let mut c = Cluster::homogeneous(2);
        let host = c.host_node();
        let n0 = c.server_node(ServerId(0));
        let mut tl = draid_sim::UtilizationTimeline::new(SimTime::ZERO);
        c.sample_busy(&mut tl, SimTime::ZERO);
        c.try_transfer(SimTime::ZERO, host, n0, 1 << 20)
            .expect("link up");
        c.drive_write(SimTime::ZERO, ServerId(0), 1 << 20).unwrap();
        c.sample_busy(&mut tl, SimTime::from_millis(1));
        let names: Vec<&str> = tl.names().collect();
        assert!(names.contains(&"net:host:egress"), "series: {names:?}");
        assert!(names.iter().any(|n| n.starts_with("drive:")));
        assert!(names.iter().any(|n| n.starts_with("cpu:")));
        for name in &names {
            for b in tl.buckets(name) {
                assert!(b.utilization() <= 1.0, "{name} over 100%");
            }
        }
        assert!(tl.total_busy("net:host:egress") > SimTime::ZERO);
    }

    fn rack_cluster() -> Cluster {
        let mut b = ClusterBuilder::new();
        b.two_tier(ByteRate::from_gbps(25.0));
        for _ in 0..5 {
            b.server(CX5_100G);
        }
        b.build()
    }

    /// The series names `sample_busy` gives a cluster, in sample order.
    fn series_names(c: &Cluster) -> Vec<String> {
        let mut tl = draid_sim::UtilizationTimeline::new(SimTime::ZERO);
        c.sample_busy(&mut tl, SimTime::ZERO);
        tl.names().map(str::to_string).collect()
    }

    #[test]
    fn nodes_are_numbered_host_first() {
        let flat_8: fn() -> Cluster = || Cluster::homogeneous(8);
        for build in [flat_8, rack_cluster] {
            let mut c = build();
            assert_eq!(c.host_node(), NodeId(0));
            let nodes: Vec<NodeId> = std::iter::once(c.host_node())
                .chain((0..c.width()).map(|i| c.server_node(ServerId(i))))
                .collect();
            for (i, &node) in nodes.iter().enumerate().skip(1) {
                assert_eq!(node, NodeId(i));
                assert_eq!(c.node_name(node), format!("server{}", i - 1));
            }
            assert_eq!(c.node_name(c.host_node()), "host");
            for &from in &nodes {
                for &to in nodes.iter().filter(|&&n| n != from) {
                    c.try_transfer(SimTime::ZERO, from, to, 4096)
                        .expect("link up");
                }
            }
        }
        // The two-tier cluster labels its resources as a flat one does.
        let names = series_names(&rack_cluster());
        assert_eq!(names, series_names(&Cluster::homogeneous(5)));
        assert_eq!(names.len(), 6 * 3 + 5);
        for name in [
            "net:host:egress",
            "cpu:host",
            "cpu:server4",
            "drive:server4",
        ] {
            assert!(names.iter().any(|n| n == name), "{name} missing: {names:?}");
        }
        assert!(!names.iter().any(|n| n == "drive:host"), "{names:?}");
    }

    #[test]
    fn a_transfer_touches_exactly_its_two_endpoints() {
        const BYTES: u64 = 1 << 20;
        let flat_8: fn() -> Cluster = || Cluster::homogeneous(8);
        for (build, racked) in [(flat_8, false), (rack_cluster, true)] {
            let fresh = build();
            let host = fresh.host_node();
            let nodes: Vec<NodeId> = std::iter::once(host)
                .chain((0..fresh.width()).map(|i| fresh.server_node(ServerId(i))))
                .collect();
            for &from in &nodes {
                for &to in nodes.iter().filter(|&&n| n != from) {
                    let mut c = build();
                    let svc = c
                        .try_transfer(SimTime::ZERO, from, to, BYTES)
                        .expect("link up");
                    for &n in &nodes {
                        let sent = if n == from { BYTES } else { 0 };
                        let received = if n == to { BYTES } else { 0 };
                        assert_eq!(c.fabric().bytes_sent(n), sent, "{from:?} -> {to:?}");
                        assert_eq!(c.fabric().bytes_received(n), received, "{from:?} -> {to:?}");
                    }
                    // The host sits alone in the compute rack.
                    let crosses = racked && (from == host || to == host);
                    let flat = Cluster::homogeneous(c.width())
                        .try_transfer(SimTime::ZERO, from, to, BYTES)
                        .expect("link up");
                    if crosses {
                        assert!(svc.end > flat.end, "{from:?} -> {to:?}: {svc:?}");
                    } else {
                        assert_eq!(svc, flat, "{from:?} -> {to:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn cpu_lookup_finds_each_nodes_core() {
        for mut c in [Cluster::homogeneous(8), rack_cluster()] {
            assert_eq!(c.cpus.len(), c.width() + 1);
            let host = c.host_node();
            assert!(std::ptr::eq(c.cpu(host), &c.cpus[0]));
            assert!(std::ptr::eq(c.cpu_mut(host), &c.cpus[0]));
            for i in 0..c.width() {
                let node = c.server_node(ServerId(i));
                assert!(std::ptr::eq(c.cpu(node), &c.cpus[i + 1]));
                assert!(std::ptr::eq(c.cpu_mut(node), &c.cpus[i + 1]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_transfer_panics() {
        let mut c = Cluster::homogeneous(8);
        let n = c.server_node(ServerId(3));
        let _ = c.try_transfer(SimTime::ZERO, n, n, 4096);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn rack_loopback_transfer_panics() {
        let mut c = rack_cluster();
        let host = c.host_node();
        let _ = c.try_transfer(SimTime::ZERO, host, host, 4096);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_member_rejected() {
        let mut b = ClusterBuilder::new();
        b.server(CX5_100G);
        b.build();
    }
}

#[cfg(test)]
mod rack_tests {
    use super::*;

    #[test]
    fn two_tier_cluster_routes_host_traffic_through_core() {
        let mut b = ClusterBuilder::new();
        // Storage rack uplink much slower than the NICs.
        b.two_tier(ByteRate::from_gbps(1.0));
        for _ in 0..3 {
            b.server(ByteRate::from_gbps(8.0));
        }
        let mut c = b.build();
        let host = c.host_node();
        let s0 = c.server_node(ServerId(0));
        let s1 = c.server_node(ServerId(1));
        // Server-to-server stays rack-local: ~1 ms for 1 MB at 1 GB/s NICs.
        let local = c
            .try_transfer(SimTime::ZERO, s0, s1, 1_000_000)
            .expect("link up");
        assert!(local.end < SimTime::from_millis(2), "local: {}", local.end);
        // Host-to-server crosses the 1 Gbps storage downlink: ~8 ms.
        let cross = c
            .try_transfer(SimTime::ZERO, host, s0, 1_000_000)
            .expect("link up");
        assert!(cross.end > SimTime::from_millis(8), "cross: {}", cross.end);
    }
}
