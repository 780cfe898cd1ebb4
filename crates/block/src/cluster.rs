//! Cluster assembly: a host plus storage servers on a fabric.

use draid_net::{ConnId, Fabric, FabricBuilder, LinkDir, NicSpec, NodeId};
use draid_sim::{Service, SimTime};

use crate::{Cpu, Drive, DriveError};

/// Identifies a storage server (and its drive) within a cluster; dense from
/// zero, independent of fabric [`NodeId`]s.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ServerId(pub usize);

#[derive(Debug)]
struct Server {
    node: NodeId,
    drive: Drive,
    cpu: Cpu,
}

/// Builder for a [`Cluster`].
///
/// ```
/// use draid_block::ClusterBuilder;
/// use draid_net::NicSpec;
///
/// let mut b = ClusterBuilder::new();
/// b.host(vec![NicSpec::cx5_100g()]);
/// for _ in 0..4 {
///     b.server(vec![NicSpec::cx5_100g()]);
/// }
/// let cluster = b.build();
/// assert_eq!(cluster.width(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    host: Option<Vec<NicSpec>>,
    servers: Vec<Vec<NicSpec>>,
    racks: Option<(NicSpec, NicSpec)>,
}

impl ClusterBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Configures the host (the node where the virtual RAID device attaches).
    pub fn host(&mut self, nics: Vec<NicSpec>) -> &mut Self {
        self.host = Some(nics);
        self
    }

    /// Places the host in a compute rack and every server in a storage rack,
    /// joined through core uplinks of the given capacities — the
    /// oversubscribed two-tier topology of real disaggregated deployments.
    /// Host ↔ server traffic crosses the core; server ↔ server traffic
    /// (dRAID's partial parities) stays inside the storage rack.
    pub fn two_tier(&mut self, compute_uplink: NicSpec, storage_uplink: NicSpec) -> &mut Self {
        self.racks = Some((compute_uplink, storage_uplink));
        self
    }

    /// Adds a storage server (the paper's drive and one polling core);
    /// returns its [`ServerId`].
    pub fn server(&mut self, nics: Vec<NicSpec>) -> ServerId {
        self.servers.push(nics);
        ServerId(self.servers.len() - 1)
    }

    /// Builds the cluster and wires the full connection mesh: host ↔ every
    /// server plus every server pair (dRAID's server-side controllers connect
    /// to all other storage servers, §8).
    ///
    /// # Panics
    ///
    /// Panics unless a host and at least two servers were configured.
    pub fn build(self) -> Cluster {
        let host_nics = self.host.expect("cluster needs a host");
        assert!(
            self.servers.len() >= 2,
            "a RAID array needs at least two members"
        );
        let mut fb = FabricBuilder::new();
        let rack_ids = self
            .racks
            .map(|(compute, storage)| (fb.add_rack(compute), fb.add_rack(storage)));
        let host_node = match rack_ids {
            Some((compute, _)) => fb.add_node_in_rack("host", host_nics, compute),
            None => fb.add_node("host", host_nics),
        };
        let mut servers = Vec::with_capacity(self.servers.len());
        for (i, nics) in self.servers.into_iter().enumerate() {
            let node = match rack_ids {
                Some((_, storage)) => fb.add_node_in_rack(format!("server{i}"), nics, storage),
                None => fb.add_node(format!("server{i}"), nics),
            };
            servers.push(Server {
                node,
                drive: Drive::new(),
                cpu: Cpu::new(),
            });
        }
        let mut fabric = fb.build();
        let node_count = fabric.node_count();
        let mut conns = vec![None; node_count * node_count];
        let nodes: Vec<NodeId> = std::iter::once(host_node)
            .chain(servers.iter().map(|s| s.node))
            .collect();
        for &a in &nodes {
            for &b in &nodes {
                if a != b {
                    conns[a.0 * node_count + b.0] = Some(fabric.connect(a, b));
                }
            }
        }
        let mut node_server = vec![None; node_count];
        for (i, s) in servers.iter().enumerate() {
            node_server[s.node.0] = Some(ServerId(i));
        }
        Cluster {
            fabric,
            host_node,
            host_cpu: Cpu::new(),
            servers,
            conns,
            node_server,
        }
    }
}

/// A simulated storage cluster: one host, `width` storage servers, and the
/// full RDMA-RC connection mesh between them.
#[derive(Debug)]
pub struct Cluster {
    fabric: Fabric,
    host_node: NodeId,
    host_cpu: Cpu,
    servers: Vec<Server>,
    /// The connection of each ordered node pair, indexed by
    /// `from * nodes + to` (`None` on the diagonal): a transfer finds its
    /// connection by one index, not a hash lookup.
    conns: Vec<Option<ConnId>>,
    /// The server at each of the fabric's nodes (`None` for the host).
    node_server: Vec<Option<ServerId>>,
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
        b.host(vec![NicSpec::cx5_100g()]);
        for _ in 0..width {
            b.server(vec![NicSpec::cx5_100g()]);
        }
        b.build()
    }

    /// Number of storage servers (the RAID stripe width).
    pub fn width(&self) -> usize {
        self.servers.len()
    }

    /// The host's fabric node.
    #[inline]
    pub fn host_node(&self) -> NodeId {
        self.host_node
    }

    /// A server's fabric node.
    #[inline]
    pub fn server_node(&self, server: ServerId) -> NodeId {
        self.servers[server.0].node
    }

    /// Reverse lookup from a fabric node to the server living on it.
    #[inline]
    pub fn server_at(&self, node: NodeId) -> Option<ServerId> {
        self.node_server.get(node.0).copied().flatten()
    }

    /// The pre-established connection from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the pair has no connection (i.e. `from == to`).
    #[inline]
    fn conn(&self, from: NodeId, to: NodeId) -> ConnId {
        let n = self.node_server.len();
        (from.0 < n && to.0 < n)
            .then(|| self.conns[from.0 * n + to.0])
            .flatten()
            .unwrap_or_else(|| panic!("no connection {from:?} -> {to:?}"))
    }

    /// Sends `bytes` between two fabric nodes over the pre-established
    /// connection; fails fast with the refusing node when either endpoint's
    /// link is down (network fault injection).
    ///
    /// # Errors
    ///
    /// [`draid_net::LinkError`] naming the endpoint whose link is down.
    ///
    /// # Panics
    ///
    /// Panics if the pair has no connection (i.e. `from == to`).
    #[inline]
    pub fn try_transfer(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<Service, draid_net::LinkError> {
        let conn = self.conn(from, to);
        self.fabric.try_transfer(now, conn, bytes)
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
        self.servers[server.0].drive.read(now, bytes)
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
        self.servers[server.0].drive.write(now, bytes)
    }

    /// The CPU core of a fabric node (host or server).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this cluster.
    #[inline]
    pub fn cpu_mut(&mut self, node: NodeId) -> &mut Cpu {
        if node == self.host_node {
            &mut self.host_cpu
        } else {
            let s = self.server_at(node).expect("unknown node");
            &mut self.servers[s.0].cpu
        }
    }

    /// Immutable access to a node's CPU.
    pub fn cpu(&self, node: NodeId) -> &Cpu {
        if node == self.host_node {
            &self.host_cpu
        } else {
            &self.servers[self.server_at(node).expect("unknown node").0].cpu
        }
    }

    /// Immutable access to a server's drive.
    pub fn drive(&self, server: ServerId) -> &Drive {
        &self.servers[server.0].drive
    }

    /// Mutable access to a server's drive (failure injection).
    pub fn drive_mut(&mut self, server: ServerId) -> &mut Drive {
        &mut self.servers[server.0].drive
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
        for s in &self.servers {
            s.drive.audit_conservation();
        }
    }

    /// Resets all traffic/busy counters across fabric, drives and CPUs at
    /// measurement-window start `now`; work straddling the boundary keeps
    /// its time-prorated in-window share on every resource.
    pub fn reset_counters(&mut self, now: SimTime) {
        self.fabric.reset_counters(now);
        self.host_cpu.reset_counters(now);
        for s in &mut self.servers {
            s.drive.reset_counters(now);
            s.cpu.reset_counters(now);
        }
    }

    /// Samples the clamped elapsed busy time of every contended resource —
    /// each node's NIC directions, each server's drive channel, each CPU —
    /// into `timeline` at instant `at`, under stable series names:
    /// `net:<node>:egress`, `net:<node>:ingress`, `drive:<node>`,
    /// `cpu:<node>`. Call at fixed bucket boundaries to build the
    /// observability plane's utilization timeline.
    pub fn sample_busy(&self, timeline: &mut draid_sim::UtilizationTimeline, at: SimTime) {
        let mut nodes = vec![(self.host_node, None)];
        for s in &self.servers {
            nodes.push((s.node, Some(&s.drive)));
        }
        for (node, drive) in nodes {
            let name = self.fabric.node_name(node);
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
            timeline.observe(&format!("cpu:{name}"), at, self.cpu(node).busy_elapsed(at));
            if let Some(drive) = drive {
                timeline.observe(&format!("drive:{name}"), at, drive.busy_elapsed(at));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_builds_mesh() {
        let mut c = Cluster::homogeneous(4);
        assert_eq!(c.width(), 4);
        let host = c.host_node();
        // Host to each server and server-to-server transfers all work.
        for i in 0..4 {
            let node = c.server_node(ServerId(i));
            c.try_transfer(SimTime::ZERO, host, node, 4096)
                .expect("link up");
            c.try_transfer(SimTime::ZERO, node, host, 4096)
                .expect("link up");
            for j in 0..4 {
                if i != j {
                    let peer = c.server_node(ServerId(j));
                    c.try_transfer(SimTime::ZERO, node, peer, 512)
                        .expect("link up");
                }
            }
        }
        assert!(c.fabric().bytes_sent(host) > 0);
    }

    #[test]
    fn server_lookup_roundtrip() {
        let c = Cluster::homogeneous(3);
        for i in 0..3 {
            let node = c.server_node(ServerId(i));
            assert_eq!(c.server_at(node), Some(ServerId(i)));
        }
        assert_eq!(c.server_at(c.host_node()), None);
    }

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

    /// The connection ids `build` assigns: `connect` numbers connections
    /// in call order, and `build` connects every ordered pair of the host
    /// then the servers, row by row.
    fn expected_conns(c: &Cluster) -> Vec<(NodeId, NodeId, ConnId)> {
        let nodes: Vec<NodeId> = std::iter::once(c.host_node())
            .chain((0..c.width()).map(|i| c.server_node(ServerId(i))))
            .collect();
        let mut out = Vec::new();
        for &a in &nodes {
            for &b in &nodes {
                if a != b {
                    out.push((a, b, ConnId(out.len())));
                }
            }
        }
        out
    }

    fn rack_cluster() -> Cluster {
        let mut b = ClusterBuilder::new();
        b.two_tier(NicSpec::cx5_100g(), NicSpec::with_goodput_gbps(25.0));
        b.host(vec![NicSpec::cx5_100g()]);
        for _ in 0..5 {
            b.server(vec![NicSpec::cx5_100g(), NicSpec::cx5_100g()]);
        }
        b.build()
    }

    #[test]
    fn conn_table_holds_the_connect_order() {
        for c in [Cluster::homogeneous(8), rack_cluster()] {
            let expected = expected_conns(&c);
            let nodes = c.width() + 1;
            assert_eq!(expected.len(), nodes * (nodes - 1));
            for (from, to, conn) in expected {
                assert_eq!(c.conn(from, to), conn, "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn cpu_lookup_finds_each_nodes_core() {
        for mut c in [Cluster::homogeneous(8), rack_cluster()] {
            let host = c.host_node();
            assert!(std::ptr::eq(c.cpu(host), &c.host_cpu));
            assert!(std::ptr::eq(c.cpu_mut(host), &c.host_cpu));
            for i in 0..c.width() {
                let node = c.server_node(ServerId(i));
                assert!(std::ptr::eq(c.cpu(node), &c.servers[i].cpu));
                assert!(std::ptr::eq(c.cpu_mut(node), &c.servers[i].cpu));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no connection")]
    fn loopback_transfer_panics() {
        let mut c = Cluster::homogeneous(8);
        let n = c.server_node(ServerId(3));
        let _ = c.try_transfer(SimTime::ZERO, n, n, 4096);
    }

    #[test]
    #[should_panic(expected = "no connection")]
    fn rack_loopback_transfer_panics() {
        let mut c = rack_cluster();
        let host = c.host_node();
        let _ = c.try_transfer(SimTime::ZERO, host, host, 4096);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_member_rejected() {
        let mut b = ClusterBuilder::new();
        b.host(vec![NicSpec::cx5_100g()]);
        b.server(vec![NicSpec::cx5_100g()]);
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
        b.two_tier(
            NicSpec::with_goodput_gbps(8.0),
            NicSpec::with_goodput_gbps(1.0),
        );
        b.host(vec![NicSpec::with_goodput_gbps(8.0)]);
        for _ in 0..3 {
            b.server(vec![NicSpec::with_goodput_gbps(8.0)]);
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
