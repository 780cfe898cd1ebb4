//! The fabric: nodes, NICs, connections, transfers.

use draid_sim::{RateResource, Service, SimTime};

use crate::NicSpec;

/// Identifies a node (server) in the fabric.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub usize);

/// Identifies an established connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub usize);

/// Direction of traffic through a NIC, from the NIC owner's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkDir {
    /// Traffic leaving the node.
    Egress,
    /// Traffic arriving at the node.
    Ingress,
}

/// Error returned by [`Fabric::try_transfer`] when an endpoint's link is
/// down: the transfer never happens and the sender sees a failed verb, which
/// upper layers surface through their timeout/retry path (§5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkError {
    /// The node whose link refused the transfer.
    pub node: NodeId,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link down at node {}", self.node.0)
    }
}

impl std::error::Error for LinkError {}

/// Fault state of one NIC direction: hard-down intervals (administrative or
/// scheduled flap windows) and degraded-rate windows (congestion, a flaky
/// transceiver, a mis-negotiated link speed).
#[derive(Debug, Default)]
struct LinkState {
    /// Administratively down until further notice.
    admin_down: bool,
    /// Scheduled outage windows `[from, until)` — link-flap injection.
    down_windows: Vec<(SimTime, SimTime)>,
    /// Degraded-rate windows `[from, until, factor)`: the NIC serves at
    /// `rate * factor` while the window is active.
    degraded: Vec<(SimTime, SimTime, f64)>,
}

impl LinkState {
    #[inline]
    fn is_down(&self, now: SimTime) -> bool {
        self.admin_down
            || self
                .down_windows
                .iter()
                .any(|&(from, until)| now >= from && now < until)
    }

    /// The smallest active degradation factor (degradations stack by taking
    /// the worst), or 1.0 when the link is at full speed.
    #[inline]
    fn rate_factor(&self, now: SimTime) -> f64 {
        self.degraded
            .iter()
            .filter(|&&(from, until, _)| now >= from && now < until)
            .map(|&(_, _, f)| f)
            .fold(1.0, f64::min)
    }
}

/// Byte-conservation ledger for one NIC direction: every byte presented to
/// the direction is either served by its rate resource or dropped by a fault,
/// so `offered == served + dropped` at all times (the `draid_invariant!`
/// checked by [`Fabric::audit_conservation`]).
#[derive(Debug, Default)]
struct DirLedger {
    offered: u64,
    dropped: u64,
}

#[derive(Debug)]
struct Nic {
    spec: NicSpec,
    egress: RateResource,
    ingress: RateResource,
    connections: usize,
    egress_link: LinkState,
    ingress_link: LinkState,
    egress_ledger: DirLedger,
    ingress_ledger: DirLedger,
}

#[derive(Debug)]
struct Node {
    name: String,
    nics: Vec<usize>,
    rack: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
struct Connection {
    from_node: NodeId,
    to_node: NodeId,
    from_nic: usize,
    to_nic: usize,
}

/// Builder for a [`Fabric`].
#[derive(Debug, Default)]
pub struct FabricBuilder {
    nodes: Vec<Node>,
    nics: Vec<Nic>,
    racks: Vec<RackSpec>,
}

#[derive(Clone, Copy, Debug)]
struct RackSpec {
    uplink: crate::NicSpec,
}

#[derive(Debug)]
struct Rack {
    up: RateResource,
    down: RateResource,
    spec: crate::NicSpec,
}

impl FabricBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given NICs and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `nics` is empty — every server in the testbed has a NIC.
    pub fn add_node(&mut self, name: impl Into<String>, nics: Vec<NicSpec>) -> NodeId {
        self.add_node_inner(name, nics, None)
    }

    /// Declares a rack whose uplink to the core has the given capacity
    /// (model an `f:1` oversubscription of `n` nodes with `rate = n·nic/f`).
    /// Returns the rack id for [`FabricBuilder::add_node_in_rack`].
    pub fn add_rack(&mut self, uplink: NicSpec) -> usize {
        self.racks.push(RackSpec { uplink });
        self.racks.len() - 1
    }

    /// Adds a node behind a rack switch: transfers leaving or entering the
    /// rack additionally traverse the rack's uplink/downlink.
    ///
    /// # Panics
    ///
    /// Panics if `rack` was not declared or `nics` is empty.
    pub fn add_node_in_rack(
        &mut self,
        name: impl Into<String>,
        nics: Vec<NicSpec>,
        rack: usize,
    ) -> NodeId {
        assert!(rack < self.racks.len(), "undeclared rack {rack}");
        self.add_node_inner(name, nics, Some(rack))
    }

    fn add_node_inner(
        &mut self,
        name: impl Into<String>,
        nics: Vec<NicSpec>,
        rack: Option<usize>,
    ) -> NodeId {
        assert!(!nics.is_empty(), "a node needs at least one NIC");
        let id = NodeId(self.nodes.len());
        let mut indices = Vec::with_capacity(nics.len());
        for spec in nics {
            indices.push(self.nics.len());
            self.nics.push(Nic {
                spec,
                egress: RateResource::new(spec.rate),
                ingress: RateResource::new(spec.rate),
                connections: 0,
                egress_link: LinkState::default(),
                ingress_link: LinkState::default(),
                egress_ledger: DirLedger::default(),
                ingress_ledger: DirLedger::default(),
            });
        }
        self.nodes.push(Node {
            name: name.into(),
            nics: indices,
            rack,
        });
        id
    }

    /// Finalizes the fabric.
    pub fn build(self) -> Fabric {
        Fabric {
            nodes: self.nodes,
            nics: self.nics,
            racks: self
                .racks
                .into_iter()
                .map(|r| Rack {
                    up: RateResource::new(r.uplink.rate),
                    down: RateResource::new(r.uplink.rate),
                    spec: r.uplink,
                })
                .collect(),
            connections: Vec::new(),
        }
    }
}

/// The simulated datacenter network. See the crate docs for the model.
#[derive(Debug)]
pub struct Fabric {
    nodes: Vec<Node>,
    nics: Vec<Nic>,
    racks: Vec<Rack>,
    connections: Vec<Connection>,
}

impl Fabric {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's human-readable name.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Establishes an RC-style connection between two nodes, placing each end
    /// on the least-connected NIC of its node (§5.5: "new connections are
    /// created on the least used NIC for load balancing").
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (loopback does not cross the fabric) or either
    /// id is out of range.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> ConnId {
        assert_ne!(from, to, "loopback connections are not modelled");
        let from_nic = self.least_connected_nic(from);
        let to_nic = self.least_connected_nic(to);
        self.nics[from_nic].connections += 1;
        self.nics[to_nic].connections += 1;
        let id = ConnId(self.connections.len());
        self.connections.push(Connection {
            from_node: from,
            to_node: to,
            from_nic,
            to_nic,
        });
        id
    }

    fn least_connected_nic(&self, node: NodeId) -> usize {
        *self.nodes[node.0]
            .nics
            .iter()
            .min_by_key(|&&n| self.nics[n].connections)
            .expect("nodes have at least one NIC")
    }

    /// Sends `bytes` over `conn`. Returns the delivery window: `start` is
    /// when the first byte left the sender, `end` is when the last byte
    /// arrived at the receiver (the moment a completion event should fire).
    ///
    /// The model pipelines egress and ingress: the receiver starts taking the
    /// stream one propagation delay after the sender starts emitting, and
    /// each direction independently serializes at its own NIC rate, so the
    /// slower direction and any queueing on either side gate completion.
    ///
    /// Fault-aware: fails fast when the sender's egress link or the
    /// receiver's ingress link is down, and serves at the degraded rate while
    /// a degradation window is active.
    ///
    /// # Errors
    ///
    /// [`LinkError`] naming the endpoint whose link refused the transfer.
    #[inline]
    pub fn try_transfer(
        &mut self,
        now: SimTime,
        conn: ConnId,
        bytes: u64,
    ) -> Result<Service, LinkError> {
        let c = self.connections[conn.0];
        // Conservation ledger: the sender's egress direction is offered the
        // payload the moment the verb is posted; a refused transfer drops the
        // whole payload on that ledger (nothing ever reaches a rate server).
        self.nics[c.from_nic].egress_ledger.offered += bytes;
        if self.nics[c.from_nic].egress_link.is_down(now) {
            self.nics[c.from_nic].egress_ledger.dropped += bytes;
            return Err(LinkError { node: c.from_node });
        }
        if self.nics[c.to_nic].ingress_link.is_down(now) {
            self.nics[c.from_nic].egress_ledger.dropped += bytes;
            return Err(LinkError { node: c.to_node });
        }
        let (eg_spec, in_spec) = (self.nics[c.from_nic].spec, self.nics[c.to_nic].spec);
        let eg_rate = eg_spec
            .rate
            .scaled(self.nics[c.from_nic].egress_link.rate_factor(now));
        let eg =
            self.nics[c.from_nic]
                .egress
                .serve_with_setup(now, bytes, eg_spec.per_message, eg_rate);
        let mut arrive = eg.start + eg_spec.per_message + eg_spec.propagation;
        // Cross-rack traffic serializes through the source rack's uplink and
        // the destination rack's downlink (the oversubscription model). The
        // stream pipelines through every stage, so completion is gated by
        // the slowest stage's finish, not their sum.
        let mut stage_end = eg.end;
        let (src_rack, dst_rack) = (self.nodes[c.from_node.0].rack, self.nodes[c.to_node.0].rack);
        if src_rack != dst_rack {
            if let Some(r) = src_rack {
                let rack = &mut self.racks[r];
                let svc = rack
                    .up
                    .serve_after(now, arrive, bytes.max(1), rack.spec.rate);
                arrive = svc.start + rack.spec.propagation;
                stage_end = stage_end.max(svc.end);
            }
            if let Some(r) = dst_rack {
                let rack = &mut self.racks[r];
                let svc = rack
                    .down
                    .serve_after(now, arrive, bytes.max(1), rack.spec.rate);
                arrive = svc.start + rack.spec.propagation;
                stage_end = stage_end.max(svc.end);
            }
        }
        let in_rate = in_spec
            .rate
            .scaled(self.nics[c.to_nic].ingress_link.rate_factor(arrive));
        self.nics[c.to_nic].ingress_ledger.offered += bytes.max(1);
        let ing = self.nics[c.to_nic]
            .ingress
            .serve_after(now, arrive, bytes.max(1), in_rate);
        Ok(Service {
            start: eg.start,
            end: ing.end.max(stage_end),
        })
    }

    /// Takes every NIC of `node` administratively down, both directions, for
    /// good: transfers touching it fail from now on.
    pub fn set_link_down(&mut self, node: NodeId) {
        self.for_each_link(node, |l| l.admin_down = true);
    }

    /// Whether any of a node's links refuses traffic in `dir` at `now`.
    pub fn link_down(&self, node: NodeId, dir: LinkDir, now: SimTime) -> bool {
        self.nodes[node.0].nics.iter().any(|&n| {
            let nic = &self.nics[n];
            match dir {
                LinkDir::Egress => nic.egress_link.is_down(now),
                LinkDir::Ingress => nic.ingress_link.is_down(now),
            }
        })
    }

    /// Schedules an outage window `[from, until)` on every NIC of `node`,
    /// both directions — the building block of link-flap injection.
    pub fn schedule_link_down(&mut self, node: NodeId, from: SimTime, until: SimTime) {
        self.for_each_link(node, |l| l.down_windows.push((from, until)));
    }

    /// Schedules `cycles` down/up flaps on a node's links: down for
    /// `down_for` starting at `start`, up for `up_for`, repeating.
    pub fn flap_link(
        &mut self,
        node: NodeId,
        start: SimTime,
        down_for: SimTime,
        up_for: SimTime,
        cycles: u32,
    ) {
        let mut t = start;
        for _ in 0..cycles {
            self.schedule_link_down(node, t, t + down_for);
            t = t + down_for + up_for;
        }
    }

    /// Degrades one direction of a node's links to `factor` of nominal rate
    /// during `[from, until)` — gray-failure injection (fail-slow NIC,
    /// congested uplink, mis-negotiated speed). Overlapping windows take the
    /// worst factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn degrade_link(
        &mut self,
        node: NodeId,
        dir: LinkDir,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        for &n in &self.nodes[node.0].nics {
            let nic = &mut self.nics[n];
            let link = match dir {
                LinkDir::Egress => &mut nic.egress_link,
                LinkDir::Ingress => &mut nic.ingress_link,
            };
            link.degraded.push((from, until, factor));
        }
    }

    fn for_each_link(&mut self, node: NodeId, mut f: impl FnMut(&mut LinkState)) {
        for &n in &self.nodes[node.0].nics {
            f(&mut self.nics[n].egress_link);
            f(&mut self.nics[n].ingress_link);
        }
    }

    /// Total bytes a node has sent (across all its NICs).
    pub fn bytes_sent(&self, node: NodeId) -> u64 {
        self.nodes[node.0]
            .nics
            .iter()
            .map(|&n| self.nics[n].egress.bytes_served())
            .sum()
    }

    /// Total bytes a node has received (across all its NICs).
    pub fn bytes_received(&self, node: NodeId) -> u64 {
        self.nodes[node.0]
            .nics
            .iter()
            .map(|&n| self.nics[n].ingress.bytes_served())
            .sum()
    }

    /// Aggregate NIC goodput available to a node, per direction.
    pub fn node_rate(&self, node: NodeId) -> draid_sim::ByteRate {
        draid_sim::ByteRate::from_bytes_per_sec(
            self.nodes[node.0]
                .nics
                .iter()
                .map(|&n| self.nics[n].spec.rate.bytes_per_sec())
                .sum(),
        )
    }

    /// Cumulative egress busy time across a node's NICs; sampling this over a
    /// window yields the utilization estimate the bandwidth-aware reducer
    /// selection feeds on (§6.2).
    pub fn egress_busy(&self, node: NodeId) -> SimTime {
        self.nodes[node.0]
            .nics
            .iter()
            .map(|&n| self.nics[n].egress.busy_time())
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Elapsed busy time of a node's NICs by `at`, per direction — clamped to
    /// the sample instant (service scheduled beyond `at` is excluded), so
    /// utilization derived from successive samples never exceeds 1.0. This is
    /// what the observability timeline samples; [`Fabric::egress_busy`] keeps
    /// reporting charged demand for the §6.2 reducer selection.
    pub fn busy_elapsed(&self, node: NodeId, dir: LinkDir, at: SimTime) -> SimTime {
        self.nodes[node.0]
            .nics
            .iter()
            .map(|&n| match dir {
                LinkDir::Egress => self.nics[n].egress.busy_elapsed(at),
                LinkDir::Ingress => self.nics[n].ingress.busy_elapsed(at),
            })
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Bytes a node's links dropped by refusing transfers (fault injection),
    /// per direction. With `LinkDir::Egress` this counts refusals blamed on
    /// either endpoint: the payload never left the sender, so it lands on the
    /// sender's egress ledger.
    pub fn bytes_dropped(&self, node: NodeId, dir: LinkDir) -> u64 {
        self.nodes[node.0]
            .nics
            .iter()
            .map(|&n| match dir {
                LinkDir::Egress => self.nics[n].egress_ledger.dropped,
                LinkDir::Ingress => self.nics[n].ingress_ledger.dropped,
            })
            .sum()
    }

    /// Bytes offered to a node's links (served + dropped), per direction.
    pub fn bytes_offered(&self, node: NodeId, dir: LinkDir) -> u64 {
        self.nodes[node.0]
            .nics
            .iter()
            .map(|&n| match dir {
                LinkDir::Egress => self.nics[n].egress_ledger.offered,
                LinkDir::Ingress => self.nics[n].ingress_ledger.offered,
            })
            .sum()
    }

    /// Checks the byte-conservation invariant on every NIC direction:
    /// `offered == served + dropped`. A no-op unless invariants are enabled
    /// (debug builds or the `strict-invariants` feature).
    ///
    /// # Panics
    ///
    /// Panics when a ledger does not balance — that means a code path served
    /// or refused traffic without keeping the ledger, a determinism and
    /// accounting bug.
    pub fn audit_conservation(&self) {
        for (i, nic) in self.nics.iter().enumerate() {
            draid_sim::draid_invariant!(
                nic.egress_ledger.offered == nic.egress.bytes_served() + nic.egress_ledger.dropped,
                "NIC {} egress conservation: offered={} served={} dropped={}",
                i,
                nic.egress_ledger.offered,
                nic.egress.bytes_served(),
                nic.egress_ledger.dropped
            );
            draid_sim::draid_invariant!(
                nic.ingress_ledger.offered
                    == nic.ingress.bytes_served() + nic.ingress_ledger.dropped,
                "NIC {} ingress conservation: offered={} served={} dropped={}",
                i,
                nic.ingress_ledger.offered,
                nic.ingress.bytes_served(),
                nic.ingress_ledger.dropped
            );
        }
    }

    /// Resets every NIC's and rack uplink's traffic counters at
    /// measurement-window start `now` (between warm-up and measurement). A
    /// transfer straddling the boundary keeps its in-window prorated share
    /// (see [`RateResource::reset_counters`]); the direction ledgers are
    /// re-seeded from the post-reset served bytes so `offered == served +
    /// dropped` keeps holding across the boundary.
    pub fn reset_counters(&mut self, now: SimTime) {
        for nic in &mut self.nics {
            nic.egress.reset_counters(now);
            nic.ingress.reset_counters(now);
            nic.egress_ledger = DirLedger {
                offered: nic.egress.bytes_served(),
                dropped: 0,
            };
            nic.ingress_ledger = DirLedger {
                offered: nic.ingress.bytes_served(),
                dropped: 0,
            };
        }
        for rack in &mut self.racks {
            rack.up.reset_counters(now);
            rack.down.reset_counters(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draid_sim::ByteRate;

    fn two_node_fabric(rate_gbps: f64) -> (Fabric, ConnId) {
        let mut b = FabricBuilder::new();
        let a = b.add_node("a", vec![NicSpec::with_goodput_gbps(rate_gbps)]);
        let z = b.add_node("z", vec![NicSpec::with_goodput_gbps(rate_gbps)]);
        let mut f = b.build();
        let conn = f.connect(a, z);
        (f, conn)
    }

    #[test]
    fn uncontended_transfer_latency() {
        let (mut f, conn) = two_node_fabric(8.0); // 1 GB/s
        let svc = f
            .try_transfer(SimTime::ZERO, conn, 1_000_000)
            .expect("link up"); // 1 MB -> 1 ms
                                // per_message (0.5us) + propagation (2us) + serialization (1ms)
        assert_eq!(svc.end, SimTime::from_nanos(1_000_000 + 2_500));
    }

    #[test]
    fn ingress_busy_time_never_runs_ahead_of_the_sample_instant() {
        // Two back-to-back 1 MB sends at t = 0: the second reaches the
        // receiver only once the first has left the sender, about 80 µs on.
        // Folding its ingress charge at that future instant once reported
        // 80 µs busy by t = 10 µs.
        let (mut f, conn) = two_node_fabric(100.0);
        f.try_transfer(SimTime::ZERO, conn, 1_000_000)
            .expect("link up");
        let last = f
            .try_transfer(SimTime::ZERO, conn, 1_000_000)
            .expect("link up");
        let mut prev = SimTime::ZERO;
        for us in (0..=200).step_by(10) {
            let at = SimTime::from_micros(us);
            let busy = f.busy_elapsed(NodeId(1), LinkDir::Ingress, at);
            assert!(busy <= at, "{busy} busy by {at}");
            assert!(busy - prev <= SimTime::from_micros(10), "at {at}");
            prev = busy;
        }
        let total = f.busy_elapsed(NodeId(1), LinkDir::Ingress, last.end);
        assert_eq!(total, f.nics[1].ingress.busy_time(), "all of it by the end");
    }

    #[test]
    fn egress_is_the_shared_bottleneck() {
        let mut b = FabricBuilder::new();
        let host = b.add_node("host", vec![NicSpec::with_goodput_gbps(8.0)]);
        let t1 = b.add_node("t1", vec![NicSpec::with_goodput_gbps(8.0)]);
        let t2 = b.add_node("t2", vec![NicSpec::with_goodput_gbps(8.0)]);
        let mut f = b.build();
        let c1 = f.connect(host, t1);
        let c2 = f.connect(host, t2);
        let s1 = f
            .try_transfer(SimTime::ZERO, c1, 1_000_000)
            .expect("link up");
        let s2 = f
            .try_transfer(SimTime::ZERO, c2, 1_000_000)
            .expect("link up");
        // Second transfer queues behind the first on the host egress.
        assert!(s2.start >= s1.start + SimTime::from_millis(1));
        assert!(s2.end >= SimTime::from_millis(2));
    }

    #[test]
    fn ingress_contention_gates_completion() {
        let mut b = FabricBuilder::new();
        let t1 = b.add_node("t1", vec![NicSpec::with_goodput_gbps(8.0)]);
        let t2 = b.add_node("t2", vec![NicSpec::with_goodput_gbps(8.0)]);
        let sink = b.add_node("sink", vec![NicSpec::with_goodput_gbps(8.0)]);
        let mut f = b.build();
        let c1 = f.connect(t1, sink);
        let c2 = f.connect(t2, sink);
        let s1 = f
            .try_transfer(SimTime::ZERO, c1, 1_000_000)
            .expect("link up");
        let s2 = f
            .try_transfer(SimTime::ZERO, c2, 1_000_000)
            .expect("link up");
        // Both leave their senders immediately but serialize into the sink.
        assert_eq!(s1.start, SimTime::ZERO);
        assert_eq!(s2.start, SimTime::ZERO);
        assert!(s2.end.saturating_sub(s1.end) >= SimTime::from_millis(1));
    }

    #[test]
    fn slow_receiver_gates_fast_sender() {
        let mut b = FabricBuilder::new();
        let fast = b.add_node("fast", vec![NicSpec::with_goodput_gbps(80.0)]);
        let slow = b.add_node("slow", vec![NicSpec::with_goodput_gbps(8.0)]);
        let mut f = b.build();
        let c = f.connect(fast, slow);
        let svc = f
            .try_transfer(SimTime::ZERO, c, 1_000_000)
            .expect("link up");
        // Dominated by the 1 GB/s receiving side.
        assert!(svc.end >= SimTime::from_millis(1));
        assert!(svc.end < SimTime::from_nanos(1_100_000));
    }

    #[test]
    fn traffic_accounting() {
        let (mut f, conn) = two_node_fabric(92.0);
        f.try_transfer(SimTime::ZERO, conn, 4096).expect("link up");
        f.try_transfer(SimTime::ZERO, conn, 4096).expect("link up");
        assert_eq!(f.bytes_sent(NodeId(0)), 8192);
        assert_eq!(f.bytes_received(NodeId(1)), 8192);
        assert_eq!(f.bytes_sent(NodeId(1)), 0);
        f.reset_counters(SimTime::from_millis(1_000));
        assert_eq!(f.bytes_sent(NodeId(0)), 0);
    }

    #[test]
    fn admin_down_link_refuses_traffic() {
        let (mut f, conn) = two_node_fabric(8.0);
        f.set_link_down(NodeId(0));
        let err = f.try_transfer(SimTime::ZERO, conn, 4096).unwrap_err();
        assert_eq!(err.node, NodeId(0), "blames the dead sender");
        assert!(f.link_down(NodeId(0), LinkDir::Egress, SimTime::ZERO));
        // A dead receiver is blamed too.
        let (mut f, conn) = two_node_fabric(8.0);
        f.set_link_down(NodeId(1));
        let err = f.try_transfer(SimTime::ZERO, conn, 4096).unwrap_err();
        assert_eq!(err.node, NodeId(1));
    }

    #[test]
    fn conservation_ledger_balances_under_faults() {
        let (mut f, conn) = two_node_fabric(8.0);
        f.try_transfer(SimTime::ZERO, conn, 4096).expect("link up");
        f.set_link_down(NodeId(1));
        assert!(f.try_transfer(SimTime::ZERO, conn, 1000).is_err());
        f.for_each_link(NodeId(1), |l| l.admin_down = false);
        f.set_link_down(NodeId(0));
        assert!(f.try_transfer(SimTime::ZERO, conn, 500).is_err());
        f.for_each_link(NodeId(0), |l| l.admin_down = false);
        f.try_transfer(SimTime::from_millis(1), conn, 100)
            .expect("link up");
        // offered = served + dropped on every direction.
        f.audit_conservation();
        assert_eq!(
            f.bytes_offered(NodeId(0), LinkDir::Egress),
            4096 + 1500 + 100
        );
        assert_eq!(f.bytes_dropped(NodeId(0), LinkDir::Egress), 1500);
        assert_eq!(f.bytes_sent(NodeId(0)), 4196);
        assert_eq!(f.bytes_offered(NodeId(1), LinkDir::Ingress), 4196);
        assert_eq!(f.bytes_dropped(NodeId(1), LinkDir::Ingress), 0);
        f.reset_counters(SimTime::from_millis(1_000));
        assert_eq!(f.bytes_offered(NodeId(0), LinkDir::Egress), 0);
        f.audit_conservation();

        // A reset in the middle of an in-flight transfer keeps the ledger
        // balanced: the straddling portion stays attributed to the window.
        f.try_transfer(SimTime::from_millis(2_000), conn, 1_000_000)
            .expect("link up"); // ~1 ms service
        f.reset_counters(SimTime::from_millis(2_000) + SimTime::from_micros(500));
        f.audit_conservation();
        let kept = f.bytes_offered(NodeId(0), LinkDir::Egress);
        assert!(
            (1..1_000_000).contains(&kept),
            "straddling transfer prorated into the window, got {kept}"
        );
        assert_eq!(kept, f.bytes_sent(NodeId(0)));
    }

    #[test]
    fn flap_windows_alternate_down_and_up() {
        let (mut f, conn) = two_node_fabric(8.0);
        let ms = SimTime::from_millis;
        f.flap_link(NodeId(0), ms(1), ms(1), ms(2), 3);
        // Down windows: [1,2), [4,5), [7,8) ms.
        for (t, down) in [
            (0, false),
            (1, true),
            (2, false),
            (4, true),
            (6, false),
            (7, true),
            (8, false),
            (20, false),
        ] {
            assert_eq!(
                f.link_down(NodeId(0), LinkDir::Egress, ms(t)),
                down,
                "at {t} ms"
            );
            assert_eq!(f.try_transfer(ms(t), conn, 1).is_err(), down, "at {t} ms");
        }
    }

    #[test]
    fn degraded_window_halves_throughput_then_recovers() {
        let (mut f, conn) = two_node_fabric(8.0); // 1 GB/s
        f.degrade_link(
            NodeId(0),
            LinkDir::Egress,
            0.5,
            SimTime::ZERO,
            SimTime::from_millis(1_000),
        );
        // 1 MB at the degraded 0.5 GB/s: ~2 ms instead of ~1 ms.
        let svc = f.try_transfer(SimTime::ZERO, conn, 1_000_000).unwrap();
        assert!(svc.end >= SimTime::from_millis(2), "degraded: {}", svc.end);
        // Past the window the link is back to full rate.
        let svc = f
            .try_transfer(SimTime::from_millis(2_000), conn, 1_000_000)
            .unwrap();
        let took = svc.end.saturating_sub(svc.start);
        assert!(took < SimTime::from_nanos(1_100_000), "recovered: {took}");
    }

    #[test]
    fn overlapping_degradations_take_the_worst_factor() {
        let (mut f, conn) = two_node_fabric(8.0);
        let sec = |s: u64| SimTime::from_millis(s * 1000);
        f.degrade_link(NodeId(0), LinkDir::Egress, 0.5, sec(0), sec(10));
        f.degrade_link(NodeId(0), LinkDir::Egress, 0.25, sec(0), sec(10));
        // 1 MB at 0.25 GB/s: ~4 ms.
        let svc = f.try_transfer(SimTime::ZERO, conn, 1_000_000).unwrap();
        assert!(
            svc.end >= SimTime::from_millis(4),
            "worst factor: {}",
            svc.end
        );
    }

    #[test]
    fn connections_balance_across_nics() {
        let mut b = FabricBuilder::new();
        let multi = b.add_node("multi", vec![NicSpec::cx5_100g(), NicSpec::cx5_25g()]);
        let peer1 = b.add_node("p1", vec![NicSpec::cx5_100g()]);
        let peer2 = b.add_node("p2", vec![NicSpec::cx5_100g()]);
        let mut f = b.build();
        let c1 = f.connect(multi, peer1);
        let c2 = f.connect(multi, peer2);
        // The two connections land on different NICs of `multi`.
        assert_ne!(f.connections[c1.0].from_nic, f.connections[c2.0].from_nic);
    }

    #[test]
    fn node_rate_sums_nics() {
        let mut b = FabricBuilder::new();
        let n = b.add_node("n", vec![NicSpec::cx5_100g(), NicSpec::cx5_25g()]);
        let f = b.build();
        assert_eq!(f.node_rate(n), ByteRate::from_gbps(115.0));
    }

    #[test]
    fn cross_rack_traffic_serializes_on_uplinks() {
        let mut b = FabricBuilder::new();
        // Two racks joined by a skinny 1 Gbps uplink; NICs are 8 Gbps.
        let uplink = NicSpec::with_goodput_gbps(1.0);
        let r0 = b.add_rack(uplink);
        let r1 = b.add_rack(uplink);
        let a = b.add_node_in_rack("a", vec![NicSpec::with_goodput_gbps(8.0)], r0);
        let z = b.add_node_in_rack("z", vec![NicSpec::with_goodput_gbps(8.0)], r1);
        let peer = b.add_node_in_rack("p", vec![NicSpec::with_goodput_gbps(8.0)], r1);
        let mut f = b.build();
        let cross = f.connect(a, z);
        let local = f.connect(peer, z);
        // 1 MB rack-local: only NIC speed (~1 ms), no uplink involved.
        let svc = f
            .try_transfer(SimTime::ZERO, local, 1_000_000)
            .expect("link up");
        assert!(
            svc.end < SimTime::from_millis(2),
            "local stays fast: {}",
            svc.end
        );
        // 1 MB cross-rack: gated by the 1 Gbps uplink (~8 ms), not the NICs.
        let svc = f
            .try_transfer(SimTime::ZERO, cross, 1_000_000)
            .expect("link up");
        assert!(
            svc.end >= SimTime::from_millis(8),
            "uplink-bound: {}",
            svc.end
        );
    }

    #[test]
    fn rackless_nodes_skip_uplinks() {
        let mut b = FabricBuilder::new();
        let _ = b.add_rack(NicSpec::with_goodput_gbps(0.1));
        let a = b.add_node("a", vec![NicSpec::with_goodput_gbps(8.0)]);
        let z = b.add_node("z", vec![NicSpec::with_goodput_gbps(8.0)]);
        let mut f = b.build();
        let c = f.connect(a, z);
        let svc = f
            .try_transfer(SimTime::ZERO, c, 1_000_000)
            .expect("link up");
        assert!(svc.end < SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "undeclared rack")]
    fn unknown_rack_rejected() {
        let mut b = FabricBuilder::new();
        b.add_node_in_rack("x", vec![NicSpec::cx5_100g()], 0);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut b = FabricBuilder::new();
        let n = b.add_node("n", vec![NicSpec::cx5_100g()]);
        b.build().connect(n, n);
    }
}
