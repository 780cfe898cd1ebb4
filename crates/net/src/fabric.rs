//! The fabric: nodes, their NICs, transfers.

use draid_sim::{ByteRate, RateResource, Service, SimTime};

/// Fixed per-message processing cost charged on the sending direction
/// (verbs posting, doorbell, DMA setup). The ConnectX-5 goodput already
/// absorbs steady-state per-packet costs; this models per-*verb* posting.
const PER_MESSAGE: SimTime = SimTime::from_nanos(500);

/// One-way propagation + switching delay of a NIC or a rack uplink.
const PROPAGATION: SimTime = SimTime::from_micros(2);

/// Identifies a node (server) in the fabric.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub usize);

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

/// Fault state of one NIC direction: hard-down intervals (outages, flap
/// windows; a link down for good is the window `[from, SimTime::MAX)`) and
/// degraded-rate windows (congestion, a flaky transceiver, a mis-negotiated
/// link speed).
#[derive(Debug, Default)]
struct LinkState {
    /// Scheduled outage windows `[from, until)`.
    down_windows: Vec<(SimTime, SimTime)>,
    /// Degraded-rate windows `[from, until, factor)`: the NIC serves at
    /// `rate * factor` while the window is active.
    degraded: Vec<(SimTime, SimTime, f64)>,
}

impl LinkState {
    #[inline]
    fn is_down(&self, now: SimTime) -> bool {
        self.down_windows
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

/// One direction of a node's NIC: its FIFO rate server at the NIC's
/// goodput, its fault state and its conservation ledger.
#[derive(Debug)]
struct Port {
    server: RateResource,
    link: LinkState,
    ledger: DirLedger,
}

impl Port {
    fn new(goodput: ByteRate) -> Self {
        Port {
            server: RateResource::new(goodput),
            link: LinkState::default(),
            ledger: DirLedger::default(),
        }
    }

    fn audit_conservation(&self, node: usize, dir: &str) {
        draid_sim::draid_invariant!(
            self.ledger.offered == self.server.bytes_served() + self.ledger.dropped,
            "node {} {} conservation: offered={} served={} dropped={}",
            node,
            dir,
            self.ledger.offered,
            self.server.bytes_served(),
            self.ledger.dropped
        );
    }

    fn reset_counters(&mut self, now: SimTime) {
        self.server.reset_counters(now);
        self.ledger = DirLedger {
            offered: self.server.bytes_served(),
            dropped: 0,
        };
    }
}

/// A node (the host or a storage server) with its one NIC.
#[derive(Debug)]
struct Node {
    rack: Option<usize>,
    egress: Port,
    ingress: Port,
}

impl Node {
    fn port(&self, dir: LinkDir) -> &Port {
        match dir {
            LinkDir::Egress => &self.egress,
            LinkDir::Ingress => &self.ingress,
        }
    }
}

/// A rack's pair of core links, each a FIFO rate server at the uplink's
/// capacity.
#[derive(Debug)]
struct Rack {
    up: RateResource,
    down: RateResource,
}

/// Builder for a [`Fabric`].
#[derive(Debug, Default)]
pub struct FabricBuilder {
    nodes: Vec<Node>,
    racks: Vec<Rack>,
}

impl FabricBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node whose NIC moves `goodput` per direction and returns its
    /// id.
    pub fn add_node(&mut self, goodput: ByteRate) -> NodeId {
        self.add_node_inner(goodput, None)
    }

    /// Declares a rack whose uplink to the core has the given capacity
    /// (model an `f:1` oversubscription of `n` nodes with `uplink = n·nic/f`).
    /// Returns the rack id for [`FabricBuilder::add_node_in_rack`].
    pub fn add_rack(&mut self, uplink: ByteRate) -> usize {
        self.racks.push(Rack {
            up: RateResource::new(uplink),
            down: RateResource::new(uplink),
        });
        self.racks.len() - 1
    }

    /// Adds a node behind a rack switch: transfers leaving or entering the
    /// rack additionally traverse the rack's uplink/downlink.
    ///
    /// # Panics
    ///
    /// Panics if `rack` was not declared.
    pub fn add_node_in_rack(&mut self, goodput: ByteRate, rack: usize) -> NodeId {
        assert!(rack < self.racks.len(), "undeclared rack {rack}");
        self.add_node_inner(goodput, Some(rack))
    }

    fn add_node_inner(&mut self, goodput: ByteRate, rack: Option<usize>) -> NodeId {
        self.nodes.push(Node {
            rack,
            egress: Port::new(goodput),
            ingress: Port::new(goodput),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Finalizes the fabric.
    pub fn build(self) -> Fabric {
        Fabric {
            nodes: self.nodes,
            racks: self.racks,
        }
    }
}

/// The simulated datacenter network. See the crate docs for the model.
#[derive(Debug)]
pub struct Fabric {
    nodes: Vec<Node>,
    racks: Vec<Rack>,
}

impl Fabric {
    /// Sends `bytes` from `from` to `to`. Returns the delivery window:
    /// `start` is when the first byte left the sender, `end` is when the last
    /// byte arrived at the receiver (the moment a completion event should
    /// fire).
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
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (loopback does not cross the fabric) or either
    /// id is out of range.
    #[inline]
    pub fn try_transfer(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<Service, LinkError> {
        assert_ne!(from, to, "loopback transfers are not modelled");
        // Conservation ledger: the sender's egress direction is offered the
        // payload the moment the verb is posted; a refused transfer drops the
        // whole payload on that ledger (nothing ever reaches a rate server).
        self.nodes[from.0].egress.ledger.offered += bytes;
        if self.nodes[from.0].egress.link.is_down(now) {
            self.nodes[from.0].egress.ledger.dropped += bytes;
            return Err(LinkError { node: from });
        }
        if self.nodes[to.0].ingress.link.is_down(now) {
            self.nodes[from.0].egress.ledger.dropped += bytes;
            return Err(LinkError { node: to });
        }
        let src = &mut self.nodes[from.0];
        let src_rack = src.rack;
        let out = &mut src.egress;
        let eg_rate = out.server.rate().scaled(out.link.rate_factor(now));
        let eg = out
            .server
            .serve_with_setup(now, bytes, PER_MESSAGE, eg_rate);
        let mut arrive = eg.start + PER_MESSAGE + PROPAGATION;
        // Cross-rack traffic serializes through the source rack's uplink and
        // the destination rack's downlink (the oversubscription model). The
        // stream pipelines through every stage, so completion is gated by
        // the slowest stage's finish, not their sum.
        let mut stage_end = eg.end;
        let dst_rack = self.nodes[to.0].rack;
        if src_rack != dst_rack {
            if let Some(r) = src_rack {
                let up = &mut self.racks[r].up;
                let svc = up.serve_after(now, arrive, bytes.max(1), up.rate());
                arrive = svc.start + PROPAGATION;
                stage_end = stage_end.max(svc.end);
            }
            if let Some(r) = dst_rack {
                let down = &mut self.racks[r].down;
                let svc = down.serve_after(now, arrive, bytes.max(1), down.rate());
                arrive = svc.start + PROPAGATION;
                stage_end = stage_end.max(svc.end);
            }
        }
        let dst = &mut self.nodes[to.0].ingress;
        let in_rate = dst.server.rate().scaled(dst.link.rate_factor(arrive));
        dst.ledger.offered += bytes.max(1);
        let ing = dst.server.serve_after(now, arrive, bytes.max(1), in_rate);
        Ok(Service {
            start: eg.start,
            end: ing.end.max(stage_end),
        })
    }

    /// Schedules an outage window `[from, until)` on a node's NIC, both
    /// directions: transfers touching it fail inside the window. A link
    /// flap is several windows; `until = SimTime::MAX` takes it down for
    /// good.
    pub fn schedule_link_down(&mut self, node: NodeId, from: SimTime, until: SimTime) {
        let n = &mut self.nodes[node.0];
        for port in [&mut n.egress, &mut n.ingress] {
            port.link.down_windows.push((from, until));
        }
    }

    /// Degrades one direction of a node's link to `factor` of nominal rate
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
        let n = &mut self.nodes[node.0];
        let port = match dir {
            LinkDir::Egress => &mut n.egress,
            LinkDir::Ingress => &mut n.ingress,
        };
        port.link.degraded.push((from, until, factor));
    }

    /// Total bytes a node has sent.
    pub fn bytes_sent(&self, node: NodeId) -> u64 {
        self.nodes[node.0].egress.server.bytes_served()
    }

    /// Total bytes a node has received.
    pub fn bytes_received(&self, node: NodeId) -> u64 {
        self.nodes[node.0].ingress.server.bytes_served()
    }

    /// A node's NIC goodput, per direction.
    pub fn node_rate(&self, node: NodeId) -> ByteRate {
        self.nodes[node.0].egress.server.rate()
    }

    /// Cumulative egress busy time of a node's NIC; sampling this over a
    /// window yields the utilization estimate the bandwidth-aware reducer
    /// selection feeds on (§6.2).
    pub fn egress_busy(&self, node: NodeId) -> SimTime {
        self.nodes[node.0].egress.server.busy_time()
    }

    /// Elapsed busy time of a node's NIC by `at`, per direction — clamped to
    /// the sample instant (service scheduled beyond `at` is excluded), so
    /// utilization derived from successive samples never exceeds 1.0. This is
    /// what the observability timeline samples; [`Fabric::egress_busy`] keeps
    /// reporting charged demand for the §6.2 reducer selection.
    pub fn busy_elapsed(&self, node: NodeId, dir: LinkDir, at: SimTime) -> SimTime {
        self.nodes[node.0].port(dir).server.busy_elapsed(at)
    }

    /// Bytes a node's link dropped by refusing transfers (fault injection),
    /// per direction. With `LinkDir::Egress` this counts refusals blamed on
    /// either endpoint: the payload never left the sender, so it lands on the
    /// sender's egress ledger.
    pub fn bytes_dropped(&self, node: NodeId, dir: LinkDir) -> u64 {
        self.nodes[node.0].port(dir).ledger.dropped
    }

    /// Bytes offered to a node's link (served + dropped), per direction.
    pub fn bytes_offered(&self, node: NodeId, dir: LinkDir) -> u64 {
        self.nodes[node.0].port(dir).ledger.offered
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
        for (i, node) in self.nodes.iter().enumerate() {
            node.egress.audit_conservation(i, "egress");
            node.ingress.audit_conservation(i, "ingress");
        }
    }

    /// Resets every NIC's and rack uplink's traffic counters at
    /// measurement-window start `now` (between warm-up and measurement). A
    /// transfer straddling the boundary keeps its in-window prorated share
    /// (see [`RateResource::reset_counters`]); the direction ledgers are
    /// re-seeded from the post-reset served bytes so `offered == served +
    /// dropped` keeps holding across the boundary.
    pub fn reset_counters(&mut self, now: SimTime) {
        for node in &mut self.nodes {
            node.egress.reset_counters(now);
            node.ingress.reset_counters(now);
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

    fn gbps(rate: f64) -> ByteRate {
        ByteRate::from_gbps(rate)
    }

    fn two_node_fabric(rate_gbps: f64) -> (Fabric, NodeId, NodeId) {
        let mut b = FabricBuilder::new();
        let a = b.add_node(gbps(rate_gbps));
        let z = b.add_node(gbps(rate_gbps));
        (b.build(), a, z)
    }

    #[test]
    fn uncontended_transfer_latency() {
        let (mut f, a, z) = two_node_fabric(8.0); // 1 GB/s
        let svc = f
            .try_transfer(SimTime::ZERO, a, z, 1_000_000)
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
        let (mut f, a, z) = two_node_fabric(100.0);
        f.try_transfer(SimTime::ZERO, a, z, 1_000_000)
            .expect("link up");
        let last = f
            .try_transfer(SimTime::ZERO, a, z, 1_000_000)
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
        assert_eq!(
            total,
            f.nodes[1].ingress.server.busy_time(),
            "all of it by the end"
        );
    }

    #[test]
    fn egress_is_the_shared_bottleneck() {
        let mut b = FabricBuilder::new();
        let host = b.add_node(gbps(8.0));
        let t1 = b.add_node(gbps(8.0));
        let t2 = b.add_node(gbps(8.0));
        let mut f = b.build();
        let s1 = f
            .try_transfer(SimTime::ZERO, host, t1, 1_000_000)
            .expect("link up");
        let s2 = f
            .try_transfer(SimTime::ZERO, host, t2, 1_000_000)
            .expect("link up");
        // Second transfer queues behind the first on the host egress.
        assert!(s2.start >= s1.start + SimTime::from_millis(1));
        assert!(s2.end >= SimTime::from_millis(2));
    }

    #[test]
    fn ingress_contention_gates_completion() {
        let mut b = FabricBuilder::new();
        let t1 = b.add_node(gbps(8.0));
        let t2 = b.add_node(gbps(8.0));
        let sink = b.add_node(gbps(8.0));
        let mut f = b.build();
        let s1 = f
            .try_transfer(SimTime::ZERO, t1, sink, 1_000_000)
            .expect("link up");
        let s2 = f
            .try_transfer(SimTime::ZERO, t2, sink, 1_000_000)
            .expect("link up");
        // Both leave their senders immediately but serialize into the sink.
        assert_eq!(s1.start, SimTime::ZERO);
        assert_eq!(s2.start, SimTime::ZERO);
        assert!(s2.end.saturating_sub(s1.end) >= SimTime::from_millis(1));
    }

    #[test]
    fn slow_receiver_gates_fast_sender() {
        let mut b = FabricBuilder::new();
        let fast = b.add_node(gbps(80.0));
        let slow = b.add_node(gbps(8.0));
        let mut f = b.build();
        let svc = f
            .try_transfer(SimTime::ZERO, fast, slow, 1_000_000)
            .expect("link up");
        // Dominated by the 1 GB/s receiving side.
        assert!(svc.end >= SimTime::from_millis(1));
        assert!(svc.end < SimTime::from_nanos(1_100_000));
    }

    #[test]
    fn traffic_accounting() {
        let (mut f, a, z) = two_node_fabric(92.0);
        f.try_transfer(SimTime::ZERO, a, z, 4096).expect("link up");
        f.try_transfer(SimTime::ZERO, a, z, 4096).expect("link up");
        assert_eq!(f.bytes_sent(NodeId(0)), 8192);
        assert_eq!(f.bytes_received(NodeId(1)), 8192);
        assert_eq!(f.bytes_sent(NodeId(1)), 0);
        f.reset_counters(SimTime::from_millis(1_000));
        assert_eq!(f.bytes_sent(NodeId(0)), 0);
    }

    #[test]
    fn link_down_for_good_refuses_traffic() {
        let (mut f, a, z) = two_node_fabric(8.0);
        f.schedule_link_down(NodeId(0), SimTime::ZERO, SimTime::MAX);
        let err = f.try_transfer(SimTime::ZERO, a, z, 4096).unwrap_err();
        assert_eq!(err.node, NodeId(0), "blames the dead sender");
        let err = f.try_transfer(SimTime::ZERO, z, a, 4096).unwrap_err();
        assert_eq!(err.node, NodeId(0), "both directions are down");
        // A dead receiver is blamed too.
        let (mut f, a, z) = two_node_fabric(8.0);
        f.schedule_link_down(NodeId(1), SimTime::ZERO, SimTime::MAX);
        let err = f.try_transfer(SimTime::ZERO, a, z, 4096).unwrap_err();
        assert_eq!(err.node, NodeId(1));
        // Down for good: still refused arbitrarily late.
        let err = f.try_transfer(SimTime::from_millis(3_600_000), a, z, 1);
        assert_eq!(err.unwrap_err().node, NodeId(1));
    }

    #[test]
    fn conservation_ledger_balances_under_faults() {
        let (mut f, a, z) = two_node_fabric(8.0);
        let ms = SimTime::from_millis;
        f.try_transfer(SimTime::ZERO, a, z, 4096).expect("link up");
        f.schedule_link_down(NodeId(1), SimTime::ZERO, ms(1));
        assert!(f.try_transfer(SimTime::ZERO, a, z, 1000).is_err());
        f.schedule_link_down(NodeId(0), ms(1), ms(2));
        assert!(f.try_transfer(ms(1), a, z, 500).is_err());
        f.try_transfer(ms(2), a, z, 100).expect("link up");
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
        f.try_transfer(SimTime::from_millis(2_000), a, z, 1_000_000)
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
        let (mut f, a, z) = two_node_fabric(8.0);
        let ms = SimTime::from_millis;
        // Three flaps, down 1 ms and up 2 ms from 1 ms: [1,2), [4,5), [7,8).
        for from in [1, 4, 7] {
            f.schedule_link_down(NodeId(0), ms(from), ms(from + 1));
        }
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
            assert_eq!(f.try_transfer(ms(t), a, z, 1).is_err(), down, "at {t} ms");
        }
    }

    #[test]
    fn degraded_window_halves_throughput_then_recovers() {
        let (mut f, a, z) = two_node_fabric(8.0); // 1 GB/s
        f.degrade_link(
            NodeId(0),
            LinkDir::Egress,
            0.5,
            SimTime::ZERO,
            SimTime::from_millis(1_000),
        );
        // 1 MB at the degraded 0.5 GB/s: ~2 ms instead of ~1 ms.
        let svc = f.try_transfer(SimTime::ZERO, a, z, 1_000_000).unwrap();
        assert!(svc.end >= SimTime::from_millis(2), "degraded: {}", svc.end);
        // Past the window the link is back to full rate.
        let svc = f
            .try_transfer(SimTime::from_millis(2_000), a, z, 1_000_000)
            .unwrap();
        let took = svc.end.saturating_sub(svc.start);
        assert!(took < SimTime::from_nanos(1_100_000), "recovered: {took}");
    }

    #[test]
    fn overlapping_degradations_take_the_worst_factor() {
        let (mut f, a, z) = two_node_fabric(8.0);
        let sec = |s: u64| SimTime::from_millis(s * 1000);
        f.degrade_link(NodeId(0), LinkDir::Egress, 0.5, sec(0), sec(10));
        f.degrade_link(NodeId(0), LinkDir::Egress, 0.25, sec(0), sec(10));
        // 1 MB at 0.25 GB/s: ~4 ms.
        let svc = f.try_transfer(SimTime::ZERO, a, z, 1_000_000).unwrap();
        assert!(
            svc.end >= SimTime::from_millis(4),
            "worst factor: {}",
            svc.end
        );
    }

    #[test]
    fn cross_rack_traffic_serializes_on_uplinks() {
        let mut b = FabricBuilder::new();
        // Two racks joined by a skinny 1 Gbps uplink; NICs are 8 Gbps.
        let uplink = gbps(1.0);
        let r0 = b.add_rack(uplink);
        let r1 = b.add_rack(uplink);
        let a = b.add_node_in_rack(gbps(8.0), r0);
        let z = b.add_node_in_rack(gbps(8.0), r1);
        let peer = b.add_node_in_rack(gbps(8.0), r1);
        let mut f = b.build();
        // 1 MB rack-local: only NIC speed (~1 ms), no uplink involved.
        let svc = f
            .try_transfer(SimTime::ZERO, peer, z, 1_000_000)
            .expect("link up");
        assert!(
            svc.end < SimTime::from_millis(2),
            "local stays fast: {}",
            svc.end
        );
        // 1 MB cross-rack: gated by the 1 Gbps uplink (~8 ms), not the NICs.
        let svc = f
            .try_transfer(SimTime::ZERO, a, z, 1_000_000)
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
        let _ = b.add_rack(gbps(0.1));
        let a = b.add_node(gbps(8.0));
        let z = b.add_node(gbps(8.0));
        let mut f = b.build();
        let svc = f
            .try_transfer(SimTime::ZERO, a, z, 1_000_000)
            .expect("link up");
        assert!(svc.end < SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "undeclared rack")]
    fn unknown_rack_rejected() {
        let mut b = FabricBuilder::new();
        b.add_node_in_rack(gbps(92.0), 0);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut b = FabricBuilder::new();
        let n = b.add_node(gbps(92.0));
        let _ = b.build().try_transfer(SimTime::ZERO, n, n, 4096);
    }
}
