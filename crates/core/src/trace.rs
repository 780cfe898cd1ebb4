//! Step-level tracing: optional capture of every executed DAG step with its
//! service window, for debugging the simulation and for latency-breakdown
//! analysis (where does an operation's time go: network, drive, or CPU?).

use std::ops::Range;

use draid_sim::SimTime;

use crate::builders::Purpose;
use crate::dag::{Dag, StepKind};
use crate::layout::StripeIo;

/// Resource category of a step, for breakdown aggregation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepClass {
    /// Fabric transfers.
    Network,
    /// Drive reads/writes.
    Drive,
    /// Core work (parity math, per-I/O costs, lock handling).
    Cpu,
    /// Delays and joins.
    Control,
}

impl StepClass {
    /// Classifies a DAG step.
    pub fn of(kind: &StepKind) -> StepClass {
        match kind {
            StepKind::Transfer { .. } => StepClass::Network,
            StepKind::DriveRead { .. } | StepKind::DriveWrite { .. } => StepClass::Drive,
            StepKind::Xor { .. }
            | StepKind::GfMul { .. }
            | StepKind::PerIo { .. }
            | StepKind::CoreBusy { .. } => StepClass::Cpu,
            StepKind::Delay { .. } | StepKind::Join => StepClass::Control,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            StepClass::Network => "network",
            StepClass::Drive => "drive",
            StepClass::Cpu => "cpu",
            StepClass::Control => "control",
        }
    }
}

/// One executed step.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// User I/O the step served (0 for background work like rebuild).
    pub user: u64,
    /// Op slot index (unique only while the op is live; combine with `user`).
    pub op: usize,
    /// Step index within the op's DAG.
    pub step: usize,
    /// What the step did.
    pub kind: StepKind,
    /// When the step was issued.
    pub issued: SimTime,
    /// When the step's resource actually started serving it (the start of
    /// the [`draid_sim::Service`] window; equals `issued` for steps with no
    /// contended resource). `issued..started` is queueing, `started..
    /// completed` is service.
    pub started: SimTime,
    /// When the step completed.
    pub completed: SimTime,
}

impl TraceEvent {
    /// Issue-to-completion span (queueing + service).
    pub fn span(&self) -> SimTime {
        self.completed.saturating_sub(self.issued)
    }

    /// Time spent waiting for the resource (issue to service start).
    pub fn queue(&self) -> SimTime {
        self.started.saturating_sub(self.issued)
    }

    /// Time spent being served (service start to completion).
    pub fn service(&self) -> SimTime {
        self.completed.saturating_sub(self.started)
    }
}

/// Per-class aggregate of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassBreakdown {
    /// Number of steps.
    pub steps: u64,
    /// Total issue-to-completion time (overlapping steps both count —
    /// this measures demand, not wall time). Always `queue + service`.
    pub total_span: SimTime,
    /// Portion of `total_span` spent waiting for the resource.
    pub queue: SimTime,
    /// Portion of `total_span` spent being served.
    pub service: SimTime,
    /// Total bytes moved/processed.
    pub bytes: u64,
}

/// One op launch whose DAG the tracer kept.
#[derive(Clone, Debug)]
pub struct TracedOp {
    /// User I/O the op served (0 for background work like rebuild).
    pub user: u64,
    /// Op slot index, as in [`TraceEvent::op`].
    pub op: usize,
    /// What the op was for.
    pub purpose: Purpose,
    /// The reducer the DAG was built with (§6), if it has one.
    pub reducer: Option<usize>,
    /// The stripe portion the op covered.
    pub io: StripeIo,
    /// The DAG the executor launched.
    pub dag: Dag,
    /// The trace events between this launch and the op's last recorded
    /// step; the op's own are those whose slot is `op`.
    events: Range<usize>,
}

/// A bounded in-memory step trace.
///
/// Capture is off by default; enable with [`crate::ArraySim::enable_tracing`].
/// When the bound is reached, further events are dropped and counted. The
/// tracer also keeps the DAG of every op launched while it runs, up to
/// `capacity` DAG steps in total, so [`Tracer::critical_path`] can attribute
/// an op's latency from the trace alone.
#[derive(Clone, Debug)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    ops: Vec<TracedOp>,
    /// DAG steps kept in `ops` (bounded by `capacity`).
    op_steps: usize,
    /// Index into `ops` of each op slot's current launch (`None` when the
    /// launch's DAG did not fit).
    live: Vec<Option<usize>>,
}

impl Tracer {
    /// Creates a tracer bounded to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer needs capacity");
        Tracer {
            events: Vec::new(),
            capacity,
            dropped: 0,
            ops: Vec::new(),
            op_steps: 0,
            live: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
            if let Some(&Some(i)) = self.live.get(ev.op) {
                self.ops[i].events.end = self.events.len();
            }
        } else {
            self.dropped += 1;
        }
    }

    /// Notes that op slot `op` launched `dag`, built for `purpose` over `io`
    /// with `reducer`, on behalf of `user`. The DAG is kept while the kept
    /// DAGs total at most `capacity` steps.
    pub(crate) fn record_launch(
        &mut self,
        (user, op): (u64, usize),
        purpose: Purpose,
        reducer: Option<usize>,
        io: &StripeIo,
        dag: &Dag,
    ) {
        if self.live.len() <= op {
            self.live.resize(op + 1, None);
        }
        self.live[op] = (self.op_steps + dag.len() <= self.capacity).then(|| {
            self.op_steps += dag.len();
            let at = self.events.len();
            self.ops.push(TracedOp {
                user,
                op,
                purpose,
                reducer,
                io: io.clone(),
                dag: dag.clone(),
                events: at..at,
            });
            self.ops.len() - 1
        });
    }

    /// The op launches whose DAGs were kept, in launch order.
    pub fn ops(&self) -> &[TracedOp] {
        &self.ops
    }

    /// The critical path of one launch from [`Tracer::ops`], from its DAG
    /// and its recorded events; `None` if the op did not run every step (it
    /// failed, or the trace filled up).
    pub fn critical_path(&self, op: &TracedOp) -> Option<PathBreakdown> {
        let events: Vec<TraceEvent> = self
            .events
            .get(op.events.clone())?
            .iter()
            .filter(|e| e.op == op.op)
            .copied()
            .collect();
        critical_path(&op.dag, &events)
    }

    /// Captured events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Aggregates demand per resource class.
    pub fn breakdown(&self) -> Vec<(StepClass, ClassBreakdown)> {
        let classes = [
            StepClass::Network,
            StepClass::Drive,
            StepClass::Cpu,
            StepClass::Control,
        ];
        classes
            .into_iter()
            .map(|class| {
                let mut agg = ClassBreakdown::default();
                for e in self
                    .events
                    .iter()
                    .filter(|e| StepClass::of(&e.kind) == class)
                {
                    agg.steps += 1;
                    agg.total_span += e.span();
                    agg.queue += e.queue();
                    agg.service += e.service();
                    agg.bytes += step_bytes(&e.kind);
                }
                (class, agg)
            })
            .collect()
    }
}

/// Latency attribution along one operation's critical path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathBreakdown {
    /// End-to-end span of the critical path. Always `queue + service`.
    pub total: SimTime,
    /// Portion of `total` spent waiting in resource queues.
    pub queue: SimTime,
    /// Portion of `total` spent being served.
    pub service: SimTime,
    /// Time attributed to each resource class along the path
    /// (queueing + service per step).
    pub per_class: Vec<(StepClass, SimTime)>,
    /// Queueing time attributed to each resource class along the path.
    pub per_class_queue: Vec<(StepClass, SimTime)>,
}

impl PathBreakdown {
    /// Time attributed to one class (queueing + service).
    pub fn class(&self, class: StepClass) -> SimTime {
        self.per_class
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, t)| *t)
            .unwrap_or(SimTime::ZERO)
    }
}

/// Computes the critical path of a completed operation from its DAG and its
/// trace events, attributing each segment's span (queueing + service) to the
/// step's resource class.
///
/// The executor issues a step the instant its last dependency completes, so
/// the path follows, from the last-finishing step backwards, the dependency
/// whose completion gated each issue. Returns `None` if `events` does not
/// cover every DAG step (op incomplete or trace truncated).
///
/// Answers "where does this op's latency actually go" — e.g. how much of a
/// partial-stripe write sits in drive queues vs. the fabric vs. parity math.
fn critical_path(dag: &Dag, events: &[TraceEvent]) -> Option<PathBreakdown> {
    let n = dag.len();
    let mut times = vec![None; n];
    for e in events {
        if e.step < n {
            times[e.step] = Some((e.issued, e.started, e.completed));
        }
    }
    if times.iter().any(Option::is_none) {
        return None;
    }
    let times: Vec<(SimTime, SimTime, SimTime)> =
        times.into_iter().map(|t| t.expect("checked")).collect();
    let completed = |i: usize| times[i].2;

    // Start from the op's last finisher and walk gating dependencies back.
    let mut cur = (0..n).max_by_key(|&i| completed(i))?;
    let last = cur;
    let zero_classes = || {
        vec![
            (StepClass::Network, SimTime::ZERO),
            (StepClass::Drive, SimTime::ZERO),
            (StepClass::Cpu, SimTime::ZERO),
            (StepClass::Control, SimTime::ZERO),
        ]
    };
    let mut per_class = zero_classes();
    let mut per_class_queue = zero_classes();
    let mut queue = SimTime::ZERO;
    let mut service = SimTime::ZERO;
    let start_of_path;
    loop {
        let (issued, started, done) = times[cur];
        let step_queue = started.saturating_sub(issued);
        let step_service = done.saturating_sub(started);
        queue += step_queue;
        service += step_service;
        let class = StepClass::of(&dag.step(cur).kind);
        for (c, t) in &mut per_class {
            if *c == class {
                *t += step_queue + step_service;
            }
        }
        for (c, t) in &mut per_class_queue {
            if *c == class {
                *t += step_queue;
            }
        }
        let deps = dag.step(cur).deps;
        if deps.is_empty() {
            start_of_path = issued;
            break;
        }
        // The gating dependency: the one finishing last (== this issue time;
        // on ties, the last listed).
        cur = deps
            .iter()
            .map(|&d| d as usize)
            .max_by_key(|&d| completed(d))
            .expect("non-empty deps");
    }
    let total = completed(last).saturating_sub(start_of_path);
    Some(PathBreakdown {
        total,
        queue,
        service,
        per_class,
        per_class_queue,
    })
}

fn step_bytes(kind: &StepKind) -> u64 {
    match *kind {
        StepKind::Transfer { bytes, .. }
        | StepKind::DriveRead { bytes, .. }
        | StepKind::DriveWrite { bytes, .. }
        | StepKind::Xor { bytes, .. }
        | StepKind::GfMul { bytes, .. } => bytes,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draid_net::NodeId;

    fn ev(kind: StepKind, us0: u64, us1: u64) -> TraceEvent {
        TraceEvent {
            user: 1,
            op: 0,
            step: 0,
            kind,
            issued: SimTime::from_micros(us0),
            // Halfway point: splits each span evenly into queue and service.
            started: SimTime::from_micros(us0 + (us1 - us0) / 2),
            completed: SimTime::from_micros(us1),
        }
    }

    #[test]
    fn classification() {
        assert_eq!(
            StepClass::of(&StepKind::Transfer {
                from: NodeId(0),
                to: NodeId(1),
                bytes: 1
            }),
            StepClass::Network
        );
        assert_eq!(
            StepClass::of(&StepKind::DriveRead {
                server: draid_block::ServerId(0),
                bytes: 1
            }),
            StepClass::Drive
        );
        assert_eq!(
            StepClass::of(&StepKind::PerIo { node: NodeId(0) }),
            StepClass::Cpu
        );
        assert_eq!(StepClass::of(&StepKind::Join), StepClass::Control);
    }

    #[test]
    fn breakdown_aggregates_by_class() {
        let mut t = Tracer::new(16);
        t.record(ev(
            StepKind::Transfer {
                from: NodeId(0),
                to: NodeId(1),
                bytes: 100,
            },
            0,
            10,
        ));
        t.record(ev(
            StepKind::Transfer {
                from: NodeId(1),
                to: NodeId(0),
                bytes: 50,
            },
            5,
            9,
        ));
        t.record(ev(
            StepKind::DriveWrite {
                server: draid_block::ServerId(2),
                bytes: 100,
            },
            0,
            30,
        ));
        let bd = t.breakdown();
        let net = bd
            .iter()
            .find(|(c, _)| *c == StepClass::Network)
            .expect("net")
            .1;
        assert_eq!(net.steps, 2);
        assert_eq!(net.bytes, 150);
        assert_eq!(net.total_span, SimTime::from_micros(14));
        assert_eq!(net.queue, SimTime::from_micros(7));
        assert_eq!(net.service, SimTime::from_micros(7));
        assert_eq!(net.queue + net.service, net.total_span);
        let drive = bd
            .iter()
            .find(|(c, _)| *c == StepClass::Drive)
            .expect("drv")
            .1;
        assert_eq!(drive.steps, 1);
    }

    #[test]
    fn capacity_bound_drops() {
        let mut t = Tracer::new(1);
        t.record(ev(StepKind::Join, 0, 0));
        t.record(ev(StepKind::Join, 1, 1));
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.dropped(), 1);
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;
    use crate::dag::{Dag, StepKind};
    use draid_net::NodeId;

    fn transfer() -> StepKind {
        StepKind::Transfer {
            from: NodeId(0),
            to: NodeId(1),
            bytes: 100,
        }
    }

    fn dread() -> StepKind {
        StepKind::DriveRead {
            server: draid_block::ServerId(0),
            bytes: 100,
        }
    }

    fn event(step: usize, issued_us: u64, completed_us: u64, kind: StepKind) -> TraceEvent {
        TraceEvent {
            user: 1,
            op: 0,
            step,
            kind,
            issued: SimTime::from_micros(issued_us),
            started: SimTime::from_micros(issued_us),
            completed: SimTime::from_micros(completed_us),
        }
    }

    #[test]
    fn critical_path_follows_gating_dependency() {
        // root(transfer 0..10) -> {a: dread 10..40, b: transfer 10..15} -> join
        let mut dag = Dag::new();
        let root = dag.add(transfer(), &[]);
        let a = dag.add(dread(), &[root]);
        let b = dag.add(transfer(), &[root]);
        let join = dag.add(StepKind::Join, &[a, b]);
        let events = vec![
            event(root, 0, 10, transfer()),
            event(a, 10, 40, dread()),
            event(b, 10, 15, transfer()),
            event(join, 40, 40, StepKind::Join),
        ];
        let path = critical_path(&dag, &events).expect("complete");
        assert_eq!(path.total, SimTime::from_micros(40));
        // Path = root (network 10) -> a (drive 30) -> join (0); b is off-path.
        assert_eq!(path.class(StepClass::Network), SimTime::from_micros(10));
        assert_eq!(path.class(StepClass::Drive), SimTime::from_micros(30));
        assert_eq!(path.class(StepClass::Control), SimTime::ZERO);
        // Contiguous gating path: queue + service == end-to-end latency.
        assert_eq!(path.queue + path.service, path.total);
        assert_eq!(
            path.service,
            SimTime::from_micros(40),
            "started == issued here"
        );
    }

    #[test]
    fn incomplete_trace_returns_none() {
        let mut dag = Dag::new();
        let root = dag.add(transfer(), &[]);
        dag.add(dread(), &[root]);
        let events = vec![event(root, 0, 10, transfer())];
        assert!(critical_path(&dag, &events).is_none());
    }

    #[test]
    fn kept_dags_fit_capacity_and_end_at_slot_reuse() {
        let mut dag = Dag::new();
        let root = dag.add(transfer(), &[]);
        dag.add(dread(), &[root]);
        let mut t = Tracer::new(3);
        t.record_launch((1, 0), Purpose::Scrub, None, &StripeIo::default(), &dag);
        t.record(event(0, 0, 10, transfer()));
        t.record(event(1, 10, 40, dread()));
        // Slot 0 relaunches with a DAG that no longer fits: it is not kept,
        // and its step 0 must not be read as the first launch's.
        t.record_launch((1, 0), Purpose::Scrub, None, &StripeIo::default(), &dag);
        t.record(event(0, 40, 45, transfer()));
        let [op] = t.ops() else {
            panic!("only the first DAG fits: {:?}", t.ops());
        };
        let path = t.critical_path(op).expect("complete");
        assert_eq!(path.total, SimTime::from_micros(40));
    }

    #[test]
    fn end_to_end_attribution_sums_to_op_latency() {
        use crate::{ArrayConfig, ArraySim, SystemKind, UserIo};
        use draid_block::Cluster;
        use draid_sim::Engine;

        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        let mut array = ArraySim::new(Cluster::homogeneous(8), cfg).expect("valid");
        array.enable_tracing(100_000);
        let mut eng = Engine::new();
        array.submit(&mut eng, UserIo::write(0, 128 * 1024));
        eng.run(&mut array);
        let res = array.drain_completions().pop().expect("done");
        assert!(res.is_ok());

        // The tracer kept the DAG the executor launched.
        let trace = array.take_trace().expect("tracing on");
        let [op] = trace.ops() else {
            panic!("one stripe op launched: {:?}", trace.ops());
        };
        assert_eq!(op.user, 1);
        let path = trace.critical_path(op).expect("complete op");
        assert_eq!(
            path.total,
            res.latency(),
            "critical path spans the op's latency"
        );
        // A partial-stripe write touches drives and the network on its path.
        assert!(path.class(StepClass::Drive) > SimTime::ZERO);
        assert!(path.class(StepClass::Network) > SimTime::ZERO);
    }
}
