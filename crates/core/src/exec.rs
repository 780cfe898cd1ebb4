//! The DAG executor: runs stripe-operation DAGs on the cluster's resources,
//! with per-op deadlines, failure propagation, and full-stripe retry (§5.4).
//!
//! Each stripe-op shape is compiled once. Ops of one kind follow a fixed
//! command pattern (§4–§5): a 128 KiB read-modify-write on one data member
//! under one parity rotation always sends the same messages. So the
//! executor keeps a [`Template`] per shape in the array's [`ShapeCache`]:
//! the built [`Dag`], its dependents in CSR form and each step's initial
//! dependency count. A launch looks its shape up and copies the counts
//! into the op's [`Steps`]; only a miss calls the builders.
//!
//! The cache key ([`ShapeKey`]) is everything a builder can see, normalized:
//! the purpose, `stripe % width`, the reducer, the parity extent and each
//! segment's member and length. Offsets within the chunk are normalized
//! away, since the builders read them only through the extent and
//! `Segment::covers_chunk`; keyed on raw offsets, a 4 KiB random workload
//! would compile a shape per position. The array-level inputs (`faulty`,
//! member nodes and servers) are not in the key: they change only through
//! `ArraySim::change_member` (a member fails; a rebuild swaps in its
//! spare), which clears the cache. Under `invariants_enabled()` every 64th
//! cached launch is checked against a fresh build.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use draid_block::ServerId;
use draid_sim::{Engine, SimTime, TimerHandle};

use crate::array::ArraySim;
use crate::builders::{self, BuildCtx, Purpose};
use crate::dag::{Dag, StepKind};
use crate::idhash::IdHasher;
use crate::io::{IoError, IoKind};
use crate::layout::{Segment, StripeIo, WriteMode};
use crate::rebuild::lost_members;

/// What a stripe operation is for: user I/O or one of the array's own
/// background jobs. `launch_op` maps it to a builder [`Purpose`], and
/// `finish_op` dispatches on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// A user read.
    Read,
    /// A user write.
    Write,
    /// A parity resync (§5.4 crash recovery, scrub repair): a
    /// reconstruct-write with no new data.
    Resync,
    /// One stripe of the hot-spare rebuild of `member` onto `spare`.
    Rebuild { member: usize, spare: ServerId },
    /// One stripe of a scrub pass.
    Scrub,
}

impl From<IoKind> for OpKind {
    fn from(kind: IoKind) -> Self {
        match kind {
            IoKind::Read => OpKind::Read,
            IoKind::Write => OpKind::Write,
        }
    }
}

/// Why a stripe operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpFailure {
    /// A member drive refused the I/O (transient or permanent).
    MemberError(usize),
    /// The explicit per-op deadline expired.
    Timeout,
}

/// One in-flight stripe operation.
pub(crate) struct OpState {
    /// Generation tag: events carry `(idx, gen)` and are ignored if the slot
    /// was recycled.
    pub gen: u64,
    pub user: u64,
    pub io: StripeIo,
    pub kind: OpKind,
    /// Decided at launch; `None` until then.
    pub purpose: Option<Purpose>,
    /// Empty until launch, which fills it from `ArraySim::step_pool`;
    /// `finish_op` returns it there.
    steps: Steps,
    remaining: usize,
    pub holds_lock: bool,
    pub retries: u32,
    /// The armed §5.4 deadline timer; canceled when the op finishes, so it
    /// never runs (its entry waits until its due time, normally in the
    /// engine's timer lane, apart from the step completions).
    pub deadline_timer: Option<TimerHandle>,
    /// The pending retry-backoff timer that will (re)launch this op. Held so
    /// a host crash can cancel the launch outright instead of relying on the
    /// fired closure to notice the slot was recycled.
    pub launch_timer: Option<TimerHandle>,
}

impl OpState {
    pub fn new(gen: u64, user: u64, io: StripeIo, kind: OpKind) -> Self {
        OpState {
            gen,
            user,
            io,
            kind,
            purpose: None,
            steps: Steps::default(),
            remaining: 0,
            holds_lock: false,
            retries: 0,
            deadline_timer: None,
            launch_timer: None,
        }
    }
}

/// One compiled op shape: the DAG the builders produce for a [`ShapeKey`],
/// each step's dependents in CSR form and each step's dependency count.
/// Every op of the shape shares it; an op copies only the counts.
#[derive(Debug)]
pub(crate) struct Template {
    pub dag: Dag,
    /// Dependents of step `i` are `dependents[dependents_start[i]..
    /// dependents_start[i + 1]]`, in increasing step order.
    dependents_start: Vec<u32>,
    dependents: Vec<u32>,
    /// Each step's number of dependencies: an op's initial `unmet`.
    unmet: Vec<u32>,
}

impl Template {
    /// Derives the execution tables of `dag`.
    fn new(dag: Dag) -> Self {
        let (dep_end, deps) = dag.csr();
        let n = dep_end.len();
        let mut unmet = vec![0; n];
        let mut dependents_start = vec![0u32; n + 1];
        for &d in deps {
            dependents_start[d as usize] += 1;
        }
        // Prefix sums turn each count into the end of that step's range...
        let mut total = 0;
        for end in &mut dependents_start {
            total += *end;
            *end = total;
        }
        let mut dependents = vec![0; total as usize];
        // ...and filling back to front moves each end down to its range's
        // start, leaving every step's dependents in increasing order. Step
        // `id`'s own dependencies are `deps[lo..end]`, so their count is
        // its `unmet`.
        let mut end = deps.len();
        for id in (0..n).rev() {
            let lo = id.checked_sub(1).map_or(0, |prev| dep_end[prev] as usize);
            unmet[id] = (end - lo) as u32;
            for &d in deps[lo..end].iter().rev() {
                let start = &mut dependents_start[d as usize];
                *start -= 1;
                dependents[*start as usize] = id as u32;
            }
            end = lo;
        }
        Template {
            dag,
            dependents_start,
            dependents,
            unmet,
        }
    }

    fn dependents(&self, sid: usize) -> std::ops::Range<usize> {
        self.dependents_start[sid] as usize..self.dependents_start[sid + 1] as usize
    }
}

/// Everything a builder reads about one op, normalized (see the module
/// doc): the builders see the stripe only through `Layout`'s member
/// functions, so `rotation` is `stripe % width`, and a segment only through
/// its member, its length and the parity extent.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ShapeKey {
    purpose: Purpose,
    rotation: u64,
    reducer: Option<usize>,
    extent: u64,
    segments: Vec<(usize, u64)>,
}

impl ShapeKey {
    /// Replaces the key with the one of `(ctx, purpose, io)`, keeping the
    /// segment list's capacity.
    fn fill(&mut self, ctx: &BuildCtx, purpose: Purpose, io: &StripeIo) {
        self.purpose = purpose;
        self.rotation = io.stripe % ctx.layout.width() as u64;
        self.reducer = ctx.reducer;
        self.extent = io.extent();
        self.segments.clear();
        self.segments
            .extend(io.segments.iter().map(|s| (s.member, s.len)));
    }
}

/// The array's compiled op shapes, one [`Template`] per [`ShapeKey`]. A
/// miss builds through [`builders::build`], the one builder path.
#[derive(Debug)]
pub(crate) struct ShapeCache {
    templates: HashMap<ShapeKey, Rc<Template>, BuildHasherDefault<IdHasher>>,
    /// The key of the op being launched, refilled in place so a hit
    /// allocates nothing.
    probe: ShapeKey,
    /// Launches served from the cache, for the sampled template audit.
    hits: u64,
}

impl Default for ShapeCache {
    fn default() -> Self {
        ShapeCache {
            templates: HashMap::default(),
            probe: ShapeKey {
                purpose: Purpose::Scrub,
                rotation: 0,
                reducer: None,
                extent: 0,
                segments: Vec::new(),
            },
            hits: 0,
        }
    }
}

impl ShapeCache {
    /// The template of `(ctx, purpose, io)`, compiled on first use.
    fn get(&mut self, ctx: &BuildCtx, purpose: Purpose, io: &StripeIo) -> Rc<Template> {
        self.probe.fill(ctx, purpose, io);
        if let Some(template) = self.templates.get(&self.probe) {
            // Sampled audit: every 64th cached launch must equal a fresh
            // build, which catches a key that drops a builder input or a
            // missed invalidation. No-op unless invariants are on.
            self.hits += 1;
            if draid_sim::invariants_enabled() && self.hits.is_multiple_of(64) {
                draid_sim::draid_invariant!(
                    template.dag == builders::build(ctx, purpose, io),
                    "cached template differs from a fresh build: {purpose:?} on stripe {}",
                    io.stripe
                );
            }
            return Rc::clone(template);
        }
        let template = Rc::new(Template::new(builders::build(ctx, purpose, io)));
        self.templates
            .insert(self.probe.clone(), Rc::clone(&template));
        template
    }

    /// Drops every template: the array-level builder inputs changed.
    pub(crate) fn clear(&mut self) {
        self.templates.clear();
    }
}

/// An op's execution state: its shape's template and one counter per step.
/// Recycled across ops through `ArraySim::step_pool`, so a steady-state
/// launch reuses the counter buffer of an op that already finished.
#[derive(Debug, Default)]
pub(crate) struct Steps {
    /// `None` until launch.
    template: Option<Rc<Template>>,
    /// Dependencies of each step that have not completed yet; [`DONE`]
    /// once the step itself completed.
    unmet: Vec<u32>,
}

/// `Steps::unmet` of a completed step.
const DONE: u32 = u32::MAX;

impl Steps {
    /// Starts the execution of `template`: every step's full dependency
    /// count.
    fn install(&mut self, template: Rc<Template>) {
        self.unmet.clear();
        self.unmet.extend_from_slice(&template.unmet);
        self.template = Some(template);
    }

    fn template(&self) -> &Template {
        self.template.as_deref().expect("steps of a launched op")
    }
}

impl ArraySim {
    /// Admits an op: decides the purpose from its kind and current array
    /// health, takes the DAG from its shape's template, arms the deadline,
    /// and starts the root steps.
    pub(crate) fn launch_op(&mut self, eng: &mut Engine<ArraySim>, idx: usize) {
        let now = eng.now();
        let (io, kind, retries) = {
            let op = self.ops[idx].as_mut().expect("launch of missing op");
            // The stripe I/O leaves the op for the template lookup and goes
            // back with the steps: moved, never cloned.
            (std::mem::take(&mut op.io), op.kind, op.retries)
        };
        // Background sweeps keep going on a failed array; they stop on
        // their own failure budget.
        if self.is_failed() && !matches!(kind, OpKind::Rebuild { .. } | OpKind::Scrub) {
            self.ops[idx].as_mut().expect("op vanished").io = io;
            self.finish_op(eng, idx, Some(OpFailure::MemberError(0)), true);
            return;
        }
        let stripe = io.stripe;
        let purpose = match kind {
            OpKind::Read => Purpose::Read {
                degraded: io.segments.iter().any(|s| self.faulty.contains(&s.member)),
            },
            OpKind::Write | OpKind::Resync => {
                // §5.4: retries always run in the reconstruct-write ("full
                // stripe") mode to guarantee a consistent parity rewrite,
                // and a resync rewrites parity from scratch.
                let mode = if retries > 0 || kind == OpKind::Resync {
                    WriteMode::ReconstructWrite
                } else {
                    self.layout.write_mode(&io)
                };
                // Every stripe spans all members, so any faulty member
                // degrades it.
                Purpose::Write {
                    mode,
                    degraded: self.is_degraded(),
                }
            }
            OpKind::Rebuild { spare, .. } => Purpose::Rebuild {
                spare,
                spare_node: self.cluster.server_node(spare),
            },
            OpKind::Scrub => Purpose::Scrub,
        };
        let reducer = match purpose {
            Purpose::Read { degraded: true } | Purpose::Rebuild { .. } => {
                let r = self.choose_reducer(now, stripe);
                let lost: u64 = io
                    .segments
                    .iter()
                    .filter(|s| self.faulty.contains(&s.member))
                    .map(|s| s.len)
                    .sum();
                self.selector.record_load(lost);
                Some(r)
            }
            _ => None,
        };
        let mut steps = self.step_pool.pop().unwrap_or_default();
        let ctx = BuildCtx {
            cfg: &self.cfg,
            layout: &self.layout,
            host: self.cluster.host_node(),
            nodes: &self.member_nodes,
            servers: &self.member_servers,
            faulty: &self.faulty,
            reducer,
        };
        steps.install(self.shapes.get(&ctx, purpose, &io));
        let n = steps.unmet.len();
        let gen = {
            let op = self.ops[idx].as_mut().expect("op vanished");
            if let Some(tracer) = &mut self.tracer {
                let dag = &steps.template().dag;
                tracer.record_launch((op.user, idx), purpose, reducer, &io, dag);
            }
            op.io = io;
            op.purpose = Some(purpose);
            op.steps = steps;
            op.remaining = n;
            op.gen
        };
        // Arm the explicit timeout (§5.4) as a cancelable timer: the op
        // cancels it on completion instead of leaving a tombstone event to
        // fire as a generation-checked no-op.
        let deadline = eng.schedule_timer_call_in(
            self.cfg.op_deadline,
            ArraySim::on_timeout,
            [idx as u64, gen, 0],
        );
        self.ops[idx].as_mut().expect("op vanished").deadline_timer = Some(deadline);
        if n == 0 {
            self.finish_op(eng, idx, None, false);
            return;
        }
        // Start every dependency-free step. Starting a step only schedules
        // its completion, so no `unmet` count changes during this loop.
        for sid in 0..n {
            let root = self.ops[idx].as_ref().expect("op vanished").steps.unmet[sid] == 0;
            if root {
                self.start_step(eng, idx, sid);
                if !self.op_live(idx, gen) {
                    return; // op failed and was reaped (slot may be recycled)
                }
            }
        }
    }

    /// An empty stripe I/O on `stripe` over a segment buffer a finished op
    /// left in `ArraySim::segment_pool`, for a new op to fill.
    pub(crate) fn pooled_stripe_io(&mut self, stripe: u64) -> StripeIo {
        let segments = self.segment_pool.pop().unwrap_or_default();
        StripeIo::new(stripe, 0, segments)
    }

    /// Returns a finished op's segment buffer to `ArraySim::segment_pool`.
    fn recycle_segments(&mut self, mut segments: Vec<Segment>) {
        segments.clear();
        self.segment_pool.push(segments);
    }

    /// Whether slot `idx` still holds the op generation `gen` (a failed op's
    /// slot can be recycled by a retry or a newly admitted op mid-loop).
    fn op_live(&self, idx: usize, gen: u64) -> bool {
        matches!(&self.ops[idx], Some(op) if op.gen == gen)
    }

    fn start_step(&mut self, eng: &mut Engine<ArraySim>, idx: usize, sid: usize) {
        let now = eng.now();
        let (kind, gen) = {
            let op = self.ops[idx].as_ref().expect("step of missing op");
            (op.steps.template().dag.step(sid).kind, op.gen)
        };
        // Each arm yields (service start, completion): `now..start` is the
        // step's resource queueing, `start..end` its service time.
        let (started, end) = match kind {
            StepKind::Transfer { from, to, bytes } => {
                match self.cluster.try_transfer(now, from, to, bytes) {
                    Ok(svc) => (svc.start, svc.end),
                    Err(e) => {
                        // A dead link surfaces like a member error when the
                        // lost endpoint is an array member's target; losing
                        // the host's own link blames nobody — the op simply
                        // fails and retries (§5.4 treats both as network
                        // faults discovered by the initiator).
                        let why = match self.member_of_node(e.node) {
                            Some(m) => OpFailure::MemberError(m),
                            None => OpFailure::Timeout,
                        };
                        self.op_failed(eng, idx, why);
                        return;
                    }
                }
            }
            StepKind::DriveRead { server, bytes } | StepKind::DriveWrite { server, bytes } => {
                let served = if matches!(kind, StepKind::DriveRead { .. }) {
                    self.cluster.drive_read(now, server, bytes)
                } else {
                    self.cluster.drive_write(now, server, bytes)
                };
                match served {
                    Ok(svc) => {
                        if let Some(m) = self.member_of(server) {
                            self.note_member_success(m, svc.latency_from(now));
                        }
                        (svc.start, svc.end)
                    }
                    Err(_) => {
                        let m = self.member_of(server).unwrap_or(usize::MAX);
                        self.op_failed(eng, idx, OpFailure::MemberError(m));
                        return;
                    }
                }
            }
            StepKind::Xor { node, bytes } => {
                let svc = self.cluster.cpu_mut(node).xor(now, bytes);
                (svc.start, svc.end)
            }
            StepKind::GfMul { node, bytes } => {
                let svc = self.cluster.cpu_mut(node).gf_mul(now, bytes);
                (svc.start, svc.end)
            }
            StepKind::PerIo { node } => {
                let svc = self.cluster.cpu_mut(node).per_io(now);
                (svc.start, svc.end)
            }
            StepKind::CoreBusy { node, duration } => {
                let svc = self.cluster.cpu_mut(node).busy_for(now, duration);
                (svc.start, svc.end)
            }
            StepKind::Delay { duration } => (now, now + duration),
            StepKind::Join => (now, now),
        };
        if let Some(tracer) = &mut self.tracer {
            let user = self.ops[idx].as_ref().map(|o| o.user).unwrap_or(0);
            tracer.record(crate::trace::TraceEvent {
                user,
                op: idx,
                step: sid,
                kind,
                issued: now,
                started,
                completed: end,
            });
        }
        eng.schedule_call_at(end, ArraySim::on_step_done, [idx as u64, gen, sid as u64]);
    }

    /// Completion event of step `sid` of the op in slot `idx` (generation
    /// `gen`): starts each dependent as soon as its last dependency is done.
    fn on_step_done(&mut self, eng: &mut Engine<ArraySim>, [idx, gen, sid]: [u64; 3]) {
        let (idx, sid) = (idx as usize, sid as usize);
        let (finished, dependents) = {
            let Some(op) = self.ops[idx].as_mut() else {
                return; // op already finished/retried
            };
            if op.gen != gen || op.steps.unmet[sid] == DONE {
                return;
            }
            op.steps.unmet[sid] = DONE;
            op.remaining -= 1;
            (op.remaining == 0, op.steps.template().dependents(sid))
        };
        if finished {
            self.finish_op(eng, idx, None, false);
            return;
        }
        for k in dependents {
            let ready = {
                let steps = &mut self.ops[idx].as_mut().expect("op checked live").steps;
                let dep = steps.template().dependents[k] as usize;
                steps.unmet[dep] -= 1;
                (steps.unmet[dep] == 0).then_some(dep)
            };
            if let Some(dep) = ready {
                self.start_step(eng, idx, dep);
                if !self.op_live(idx, gen) {
                    return; // op failed and was reaped (slot may be recycled)
                }
            }
        }
    }

    /// Fires when a retry's backoff elapses: launches the waiting op. The
    /// generation check guards against the slot having been recycled (the
    /// timer is canceled on host crash, so in practice this only races
    /// hypothetical future reapers).
    fn on_retry_launch(&mut self, eng: &mut Engine<ArraySim>, [idx, gen, _]: [u64; 3]) {
        let idx = idx as usize;
        let Some(op) = self.ops[idx].as_mut() else {
            return;
        };
        if op.gen != gen {
            return;
        }
        op.launch_timer = None;
        self.launch_op(eng, idx);
    }

    fn on_timeout(&mut self, eng: &mut Engine<ArraySim>, [idx, gen, _]: [u64; 3]) {
        let idx = idx as usize;
        let expired = matches!(&self.ops[idx], Some(op) if op.gen == gen && op.remaining > 0);
        if expired {
            self.stats.timeouts += 1;
            self.op_failed(eng, idx, OpFailure::Timeout);
        }
    }

    fn op_failed(&mut self, eng: &mut Engine<ArraySim>, idx: usize, why: OpFailure) {
        if let OpFailure::MemberError(member) = why {
            self.note_member_error(eng.now(), member);
        }
        self.finish_op(eng, idx, Some(why), false);
    }

    /// Tears down an op: hands a background op to its sweep; for a user or
    /// resync op, releases/transfers the stripe lock, applies the data plane
    /// effect on success, and drives retry or user completion.
    fn finish_op(
        &mut self,
        eng: &mut Engine<ArraySim>,
        idx: usize,
        failure: Option<OpFailure>,
        no_retry: bool,
    ) {
        let mut op = self.ops[idx].take().expect("finish of missing op");
        self.free_ops.push(idx);
        let mut steps = std::mem::take(&mut op.steps);
        steps.template = None;
        self.step_pool.push(steps);
        // Disarm the §5.4 deadline: the op reached a final state, so the
        // timer must not linger in the queue. (A no-op if the timer itself
        // expired and brought us here.)
        if let Some(h) = op.deadline_timer {
            eng.cancel(h);
        }

        let failed = failure.is_some();
        let stripe = op.io.stripe;
        match op.kind {
            OpKind::Rebuild { member, spare } => {
                self.recycle_segments(op.io.segments);
                return self.on_rebuild_op_done(eng, member, spare, stripe, failed);
            }
            OpKind::Scrub => {
                self.recycle_segments(op.io.segments);
                return self.on_scrub_op_done(eng, stripe, failed);
            }
            OpKind::Read | OpKind::Write | OpKind::Resync => {}
        }

        // A user or resync op: retry it, or complete it.
        let retry = failed && !no_retry && op.retries < self.cfg.max_retries && !self.is_failed();
        if retry {
            self.stats.retries += 1;
            let gen = self.fresh_gen();
            let holds_lock = op.holds_lock;
            // The finished op is owned here; its stripe I/O moves into the
            // retry op instead of being cloned.
            let mut next = OpState::new(gen, op.user, op.io, op.kind);
            next.retries = op.retries + 1;
            next.holds_lock = holds_lock;
            let new_idx = self.alloc_op(next);
            if holds_lock {
                self.locks.transfer(stripe, idx, new_idx);
            }
            // Back off before retrying so short transients clear (§5.4: the
            // host retries only after the op reaches a final state). The
            // jitter keeps ops that failed together from retrying together.
            let backoff = retry_backoff(self.cfg.op_deadline, op.retries, gen);
            let launch = eng.schedule_timer_call_in(
                backoff,
                ArraySim::on_retry_launch,
                [new_idx as u64, gen, 0],
            );
            self.ops[new_idx]
                .as_mut()
                .expect("fresh retry op")
                .launch_timer = Some(launch);
            return;
        }

        if op.holds_lock {
            if let Some(next) = self.locks.release(stripe, idx) {
                self.launch_op(eng, next);
            }
        }
        let writes = matches!(op.kind, OpKind::Write | OpKind::Resync);
        if writes && !failed && !self.locks.is_locked(stripe) {
            // No writer holds or awaits the stripe: parity is persisted and
            // consistent; the write intent can be cleared (§5.4).
            self.bitmap.clear(stripe);
        }

        // An op that physically completed after the array lost more members
        // than the level tolerates has no consistent place to land — surface
        // the array failure rather than acknowledging a lost write.
        let array_failed = self.is_failed();
        if !failed && !array_failed {
            if let Some(data) = &mut self.data {
                let lost = lost_members(&self.faulty, self.rebuild.as_ref(), stripe);
                let payload = self.users.get(&op.user).and_then(|u| u.io.data.as_ref());
                data.apply(&op, payload, lost);
            }
        }
        self.recycle_segments(op.io.segments);

        let user_id = op.user;
        let failure_error = if array_failed {
            IoError::ArrayFailed
        } else {
            IoError::RetriesExhausted
        };
        if let Some(user) = self.users.get_mut(&user_id) {
            if failed || array_failed {
                user.error = Some(failure_error);
            }
            if matches!(
                op.purpose,
                Some(Purpose::Read { degraded: true })
                    | Some(Purpose::Write { degraded: true, .. })
            ) {
                user.degraded = true;
            }
            user.pending -= 1;
            if user.pending == 0 {
                self.complete_user(eng, user_id);
            }
        }

        // Sampled invariant audit: every 64th finished op re-checks
        // cluster-wide byte conservation. No-op unless invariants are on.
        self.ops_since_audit += 1;
        if draid_sim::invariants_enabled() && self.ops_since_audit.is_multiple_of(64) {
            self.cluster.audit_conservation();
        }

        // Op completions are the fault-management plane's clock: the engine
        // drains its queue, so a self-rescheduling tick would never let a
        // run terminate. Rate limiting lives inside the tick.
        self.maybe_tick_fault_manager(eng);
    }
}

/// The §5.4 retry backoff: a capped exponential ladder — `deadline/8`,
/// `/4`, `/2`, then one full deadline — with deterministic additive jitter
/// of up to 25%, derived from the retry op's generation, so ops that failed
/// in the same instant (one dead link kills a whole burst) don't hammer the
/// recovering resource in lockstep on every subsequent attempt. Jitter only
/// ever *lengthens* the wait: retrying earlier than the ladder would squeeze
/// extra failed attempts into a short transient and push an innocent member
/// over the fault threshold.
pub(crate) fn retry_backoff(deadline: SimTime, retries: u32, gen: u64) -> SimTime {
    let base = (deadline.as_nanos() / 8)
        .saturating_mul(1 << retries.min(3))
        .min(deadline.as_nanos());
    // splitmix64: full-avalanche mix of the generation into [1.0, 1.25).
    let mut z = gen.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 + 0.25 * unit;
    SimTime::from_nanos((base as f64 * factor).round() as u64)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    use draid_block::{Cluster, ServerId};
    use draid_net::NodeId;
    use draid_sim::{Engine, SimTime};

    use super::{retry_backoff, ShapeCache, Steps, Template};
    use crate::array::ArraySim;
    use crate::builders::{build, BuildCtx, Purpose};
    use crate::config::{ArrayConfig, DraidOptions, RaidLevel, SystemKind};
    use crate::dag::{Dag, StepKind};
    use crate::io::UserIo;
    use crate::layout::{Layout, Segment, StripeIo, WriteMode};

    const DEADLINE: SimTime = SimTime::from_millis(250);

    #[test]
    fn backoff_follows_capped_ladder_within_jitter() {
        for (retries, expect_ns) in [
            (0u32, DEADLINE.as_nanos() / 8),
            (1, DEADLINE.as_nanos() / 4),
            (2, DEADLINE.as_nanos() / 2),
            (3, DEADLINE.as_nanos()),
            // The ladder is capped: further retries keep the full deadline.
            (7, DEADLINE.as_nanos()),
        ] {
            for gen in 1..50u64 {
                let b = retry_backoff(DEADLINE, retries, gen).as_nanos() as f64;
                let base = expect_ns as f64;
                assert!(
                    (base..1.25 * base).contains(&b),
                    "retries {retries} gen {gen}: {b} outside jitter of {base}"
                );
            }
        }
    }

    #[test]
    fn colliding_ops_desynchronize() {
        // Two ops failing at the same instant with the same retry count get
        // distinct backoffs (their retry generations differ), and the spread
        // is wide enough to matter — at least 1% of the base delay.
        let a = retry_backoff(DEADLINE, 1, 101);
        let b = retry_backoff(DEADLINE, 1, 102);
        assert_ne!(a, b);
        let gap = a.as_nanos().abs_diff(b.as_nanos());
        assert!(
            gap * 100 > DEADLINE.as_nanos() / 4,
            "jitter gap {gap}ns too small to desynchronize"
        );
    }

    #[test]
    fn backoff_is_deterministic() {
        assert_eq!(retry_backoff(DEADLINE, 2, 7), retry_backoff(DEADLINE, 2, 7));
    }

    const KIB: u64 = 1024;

    /// Calls `f` on every DAG shape the builders produce: each system × RAID
    /// level × `DraidOptions` ablation × parity rotation, the user purposes
    /// over aligned 4 KiB, 128 KiB, unaligned multi-chunk and full-stripe
    /// I/Os (degraded ones with the first segment's member lost), degraded
    /// reads and writes under the RAID-6 double losses (data+data, data+P,
    /// P+Q, data+Q), then a rebuild and a scrub with each member lost. The
    /// purpose changes between consecutive calls.
    fn for_each_shape(mut f: impl FnMut(&BuildCtx, Purpose, &StripeIo)) {
        let nodes: Vec<NodeId> = (1..=8).map(NodeId).collect();
        let servers: Vec<ServerId> = (0..8).map(ServerId).collect();
        let ablations: [fn(&mut DraidOptions); 5] = [
            |_| {},
            |o| o.pipeline = false,
            |o| o.nonblocking = false,
            |o| o.peer_to_peer = false,
            |o| o.lockfree_read = false,
        ];
        for system in [SystemKind::Draid, SystemKind::SpdkRaid, SystemKind::LinuxMd] {
            for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
                for ablate in ablations {
                    let mut cfg = ArrayConfig::paper_default(system);
                    cfg.level = level;
                    cfg.width = 8;
                    ablate(&mut cfg.draid);
                    let layout = Layout::new(&cfg);
                    for stripe in 0..8 {
                        each_stripe_shape(&cfg, &layout, stripe, &nodes, &servers, &mut f);
                    }
                }
            }
        }
    }

    /// [`for_each_shape`] for one configuration and stripe.
    fn each_stripe_shape(
        cfg: &ArrayConfig,
        layout: &Layout,
        stripe: u64,
        nodes: &[NodeId],
        servers: &[ServerId],
        f: &mut impl FnMut(&BuildCtx, Purpose, &StripeIo),
    ) {
        let chunk = layout.chunk_size();
        let stripe_bytes = layout.stripe_data_bytes();
        let mut call = |purpose: Purpose, io: &StripeIo, faulty: &BTreeSet<usize>, reducer| {
            let ctx = BuildCtx {
                cfg,
                layout,
                host: NodeId(0),
                nodes,
                servers,
                faulty,
                reducer,
            };
            f(&ctx, purpose, io);
        };
        for (offset, len) in [
            (0, 4 * KIB),
            (0, 128 * KIB),
            (chunk / 2, 2 * chunk),
            (0, stripe_bytes),
        ] {
            let io = &layout.map(stripe * stripe_bytes + offset, len)[0];
            let first = io.segments[0].member;
            let mut losses = vec![BTreeSet::from([first])];
            if let Some(q) = layout.q_member(stripe) {
                let p = layout.p_member(stripe);
                let last = layout.data_member(stripe, layout.data_chunks() - 1);
                for pair in [[first, last], [first, p], [p, q], [first, q]] {
                    losses.push(BTreeSet::from(pair));
                }
            }
            let healthy = BTreeSet::new();
            call(Purpose::Read { degraded: false }, io, &healthy, None);
            for mode in [
                WriteMode::ReadModifyWrite,
                WriteMode::ReconstructWrite,
                WriteMode::FullStripe,
            ] {
                let degraded = false;
                call(Purpose::Write { mode, degraded }, io, &healthy, None);
            }
            for lost in &losses {
                let degraded = io.segments.iter().any(|s| lost.contains(&s.member));
                let reducer = (0..8).find(|m| !lost.contains(m));
                call(Purpose::Read { degraded }, io, lost, reducer);
                let mode = layout.write_mode(io);
                call(
                    Purpose::Write {
                        mode,
                        degraded: true,
                    },
                    io,
                    lost,
                    None,
                );
            }
        }
        for victim in 0..8 {
            let lost = BTreeSet::from([victim]);
            let reducer = [layout.p_member(stripe), layout.data_member(stripe, 0)]
                .into_iter()
                .find(|&m| m != victim);
            let segment = Segment {
                data_index: layout.data_index_of(stripe, victim).unwrap_or(0),
                member: victim,
                offset: 0,
                len: chunk,
            };
            let rebuild = Purpose::Rebuild {
                spare: ServerId(8),
                spare_node: NodeId(9),
            };
            call(
                rebuild,
                &StripeIo::new(stripe, 0, vec![segment]),
                &lost,
                reducer,
            );
            call(
                Purpose::Scrub,
                &StripeIo::new(stripe, 0, vec![]),
                &lost,
                None,
            );
        }
    }

    #[test]
    fn flat_dependents_match_nested_derivation() {
        // Duplicate dependencies and several roots, which no builder emits.
        let mut hand = Dag::new();
        let a = hand.add(StepKind::Join, &[]);
        let b = hand.add(StepKind::Join, &[]);
        let c = hand.add(StepKind::Join, &[a, a, b]);
        hand.add(StepKind::Join, &[c, b, c]);
        hand.add(StepKind::Join, &[]);
        let mut dags = vec![hand];
        for_each_shape(|ctx, purpose, io| dags.push(build(ctx, purpose, io)));
        assert!(dags.len() > 100);
        // One `Steps` for every DAG: each install starts from the previous
        // DAG's counts, as a recycled buffer does.
        let mut steps = Steps::default();
        for dag in dags {
            let n = dag.len();
            // The derivation the executor used before dependents were flat.
            let mut nested = vec![Vec::new(); n];
            let mut unmet = vec![0u32; n];
            for (id, step) in dag.iter() {
                unmet[id] = step.deps.len() as u32;
                for &d in step.deps {
                    nested[d as usize].push(id);
                }
            }
            steps.install(Rc::new(Template::new(dag)));
            let template = steps.template();
            let flat: Vec<Vec<usize>> = (0..n)
                .map(|sid| {
                    template
                        .dependents(sid)
                        .map(|k| template.dependents[k] as usize)
                        .collect()
                })
                .collect();
            assert_eq!(flat, nested);
            assert_eq!(steps.unmet, unmet);
        }
    }

    #[test]
    fn the_shape_key_drops_only_what_builders_ignore() {
        let (mut shapes, mut moved_offsets) = (0, 0);
        for_each_shape(|ctx, purpose, io| {
            // The same op shape elsewhere: `k` parity rotations later, each
            // segment mirrored inside its chunk (same length, same extent),
            // from another place in the user buffer.
            let (width, chunk) = (ctx.layout.width() as u64, ctx.layout.chunk_size());
            let mut segments = io.segments.clone();
            for s in &mut segments {
                s.offset = chunk - s.offset - s.len;
            }
            moved_offsets += usize::from(segments != io.segments);
            let moved = StripeIo::new(io.stripe + 3 * width, io.buf_offset + 4096, segments);
            assert_eq!(moved.extent(), io.extent());

            let mut cache = ShapeCache::default();
            let template = cache.get(ctx, purpose, io);
            assert!(
                Rc::ptr_eq(&template, &cache.get(ctx, purpose, &moved)),
                "{purpose:?}: one shape, two keys"
            );
            assert_eq!(build(ctx, purpose, &moved), template.dag, "{purpose:?}");
            shapes += 1;
        });
        assert_eq!(shapes, 13_440);
        assert!(moved_offsets > shapes / 2, "{moved_offsets} of {shapes}");
    }

    #[test]
    fn builder_dags_match_recorded_digest() {
        // FNV-1a over every shape's step kinds and dependencies: any change
        // to a step's kind, order or dependencies changes it. Re-recorded
        // when dRAID's reconstruct-write stopped charging each touched
        // member an XOR pass its RW_WRITE partial does not make.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut shapes = 0;
        for_each_shape(|ctx, purpose, io| {
            for (_, step) in build(ctx, purpose, io).iter() {
                eat(format!("{:?}", step.kind).as_bytes());
                for &d in step.deps {
                    eat(&d.to_le_bytes());
                }
                eat(b";");
            }
            eat(b"|");
            shapes += 1;
        });
        assert_eq!(shapes, 13_440);
        assert_eq!(hash, 0x681d_7aa1_84ee_791f);
    }

    /// Starts a closed loop of `ios` aligned 128 KiB reads and writes at
    /// queue depth `depth`, over the first `blocks` 128 KiB blocks: each
    /// I/O is one stripe op.
    fn closed_loop(
        array: &mut ArraySim,
        eng: &mut Engine<ArraySim>,
        ios: u32,
        depth: u32,
        blocks: u64,
    ) {
        fn submit_next(
            array: &mut ArraySim,
            eng: &mut Engine<ArraySim>,
            left: Rc<Cell<u32>>,
            blocks: u64,
        ) {
            let n = left.get();
            if n == 0 {
                return;
            }
            left.set(n - 1);
            let offset = u64::from(n).wrapping_mul(2_654_435_761) % blocks * 128 * KIB;
            let io = if n.is_multiple_of(2) {
                UserIo::write(offset, 128 * KIB)
            } else {
                UserIo::read(offset, 128 * KIB)
            };
            let hook = Box::new(move |a: &mut ArraySim, e: &mut Engine<ArraySim>, _: &_| {
                submit_next(a, e, left, blocks)
            });
            array.submit_with_hook(eng, io, Some(hook));
        }
        let left = Rc::new(Cell::new(ios));
        for _ in 0..depth {
            submit_next(array, eng, Rc::clone(&left), blocks);
        }
    }

    #[test]
    fn step_buffers_are_recycled_across_ops() {
        const IOS: u32 = 10_000;
        const QUEUE_DEPTH: u32 = 32;
        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        let mut array = ArraySim::new(Cluster::homogeneous(cfg.width), cfg).expect("valid config");
        let mut eng = Engine::new();
        let mut pools = None;
        for round in 0..2 {
            closed_loop(&mut array, &mut eng, IOS, QUEUE_DEPTH, 8192);
            eng.run(&mut array);
            assert_eq!(array.drain_completions().len(), IOS as usize);
            assert_eq!(array.inflight_ops(), 0);
            // Op slots are reused, so their count is the peak number of ops
            // in flight. Every op returned its buffers on finishing (no
            // crash drops any), so the pools now hold every `Steps` and
            // every segment buffer ever created: one of each per op in
            // flight at the peak.
            let peak_inflight = array.ops.len();
            assert!(peak_inflight <= QUEUE_DEPTH as usize);
            assert!(!array.step_pool.is_empty());
            assert!(
                array.step_pool.len() <= peak_inflight,
                "{} step buffers for at most {peak_inflight} ops in flight",
                array.step_pool.len()
            );
            assert_eq!(array.segment_pool.len(), array.step_pool.len());
            assert!(array.segment_pool.iter().all(Vec::is_empty));
            // A pooled `Steps` holds only its counters; its template went
            // back with the op.
            assert!(array.step_pool.iter().all(|s| s.template.is_none()));
            // One shape per (read or write, parity rotation, data member).
            let shapes = array.shapes.templates.len();
            assert!(
                shapes <= 2 * cfg.width * array.layout.data_chunks(),
                "{shapes} shapes"
            );
            // The warm round compiled nothing and created no buffers: its
            // launches copied counters into recycled `Steps`.
            let now = (shapes, array.ops.len(), array.step_pool.len());
            if round == 1 {
                assert_eq!(Some(now), pools, "the warm round allocated");
            }
            pools = Some(now);
        }
    }

    #[test]
    fn launches_match_fresh_builds_across_member_changes() {
        // Linux MD's healthy reads pay the stripe cache once any member is
        // faulty, so its templates go stale at the failure as well as at
        // the swap.
        for system in [SystemKind::Draid, SystemKind::SpdkRaid, SystemKind::LinuxMd] {
            launches_match_fresh_builds_on(system);
        }
    }

    /// Runs a closed loop on a healthy `system` array, fails a member
    /// mid-run, rebuilds it onto a spare and runs again, then rebuilds
    /// every launched DAG from scratch against the state of its phase.
    fn launches_match_fresh_builds_on(system: SystemKind) {
        const BLOCKS: u64 = 16 * 28; // 16 stripes
        let cfg = ArrayConfig::paper_default(system);
        let (victim, spare) = (3, ServerId(cfg.width));
        let mut array =
            ArraySim::new(Cluster::homogeneous(cfg.width + 1), cfg).expect("valid config");
        array.enable_tracing(1 << 20);
        let mut eng = Engine::new();
        // Each phase: the launches before its end, and the builder inputs
        // the array had.
        let phase = |a: &ArraySim| {
            (
                a.trace().expect("tracing").ops().len(),
                a.faulty.clone(),
                a.member_nodes.clone(),
                a.member_servers.clone(),
            )
        };
        // Healthy, until the victim fails with ops in flight; they fail
        // and retry on the degraded array.
        closed_loop(&mut array, &mut eng, 400, 8, BLOCKS);
        eng.run_until(&mut array, SimTime::from_millis(5));
        assert!(array.inflight_ops() > 0);
        let mut phases = vec![phase(&array)];
        array.fail_member(victim);
        let degraded = phase(&array);
        eng.run(&mut array);
        // Rebuild onto the spare; the last stripe swaps it in.
        array.start_rebuild(&mut eng, victim, spare, 16, 4);
        eng.run(&mut array);
        assert!(!array.is_degraded());
        phases.push((phase(&array).0, degraded.1, degraded.2, degraded.3));
        // Healthy again, with the spare in the victim's place.
        closed_loop(&mut array, &mut eng, 400, 8, BLOCKS);
        eng.run(&mut array);
        phases.push(phase(&array));
        assert_eq!(array.member_servers[victim], spare);
        assert_eq!(array.drain_completions().len(), 800);

        let trace = array.trace().expect("tracing");
        let (mut at, mut per_phase) = (0, [0; 3]);
        for (i, op) in trace.ops().iter().enumerate() {
            while i >= phases[at].0 {
                at += 1;
            }
            let (_, faulty, nodes, servers) = &phases[at];
            let ctx = BuildCtx {
                cfg: &cfg,
                layout: &array.layout,
                host: array.cluster.host_node(),
                nodes,
                servers,
                faulty,
                reducer: op.reducer,
            };
            assert_eq!(
                op.dag,
                build(&ctx, op.purpose, &op.io),
                "{system:?} launch {i} in phase {at}: {:?}",
                op.purpose
            );
            per_phase[at] += 1;
        }
        // Each phase launched ops, among them degraded reads and rebuild
        // stripes while the victim was out.
        assert!(per_phase.iter().all(|&n| n > 0), "{per_phase:?}");
        let count =
            |f: fn(&Purpose) -> bool| trace.ops().iter().filter(|op| f(&op.purpose)).count();
        assert!(count(|p| matches!(p, Purpose::Read { degraded: true })) > 0);
        assert_eq!(count(|p| matches!(p, Purpose::Rebuild { .. })), 16);
    }
}
