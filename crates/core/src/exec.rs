//! The DAG executor: runs stripe-operation DAGs on the cluster's resources,
//! with per-op deadlines, failure propagation, and full-stripe retry (§5.4).

use draid_block::ServerId;
use draid_sim::{Engine, SimTime, TimerHandle};

use crate::array::ArraySim;
use crate::builders::{self, BuildCtx, Purpose};
use crate::dag::{Dag, StepKind};
use crate::io::{IoError, IoKind};
use crate::layout::{StripeIo, WriteMode};

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
    /// The armed §5.4 deadline timer; canceled when the op finishes so dead
    /// timers stop occupying the event queue.
    pub deadline_timer: Option<TimerHandle>,
    /// The pending retry-backoff timer that will (re)launch this op. Held so
    /// a host crash can cancel the launch outright instead of relying on the
    /// fired closure to notice the slot was recycled.
    pub launch_timer: Option<TimerHandle>,
}

/// A tiny free-list of byte buffers backing the op data plane: the
/// apply-effect scratch space (gathered read bytes, zero payloads for
/// internal parity ops) is recycled across stripe operations instead of
/// allocated and freed once per op.
///
/// Public so the `draid-check` concurrency harness can stress its
/// take/return discipline directly.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
}

impl BufPool {
    /// Buffers kept across ops; excess returns are simply dropped.
    const MAX_POOLED: usize = 8;

    /// Creates an empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Number of buffers currently pooled (diagnostic/test aid).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Takes an empty (length 0) buffer, reusing pooled capacity when
    /// available.
    pub fn take(&mut self) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Takes a zero-filled buffer of length `len`, reusing pooled capacity.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.take();
        buf.resize(len, 0);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < Self::MAX_POOLED && buf.capacity() > 0 {
            self.free.push(buf);
        }
    }
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

/// An op's DAG and its execution state. Recycled across ops through
/// `ArraySim::step_pool`, so a steady-state launch reuses the buffers of an
/// op that already finished instead of allocating.
#[derive(Debug, Default)]
pub(crate) struct Steps {
    pub dag: Dag,
    /// Dependents of step `i` are `dependents[dependents_start[i]..
    /// dependents_start[i + 1]]`, in increasing step order.
    dependents_start: Vec<u32>,
    dependents: Vec<u32>,
    /// Dependencies of each step that have not completed yet.
    unmet: Vec<u32>,
    done: Vec<bool>,
}

impl Steps {
    /// Derives the execution state of a freshly built `self.dag`, reusing
    /// the buffers' capacity.
    fn install(&mut self) {
        let n = self.dag.len();
        self.unmet.clear();
        self.done.clear();
        self.done.resize(n, false);
        self.dependents_start.clear();
        self.dependents_start.resize(n + 1, 0);
        for (_, step) in self.dag.iter() {
            self.unmet.push(step.deps.len() as u32);
            for &d in step.deps {
                self.dependents_start[d as usize] += 1;
            }
        }
        // Prefix sums turn each count into the end of that step's range...
        let mut total = 0;
        for end in &mut self.dependents_start {
            total += *end;
            *end = total;
        }
        self.dependents.clear();
        self.dependents.resize(total as usize, 0);
        // ...and filling back to front moves each end down to its range's
        // start, leaving every step's dependents in increasing order.
        for id in (0..n).rev() {
            for &d in self.dag.step(id).deps.iter().rev() {
                let start = &mut self.dependents_start[d as usize];
                *start -= 1;
                self.dependents[*start as usize] = id as u32;
            }
        }
    }

    fn dependents(&self, sid: usize) -> std::ops::Range<usize> {
        self.dependents_start[sid] as usize..self.dependents_start[sid + 1] as usize
    }
}

impl ArraySim {
    /// Admits an op: decides the purpose from its kind and current array
    /// health, builds the DAG, arms the deadline, and starts the root steps.
    pub(crate) fn launch_op(&mut self, eng: &mut Engine<ArraySim>, idx: usize) {
        let now = eng.now();
        let (io, kind, retries) = {
            let op = self.ops[idx].as_ref().expect("launch of missing op");
            // Cheap: the segment list is an `Arc<[Segment]>`, so this clone
            // is a reference-count bump, not an extent copy.
            (op.io.clone(), op.kind, op.retries)
        };
        // Background sweeps keep going on a failed array; they stop on
        // their own failure budget.
        if self.is_failed() && !matches!(kind, OpKind::Rebuild { .. } | OpKind::Scrub) {
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
                Purpose::Write {
                    mode,
                    degraded: self.stripe_degraded(stripe),
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
        builders::build_into(&ctx, purpose, &io, &mut steps.dag);
        steps.install();
        let n = steps.dag.len();
        let gen = {
            let op = self.ops[idx].as_mut().expect("op vanished");
            if let Some(tracer) = &mut self.tracer {
                tracer.record_launch(op.user, idx, &steps.dag);
            }
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

    /// Whether slot `idx` still holds the op generation `gen` (a failed op's
    /// slot can be recycled by a retry or a newly admitted op mid-loop).
    fn op_live(&self, idx: usize, gen: u64) -> bool {
        matches!(&self.ops[idx], Some(op) if op.gen == gen)
    }

    fn stripe_degraded(&self, stripe: u64) -> bool {
        if self.faulty.is_empty() {
            return false;
        }
        let p = self.layout.p_member(stripe);
        if self.faulty.contains(&p) {
            return true;
        }
        if let Some(q) = self.layout.q_member(stripe) {
            if self.faulty.contains(&q) {
                return true;
            }
        }
        (0..self.layout.data_chunks())
            .any(|k| self.faulty.contains(&self.layout.data_member(stripe, k)))
    }

    fn start_step(&mut self, eng: &mut Engine<ArraySim>, idx: usize, sid: usize) {
        let now = eng.now();
        let (kind, gen) = {
            let op = self.ops[idx].as_ref().expect("step of missing op");
            (op.steps.dag.step(sid).kind, op.gen)
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
            StepKind::DriveRead { server, bytes } => {
                match self.cluster.drive_read(now, server, bytes) {
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
            StepKind::DriveWrite { server, bytes } => {
                match self.cluster.drive_write(now, server, bytes) {
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
            if op.gen != gen || op.steps.done[sid] {
                return;
            }
            op.steps.done[sid] = true;
            op.remaining -= 1;
            (op.remaining == 0, op.steps.dependents(sid))
        };
        if finished {
            self.finish_op(eng, idx, None, false);
            return;
        }
        for k in dependents {
            let ready = {
                let steps = &mut self.ops[idx].as_mut().expect("op checked live").steps;
                let dep = steps.dependents[k] as usize;
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
        self.step_pool.push(std::mem::take(&mut op.steps));
        // Disarm the §5.4 deadline: the op reached a final state, so the
        // timer must not linger in the queue. (A no-op if the timer itself
        // expired and brought us here.)
        if let Some(h) = op.deadline_timer {
            eng.cancel(h);
        }

        let failed = failure.is_some();
        match op.kind {
            OpKind::Rebuild { member, spare } => {
                return self.on_rebuild_op_done(eng, member, spare, op.io.stripe, failed);
            }
            OpKind::Scrub => return self.on_scrub_op_done(eng, op.io.stripe, failed),
            OpKind::Read | OpKind::Write | OpKind::Resync => {}
        }

        // A user or resync op: retry it, or complete it.
        let retry = failed && !no_retry && op.retries < self.cfg.max_retries && !self.is_failed();
        if retry {
            self.stats.retries += 1;
            let gen = self.fresh_gen();
            let stripe = op.io.stripe;
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
            if let Some(next) = self.locks.release(op.io.stripe, idx) {
                self.launch_op(eng, next);
            }
        }
        let writes = matches!(op.kind, OpKind::Write | OpKind::Resync);
        if writes && !failed && !self.locks.is_locked(op.io.stripe) {
            // No writer holds or awaits the stripe: parity is persisted and
            // consistent; the write intent can be cleared (§5.4).
            self.bitmap.clear(op.io.stripe);
        }

        // An op that physically completed after the array lost more members
        // than the level tolerates has no consistent place to land — surface
        // the array failure rather than acknowledging a lost write.
        let array_failed = self.is_failed();
        if !failed && !array_failed {
            self.apply_effect(&op);
        }

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

    /// Applies the operation's semantic effect to the chunk store (full data
    /// mode only): writes store data + parity, reads gather (possibly
    /// reconstructed) bytes into the user buffer.
    fn apply_effect(&mut self, op: &OpState) {
        if self.store.is_none() {
            return;
        }
        // A member whose stripe is already rebuilt onto the spare stores
        // writes directly (the member index now maps to the spare drive).
        let effective_faulty: std::collections::BTreeSet<usize> = self
            .faulty
            .iter()
            .copied()
            .filter(|&m| !self.stripe_rebuilt(op.io.stripe, m))
            .collect();
        let Some(store) = &mut self.store else {
            return;
        };
        if self.faulty.len() > self.cfg.level.parity_count() {
            return; // array failed; nothing consistent to apply
        }
        // Internal ops (parity resync) have no user record; their writes
        // carry no payload and only refresh parity.
        match op.purpose {
            Some(Purpose::Write { mode, .. }) => {
                // The payload handle is `Arc`-backed `Bytes`: cloning it
                // shares the user's buffer, and `Bytes::slice` carves an
                // O(1) sub-view of this stripe's portion — the op path
                // copies no payload bytes.
                let payload = self.users.get(&op.user).and_then(|u| u.io.data.clone());
                match payload {
                    Some(data) => {
                        let lo = op.io.buf_offset as usize;
                        let hi = lo + op.io.bytes() as usize;
                        let sub = data.slice(lo..hi);
                        store.apply_write(&op.io, &sub, mode, &effective_faulty);
                    }
                    None => {
                        let zeros = self.buf_pool.take_zeroed(op.io.bytes() as usize);
                        store.apply_write(&op.io, &zeros, mode, &effective_faulty);
                        self.buf_pool.put(zeros);
                    }
                }
            }
            Some(Purpose::Read { .. }) => {
                let mut scratch = self.buf_pool.take();
                store.read_into(&mut scratch, &op.io, &self.faulty);
                let user = self.users.get_mut(&op.user);
                if let Some(buf) = user.and_then(|u| u.read_buf.as_mut()) {
                    let lo = op.io.buf_offset as usize;
                    buf[lo..lo + scratch.len()].copy_from_slice(&scratch);
                }
                self.buf_pool.put(scratch);
            }
            _ => {}
        }

        // Sampled post-write parity re-verification: every 8th stripe write
        // on a stripe with no effectively-lost member is immediately checked
        // against its freshly stored parity. (A stripe with a lost member is
        // skipped: its dropped chunks read back as zeros by design, and only
        // parity encodes the data.) No-op unless invariants are on.
        if draid_sim::invariants_enabled()
            && effective_faulty.is_empty()
            && matches!(op.purpose, Some(Purpose::Write { .. }))
            && op.io.stripe.is_multiple_of(8)
        {
            if let Some(store) = &self.store {
                draid_sim::draid_invariant!(
                    store.verify_stripe(op.io.stripe),
                    "post-write parity mismatch on stripe {}",
                    op.io.stripe
                );
            }
        }
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

    use super::{retry_backoff, Steps};
    use crate::array::ArraySim;
    use crate::builders::{build, build_into, BuildCtx, Purpose};
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
        // DAG's state, as a recycled buffer does.
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
            steps.dag = dag;
            steps.install();
            let flat: Vec<Vec<usize>> = (0..n)
                .map(|sid| {
                    steps
                        .dependents(sid)
                        .map(|k| steps.dependents[k] as usize)
                        .collect()
                })
                .collect();
            assert_eq!(flat, nested);
            assert_eq!(steps.unmet, unmet);
            assert_eq!(steps.done, vec![false; n]);
        }
    }

    #[test]
    fn build_into_a_dirty_dag_equals_a_fresh_build() {
        let mut dirty = Dag::new();
        let mut shapes = 0;
        for_each_shape(|ctx, purpose, io| {
            // `dirty` still holds the previous shape, built for a different
            // purpose.
            build_into(ctx, purpose, io, &mut dirty);
            assert_eq!(dirty, build(ctx, purpose, io), "{purpose:?}");
            shapes += 1;
        });
        assert!(shapes > 100);
    }

    #[test]
    fn builder_dags_match_recorded_digest() {
        // FNV-1a over every shape's step kinds and dependencies, recorded
        // from the builders as they stood before they shared primitives: any
        // change to a step's kind, order or dependencies changes it.
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
        assert_eq!(hash, 0x99c6_498e_e1b9_9d2d);
    }

    #[test]
    fn step_buffers_are_recycled_across_ops() {
        const IOS: u32 = 10_000;
        const QUEUE_DEPTH: u32 = 32;
        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        let mut array = ArraySim::new(Cluster::homogeneous(cfg.width), cfg).expect("valid config");
        let mut eng = Engine::new();
        // A closed loop of aligned 128 KiB reads and writes: each I/O is one
        // stripe op.
        fn submit_next(array: &mut ArraySim, eng: &mut Engine<ArraySim>, left: Rc<Cell<u32>>) {
            let n = left.get();
            if n == 0 {
                return;
            }
            left.set(n - 1);
            let offset = u64::from(n).wrapping_mul(2_654_435_761) % 8192 * 128 * KIB;
            let io = if n.is_multiple_of(2) {
                UserIo::write(offset, 128 * KIB)
            } else {
                UserIo::read(offset, 128 * KIB)
            };
            let hook = Box::new(move |a: &mut ArraySim, e: &mut Engine<ArraySim>, _: &_| {
                submit_next(a, e, left)
            });
            array.submit_with_hook(eng, io, Some(hook));
        }
        let left = Rc::new(Cell::new(IOS));
        for _ in 0..QUEUE_DEPTH {
            submit_next(&mut array, &mut eng, Rc::clone(&left));
        }
        eng.run(&mut array);
        assert_eq!(left.get(), 0);
        assert_eq!(array.drain_completions().len(), IOS as usize);
        assert_eq!(array.inflight_ops(), 0);
        // Op slots are reused, so their count is the peak number of ops in
        // flight. Every op returned its buffers on finishing (no crash drops
        // any), so the pool now holds every `Steps` ever created.
        let peak_inflight = array.ops.len();
        assert!(peak_inflight <= QUEUE_DEPTH as usize);
        assert!(!array.step_pool.is_empty());
        assert!(
            array.step_pool.len() <= peak_inflight,
            "{} step buffers for at most {peak_inflight} ops in flight",
            array.step_pool.len()
        );
    }
}
