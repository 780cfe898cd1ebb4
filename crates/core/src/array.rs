//! The simulated RAID array: world state, admission, completion, and member
//! health management.
//!
//! [`ArraySim`] is the discrete-event world. User I/Os are split into
//! per-stripe operations, admitted through the stripe lock table (§3), and
//! compiled to DAGs by the configured system's builder; the executor in
//! [`crate::exec`] runs the DAGs on the cluster's resources. Completions and
//! failures flow back here, driving retries (§5.4), member fault marking, and
//! user-visible results.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use draid_block::{Cluster, ServerId};
use draid_net::NodeId;
use draid_sim::{DetRng, Engine, SimTime};

use crate::config::{ArrayConfig, DataMode, ReducerPolicy, SystemKind};
use crate::datastore::{ChunkStore, DataPlane};
use crate::exec::{OpKind, OpState};
use crate::health::{HealthMonitor, HealthState};
use crate::idhash::IdHasher;
use crate::io::{IoError, IoId, IoKind, IoResult, UserIo};
use crate::layout::Layout;
use crate::lock::LockTable;
use crate::reducer::{ReducerSelector, SELECTOR_PERIOD};
use crate::stats::ArrayStats;

/// Callback invoked when a user I/O completes (drives closed-loop workloads).
pub type CompletionHook = Box<dyn FnOnce(&mut ArraySim, &mut Engine<ArraySim>, &IoResult)>;

/// Everything the array tracks about one outstanding user I/O.
pub(crate) struct UserState {
    pub io: UserIo,
    pub submitted: SimTime,
    pub pending: usize,
    pub degraded: bool,
    pub error: Option<IoError>,
    pub hook: Option<CompletionHook>,
}

/// A change to one member, made through [`ArraySim::change_member`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum MemberChange {
    /// The member becomes faulty.
    Fail,
    /// The member is remapped to this spare server and leaves the faulty
    /// set (the end of a rebuild).
    Replace(ServerId),
}

/// Window-based available-bandwidth probe feeding the §6.2 selector; it
/// samples once per `SELECTOR_PERIOD`.
struct BwProbe {
    prev_busy: Vec<SimTime>,
    prev_time: SimTime,
}

impl BwProbe {
    fn new(members: usize) -> Self {
        BwProbe {
            prev_busy: vec![SimTime::ZERO; members],
            prev_time: SimTime::ZERO,
        }
    }
}

/// The simulated RAID array over a [`Cluster`] — the world type of the
/// discrete-event engine.
pub struct ArraySim {
    /// The hardware substrate (public: experiments inspect resource
    /// counters and inject failures through it).
    pub cluster: Cluster,
    pub(crate) cfg: ArrayConfig,
    pub(crate) layout: Layout,
    pub(crate) member_nodes: Vec<NodeId>,
    pub(crate) member_servers: Vec<ServerId>,
    pub(crate) faulty: BTreeSet<usize>,
    pub(crate) health: HealthMonitor,
    pub(crate) locks: LockTable,
    pub(crate) ops: Vec<Option<OpState>>,
    pub(crate) free_ops: Vec<usize>,
    pub(crate) next_gen: u64,
    pub(crate) users: HashMap<u64, UserState, BuildHasherDefault<IdHasher>>,
    next_io: u64,
    /// The real bytes, in `DataMode::Full` only: every data-plane decision
    /// is a [`DataPlane`] method, so a `DataMode::Timing` op never makes one.
    pub(crate) data: Option<Box<DataPlane>>,
    pub(crate) selector: ReducerSelector,
    bw_probe: BwProbe,
    pub(crate) rng: DetRng,
    /// Running user-level statistics.
    pub stats: ArrayStats,
    completions: VecDeque<IoResult>,
    pub(crate) rebuild: Option<crate::rebuild::RebuildState>,
    pub(crate) scrub: Option<crate::scrub::ScrubState>,
    pub(crate) tracer: Option<crate::trace::Tracer>,
    pub(crate) bitmap: crate::bitmap::WriteIntentBitmap,
    /// Host-controller incarnation, bumped by [`ArraySim::simulate_host_crash`]:
    /// work the crashed controller had parked for later (fail-fast
    /// completions on a failed array) checks it and dies with that
    /// controller.
    pub(crate) host_epoch: u64,
    pub(crate) fault_mgr: Option<crate::fault::FaultManagerState>,
    /// Step buffers of finished ops, reused by the next launches (see
    /// [`crate::exec::Steps`]).
    pub(crate) step_pool: Vec<crate::exec::Steps>,
    /// Compiled op shapes, cleared by [`ArraySim::change_member`].
    pub(crate) shapes: crate::exec::ShapeCache,
    /// Emptied segment buffers of finished ops, which the next stripe ops
    /// map into (see [`Layout::map_stripe_into`]).
    pub(crate) segment_pool: Vec<Vec<crate::layout::Segment>>,
    /// Scratch list of a degraded read's eligible reducers, refilled by
    /// every [`ArraySim::choose_reducer`].
    reducer_candidates: Vec<usize>,
    /// Ops finished since the last sampled invariant audit (see
    /// [`ArraySim::audit_invariants`]).
    pub(crate) ops_since_audit: u64,
}

impl std::fmt::Debug for ArraySim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArraySim")
            .field("system", &self.cfg.system)
            .field("level", &self.cfg.level)
            .field("width", &self.cfg.width)
            .field("faulty", &self.faulty)
            .field("inflight_ops", &(self.ops.len() - self.free_ops.len()))
            .finish()
    }
}

impl ArraySim {
    /// Creates an array over the cluster.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration is inconsistent or the cluster
    /// has fewer servers than the stripe width.
    pub fn new(cluster: Cluster, cfg: ArrayConfig) -> Result<Self, String> {
        cfg.validate()?;
        if cluster.width() < cfg.width {
            return Err(format!(
                "cluster has {} servers but the array needs {}",
                cluster.width(),
                cfg.width
            ));
        }
        let layout = Layout::new(&cfg);
        let member_servers: Vec<ServerId> = (0..cfg.width).map(ServerId).collect();
        let member_nodes: Vec<NodeId> = member_servers
            .iter()
            .map(|&s| cluster.server_node(s))
            .collect();
        let data = (cfg.data_mode == DataMode::Full).then(|| Box::new(DataPlane::new(layout)));
        Ok(ArraySim {
            cluster,
            layout,
            member_nodes,
            member_servers,
            faulty: BTreeSet::new(),
            health: HealthMonitor::new(cfg.width, cfg.op_deadline),
            locks: LockTable::new(),
            ops: Vec::new(),
            free_ops: Vec::new(),
            next_gen: 1,
            users: HashMap::default(),
            next_io: 1,
            data,
            selector: ReducerSelector::new(cfg.width),
            bw_probe: BwProbe::new(cfg.width),
            rng: DetRng::new(cfg.seed),
            stats: ArrayStats::new(),
            completions: VecDeque::new(),
            rebuild: None,
            scrub: None,
            tracer: None,
            bitmap: crate::bitmap::WriteIntentBitmap::new(),
            host_epoch: 0,
            fault_mgr: None,
            step_pool: Vec::new(),
            shapes: crate::exec::ShapeCache::default(),
            segment_pool: Vec::new(),
            reducer_candidates: Vec::new(),
            ops_since_audit: 0,
            cfg,
        })
    }

    /// The array's configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// The stripe geometry.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Whether at least one member is faulty.
    pub fn is_degraded(&self) -> bool {
        !self.faulty.is_empty()
    }

    /// Whether more members failed than the level tolerates.
    pub fn is_failed(&self) -> bool {
        self.faulty.len() > self.cfg.level.parity_count()
    }

    /// Runs the runtime invariant checkers on demand: cluster-wide byte
    /// conservation on every NIC direction and drive channel. The executor
    /// also samples this automatically every 64 finished ops; call it at the
    /// end of a scenario for a final full audit. A no-op unless invariants
    /// are enabled (debug builds or the `strict-invariants` feature).
    ///
    /// # Panics
    ///
    /// Panics when a conservation ledger does not balance.
    pub fn audit_invariants(&self) {
        self.cluster.audit_conservation();
    }

    /// Currently faulty member indices, ascending.
    pub fn faulty_members(&self) -> Vec<usize> {
        self.faulty.iter().copied().collect()
    }

    /// The chunk store, when running with a full data plane, once every
    /// queued write has applied.
    pub fn store(&mut self) -> Option<&ChunkStore> {
        self.data.as_mut().map(|d| &*d.store())
    }

    /// Mutable chunk-store access (fault injection in tests and examples),
    /// once every queued write has applied.
    pub fn store_mut(&mut self) -> Option<&mut ChunkStore> {
        self.data.as_mut().map(|d| d.store())
    }

    /// Submits a user I/O; the result is later available via
    /// [`ArraySim::drain_completions`].
    pub fn submit(&mut self, eng: &mut Engine<ArraySim>, io: UserIo) -> IoId {
        self.submit_with_hook(eng, io, None)
    }

    /// Submits a user I/O with a completion hook (closed-loop drivers).
    ///
    /// # Panics
    ///
    /// Panics if the I/O has zero length, or a full-data-mode write's payload
    /// length disagrees with `len`.
    pub fn submit_with_hook(
        &mut self,
        eng: &mut Engine<ArraySim>,
        io: UserIo,
        hook: Option<CompletionHook>,
    ) -> IoId {
        assert!(io.len > 0, "zero-length I/O");
        if let Some(data) = &io.data {
            assert_eq!(data.len() as u64, io.len, "payload length mismatch");
        }
        let (id, submitted) = (self.next_io, eng.now());
        self.next_io += 1;

        if self.is_failed() {
            let user = UserState {
                submitted,
                pending: 0,
                degraded: false,
                error: Some(IoError::ArrayFailed),
                hook,
                io,
            };
            self.users.insert(id, user);
            // A host crash before this fires takes the I/O with it.
            let epoch = self.host_epoch;
            eng.schedule_in(SimTime::ZERO, move |w: &mut ArraySim, eng| {
                if w.host_epoch == epoch {
                    w.complete_user(eng, id);
                }
            });
            return IoId(id);
        }

        let (kind, offset, len) = (io.kind, io.offset, io.len);
        let stripes = self.layout.stripes(offset, len);
        let user = UserState {
            submitted,
            pending: (stripes.end - stripes.start) as usize,
            degraded: false,
            error: None,
            hook,
            io,
        };
        self.users.insert(id, user);
        if let Some(data) = &mut self.data {
            data.start_io(id, kind, len);
        }

        for stripe in stripes {
            if kind == IoKind::Write {
                // §5.4 host-failure recovery: record the write intent before
                // any remote I/O is issued.
                self.bitmap.mark(stripe);
            }
            let mut sio = self.pooled_stripe_io(stripe);
            self.layout.map_stripe_into(offset, len, stripe, &mut sio);
            let gen = self.fresh_gen();
            let idx = self.alloc_op(OpState::new(gen, id, sio, kind.into()));
            let needs_lock = kind == IoKind::Write || self.reads_locked();
            if needs_lock {
                self.ops[idx].as_mut().expect("fresh op").holds_lock = true;
                if self.locks.acquire(stripe, idx) {
                    self.launch_op(eng, idx);
                }
                // else: launched when the holder releases.
            } else {
                self.launch_op(eng, idx);
            }
        }
        IoId(id)
    }

    /// Whether this configuration serializes reads through stripe locks.
    pub(crate) fn reads_locked(&self) -> bool {
        self.cfg.system != SystemKind::Draid || !self.cfg.draid.lockfree_read
    }

    /// Takes all completions produced so far.
    pub fn drain_completions(&mut self) -> Vec<IoResult> {
        self.completions.drain(..).collect()
    }

    /// Permanently fails a member: the drive errors out and the array enters
    /// degraded state immediately (the §9.4/§9.5 experiment setup). A
    /// scheduled [`FaultAction::FailDrive`](crate::FaultAction::FailDrive)
    /// kills the drive without telling the array, so the §5.4 detection
    /// path has to discover it.
    pub fn fail_member(&mut self, member: usize) {
        assert!(member < self.cfg.width, "member out of range");
        self.cluster
            .drive_mut(self.member_servers[member])
            .fail_permanently();
        self.mark_faulty(member);
    }

    pub(crate) fn mark_faulty(&mut self, member: usize) {
        if self.change_member(member, MemberChange::Fail) {
            self.health.set_state(member, HealthState::Faulty);
            self.cluster
                .drive_mut(self.member_servers[member])
                .fail_permanently();
            if let Some(data) = &mut self.data {
                data.drop_member(member);
            }
        }
    }

    /// The one place the builders' array-level inputs (`faulty`,
    /// `member_nodes`, `member_servers`) change. Returns whether anything
    /// changed; if so, drops the op-shape templates compiled against the
    /// old state.
    pub(crate) fn change_member(&mut self, member: usize, change: MemberChange) -> bool {
        let changed = match change {
            MemberChange::Fail => self.faulty.insert(member),
            MemberChange::Replace(spare) => {
                self.member_servers[member] = spare;
                self.member_nodes[member] = self.cluster.server_node(spare);
                self.faulty.remove(&member);
                true
            }
        };
        if changed {
            self.shapes.clear();
        }
        changed
    }

    /// Per-member health: states, latency EWMAs, and error evidence.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// The member a server currently backs, if any (spares and already
    /// swapped-out drives back nobody).
    pub(crate) fn member_of(&self, server: ServerId) -> Option<usize> {
        self.member_servers.iter().position(|&s| s == server)
    }

    /// The member whose target currently sits at `node`, if any.
    pub(crate) fn member_of_node(&self, node: NodeId) -> Option<usize> {
        self.member_nodes.iter().position(|&n| n == node)
    }

    /// Records a drive error toward the §5.4 prolonged-failure detector.
    /// Errors within one op-deadline window count once (a single burst of
    /// failing retries is one piece of evidence, not many), and any
    /// successful drive I/O resets the count — so only failures that
    /// *persist* across several deadline windows fault the member. The
    /// evidence escalates through the [`HealthState`] ladder; reaching
    /// `Faulty` declares the member.
    pub(crate) fn note_member_error(&mut self, now: SimTime, member: usize) {
        if member >= self.cfg.width {
            return; // spare drives are outside the member health table
        }
        if self.health.record_error(member, now) == HealthState::Faulty {
            self.mark_faulty(member);
        }
    }

    /// A successful drive I/O proves the member is alive and feeds its
    /// latency EWMA (the fail-slow detector's signal).
    pub(crate) fn note_member_success(&mut self, member: usize, latency: SimTime) {
        if member < self.cfg.width {
            self.health.record_success(member, latency);
        }
    }

    pub(crate) fn reset_member_errors(&mut self, member: usize) {
        self.health.reset(member);
    }

    pub(crate) fn fresh_gen(&mut self) -> u64 {
        let g = self.next_gen;
        self.next_gen += 1;
        g
    }

    pub(crate) fn alloc_op(&mut self, op: OpState) -> usize {
        if let Some(idx) = self.free_ops.pop() {
            self.ops[idx] = Some(op);
            idx
        } else {
            self.ops.push(Some(op));
            self.ops.len() - 1
        }
    }

    /// Chooses the reducer for a degraded read on `stripe` (§6): uniformly at
    /// random, or by the bandwidth-aware probabilities.
    pub(crate) fn choose_reducer(&mut self, now: SimTime, stripe: u64) -> usize {
        let eligible = &mut self.reducer_candidates;
        eligible.clear();
        eligible.extend(
            (0..self.layout.data_chunks())
                .map(|k| self.layout.data_member(stripe, k))
                .chain(std::iter::once(self.layout.p_member(stripe)))
                .filter(|m| !self.faulty.contains(m)),
        );
        eligible.sort_unstable();
        assert!(!eligible.is_empty(), "no eligible reducer");
        match self.cfg.draid.reducer {
            ReducerPolicy::Random => eligible[self.rng.below(eligible.len() as u64) as usize],
            ReducerPolicy::BandwidthAware => {
                self.maybe_update_selector(now);
                self.selector
                    .choose(&mut self.rng, &self.reducer_candidates)
            }
        }
    }

    fn maybe_update_selector(&mut self, now: SimTime) {
        let elapsed = now.saturating_sub(self.bw_probe.prev_time);
        if elapsed < SELECTOR_PERIOD {
            return;
        }
        let mut available = Vec::with_capacity(self.cfg.width);
        for m in 0..self.cfg.width {
            let node = self.member_nodes[m];
            let busy = self.cluster.fabric().egress_busy(node);
            let delta = busy.saturating_sub(self.bw_probe.prev_busy[m]);
            let util = (delta.as_secs_f64() / elapsed.as_secs_f64()).min(1.0);
            let rate = self.cluster.fabric().node_rate(node).bytes_per_sec() as f64;
            available.push(rate * (1.0 - util));
            self.bw_probe.prev_busy[m] = busy;
        }
        self.bw_probe.prev_time = now;
        self.selector.update(now, &available);
    }

    /// Finishes bookkeeping for a completed user I/O and notifies hooks.
    pub(crate) fn complete_user(&mut self, eng: &mut Engine<ArraySim>, id: u64) {
        let user = self.users.remove(&id).expect("unknown user io");
        debug_assert_eq!(user.pending, 0);
        let now = eng.now();
        let latency = now.saturating_sub(user.submitted);
        let ok = user.error.is_none();
        let (kind, len) = (user.io.kind, user.io.len);
        self.stats.record(kind, len, latency, ok);
        if ok && user.degraded {
            self.stats.degraded_ios += 1;
        }
        let result = IoResult {
            id: IoId(id),
            kind: user.io.kind,
            offset: user.io.offset,
            len: user.io.len,
            submitted: user.submitted,
            completed: now,
            data: self.data.as_mut().and_then(|d| d.finish_io(id)),
            error: user.error,
        };
        if let Some(hook) = user.hook {
            hook(self, eng, &result);
        }
        self.completions.push_back(result);
    }

    /// The §5.4 write-intent bitmap (stripes whose writes are in flight).
    pub fn write_intent(&self) -> &crate::bitmap::WriteIntentBitmap {
        &self.bitmap
    }

    /// Simulates a host-controller crash and restart (§5.4 "host failures"):
    /// every in-flight operation and queued stripe lock is lost, outstanding
    /// user I/Os never complete (their issuer is gone), and the write-intent
    /// bitmap drives a parity resync of only the dirty stripes — no
    /// full-array scan. Returns the stripes being resynced.
    pub fn simulate_host_crash(&mut self, eng: &mut Engine<ArraySim>) -> Vec<u64> {
        // The crashed controller's state evaporates. Every armed deadline
        // and pending retry launch is canceled outright — a retry timer
        // firing on a recycled slot after the restart would double-launch
        // an unrelated op. Generation checks remain as the second line of
        // defense for in-flight step completions.
        for slot in &mut self.ops {
            if let Some(op) = slot.take() {
                if let Some(h) = op.deadline_timer {
                    eng.cancel(h);
                }
                if let Some(h) = op.launch_timer {
                    eng.cancel(h);
                }
            }
        }
        self.free_ops = (0..self.ops.len()).rev().collect();
        self.users.clear();
        if let Some(data) = &mut self.data {
            data.host_crash();
        }
        self.host_epoch += 1;
        self.locks = LockTable::new();
        if let Some(r) = self.rebuild.take() {
            for h in r.backoff_timers {
                eng.cancel(h);
            }
        }
        self.scrub = None;

        let dirty = self.bitmap.dirty_stripes();
        for &stripe in &dirty {
            self.resync_stripe(eng, stripe);
        }
        dirty
    }

    /// Rewrites one stripe's parity from its data (md's `repair` sync
    /// action) — the follow-up to a scrub finding. Read-modify-write would
    /// *preserve* a corrupted parity chunk (it only applies deltas), so
    /// repair must re-encode from scratch, which is exactly the resync op.
    pub fn repair_stripe(&mut self, eng: &mut Engine<ArraySim>, stripe: u64) {
        self.resync_stripe(eng, stripe);
    }

    /// Launches a parity resync of one stripe: a reconstruct-write with no
    /// new data — every surviving data chunk is read and the parity
    /// rewritten from scratch, guaranteeing consistency regardless of where
    /// the crashed write stopped.
    fn resync_stripe(&mut self, eng: &mut Engine<ArraySim>, stripe: u64) {
        let io = self.pooled_stripe_io(stripe);
        let gen = self.fresh_gen();
        let mut op = OpState::new(gen, 0, io, OpKind::Resync);
        op.holds_lock = true;
        let idx = self.alloc_op(op);
        if self.locks.acquire(stripe, idx) {
            self.launch_op(eng, idx);
        }
    }

    /// Enables step-level tracing with a bounded buffer; see
    /// [`crate::trace::Tracer`].
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Some(crate::trace::Tracer::new(capacity));
    }

    /// The trace captured so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&crate::trace::Tracer> {
        self.tracer.as_ref()
    }

    /// Stops tracing and returns the captured trace.
    pub fn take_trace(&mut self) -> Option<crate::trace::Tracer> {
        self.tracer.take()
    }

    /// Resets measurement counters (stats + cluster resources) at the end of
    /// a warm-up phase. `now` marks the measurement-window start: resource
    /// work straddling the boundary keeps only its in-window share.
    pub fn reset_measurement(&mut self, now: SimTime) {
        self.stats.reset();
        self.cluster.reset_counters(now);
    }

    /// Number of stripe operations currently in flight.
    pub fn inflight_ops(&self) -> usize {
        self.ops.iter().flatten().count()
    }
}
