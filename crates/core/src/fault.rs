//! The fault-management plane: automatic detect → declare → rebuild, plus a
//! declarative fault-injection schedule for chaos tests.
//!
//! The paper's operational story (§5.4, §6) ends with "the array rebuilds
//! onto a spare from the storage pool". The manager that
//! [`ArraySim::enable_fault_manager`] turns on closes that loop: whenever
//! the health plane declares a member faulty, the manager picks the first
//! healthy drive in the cluster's shared pool and starts the reconstruction
//! itself ([`ArraySim::start_rebuild`]), then re-arms for the next failure.
//!
//! The engine drains its event queue to completion, so the manager cannot
//! run on a self-rescheduling timer (the run would never terminate).
//! Instead it ticks from op completions — every finished stripe op, rebuild
//! chunk, and scrub check offers a tick — and rate-limits itself to one
//! sweep per `MANAGER_PERIOD`. Under any live workload that converges to
//! "the manager runs at most once per period"; with no I/O at all there is
//! nothing to manage (and nothing to rebuild from, either). The period and
//! the rebuild's concurrency are constants, not settings: the recovery
//! story runs one way.
//!
//! Injection is the other half, with one vocabulary: every fault is a
//! [`FaultAction`] value, and [`ArraySim::inject`] applies it at the instant
//! the engine fires it. A [`FaultSchedule`] is a deterministic, declarative
//! script of such actions ("at 2 ms, kill member 3's drive; at 5 ms, flap
//! member 1's link") installed as plain engine events, so chaos tests state
//! their scenario up front instead of interleaving injection calls with the
//! workload loop; a test that needs a fault at a computed instant schedules
//! its own event that calls `inject`.

use draid_block::ServerId;
use draid_net::LinkDir;
use draid_sim::{Engine, SimTime};

use crate::array::ArraySim;

/// Minimum spacing between management sweeps (fail-slow checks, spare
/// draws): 500 µs, far inside the §5.4 detection window (three errors at
/// least an eighth of the op deadline apart), so a declared member's
/// rebuild starts within a sweep of its declaration. Sweeps are driven by
/// op completions, so the effective period is
/// `max(MANAGER_PERIOD, inter-completion gap)`.
const MANAGER_PERIOD: SimTime = SimTime::from_micros(500);

/// Concurrent stripe reconstructions in a rebuild the manager starts: 3.
const REBUILD_CONCURRENCY: usize = 3;

pub(crate) struct FaultManagerState {
    /// Extent of the used region a rebuild must cover, in stripes.
    pub rebuild_stripes: u64,
    pub last_tick: SimTime,
    pub auto_rebuilds: u64,
}

impl ArraySim {
    /// Enables the automatic fault manager: from now on, declared-faulty
    /// members are rebuilt onto pool spares without operator intervention,
    /// each rebuild covering the first `rebuild_stripes` stripes with 3
    /// reconstructions in flight, and the fail-slow detector sweeps at most
    /// once per 500 µs. Sweeps ride on op completions: the first completion
    /// at least 500 µs after the last sweep runs the next one.
    pub fn enable_fault_manager(&mut self, rebuild_stripes: u64) {
        self.fault_mgr = Some(FaultManagerState {
            rebuild_stripes,
            last_tick: SimTime::ZERO,
            auto_rebuilds: 0,
        });
    }

    /// Rebuilds the manager has started on its own.
    pub fn fault_manager_rebuilds(&self) -> u64 {
        self.fault_mgr.as_ref().map_or(0, |f| f.auto_rebuilds)
    }

    /// One management sweep, offered on every op completion and rate-limited
    /// to one per `MANAGER_PERIOD`.
    pub(crate) fn maybe_tick_fault_manager(&mut self, eng: &mut Engine<ArraySim>) {
        let now = eng.now();
        let Some(fm) = &mut self.fault_mgr else {
            return;
        };
        if now.saturating_sub(fm.last_tick) < MANAGER_PERIOD {
            return;
        }
        fm.last_tick = now;
        let rebuild_stripes = fm.rebuild_stripes;

        // Fail-slow sweep: gray members get quarantined (visible via
        // `health()`); declaration stays with the error-evidence path, so a
        // merely slow member never triggers a rebuild by itself.
        self.health.check_fail_slow(now);

        // Declared failures: draw a spare from the pool and reconstruct.
        // One rebuild at a time (the rebuilder's own constraint); the next
        // faulty member is picked up by a later sweep once this one lands.
        if self.rebuild.is_some() || self.is_failed() || self.faulty.is_empty() {
            return;
        }
        let member = *self.faulty.iter().min().expect("non-empty faulty set");
        if let Some(spare) = self.find_spare(now) {
            self.start_rebuild(eng, member, spare, rebuild_stripes, REBUILD_CONCURRENCY);
            if let Some(fm) = &mut self.fault_mgr {
                fm.auto_rebuilds += 1;
            }
        }
    }

    /// The first drive in the shared pool that backs no member and is
    /// healthy right now (Table 1: "hot spare: storage pool").
    fn find_spare(&self, now: SimTime) -> Option<ServerId> {
        (0..self.cluster.width()).map(ServerId).find(|&s| {
            self.member_of(s).is_none()
                && self.cluster.drive(s).state(now) == draid_block::DriveState::Healthy
        })
    }

    /// Applies one fault to the array at `now`, the instant the engine
    /// fires it: the one entry point for every injected fault, whether a
    /// [`FaultSchedule`] installed it or a test's own engine event calls it.
    ///
    /// # Panics
    ///
    /// Panics if the action's member is out of range.
    pub fn inject(&mut self, now: SimTime, action: FaultAction) {
        let (FaultAction::FailDrive { member }
        | FaultAction::DeclareFailed { member }
        | FaultAction::Transient { member, .. }
        | FaultAction::FailSlow { member, .. }
        | FaultAction::LinkDown { member, .. }
        | FaultAction::FlapLink { member, .. }
        | FaultAction::DegradeLink { member, .. }
        | FaultAction::Corrupt { member, .. }) = action;
        assert!(member < self.cfg.width, "member out of range");
        let server = self.member_servers[member];
        let node = self.member_nodes[member];
        match action {
            // The array is not told: the §5.4 detection path (timeouts,
            // errored retries, windowed evidence) has to declare it.
            FaultAction::FailDrive { .. } => self.cluster.drive_mut(server).fail_permanently(),
            FaultAction::DeclareFailed { .. } => self.fail_member(member),
            // The host discovers it through timeouts and retries; the member
            // becomes faulty only if errors persist past the threshold.
            FaultAction::Transient { duration, .. } => self
                .cluster
                .drive_mut(server)
                .fail_transiently(now, duration),
            FaultAction::FailSlow { factor, .. } => {
                self.cluster.drive_mut(server).set_fail_slow(factor)
            }
            FaultAction::LinkDown { duration, .. } => {
                let until = duration.map_or(SimTime::MAX, |d| now + d);
                self.cluster
                    .fabric_mut()
                    .schedule_link_down(node, now, until);
            }
            FaultAction::FlapLink {
                down_for,
                up_for,
                cycles,
                ..
            } => {
                let mut t = now;
                for _ in 0..cycles {
                    self.cluster
                        .fabric_mut()
                        .schedule_link_down(node, t, t + down_for);
                    t = t + down_for + up_for;
                }
            }
            FaultAction::DegradeLink {
                dir,
                factor,
                duration,
                ..
            } => self
                .cluster
                .fabric_mut()
                .degrade_link(node, dir, factor, now, now + duration),
            FaultAction::Corrupt { stripe, byte, .. } => {
                if let Some(data) = &mut self.data {
                    data.corrupt_chunk(stripe, member, byte);
                }
            }
        }
    }
}

/// One injected fault, applied by [`ArraySim::inject`] (directly or through
/// a [`FaultSchedule`]).
#[derive(Clone, Copy, Debug)]
pub enum FaultAction {
    /// Drive fails permanently; the host must *discover* it (§5.4).
    FailDrive {
        /// Member whose drive dies.
        member: usize,
    },
    /// Member is declared faulty immediately (skips detection).
    DeclareFailed {
        /// Member to declare.
        member: usize,
    },
    /// Drive errors out for a bounded window, then recovers.
    Transient {
        /// Member affected.
        member: usize,
        /// How long the drive errors.
        duration: SimTime,
    },
    /// Drive serves `factor ×` slower with no errors (gray failure).
    FailSlow {
        /// Member affected.
        member: usize,
        /// Slowdown multiple (`1.0` restores full speed).
        factor: f64,
    },
    /// Member's network link drops, forever or for a bounded window.
    LinkDown {
        /// Member whose target's link drops.
        member: usize,
        /// `None` = for good.
        duration: Option<SimTime>,
    },
    /// Member's link flaps: down/up cycles starting at the event time.
    FlapLink {
        /// Member whose target's link flaps.
        member: usize,
        /// Down time per cycle.
        down_for: SimTime,
        /// Up time per cycle.
        up_for: SimTime,
        /// Number of down/up cycles.
        cycles: u32,
    },
    /// Member's link runs at a fraction of its rate for a window.
    DegradeLink {
        /// Member whose target's link degrades.
        member: usize,
        /// Which direction degrades.
        dir: LinkDir,
        /// Remaining fraction of the link rate, in `(0, 1]`.
        factor: f64,
        /// How long the degradation lasts.
        duration: SimTime,
    },
    /// Flips one stored byte of a chunk (silent latent corruption for the
    /// scrubber to find). No-op in timing mode.
    Corrupt {
        /// Stripe holding the chunk.
        stripe: u64,
        /// Member holding the chunk.
        member: usize,
        /// Byte offset within the chunk to flip.
        byte: usize,
    },
}

/// A declarative, deterministic script of fault injections.
///
/// Build the scenario up front with [`at`](FaultSchedule::at), then
/// [`install`](FaultSchedule::install) it on the engine before running the
/// workload; each action reaches [`ArraySim::inject`] at its instant:
///
/// ```
/// use draid_block::Cluster;
/// use draid_core::{ArrayConfig, ArraySim, FaultAction, FaultSchedule, SystemKind};
/// use draid_sim::{Engine, SimTime};
///
/// let cfg = ArrayConfig::paper_default(SystemKind::Draid);
/// let mut array = ArraySim::new(Cluster::homogeneous(8), cfg)?;
/// let mut engine = Engine::new();
/// FaultSchedule::new()
///     .at(SimTime::from_millis(2), FaultAction::FailDrive { member: 3 })
///     .at(
///         SimTime::from_millis(5),
///         FaultAction::FlapLink {
///             member: 1,
///             down_for: SimTime::from_micros(300),
///             up_for: SimTime::from_micros(700),
///             cycles: 4,
///         },
///     )
///     .install(&mut engine);
/// engine.run(&mut array);
/// assert_eq!(engine.now(), SimTime::from_millis(5));
/// # Ok::<(), String>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<(SimTime, FaultAction)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `action` at `at`.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push((at, action));
        self
    }

    /// Schedules every injection on the engine. Call before (or while)
    /// running the workload; the events fire at their simulated times.
    pub fn install(self, eng: &mut Engine<ArraySim>) {
        for (at, action) in self.events {
            eng.schedule_at(at, move |w: &mut ArraySim, eng| w.inject(eng.now(), action));
        }
    }
}
