//! Hot-spare rebuild: background reconstruction of a faulty member onto a
//! spare drive drawn from the shared storage pool.
//!
//! Table 1 contrasts dRAID's "hot spare: storage pool" with the dedicated
//! spares of single-machine RAID; §6 supplies the mechanism (disaggregated
//! reconstruction with reducer selection). The rebuilder walks the stripes,
//! reconstructing the lost chunk of each at a reducer chosen by the
//! configured §6 policy and writing it to the spare — peer-to-peer, without
//! the data ever crossing the host NIC. A bounded number of stripes rebuilds
//! concurrently so foreground I/O keeps flowing (§6.2's "RAID array is kept
//! online during recovery").
//!
//! Writes that land on already-rebuilt stripes are stored to the spare
//! directly; writes ahead of the cursor stay parity-encoded and are picked
//! up when the cursor reaches them, so the array is consistent at every
//! instant and fully healthy when the rebuild completes.

use draid_block::ServerId;
use draid_sim::{Engine, SimTime, TimerHandle};

use crate::array::ArraySim;
use crate::exec::OpKind;
use crate::sweep::Sweep;

/// Progress of an in-flight rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebuildStatus {
    /// Member being rebuilt.
    pub member: usize,
    /// Spare server receiving the reconstructed chunks.
    pub spare: ServerId,
    /// Stripes fully rebuilt so far.
    pub rebuilt: u64,
    /// Total stripes to rebuild.
    pub total: u64,
    /// Concurrent stripe reconstructions configured.
    pub concurrency: usize,
    /// When the rebuild started.
    pub started: SimTime,
}

impl RebuildStatus {
    /// Completion fraction in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.rebuilt as f64 / self.total as f64
        }
    }
}

pub(crate) struct RebuildState {
    pub member: usize,
    pub spare: ServerId,
    pub sweep: Sweep,
    pub started: SimTime,
    pub failures: u64,
    /// Backoff timers armed by failed stripe ops. Canceled when the rebuild
    /// finishes, is abandoned, or a host crash wipes it, so a stale
    /// relaunch can never leak into a later rebuild. Fired timers leave
    /// stale handles behind; canceling those is a no-op.
    pub backoff_timers: Vec<TimerHandle>,
}

impl ArraySim {
    /// Starts rebuilding faulty `member` onto `spare` (a server beyond the
    /// array width, i.e. a drive from the shared pool). `stripes` is the
    /// extent of the used region; `concurrency` bounds simultaneous stripe
    /// reconstructions.
    ///
    /// Completion is observable via [`ArraySim::rebuild_status`] /
    /// [`ArraySim::is_degraded`]; when the last stripe lands, the member is
    /// remapped to the spare and leaves the faulty set.
    ///
    /// # Panics
    ///
    /// Panics if `member` is not faulty, a rebuild is already running, the
    /// spare is one of the array's members, or `concurrency == 0`.
    pub fn start_rebuild(
        &mut self,
        eng: &mut Engine<ArraySim>,
        member: usize,
        spare: ServerId,
        stripes: u64,
        concurrency: usize,
    ) {
        assert!(
            self.faulty.contains(&member),
            "member {member} is not faulty"
        );
        assert!(self.rebuild.is_none(), "a rebuild is already in progress");
        assert!(
            !self.member_servers.contains(&spare),
            "spare {spare:?} already belongs to the array"
        );
        assert!(spare.0 < self.cluster.width(), "spare not in the cluster");
        assert!(concurrency > 0, "rebuild concurrency must be positive");
        self.health
            .set_state(member, crate::health::HealthState::Rebuilding);
        self.rebuild = Some(RebuildState {
            member,
            spare,
            sweep: Sweep::new(stripes, concurrency),
            started: eng.now(),
            failures: 0,
            backoff_timers: Vec::new(),
        });
        if stripes == 0 {
            self.finish_rebuild(eng);
            return;
        }
        self.pump_rebuild(eng);
    }

    /// Progress of the running rebuild, if any.
    pub fn rebuild_status(&self) -> Option<RebuildStatus> {
        self.rebuild.as_ref().map(|r| RebuildStatus {
            member: r.member,
            spare: r.spare,
            rebuilt: r.sweep.done(),
            total: r.sweep.total,
            concurrency: r.sweep.concurrency,
            started: r.started,
        })
    }

    /// Whether `stripe`'s copy of the rebuilding member is already on the
    /// spare (writes behind the cursor go straight to the spare).
    pub(crate) fn stripe_rebuilt(&self, stripe: u64, member: usize) -> bool {
        match &self.rebuild {
            Some(r) => r.member == member && r.sweep.is_done(stripe),
            None => false,
        }
    }

    /// Launches reconstruction of the next stripes, up to the concurrency.
    fn pump_rebuild(&mut self, eng: &mut Engine<ArraySim>) {
        while let Some(r) = &mut self.rebuild {
            let Some(stripe) = r.sweep.claim() else {
                return;
            };
            let kind = OpKind::Rebuild {
                member: r.member,
                spare: r.spare,
            };
            self.launch_sweep_op(eng, stripe, kind);
        }
    }

    /// Called by the executor when a rebuild stripe op finishes.
    pub(crate) fn on_rebuild_op_done(
        &mut self,
        eng: &mut Engine<ArraySim>,
        member: usize,
        spare: ServerId,
        stripe: u64,
        failed: bool,
    ) {
        // Materialize the reconstructed chunk in the data plane.
        if !failed {
            if let Some(store) = &mut self.store {
                store.rebuild_chunk(stripe, member, &self.faulty);
            }
        }
        let Some(r) = &mut self.rebuild else {
            return;
        };
        if r.member != member || r.spare != spare || !r.sweep.is_inflight(stripe) {
            return; // an op of an abandoned rebuild
        }
        if failed {
            r.failures += 1;
            if r.failures > r.sweep.total.max(8) * 3 {
                // The spare (or too many survivors) keeps erroring: abandon
                // the rebuild; the member stays faulty. Pending relaunches
                // die with it.
                let r = self.rebuild.take().expect("rebuild state present");
                for h in r.backoff_timers {
                    eng.cancel(h);
                }
                self.health
                    .set_state(member, crate::health::HealthState::Faulty);
                return;
            }
            // The stripe keeps its slot and is relaunched on its own after a
            // backoff, exactly like a §5.4 foreground retry — relaunching
            // immediately would grind through the whole failure budget
            // within a short transient (drive errors are instantaneous) and
            // abandon a salvageable rebuild.
            let attempt = r.failures.min(3) as u32;
            let backoff =
                crate::exec::retry_backoff(self.cfg.op_deadline, attempt, self.fresh_gen());
            let kind = OpKind::Rebuild { member, spare };
            let h = eng.schedule_timer_in(backoff, move |w: &mut ArraySim, eng| {
                w.launch_sweep_op(eng, stripe, kind);
            });
            if let Some(r) = &mut self.rebuild {
                r.backoff_timers.push(h);
            }
        } else {
            r.sweep.finish(stripe);
            if r.sweep.is_complete() {
                self.finish_rebuild(eng);
            } else {
                self.pump_rebuild(eng);
            }
        }
        self.maybe_tick_fault_manager(eng);
    }

    /// Final swap: the spare becomes the member, the member leaves the
    /// faulty set, and the array returns to optimal state. Any backoff pump
    /// still armed (a failure raced the final completions) is canceled.
    fn finish_rebuild(&mut self, eng: &mut Engine<ArraySim>) {
        let r = self.rebuild.take().expect("rebuild state present");
        for h in &r.backoff_timers {
            eng.cancel(*h);
        }
        self.member_servers[r.member] = r.spare;
        self.member_nodes[r.member] = self.cluster.server_node(r.spare);
        self.faulty.remove(&r.member);
        self.reset_member_errors(r.member);
    }
}
