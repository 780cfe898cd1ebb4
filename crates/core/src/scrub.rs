//! Background scrubbing (patrol read): periodically read every stripe and
//! verify its parity, catching latent corruption before a failure makes it
//! unrecoverable. Classic md/enterprise-array practice, built from the same
//! disaggregated machinery as §6 reconstruction: every member streams its
//! chunk to a reducer, which verifies the parity relation without the data
//! ever crossing the host NIC.

use draid_sim::Engine;

use crate::array::ArraySim;
use crate::exec::OpKind;
use crate::sweep::Sweep;

/// Progress and findings of a scrub pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubStatus {
    /// Stripes checked so far.
    pub checked: u64,
    /// Total stripes in the pass.
    pub total: u64,
    /// Stripes whose stored parity did not match their data (data plane
    /// only; timing mode always verifies clean).
    pub mismatches: Vec<u64>,
    /// Whether the pass is still running.
    pub running: bool,
}

pub(crate) struct ScrubState {
    sweep: Sweep,
    mismatches: Vec<u64>,
}

impl ArraySim {
    /// Starts a scrub pass over stripes `0..stripes` with the given
    /// concurrency. Runs alongside foreground I/O; findings are available
    /// from [`ArraySim::scrub_status`] when the pass drains.
    ///
    /// # Panics
    ///
    /// Panics if a scrub is already running, the array is failed, or
    /// `concurrency == 0`.
    pub fn start_scrub(&mut self, eng: &mut Engine<ArraySim>, stripes: u64, concurrency: usize) {
        assert!(self.scrub.is_none(), "a scrub is already in progress");
        assert!(!self.is_failed(), "cannot scrub a failed array");
        assert!(concurrency > 0, "scrub concurrency must be positive");
        self.scrub = Some(ScrubState {
            sweep: Sweep::new(stripes, concurrency),
            mismatches: Vec::new(),
        });
        self.pump_scrub(eng);
    }

    /// Progress of the current or completed scrub pass.
    pub fn scrub_status(&self) -> Option<ScrubStatus> {
        self.scrub.as_ref().map(|s| ScrubStatus {
            checked: s.sweep.done(),
            total: s.sweep.total,
            mismatches: s.mismatches.clone(),
            running: !s.sweep.is_complete(),
        })
    }

    /// Clears a completed scrub's findings; returns them.
    ///
    /// # Panics
    ///
    /// Panics if the scrub is still running.
    pub fn take_scrub_report(&mut self) -> Option<ScrubStatus> {
        if let Some(s) = &self.scrub {
            assert!(s.sweep.is_complete(), "scrub still running");
        }
        let s = self.scrub.take()?;
        Some(ScrubStatus {
            checked: s.sweep.done(),
            total: s.sweep.total,
            mismatches: s.mismatches,
            running: false,
        })
    }

    /// Launches checks of the next stripes, up to the concurrency.
    fn pump_scrub(&mut self, eng: &mut Engine<ArraySim>) {
        while let Some(stripe) = self.scrub.as_mut().and_then(|s| s.sweep.claim()) {
            self.launch_sweep_op(eng, stripe, OpKind::Scrub);
        }
    }

    /// Called by the executor when a scrub stripe op finishes.
    pub(crate) fn on_scrub_op_done(
        &mut self,
        eng: &mut Engine<ArraySim>,
        stripe: u64,
        failed: bool,
    ) {
        // Verify against the data plane (when present) at completion time.
        let clean = match &self.store {
            Some(store) => store.verify_stripe(stripe),
            None => true,
        };
        let Some(s) = &mut self.scrub else {
            return;
        };
        s.sweep.finish(stripe);
        // Unreadable stripes count as findings too.
        let mismatch = failed || !clean;
        if mismatch {
            s.mismatches.push(stripe);
        }
        self.pump_scrub(eng);
        // md's `repair` sync action: a flagged stripe gets its parity
        // rewritten from the data immediately, so latent corruption never
        // survives until the next member failure makes it unrecoverable.
        if mismatch && !clean && self.cfg.scrub_repair && !self.is_failed() {
            self.stats.scrub_repairs += 1;
            self.repair_stripe(eng, stripe);
        }
        self.maybe_tick_fault_manager(eng);
    }
}
