//! The cursor shared by the array's background passes — hot-spare rebuild
//! and scrub — plus the launch of their per-stripe ops, which run through
//! the executor like any other stripe op.

use draid_sim::Engine;

use crate::array::ArraySim;
use crate::exec::{OpKind, OpState};
use crate::layout::Segment;

/// A pass over stripes `0..total` that keeps at most `concurrency` stripe
/// ops in flight. Stripes are handed out in order; a failed stripe stays
/// claimed until its own relaunch succeeds, so each stripe counts as done
/// exactly once.
#[derive(Debug)]
pub(crate) struct Sweep {
    /// Stripes in the pass.
    pub total: u64,
    /// Most stripe ops in flight at once.
    pub concurrency: usize,
    next: u64,
    /// Claimed stripes not done yet, including failed ones awaiting a
    /// relaunch.
    inflight: Vec<u64>,
}

impl Sweep {
    pub fn new(total: u64, concurrency: usize) -> Self {
        Sweep {
            total,
            concurrency,
            next: 0,
            inflight: Vec::new(),
        }
    }

    /// Claims the next stripe, unless all are claimed or `concurrency` are
    /// in flight.
    pub fn claim(&mut self) -> Option<u64> {
        if self.next >= self.total || self.inflight.len() >= self.concurrency {
            return None;
        }
        let stripe = self.next;
        self.next += 1;
        self.inflight.push(stripe);
        Some(stripe)
    }

    /// Marks claimed `stripe` done.
    pub fn finish(&mut self, stripe: u64) {
        let i = self.inflight.iter().position(|&s| s == stripe);
        self.inflight
            .swap_remove(i.expect("finish of an unclaimed stripe"));
    }

    /// Whether `stripe` is claimed and not done yet.
    pub fn is_inflight(&self, stripe: u64) -> bool {
        self.inflight.contains(&stripe)
    }

    /// Whether `stripe` is done.
    pub fn is_done(&self, stripe: u64) -> bool {
        stripe < self.next && !self.is_inflight(stripe)
    }

    /// Stripes done so far.
    pub fn done(&self) -> u64 {
        self.next - self.inflight.len() as u64
    }

    /// Whether every stripe is done.
    pub fn is_complete(&self) -> bool {
        self.done() == self.total
    }
}

impl ArraySim {
    /// Launches one background stripe op: a rebuild of the member's chunk of
    /// `stripe`, or a scrub of the whole stripe.
    pub(crate) fn launch_sweep_op(
        &mut self,
        eng: &mut Engine<ArraySim>,
        stripe: u64,
        kind: OpKind,
    ) {
        let mut io = self.pooled_stripe_io(stripe);
        if let OpKind::Rebuild { member, .. } = kind {
            io.segments.push(Segment {
                data_index: self.layout.data_index_of(stripe, member).unwrap_or(0),
                member,
                offset: 0,
                len: self.layout.chunk_size(),
            });
        }
        let gen = self.fresh_gen();
        let op = OpState::new(gen, 0, io, kind);
        let idx = self.alloc_op(op);
        self.launch_op(eng, idx);
    }
}
