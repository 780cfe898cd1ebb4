//! The server-side controller: dRAID bdev command handling, transcribed
//! from the paper's pseudocode.
//!
//! * [`handle_data_chunk`] — Algorithm 1 (`HandleDataChunk(cmd)`): what a
//!   data bdev does on `PartialWrite` for each subtype — which bytes to
//!   fetch, read, write, and which partial-parity segment to forward where.
//! * [`ReduceState`] — Algorithm 2 (`bdevP` handling): partial parities keyed
//!   by offset, `wait_num` bookkeeping, and the non-blocking treatment of a
//!   late `Parity` command — reduction proceeds on peer arrivals; only the
//!   final persist awaits the command (§5.2).
//!
//! The DAG builders derive the same extents on their own rather than
//! calling these handlers; `tests/dag_shapes.rs` checks that the dRAID
//! write builder's per-member drive reads, drive writes, fetches and
//! forwards equal [`handle_data_chunk`]'s plan. The unit tests below check
//! the handlers against the paper's semantics (including arrival-order
//! independence and the late-Parity case).

use std::collections::HashMap;

use crate::protocol::{Command, Opcode, Subtype};

/// What a data bdev must do for one `PartialWrite` command (Algorithm 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataChunkPlan {
    /// Remote fetch of the new data from the host: `(offset, len)` within
    /// the chunk (`None` when the command carries no data, subtype RW_READ).
    pub fetch: Option<(u64, u64)>,
    /// Drive read feeding the partial parity: `(offset, len)`.
    pub drive_read: Option<(u64, u64)>,
    /// Drive write of the new data: `(offset, len)`.
    pub drive_write: Option<(u64, u64)>,
    /// The partial parity to forward: `(fwd_offset, fwd_length)` plus the
    /// destination member.
    pub forward: Option<PartialForward>,
    /// Whether generating the partial requires an XOR pass (RMW) or the
    /// buffer is forwarded as read/concatenated (reconstruct write).
    pub xor_needed: bool,
}

/// Destination and extent of a forwarded partial result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialForward {
    /// Member index of the receiving bdev (P, Q, or a reducer).
    pub dest: u32,
    /// Second destination for RAID-6's Q term, if any.
    pub dest2: Option<u32>,
    /// Offset of the forwarded segment within the chunk.
    pub fwd_offset: u64,
    /// Length of the forwarded segment.
    pub fwd_length: u64,
}

/// Executes Algorithm 1 for a `PartialWrite` capsule.
///
/// # Panics
///
/// Panics if the command is not a `PartialWrite` with a write subtype, or
/// is missing required fields — protocol violations are controller bugs.
pub fn handle_data_chunk(cmd: &Command) -> DataChunkPlan {
    assert_eq!(cmd.opcode, Opcode::PartialWrite, "not a PartialWrite");
    let subtype = cmd.subtype.expect("PartialWrite carries a subtype");
    let dest = cmd
        .next_dest
        .expect("PartialWrite names its reducer")
        .member;
    let forward = Some(PartialForward {
        dest,
        dest2: cmd.next_dest2.map(|d| d.member),
        fwd_offset: cmd.fwd_offset,
        fwd_length: cmd.fwd_length,
    });
    match subtype {
        // RMW (Alg. 1 l.2-4): read the old segment, XOR with the new one.
        Subtype::Rmw => DataChunkPlan {
            fetch: Some((cmd.offset, cmd.length)),
            drive_read: Some((cmd.offset, cmd.length)),
            drive_write: Some((cmd.offset, cmd.length)),
            forward,
            xor_needed: true,
        },
        // RW_WRITE (l.5-6): the partial is the full new chunk content —
        // read whatever the write does not cover and concatenate.
        Subtype::RwWrite => {
            let covers_all = cmd.offset == cmd.fwd_offset && cmd.length == cmd.fwd_length;
            DataChunkPlan {
                fetch: Some((cmd.offset, cmd.length)),
                drive_read: (!covers_all).then_some((cmd.fwd_offset, cmd.fwd_length - cmd.length)),
                drive_write: Some((cmd.offset, cmd.length)),
                forward,
                xor_needed: false,
            }
        }
        // RW_READ (l.7-8): untouched chunk contributes its stored bytes.
        Subtype::RwRead => DataChunkPlan {
            fetch: None,
            drive_read: Some((cmd.fwd_offset, cmd.fwd_length)),
            drive_write: None,
            forward,
            xor_needed: false,
        },
        other => panic!("subtype {other:?} is not a PartialWrite subtype"),
    }
}

/// One pending reduction slot (per stripe offset) on a parity bdev.
#[derive(Clone, Debug, Default)]
struct Slot {
    /// Partial results reduced so far.
    reduced: u32,
    /// Expected count from the `Parity` command (`None` until it arrives —
    /// the late-Parity case).
    expected: Option<u32>,
    /// Whether the preload of the old parity was requested (RMW only).
    preload: bool,
}

/// What the parity bdev should do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceEffect {
    /// Read the old parity extent from the drive (RMW preload).
    PreloadOldParity {
        /// Offset within the parity chunk.
        offset: u64,
        /// Length of the extent.
        length: u64,
    },
    /// Fetch and XOR one incoming partial into the accumulator.
    Reduce {
        /// Offset identifying the stripe write.
        offset: u64,
    },
    /// All expected partials arrived and the `Parity` command is here:
    /// persist the accumulator and signal the host (Alg. 2 `finish`).
    PersistAndSignal {
        /// Offset identifying the stripe write.
        offset: u64,
    },
}

/// Parity-bdev reduction state machine (Algorithm 2).
///
/// Offsets key the bookkeeping "because RAID does not allow concurrent write
/// on a stripe" — one in-flight write per offset.
#[derive(Clone, Debug, Default)]
pub struct ReduceState {
    slots: HashMap<u64, Slot>,
}

impl ReduceState {
    /// Creates an idle parity bdev.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of offsets with in-flight reductions.
    pub fn pending(&self) -> usize {
        self.slots.len()
    }

    /// Handles the host's `Parity` command (Alg. 2 `handle_host_parity`).
    /// Returns the effects to execute now. May arrive before or after peer
    /// partials; completion is emitted exactly once either way.
    ///
    /// # Panics
    ///
    /// Panics if the command is not `Parity`.
    pub fn handle_host_parity(&mut self, cmd: &Command) -> Vec<ReduceEffect> {
        assert_eq!(cmd.opcode, Opcode::Parity, "not a Parity command");
        let offset = cmd.fwd_offset;
        let mut effects = Vec::new();
        let slot = self.slots.entry(offset).or_default();
        debug_assert!(slot.expected.is_none(), "duplicate Parity command");
        slot.expected = Some(cmd.wait_num);
        if cmd.subtype == Some(Subtype::Rmw) && !slot.preload {
            slot.preload = true;
            effects.push(ReduceEffect::PreloadOldParity {
                offset,
                length: cmd.fwd_length,
            });
        }
        if let Some(done) = self.try_finish(offset) {
            effects.push(done);
        }
        effects
    }

    /// Handles a `Peer` partial-parity arrival (Alg. 2
    /// `handle_peer_partial_parity`). Reduction never waits for the `Parity`
    /// command (§5.2: "partial parity reduction is not blocked by a delayed
    /// Parity command").
    ///
    /// # Panics
    ///
    /// Panics if the command is not `Peer`.
    pub fn handle_peer_partial(&mut self, cmd: &Command) -> Vec<ReduceEffect> {
        assert_eq!(cmd.opcode, Opcode::Peer, "not a Peer command");
        let offset = cmd.fwd_offset;
        let slot = self.slots.entry(offset).or_default();
        slot.reduced += 1;
        let mut effects = vec![ReduceEffect::Reduce { offset }];
        if let Some(done) = self.try_finish(offset) {
            effects.push(done);
        }
        effects
    }

    /// Alg. 2 `finish(offset)`: persist only when the expected count is
    /// known *and* met.
    fn try_finish(&mut self, offset: u64) -> Option<ReduceEffect> {
        let slot = self.slots.get(&offset)?;
        if slot.expected == Some(slot.reduced) {
            self.slots.remove(&offset);
            Some(ReduceEffect::PersistAndSignal { offset })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Dest;

    fn partial_write(subtype: Subtype, offset: u64, length: u64, fo: u64, fl: u64) -> Command {
        Command {
            id: 1,
            opcode: Opcode::PartialWrite,
            nsid: 0,
            subtype: Some(subtype),
            offset,
            length,
            fwd_offset: fo,
            fwd_length: fl,
            next_dest: Some(Dest { member: 7 }),
            wait_num: 0,
            next_dest2: None,
            data_idx: 0,
        }
    }

    fn parity_cmd(wait: u32, subtype: Subtype, fo: u64, fl: u64) -> Command {
        Command {
            id: 2,
            opcode: Opcode::Parity,
            nsid: 0,
            subtype: Some(subtype),
            offset: 0,
            length: 0,
            fwd_offset: fo,
            fwd_length: fl,
            next_dest: None,
            wait_num: wait,
            next_dest2: None,
            data_idx: 0,
        }
    }

    fn peer(fo: u64, fl: u64) -> Command {
        Command {
            id: 3,
            opcode: Opcode::Peer,
            nsid: 0,
            subtype: None,
            offset: 0,
            length: 0,
            fwd_offset: fo,
            fwd_length: fl,
            next_dest: None,
            wait_num: 0,
            next_dest2: None,
            data_idx: 0,
        }
    }

    #[test]
    fn rmw_reads_xors_writes_and_forwards() {
        let plan = handle_data_chunk(&partial_write(Subtype::Rmw, 4096, 8192, 4096, 8192));
        assert_eq!(plan.fetch, Some((4096, 8192)));
        assert_eq!(plan.drive_read, Some((4096, 8192)));
        assert_eq!(plan.drive_write, Some((4096, 8192)));
        assert!(plan.xor_needed);
        let fwd = plan.forward.expect("forwards a partial");
        assert_eq!(fwd.dest, 7);
        assert_eq!((fwd.fwd_offset, fwd.fwd_length), (4096, 8192));
    }

    #[test]
    fn rw_write_full_coverage_skips_drive_read() {
        // Write covers the whole forwarded extent: nothing to concatenate.
        let plan = handle_data_chunk(&partial_write(Subtype::RwWrite, 0, 16384, 0, 16384));
        assert_eq!(plan.drive_read, None);
        assert!(!plan.xor_needed, "contribution is the raw new chunk");
        assert_eq!(plan.drive_write, Some((0, 16384)));
    }

    #[test]
    fn rw_write_partial_coverage_reads_complement() {
        // 4 KiB write inside a 16 KiB chunk forwarded in full.
        let plan = handle_data_chunk(&partial_write(Subtype::RwWrite, 0, 4096, 0, 16384));
        assert_eq!(plan.drive_read, Some((0, 16384 - 4096)));
        assert_eq!(plan.drive_write, Some((0, 4096)));
    }

    #[test]
    fn rw_read_only_reads_and_forwards() {
        let plan = handle_data_chunk(&partial_write(Subtype::RwRead, 0, 0, 0, 16384));
        assert_eq!(plan.fetch, None);
        assert_eq!(plan.drive_write, None);
        assert_eq!(plan.drive_read, Some((0, 16384)));
        assert!(plan.forward.is_some());
    }

    #[test]
    fn reduce_parity_first_then_peers() {
        let mut st = ReduceState::new();
        let fx = st.handle_host_parity(&parity_cmd(2, Subtype::Rmw, 0, 8192));
        assert_eq!(
            fx,
            vec![ReduceEffect::PreloadOldParity {
                offset: 0,
                length: 8192
            }]
        );
        assert_eq!(
            st.handle_peer_partial(&peer(0, 8192)),
            vec![ReduceEffect::Reduce { offset: 0 }]
        );
        let fx = st.handle_peer_partial(&peer(0, 8192));
        assert_eq!(
            fx,
            vec![
                ReduceEffect::Reduce { offset: 0 },
                ReduceEffect::PersistAndSignal { offset: 0 }
            ]
        );
        assert_eq!(st.pending(), 0);
    }

    #[test]
    fn late_parity_command_does_not_block_reduction() {
        // §5.2: peers arrive first; reductions proceed; completion fires
        // exactly when the late Parity command reveals wait_num.
        let mut st = ReduceState::new();
        assert_eq!(
            st.handle_peer_partial(&peer(4096, 1024)),
            vec![ReduceEffect::Reduce { offset: 4096 }]
        );
        assert_eq!(
            st.handle_peer_partial(&peer(4096, 1024)),
            vec![ReduceEffect::Reduce { offset: 4096 }],
            "no completion yet: wait_num unknown"
        );
        let fx = st.handle_host_parity(&parity_cmd(2, Subtype::RwWrite, 4096, 1024));
        assert_eq!(fx, vec![ReduceEffect::PersistAndSignal { offset: 4096 }]);
    }

    #[test]
    fn reconstruct_write_parity_has_no_preload() {
        let mut st = ReduceState::new();
        let fx = st.handle_host_parity(&parity_cmd(1, Subtype::RwWrite, 0, 16384));
        assert!(fx.is_empty(), "no old-parity read outside RMW");
        assert_eq!(
            st.handle_peer_partial(&peer(0, 16384)),
            vec![
                ReduceEffect::Reduce { offset: 0 },
                ReduceEffect::PersistAndSignal { offset: 0 }
            ]
        );
    }

    #[test]
    fn concurrent_stripes_tracked_independently() {
        // Different offsets = different stripe writes in flight.
        let mut st = ReduceState::new();
        st.handle_host_parity(&parity_cmd(1, Subtype::Rmw, 0, 4096));
        st.handle_host_parity(&parity_cmd(2, Subtype::Rmw, 8192, 4096));
        assert_eq!(st.pending(), 2);
        let fx = st.handle_peer_partial(&peer(0, 4096));
        assert!(fx.contains(&ReduceEffect::PersistAndSignal { offset: 0 }));
        assert_eq!(st.pending(), 1, "offset 8192 still waiting");
    }

    #[test]
    #[should_panic(expected = "not a PartialWrite")]
    fn wrong_opcode_rejected() {
        handle_data_chunk(&Command::nvme_read(1, 0, 0, 512));
    }
}
