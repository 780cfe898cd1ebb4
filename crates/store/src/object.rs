//! The paper's lightweight hash-based object store (§9.6): keys map to
//! fixed-size slots directly on the block device, so GETs and PUTs are
//! single chunk-aligned block I/Os and the store can drive the array at
//! high throughput (unlike the locked single-instance LSM).

use draid_core::UserIo;
use draid_sim::SimTime;

use crate::driver::{BlockApp, IoPlan, PlanStep};
use crate::YcsbOp;

/// Object size: 128 KiB (§9.6). A multiple of 4 KiB, so each object's slot
/// is 4 KiB-aligned like the paper's store.
const OBJECT_SIZE: u64 = 128 * 1024;
/// Object slots on the device: 200 K (§9.6).
const SLOTS: u64 = 200_000;
/// Service time of a read-modify-write's modify step: 1 µs.
const SERVICE: SimTime = SimTime::from_micros(1);

/// A hash-based object store over the virtual RAID device: the §9.6
/// configuration, 200 K objects of 128 KiB.
#[derive(Clone, Copy, Debug)]
pub struct ObjectStore;

/// The device offset of a key's slot (multiplicative hash, then slot
/// scaling — collisions alias to the same slot, which only recycles the
/// same blocks and is harmless for I/O behaviour).
fn slot_offset(key: u64) -> u64 {
    let hashed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (hashed % SLOTS) * OBJECT_SIZE
}

impl BlockApp for ObjectStore {
    fn plan(&mut self, op: &YcsbOp) -> IoPlan {
        let off = slot_offset(op.key());
        let read = UserIo::read(off, OBJECT_SIZE);
        let write = UserIo::write(off, OBJECT_SIZE);
        let steps = match op {
            YcsbOp::Read(_) => vec![PlanStep::Io(read)],
            YcsbOp::Update(_) | YcsbOp::Insert(_) => vec![PlanStep::Io(write)],
            // Workload F: read the object, modify, write it back.
            YcsbOp::ReadModifyWrite(_) => vec![
                PlanStep::Io(read),
                PlanStep::Think(SERVICE),
                PlanStep::Io(write),
            ],
        };
        IoPlan {
            steps,
            background: Vec::new(),
        }
    }

    fn name(&self) -> &str {
        "object-store"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_aligned_and_in_range() {
        for key in 0..5000u64 {
            let off = slot_offset(key);
            assert_eq!(off % 4096, 0);
            assert!(off < OBJECT_SIZE * SLOTS);
        }
    }

    #[test]
    fn plans_match_op_kinds() {
        let mut s = ObjectStore;
        assert_eq!(s.plan(&YcsbOp::Read(1)).steps.len(), 1);
        assert_eq!(s.plan(&YcsbOp::Update(1)).steps.len(), 1);
        assert_eq!(s.plan(&YcsbOp::ReadModifyWrite(1)).steps.len(), 3);
        assert!(s.plan(&YcsbOp::Read(1)).background.is_empty());
    }

    #[test]
    fn keys_spread_across_slots() {
        let mut seen = std::collections::HashSet::new();
        for key in 0..1024u64 {
            seen.insert(slot_offset(key));
        }
        assert!(seen.len() > 600, "hash spreads keys: {}", seen.len());
    }
}
