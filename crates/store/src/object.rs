//! The paper's lightweight hash-based object store (§9.6): keys map to
//! fixed-size slots directly on the block device, so GETs and PUTs are
//! single chunk-aligned block I/Os and the store can drive the array at
//! high throughput (unlike the locked single-instance LSM).

use draid_core::UserIo;
use draid_sim::SimTime;

use crate::driver::{BlockApp, IoPlan, PlanStep};
use crate::YcsbOp;

/// A hash-based object store over the virtual RAID device.
#[derive(Clone, Debug)]
pub struct ObjectStore {
    object_size: u64,
    slot_size: u64,
    slots: u64,
    service: SimTime,
}

impl ObjectStore {
    /// Creates a store of `slots` fixed-size objects.
    ///
    /// # Panics
    ///
    /// Panics if `object_size` or `slots` is zero.
    pub fn new(object_size: u64, slots: u64) -> Self {
        assert!(object_size > 0 && slots > 0, "empty store");
        // Slots are aligned up to 4 KiB boundaries like the paper's store.
        let slot_size = object_size.div_ceil(4096) * 4096;
        ObjectStore {
            object_size,
            slot_size,
            slots,
            service: SimTime::from_micros(1),
        }
    }

    /// The §9.6 configuration: 200 K objects of 128 KiB.
    pub fn paper_default() -> Self {
        Self::new(128 * 1024, 200_000)
    }

    /// Object size in bytes.
    pub fn object_size(&self) -> u64 {
        self.object_size
    }

    /// The device offset of a key's slot (multiplicative hash, then slot
    /// scaling — collisions alias to the same slot, which only recycles the
    /// same blocks and is harmless for I/O behaviour).
    pub fn slot_offset(&self, key: u64) -> u64 {
        let hashed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hashed % self.slots) * self.slot_size
    }
}

impl BlockApp for ObjectStore {
    fn plan(&mut self, op: &YcsbOp) -> IoPlan {
        let off = self.slot_offset(op.key());
        let read = UserIo::read(off, self.object_size);
        let write = UserIo::write(off, self.object_size);
        let steps = match op {
            YcsbOp::Read(_) => vec![PlanStep::Io(read)],
            YcsbOp::Update(_) | YcsbOp::Insert(_) => vec![PlanStep::Io(write)],
            // Workload F: read the object, modify, write it back.
            YcsbOp::ReadModifyWrite(_) => vec![
                PlanStep::Io(read),
                PlanStep::Think(self.service),
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
        let s = ObjectStore::new(128 * 1024, 1000);
        for key in 0..5000u64 {
            let off = s.slot_offset(key);
            assert_eq!(off % 4096, 0);
            assert!(off < s.slot_size * s.slots);
        }
    }

    #[test]
    fn odd_object_size_rounds_slot_up() {
        let s = ObjectStore::new(5000, 10);
        assert_eq!(s.slot_size * s.slots, 10 * 8192);
        assert_eq!(s.object_size(), 5000);
    }

    #[test]
    fn plans_match_op_kinds() {
        let mut s = ObjectStore::paper_default();
        assert_eq!(s.plan(&YcsbOp::Read(1)).steps.len(), 1);
        assert_eq!(s.plan(&YcsbOp::Update(1)).steps.len(), 1);
        assert_eq!(s.plan(&YcsbOp::ReadModifyWrite(1)).steps.len(), 3);
        assert!(s.plan(&YcsbOp::Read(1)).background.is_empty());
    }

    #[test]
    fn keys_spread_across_slots() {
        let s = ObjectStore::new(4096, 1024);
        let mut seen = std::collections::HashSet::new();
        for key in 0..1024u64 {
            seen.insert(s.slot_offset(key));
        }
        assert!(seen.len() > 600, "hash spreads keys: {}", seen.len());
    }
}
