//! Write-intent bitmap and crash resync — §5.4 host-failure handling.
//!
//! "Host failures can cause the host-side controller to stop functioning at
//! any moment during a write process. … Linux software RAID uses a bitmap to
//! keep track of which blocks are written to, so a full scan of the array
//! can be avoided. dRAID can just take the same approach."
//!
//! The bitmap marks a stripe dirty when a write is admitted and clean when
//! it completes; after a host crash, only dirty stripes need their parity
//! re-synchronized (a reconstruct-write of the surviving data), instead of a
//! full-array scan.

/// A write-intent bitmap over stripe indices.
///
/// Sparse (the dirty stripes, kept as a sorted list): the simulated device
/// is practically unbounded and a crash leaves only the in-flight handful
/// dirty. Marks and clears binary-search the list and keep its capacity, so
/// a warm write path marks and clears without allocating.
#[derive(Clone, Debug, Default)]
pub struct WriteIntentBitmap {
    dirty: Vec<u64>,
}

impl WriteIntentBitmap {
    /// Creates an all-clean bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a stripe dirty (write admitted). Idempotent.
    pub fn mark(&mut self, stripe: u64) {
        if let Err(at) = self.dirty.binary_search(&stripe) {
            self.dirty.insert(at, stripe);
        }
    }

    /// Clears a stripe (write fully completed, parity persisted).
    pub fn clear(&mut self, stripe: u64) {
        if let Ok(at) = self.dirty.binary_search(&stripe) {
            self.dirty.remove(at);
        }
    }

    /// Whether the stripe is possibly out of sync.
    pub fn is_dirty(&self, stripe: u64) -> bool {
        self.dirty.binary_search(&stripe).is_ok()
    }

    /// Stripes needing resync after a crash, in order.
    pub fn dirty_stripes(&self) -> Vec<u64> {
        self.dirty.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_clear_cycle() {
        let mut b = WriteIntentBitmap::new();
        assert!(!b.is_dirty(5));
        b.mark(5);
        b.mark(5);
        b.mark(9);
        assert!(b.is_dirty(5));
        assert_eq!(b.dirty_stripes(), vec![5, 9]);
        b.clear(5);
        assert!(!b.is_dirty(5));
        assert_eq!(b.dirty.len(), 1);
    }

    #[test]
    fn clear_unmarked_is_noop() {
        let mut b = WriteIntentBitmap::new();
        b.clear(42);
        assert_eq!(b.dirty.len(), 0);
    }

    #[test]
    fn shuffled_marks_and_clears_keep_stripes_sorted() {
        let mut rng = draid_sim::DetRng::new(17);
        let mut order: Vec<u64> = (0..200).map(|i| i * 7919 % 1000).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut b = WriteIntentBitmap::new();
        let mut model = std::collections::BTreeSet::new();
        for &s in &order {
            b.mark(s);
            model.insert(s);
            // Every third stripe finishes while later ones are admitted.
            if s % 3 == 0 {
                b.clear(s);
                model.remove(&s);
            }
        }
        // Re-marking a dirty stripe is idempotent; clearing a clean one is a
        // no-op.
        for &s in &order {
            if s % 3 == 0 {
                b.clear(s);
            } else {
                b.mark(s);
            }
        }
        let dirty = b.dirty_stripes();
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "{dirty:?}");
        assert_eq!(dirty, model.into_iter().collect::<Vec<_>>());
        assert!(dirty.iter().all(|&s| b.is_dirty(s)));
    }
}
