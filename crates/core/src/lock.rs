//! Per-stripe admission control.
//!
//! "RAID does not allow concurrent writes to the same stripe. The host-side
//! controller only admits one write I/O on a stripe at a time and keeps the
//! others in a queue" (§3). The baselines additionally lock stripes during
//! normal reads (the SPDK POC behaviour dRAID's lock-free read improves on,
//! §8/§9.2).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use draid_sim::draid_invariant;

use crate::idhash::IdHasher;

/// Opaque ticket naming a queued operation (the executor's op slot).
pub type Ticket = usize;

/// One locked stripe: the holder, and the tickets queued behind it.
#[derive(Debug)]
struct StripeLock {
    holder: Ticket,
    /// Stays unallocated until a second ticket contends for the stripe.
    waiters: VecDeque<Ticket>,
}

/// A table of per-stripe FIFO locks.
///
/// The table is only ever accessed by stripe — acquire, release, transfer,
/// lookup — so nothing iterates it and hash order cannot reach a result. That makes a hash map
/// with a one-multiply hasher the cheapest home for it: no ordered-tree
/// descent or node allocation per write, and an uncontended acquire
/// allocates nothing.
#[derive(Debug, Default)]
pub struct LockTable {
    stripes: HashMap<u64, StripeLock, BuildHasherDefault<IdHasher>>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire the stripe lock for `ticket`. Returns `true` if
    /// the lock was granted immediately; otherwise the ticket is queued and
    /// will be returned by a future [`LockTable::release`].
    pub fn acquire(&mut self, stripe: u64, ticket: Ticket) -> bool {
        match self.stripes.entry(stripe) {
            Entry::Vacant(slot) => {
                slot.insert(StripeLock {
                    holder: ticket,
                    waiters: VecDeque::new(),
                });
                true
            }
            Entry::Occupied(slot) => {
                let lock = slot.into_mut();
                draid_invariant!(
                    lock.holder != ticket && !lock.waiters.contains(&ticket),
                    "ticket {} acquired stripe {} twice without release",
                    ticket,
                    stripe
                );
                lock.waiters.push_back(ticket);
                false
            }
        }
    }

    /// The lock on `stripe`, which `ticket` must hold.
    fn held(&mut self, stripe: u64, ticket: Ticket) -> &mut StripeLock {
        let lock = self
            .stripes
            .get_mut(&stripe)
            .unwrap_or_else(|| panic!("stripe {stripe} is not locked"));
        assert_eq!(
            lock.holder, ticket,
            "ticket {ticket} does not hold the lock on stripe {stripe}"
        );
        lock
    }

    /// Releases the stripe lock held by `ticket` and returns the next queued
    /// ticket to admit, if any.
    ///
    /// # Panics
    ///
    /// Panics if `ticket` does not hold the stripe's lock — releasing out of
    /// order would corrupt write ordering.
    pub fn release(&mut self, stripe: u64, ticket: Ticket) -> Option<Ticket> {
        let lock = self.held(stripe, ticket);
        let next = lock.waiters.pop_front();
        match next {
            Some(next) => lock.holder = next,
            None => {
                self.stripes.remove(&stripe);
            }
        }
        next
    }

    /// Re-names the current holder of a stripe lock (a retried operation
    /// keeps the stripe locked so queued writers cannot interleave with the
    /// §5.4 full-stripe retry).
    ///
    /// # Panics
    ///
    /// Panics if `from` does not hold the stripe's lock.
    pub fn transfer(&mut self, stripe: u64, from: Ticket, to: Ticket) {
        self.held(stripe, from).holder = to;
    }

    /// Whether any ticket holds or awaits the stripe.
    pub fn is_locked(&self, stripe: u64) -> bool {
        self.stripes.contains_key(&stripe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_admission() {
        let mut t = LockTable::new();
        assert!(t.acquire(7, 1));
        assert!(!t.acquire(7, 2));
        assert!(!t.acquire(7, 3));
        assert!(t.is_locked(7));
        assert_eq!(t.release(7, 1), Some(2));
        assert_eq!(t.release(7, 2), Some(3));
        assert_eq!(t.release(7, 3), None);
        assert!(!t.is_locked(7));
    }

    #[test]
    fn stripes_are_independent() {
        let mut t = LockTable::new();
        assert!(t.acquire(1, 10));
        assert!(t.acquire(2, 20));
        assert!(!t.acquire(1, 11));
        assert_eq!(t.release(2, 20), None);
        assert_eq!(t.release(1, 10), Some(11));
    }

    #[test]
    #[should_panic(expected = "does not hold the lock")]
    fn out_of_order_release_panics() {
        let mut t = LockTable::new();
        t.acquire(1, 10);
        t.acquire(1, 11);
        t.release(1, 11);
    }

    // `draid_invariant!` is compiled out of plain release builds.
    #[test]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    #[should_panic(expected = "acquired stripe 1 twice")]
    fn duplicate_acquire_trips_invariant() {
        let mut t = LockTable::new();
        t.acquire(1, 10);
        t.acquire(1, 10);
    }
}
