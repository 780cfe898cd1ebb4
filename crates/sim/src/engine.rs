//! The discrete-event engine.
//!
//! Scheduling core (see DESIGN.md §9 "Engine internals"):
//!
//! * An event is either a boxed closure or **plain data** — a function
//!   pointer plus three words of arguments ([`Engine::schedule_call_at`]).
//!   Plain-data events allocate nothing, so hot event kinds whose state fits
//!   in three words (the executor's step completions) use them.
//! * A plain-data event rides in its **heap entry**: the 48-byte entry holds
//!   `(time, seq)`, the handler and the three argument words, so scheduling
//!   and firing one touches nothing but the heap. Boxed closures and timers
//!   live in a **slab** with a free-list, and their heap or lane entry holds
//!   the slot; timers need the slot, because [`Engine::cancel`] empties it.
//! * Events scheduled at the current instant — completion chains, the most
//!   common pattern in the executor — bypass the heap entirely through a
//!   **same-instant FIFO** (`VecDeque`).
//! * Timers scheduled through [`Engine::schedule_timer_at`] are **cancelable**
//!   via their [`TimerHandle`]; a canceled timer's queued entry is retired
//!   lazily when popped, advancing the clock to its due time exactly as a
//!   fired no-op would, so cancellation never perturbs the clock trajectory.
//! * Timers armed in order wait in a **timer lane** (a FIFO) instead of the
//!   event heap. Most timers are op deadlines that get canceled long
//!   before they are due, so their stale entries pile up; in the lane they
//!   never deepen the heap that every step completion is pushed into and
//!   popped from. A timer due no earlier than the lane's back joins it:
//!   `seq` only grows, so the lane stays sorted by `(time, seq)` with no
//!   sifting, and arming and retiring an op deadline (`now + constant`)
//!   are an O(1) push and pop. A timer due earlier than the lane's back
//!   (a jittered backoff, an absolute fault time) goes to the event heap.
//!   The run loop takes the earlier of the heap top and the lane front by
//!   `(time, seq)`.
//! * A heap event is not popped before it fires: its entry stays on top,
//!   marked **spent**, and the handler's first heap push overwrites it with
//!   one sift-down (a step completion that schedules the next step pays one
//!   sift, not a pop's and a push's). A spent top that no push replaced —
//!   the handler pushed nothing to the heap, or the entry was a canceled
//!   timer's — is popped right after. `run_inner` also settles a spent top
//!   on entry, so a handler that runs the engine re-entrantly hands the
//!   inner loop a clean heap, and no top is left spent when it returns.
//!
//! The global firing order is `(time, seq)` with `seq` assigned in
//! scheduling order — the determinism contract every artifact diff rests on.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::SimTime;

type BoxedEvent<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// Handler of a plain-data event: receives the world, the engine and the
/// three argument words given at scheduling time.
pub type EventFn<W> = fn(&mut W, &mut Engine<W>, [u64; 3]);

/// A pending event: a boxed closure, or a handler with its arguments inline.
enum Event<W> {
    Boxed(BoxedEvent<W>),
    Call(EventFn<W>, [u64; 3]),
}

impl<W> Event<W> {
    /// Placeholder of a free slab slot; never fired (its slot's `seq` is 0).
    const VACANT: Event<W> = Event::Call(|_, _, _| {}, [0; 3]);

    fn fire(self, world: &mut W, engine: &mut Engine<W>) {
        match self {
            Event::Boxed(event) => event(world, engine),
            Event::Call(handler, args) => handler(world, engine, args),
        }
    }
}

/// Event-heap entry, 48 bytes. A plain-data event rides in it whole; a
/// boxed closure or a timer has no handler here and its slab slot in
/// `args[0]`.
struct HeapEntry<W> {
    time: SimTime,
    seq: u64,
    /// The plain-data event's handler, or `None` for a slab-backed entry.
    call: Option<EventFn<W>>,
    /// The handler's arguments, or `[slot, 0, 0]` for a slab-backed entry.
    args: [u64; 3],
}

const _: () = assert!(std::mem::size_of::<HeapEntry<()>>() == 48);

// Not derived: a derive would require `W: Copy`.
impl<W> Clone for HeapEntry<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W> Copy for HeapEntry<W> {}

impl<W> HeapEntry<W> {
    /// The entry of the event in slab slot `slot`.
    fn slab(time: SimTime, seq: u64, slot: u32) -> Self {
        HeapEntry {
            time,
            seq,
            call: None,
            args: [u64::from(slot), 0, 0],
        }
    }

    /// `(time, seq)` as one integer, `time << 64 | seq`: a sift step then
    /// makes one comparison instead of a tuple compare.
    fn key(&self) -> u128 {
        u128::from(self.time.as_nanos()) << 64 | u128::from(self.seq)
    }
}

impl<W> PartialEq for HeapEntry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<W> Eq for HeapEntry<W> {}
// BinaryHeap is a max-heap; every comparison is inverted so the earliest
// `(time, seq)` pops first. The sift loops use `<=` and `>=`, so those are
// overridden too rather than derived from `partial_cmp`.
impl<W> PartialOrd for HeapEntry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    fn lt(&self, other: &Self) -> bool {
        other.key() < self.key()
    }
    fn le(&self, other: &Self) -> bool {
        other.key() <= self.key()
    }
    fn gt(&self, other: &Self) -> bool {
        other.key() > self.key()
    }
    fn ge(&self, other: &Self) -> bool {
        other.key() >= self.key()
    }
}
impl<W> Ord for HeapEntry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Slab-slot bits of a packed [`LaneEntry`] key; the sequence number takes
/// the other 40.
const LANE_SLOT_BITS: u32 = 24;

/// Timer-lane entry, packed to 16 bytes: the lane is a ring that touches
/// its whole capacity as it cycles, and 24-byte entries cost measurably
/// more resident memory. A timer whose `seq` or slot does not fit the key
/// goes to the event heap instead.
#[derive(Clone, Copy)]
struct LaneEntry {
    time: SimTime,
    /// `seq << LANE_SLOT_BITS | slot`.
    key: u64,
}

impl LaneEntry {
    fn pack(time: SimTime, seq: u64, slot: u32) -> Option<LaneEntry> {
        let fits = seq < 1 << (64 - LANE_SLOT_BITS) && slot < 1 << LANE_SLOT_BITS;
        fits.then(|| LaneEntry {
            time,
            key: seq << LANE_SLOT_BITS | u64::from(slot),
        })
    }

    fn unpack<W>(self) -> HeapEntry<W> {
        HeapEntry::slab(
            self.time,
            self.key >> LANE_SLOT_BITS,
            (self.key & ((1 << LANE_SLOT_BITS) - 1)) as u32,
        )
    }
}

/// One slab slot. `seq` identifies the occupying event; sequence numbers are
/// globally unique and never reused, so a queued entry whose `seq` disagrees
/// with its slot is stale (the timer was canceled and the slot possibly
/// recycled) — no generation counter or ABA hazard.
struct EventSlot<W> {
    /// Sequence number of the occupant; `0` marks a free slot (live events
    /// are numbered from 1).
    seq: u64,
    /// [`Event::VACANT`] in a free slot. A placeholder rather than an
    /// `Option` keeps slots at 40 bytes, which measurably speeds up
    /// scheduling onto a cold slab.
    event: Event<W>,
}

/// Handle to a pending timer, returned by [`Engine::schedule_timer_at`] /
/// [`Engine::schedule_timer_in`] and redeemed with [`Engine::cancel`].
///
/// Copyable and safe to hold past the timer's lifetime: canceling a timer
/// that already fired (or was already canceled) is a no-op returning
/// `false`, even if its slab slot has been recycled by a newer event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    seq: u64,
}

/// Counters describing an [`Engine`] run, useful for sanity checks and the
/// engine micro-benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events retired at their due time: executed, or (for canceled timers)
    /// popped as stale entries. Counting both keeps the counter — and the
    /// final clock — identical to an engine where canceled timers fire as
    /// no-ops, which is what the determinism artifact pins down.
    pub events_fired: u64,
    /// Events scheduled so far (timers included).
    pub events_scheduled: u64,
    /// Timers canceled before firing.
    pub events_canceled: u64,
}

/// A deterministic discrete-event engine over a world type `W`.
///
/// Events are closures receiving the world and the engine (so handlers can
/// schedule follow-up events). Two events at the same instant fire in
/// scheduling order, which makes simulations reproducible bit-for-bit.
///
/// ```
/// use draid_sim::{Engine, SimTime};
/// let mut hits = 0u32;
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule_at(SimTime::from_micros(1), |w, _| *w += 1);
/// let timer = engine.schedule_timer_at(SimTime::from_micros(2), |w, _| *w += 100);
/// engine.cancel(timer);
/// engine.run(&mut hits);
/// assert_eq!(hits, 1);
/// ```
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    /// Future events: plain-data ones (step completions) inline, boxed
    /// closures and the timers that arrived out of order for the lane by
    /// slab slot.
    heap: BinaryHeap<HeapEntry<W>>,
    /// The heap's top has fired (or retired as a canceled timer) but is
    /// still in place: the next heap push overwrites it with one sift-down
    /// instead of a pop and a push. Only set between a heap event's firing
    /// and [`Engine::settle_top`].
    spent_top: bool,
    /// Timers, live or canceled, armed no earlier than the lane's back:
    /// sorted by `(time, seq)` by construction. Kept apart from `heap` so
    /// that canceled deadlines waiting to be retired do not deepen it.
    lane: VecDeque<LaneEntry>,
    slots: Vec<EventSlot<W>>,
    free: Vec<u32>,
    /// Same-instant FIFO: `(seq, event)` pairs scheduled at `now`. Entries
    /// always carry an implicit time equal to the current clock — the queue
    /// is provably drained before the clock advances.
    fast: VecDeque<(u64, Event<W>)>,
    /// Events that will still fire (excludes canceled timers).
    live: usize,
    stopped: bool,
    stats: EngineStats,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<W> Engine<W> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            spent_top: false,
            lane: VecDeque::new(),
            slots: Vec::new(),
            free: Vec::new(),
            fast: VecDeque::new(),
            live: 0,
            stopped: false,
            stats: EngineStats::default(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire (canceled timers excluded).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Run statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Slab slots allocated so far: the high-water mark of pending boxed
    /// closures outside the same-instant FIFO plus pending timers, canceled
    /// ones included until their entries retire. Plain-data events ride in
    /// their heap entries and hold no slot. A diagnostic for the engine
    /// benchmarks.
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.stats.events_scheduled += 1;
        self.live += 1;
        self.seq
    }

    fn alloc_slot(&mut self, seq: u64, event: Event<W>) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.seq = seq;
                s.event = event;
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(EventSlot { seq, event });
                i
            }
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Events at the current instant take the same-instant fast path and
    /// are not individually cancelable; use [`Engine::schedule_timer_at`]
    /// when a handle is needed.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]); simulated
    /// causality must be preserved.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) {
        self.push(at, Event::Boxed(Box::new(event)));
    }

    /// Schedules the plain-data event `handler(world, engine, args)` at
    /// absolute time `at`. Orders exactly like [`Engine::schedule_at`] (the
    /// two share one `(time, seq)` sequence) but allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]).
    pub fn schedule_call_at(&mut self, at: SimTime, handler: EventFn<W>, args: [u64; 3]) {
        self.push(at, Event::Call(handler, args));
    }

    fn push(&mut self, at: SimTime, event: Event<W>) {
        self.assert_not_past(at);
        let seq = self.next_seq();
        if at == self.now {
            self.fast.push_back((seq, event));
        } else {
            let entry = match event {
                Event::Call(handler, args) => HeapEntry {
                    time: at,
                    seq,
                    call: Some(handler),
                    args,
                },
                Event::Boxed(_) => HeapEntry::slab(at, seq, self.alloc_slot(seq, event)),
            };
            self.heap_push(entry);
        }
    }

    /// Pushes onto the event heap: a plain-data event whole, any other by
    /// its slab slot. A spent top is overwritten in place, so a handler's
    /// first heap push costs one sift-down and the spent entry's pop costs
    /// nothing. Always inlined into `push` and `push_timer`, the per-event
    /// hot path: left to the inliner it was outlined in some builds, and
    /// `small_read_4k` read about 3% slower in simcost. Where the inliner
    /// does inline it, the pin still moves the surrounding layout: over 20
    /// interleaved 10 s simcost pairs on a 2-vCPU shared Xeon VM, the same
    /// build without it lost `rmw_write_128k` in 15 pairs (paired median
    /// -1.0%) and `small_read_4k` in 11 (-0.6%).
    #[inline(always)]
    fn heap_push(&mut self, entry: HeapEntry<W>) {
        if std::mem::take(&mut self.spent_top) {
            *self.heap.peek_mut().expect("spent top vanished") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Pops the spent heap top, if no push has replaced it.
    fn settle_top(&mut self) {
        if std::mem::take(&mut self.spent_top) {
            self.heap.pop();
        }
    }

    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
    }

    fn after(&self, delay: SimTime) -> SimTime {
        self.now
            .checked_add(delay)
            .expect("simulated time overflow")
    }

    /// Schedules `event` after a relative delay from now.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        event: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) {
        self.schedule_at(self.after(delay), event);
    }

    /// Schedules a cancelable timer at absolute time `at` and returns its
    /// handle. Timers always take a slab slot (never the same-instant
    /// fast path) into the timer lane, or the event heap if `at` is earlier
    /// than the lane's back, but fire in exactly the same global
    /// `(time, seq)` order as plain events.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]).
    pub fn schedule_timer_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> TimerHandle {
        self.push_timer(at, Event::Boxed(Box::new(event)))
    }

    fn push_timer(&mut self, at: SimTime, event: Event<W>) -> TimerHandle {
        self.assert_not_past(at);
        let seq = self.next_seq();
        let slot = self.alloc_slot(seq, event);
        let in_order = self.lane.back().is_none_or(|back| at >= back.time);
        match LaneEntry::pack(at, seq, slot).filter(|_| in_order) {
            Some(packed) => self.lane.push_back(packed),
            None => self.heap_push(HeapEntry::slab(at, seq, slot)),
        }
        TimerHandle { slot, seq }
    }

    /// Schedules a cancelable timer after a relative delay from now.
    pub fn schedule_timer_in(
        &mut self,
        delay: SimTime,
        event: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> TimerHandle {
        self.schedule_timer_at(self.after(delay), event)
    }

    /// Schedules a cancelable plain-data timer, `handler(world, engine,
    /// args)`, after a relative delay from now: the allocation-free form of
    /// [`Engine::schedule_timer_in`], sharing its `(time, seq)` order.
    pub fn schedule_timer_call_in(
        &mut self,
        delay: SimTime,
        handler: EventFn<W>,
        args: [u64; 3],
    ) -> TimerHandle {
        self.push_timer(self.after(delay), Event::Call(handler, args))
    }

    /// Cancels a pending timer. Returns `true` if the timer was still
    /// pending (its event is dropped immediately and its slab slot
    /// recycled); `false` if it already fired or was already canceled.
    ///
    /// The timer's entry stays queued and is retired when popped: it
    /// advances the clock to the timer's due time and counts toward
    /// [`EngineStats::events_fired`], exactly as a no-op firing would —
    /// so canceling timers cannot change the simulated clock trajectory.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(slot) = self.slots.get_mut(handle.slot as usize) else {
            return false;
        };
        if slot.seq != handle.seq {
            return false;
        }
        slot.event = Event::VACANT;
        slot.seq = 0;
        self.free.push(handle.slot);
        self.live -= 1;
        self.stats.events_canceled += 1;
        true
    }

    /// Requests the current [`Engine::run`] loop to stop after the running
    /// event returns. Pending events stay queued.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Runs until the queue drains or [`Engine::stop`] is called. Returns
    /// the final simulated time — the due time of the last retired event
    /// (the clock rests there; it does not advance to infinity).
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_inner(world, None)
    }

    /// Runs every event with `time <= deadline`, then returns with the
    /// clock **at `deadline`** — whether the queue drained early or events
    /// remain beyond it — unless [`Engine::stop`] was called, in which case
    /// the clock rests at the last retired event's time. A deadline in the
    /// past is a no-op returning the unchanged current time.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        if deadline < self.now {
            return self.now;
        }
        self.run_inner(world, Some(deadline))
    }

    /// The earlier of the event heap's top and the lane's front by
    /// `(time, seq)`, and whether it is the lane's. Sequence numbers are
    /// unique, so the choice is exact.
    fn next_entry(&self) -> Option<(HeapEntry<W>, bool)> {
        match (self.heap.peek(), self.lane.front()) {
            (Some(&event), Some(timer)) => {
                let timer = timer.unpack();
                Some(if (timer.time, timer.seq) < (event.time, event.seq) {
                    (timer, true)
                } else {
                    (event, false)
                })
            }
            (Some(&event), None) => Some((event, false)),
            (None, Some(timer)) => Some((timer.unpack(), true)),
            (None, None) => None,
        }
    }

    fn run_inner(&mut self, world: &mut W, deadline: Option<SimTime>) -> SimTime {
        // A handler that runs the engine re-entrantly leaves its own spent
        // top behind; the loop below must see a clean heap.
        self.settle_top();
        self.stopped = false;
        let cap = deadline.unwrap_or(SimTime::MAX);
        loop {
            if self.stopped {
                break;
            }
            let next = self.next_entry();
            if let Some(&(front_seq, _)) = self.fast.front() {
                // Heap entries due at this same instant were scheduled
                // earlier (smaller seq) iff they beat the FIFO front.
                let heap_due_first =
                    next.is_some_and(|(top, _)| top.time == self.now && top.seq < front_seq);
                if !heap_due_first {
                    let (_, event) = self.fast.pop_front().expect("peeked front vanished");
                    self.live -= 1;
                    self.stats.events_fired += 1;
                    event.fire(world, self);
                    continue;
                }
            }
            let Some((entry, in_lane)) = next else {
                break;
            };
            if entry.time > cap {
                break;
            }
            if in_lane {
                self.lane.pop_front();
            } else {
                // Left in place: the handler's first heap push replaces it.
                self.spent_top = true;
            }
            crate::draid_invariant!(
                entry.time >= self.now,
                "event queue went backwards: now={}, popped={}",
                self.now,
                entry.time
            );
            self.now = entry.time;
            self.stats.events_fired += 1;
            if let Some(handler) = entry.call {
                self.live -= 1;
                handler(world, self, entry.args);
            } else {
                let index = entry.args[0] as usize;
                let slot = &mut self.slots[index];
                if slot.seq == entry.seq {
                    let event = std::mem::replace(&mut slot.event, Event::VACANT);
                    slot.seq = 0;
                    self.free.push(index as u32);
                    self.live -= 1;
                    event.fire(world, self);
                }
                // else: stale entry of a canceled timer — retired at its due
                // time (clock advanced, fired counted) without running
                // anything.
            }
            self.settle_top();
        }
        crate::draid_invariant!(!self.spent_top, "run loop left a spent heap top");
        if let Some(d) = deadline {
            if !self.stopped && self.now < d {
                self.now = d;
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_tie_breaking() {
        let mut order: Vec<u32> = Vec::new();
        let mut engine: Engine<Vec<u32>> = Engine::new();
        let t = SimTime::from_micros(1);
        for i in 0..10 {
            engine.schedule_at(t, move |w, _| w.push(i));
        }
        engine.run(&mut order);
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_and_clock() {
        let mut world = 0u64;
        let mut engine: Engine<u64> = Engine::new();
        engine.schedule_in(SimTime::from_micros(1), |_, eng| {
            eng.schedule_in(SimTime::from_micros(1), |w, _| *w = 42);
        });
        let end = engine.run(&mut world);
        assert_eq!(world, 42);
        assert_eq!(end, SimTime::from_micros(2));
        assert_eq!(engine.stats().events_fired, 2);
    }

    #[test]
    fn run_until_deadline_preserves_later_events() {
        let mut world = Vec::new();
        let mut engine: Engine<Vec<u64>> = Engine::new();
        for us in [1u64, 5, 9] {
            engine.schedule_at(SimTime::from_micros(us), move |w: &mut Vec<u64>, _| {
                w.push(us)
            });
        }
        engine.run_until(&mut world, SimTime::from_micros(6));
        assert_eq!(world, vec![1, 5]);
        assert_eq!(engine.now(), SimTime::from_micros(6));
        assert_eq!(engine.pending(), 1);
        engine.run(&mut world);
        assert_eq!(world, vec![1, 5, 9]);
    }

    #[test]
    fn run_until_drained_early_advances_to_deadline() {
        // Satellite regression: the queue drains at 2 µs, but the caller
        // asked for 10 µs — the clock lands on the deadline, matching the
        // events-remain-beyond case instead of resting at the last event.
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(SimTime::from_micros(2), |w, _| *w += 1);
        let end = engine.run_until(&mut world, SimTime::from_micros(10));
        assert_eq!(world, 1);
        assert_eq!(end, SimTime::from_micros(10));
        assert_eq!(engine.now(), SimTime::from_micros(10));
    }

    #[test]
    fn run_until_past_deadline_is_noop() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(SimTime::from_micros(5), |w, _| *w += 1);
        engine.run(&mut world);
        assert_eq!(engine.now(), SimTime::from_micros(5));
        // The clock must never move backwards.
        let end = engine.run_until(&mut world, SimTime::from_micros(1));
        assert_eq!(end, SimTime::from_micros(5));
        assert_eq!(world, 1);
    }

    #[test]
    fn run_until_stopped_rests_at_last_event() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(SimTime::from_micros(2), |w, eng| {
            *w += 1;
            eng.stop();
        });
        let end = engine.run_until(&mut world, SimTime::from_micros(10));
        assert_eq!(
            end,
            SimTime::from_micros(2),
            "stop() overrides the deadline"
        );
    }

    #[test]
    fn stop_halts_loop() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(SimTime::from_micros(1), |w, eng| {
            *w += 1;
            eng.stop();
        });
        engine.schedule_in(SimTime::from_micros(2), |w, _| *w += 100);
        engine.run(&mut world);
        assert_eq!(world, 1);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut world = ();
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime::from_micros(5), |_, eng| {
            eng.schedule_at(SimTime::from_micros(1), |_, _| {});
        });
        engine.run(&mut world);
    }

    #[test]
    fn same_instant_fast_path_preserves_global_seq_order() {
        // A and B are heap events at 5 µs; A (firing first) schedules X at
        // the same instant through the FIFO fast path. X's seq is larger
        // than B's, so the order must be A, B, X — the heap entry due at
        // `now` beats the younger FIFO entry.
        let mut order: Vec<&'static str> = Vec::new();
        let mut engine: Engine<Vec<&'static str>> = Engine::new();
        let t = SimTime::from_micros(5);
        engine.schedule_at(t, |w: &mut Vec<&'static str>, eng: &mut Engine<_>| {
            w.push("A");
            eng.schedule_at(eng.now(), |w: &mut Vec<&'static str>, _| w.push("X"));
        });
        engine.schedule_at(t, |w: &mut Vec<&'static str>, _| w.push("B"));
        engine.run(&mut order);
        assert_eq!(order, vec!["A", "B", "X"]);
    }

    #[test]
    fn same_instant_chain_runs_in_fifo_order() {
        let mut order: Vec<u32> = Vec::new();
        let mut engine: Engine<Vec<u32>> = Engine::new();
        engine.schedule_at(SimTime::from_micros(1), |w: &mut Vec<u32>, eng| {
            w.push(0);
            for i in 1..5u32 {
                eng.schedule_at(eng.now(), move |w: &mut Vec<u32>, _| w.push(i));
            }
        });
        engine.run(&mut order);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.now(), SimTime::from_micros(1));
    }

    #[test]
    fn cancel_before_fire_drops_event_but_keeps_clock_trajectory() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let timer = engine.schedule_timer_at(SimTime::from_micros(5), |w, _| *w += 100);
        engine.schedule_at(SimTime::from_micros(3), |w, _| *w += 1);
        assert!(engine.cancel(timer));
        assert_eq!(engine.pending(), 1);
        let end = engine.run(&mut world);
        assert_eq!(world, 1, "canceled timer must not run");
        // The stale entry is retired at its due time: the clock ends where
        // it would have with a no-op firing.
        assert_eq!(end, SimTime::from_micros(5));
        assert_eq!(engine.stats().events_fired, 2);
        assert_eq!(engine.stats().events_canceled, 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let timer = engine.schedule_timer_at(SimTime::from_micros(1), |w, _| *w += 1);
        engine.run(&mut world);
        assert_eq!(world, 1);
        assert!(!engine.cancel(timer));
        assert_eq!(engine.stats().events_canceled, 0);
    }

    #[test]
    fn cancel_twice_is_noop_even_after_slot_reuse() {
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let timer = engine.schedule_timer_at(SimTime::from_micros(1), |w, _| *w += 1);
        assert!(engine.cancel(timer));
        assert!(!engine.cancel(timer));
        // The freed slot is recycled by a new timer; the stale handle must
        // not be able to cancel the new occupant.
        let fresh = engine.schedule_timer_at(SimTime::from_micros(2), |w, _| *w += 10);
        assert!(!engine.cancel(timer));
        assert_eq!(engine.slab_slots(), 1, "slot recycled, not grown");
        engine.run(&mut world);
        assert_eq!(world, 10);
        let _ = fresh;
    }

    #[test]
    fn cancel_from_same_instant_event() {
        // Two events at 4 µs: the first cancels a timer due at the very
        // same instant (scheduled later, so it has not fired yet).
        let mut world = 0u32;
        let mut engine: Engine<u32> = Engine::new();
        let t = SimTime::from_micros(4);
        let timer = std::rc::Rc::new(std::cell::Cell::new(None::<TimerHandle>));
        let t2 = std::rc::Rc::clone(&timer);
        engine.schedule_at(t, move |w: &mut u32, eng: &mut Engine<u32>| {
            *w += 1;
            if let Some(h) = t2.get() {
                assert!(eng.cancel(h), "timer at the same instant is pending");
            }
        });
        timer.set(Some(
            engine.schedule_timer_at(t, |w: &mut u32, _| *w += 100),
        ));
        engine.run(&mut world);
        assert_eq!(world, 1, "same-instant cancel must stop the timer");
        assert_eq!(engine.stats().events_canceled, 1);
    }

    #[test]
    fn seq_order_deterministic_with_interleaved_cancels() {
        // Two identical runs with a mix of events and canceled timers must
        // fire in the same order — cancellation must not perturb (time, seq)
        // ordering of the survivors.
        fn run_once() -> Vec<u64> {
            let mut order: Vec<u64> = Vec::new();
            let mut engine: Engine<Vec<u64>> = Engine::new();
            let mut handles = Vec::new();
            for i in 0..30u64 {
                let at = SimTime::from_nanos(500 + (i * 37) % 11 * 100);
                if i % 2 == 0 {
                    engine.schedule_at(at, move |w: &mut Vec<u64>, _| w.push(i));
                } else {
                    handles.push(
                        engine.schedule_timer_at(at, move |w: &mut Vec<u64>, _| w.push(1000 + i)),
                    );
                }
            }
            for (k, h) in handles.into_iter().enumerate() {
                if k % 3 == 0 {
                    assert!(engine.cancel(h));
                }
            }
            engine.run(&mut order);
            order
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v >= 1000), "surviving timers fired");
        assert!(!a.contains(&1001), "canceled timer 1 (k=0) did not fire");
    }

    /// World of the mixed-representation tests: `(time, seq)` of every
    /// fired event, and the count of same-instant follow-ups spawned so far.
    #[derive(Default)]
    struct Mixed {
        fired: Vec<(SimTime, u64)>,
        spawned: u64,
    }

    /// Events scheduled before the run in the mixed-representation test;
    /// follow-ups spawned during the run get the sequence numbers after it.
    const PRESCHEDULED: u64 = 48;

    /// Records `(now, seq)`; when `spawn` is set, also schedules a plain-data
    /// follow-up at this same instant, through the FIFO.
    fn record(w: &mut Mixed, eng: &mut Engine<Mixed>, [seq, spawn, _]: [u64; 3]) {
        w.fired.push((eng.now(), seq));
        if spawn != 0 {
            let child = PRESCHEDULED + w.spawned;
            w.spawned += 1;
            eng.schedule_call_at(eng.now(), record, [child, 0, 0]);
        }
    }

    #[test]
    fn boxed_and_plain_data_events_fire_in_one_time_seq_order() {
        let mut world = Mixed::default();
        let mut engine: Engine<Mixed> = Engine::new();
        for seq in 0..PRESCHEDULED {
            // Four instants (0 µs goes through the FIFO for non-timers) and
            // four representations, cycled at different periods so every
            // instant sees every kind, several times.
            let at = SimTime::from_micros(seq * 7 % 4);
            let args = [seq, u64::from(seq % 3 == 0), 0];
            match seq % 4 {
                0 => engine.schedule_at(at, move |w, eng| record(w, eng, args)),
                1 => engine.schedule_call_at(at, record, args),
                2 => {
                    engine.schedule_timer_at(at, move |w, eng| record(w, eng, args));
                }
                _ => {
                    engine.schedule_timer_call_in(at, record, args);
                }
            }
        }
        engine.run(&mut world);
        assert_eq!(world.spawned, PRESCHEDULED.div_ceil(3));
        assert_eq!(world.fired.len() as u64, PRESCHEDULED + world.spawned);
        // A follow-up spawned at an instant must wait for every heap event
        // due at that instant that was scheduled before it (the heap wins
        // over a younger FIFO entry), so the whole firing sequence is
        // strictly increasing in `(time, seq)`.
        for pair in world.fired.windows(2) {
            assert!(pair[0] < pair[1], "fired out of order: {pair:?}");
        }
    }

    #[test]
    fn canceled_plain_data_timer_behaves_like_a_canceled_closure() {
        fn bump(w: &mut u64, _: &mut Engine<u64>, [by, _, _]: [u64; 3]) {
            *w += by;
        }
        let mut world = 0u64;
        let mut engine: Engine<u64> = Engine::new();
        engine.schedule_call_at(SimTime::from_micros(3), bump, [1, 0, 0]);
        let timer = engine.schedule_timer_call_in(SimTime::from_micros(5), bump, [100, 0, 0]);
        assert!(engine.cancel(timer));
        engine.schedule_timer_call_in(SimTime::from_micros(2), bump, [10, 0, 0]);
        assert_eq!(
            engine.slab_slots(),
            1,
            "the plain-data event rides in its heap entry; the canceled timer's slot is recycled"
        );
        assert!(!engine.cancel(timer), "stale handle is a no-op");
        let end = engine.run(&mut world);

        let mut closure_world = 0u64;
        let mut closures: Engine<u64> = Engine::new();
        closures.schedule_at(SimTime::from_micros(3), |w, _| *w += 1);
        let timer = closures.schedule_timer_in(SimTime::from_micros(5), |w, _| *w += 100);
        assert!(closures.cancel(timer));
        closures.schedule_timer_in(SimTime::from_micros(2), |w, _| *w += 10);
        let closure_end = closures.run(&mut closure_world);

        assert_eq!(world, 11);
        assert_eq!(
            end,
            SimTime::from_micros(5),
            "canceled timer retired at its due time"
        );
        assert_eq!(
            (world, end, engine.stats()),
            (closure_world, closure_end, closures.stats())
        );
    }

    #[test]
    fn pending_plain_data_events_hold_no_slab_slot() {
        fn bump(w: &mut u64, _: &mut Engine<u64>, [by, _, _]: [u64; 3]) {
            *w += by;
        }
        const N: u64 = 500;
        let mut world = 0u64;
        let mut engine: Engine<u64> = Engine::new();
        for i in 1..=N {
            engine.schedule_call_at(SimTime::from_nanos(i), bump, [i, 0, 0]);
        }
        assert_eq!(engine.pending() as u64, N);
        assert_eq!(engine.heap.len() as u64, N);
        assert_eq!(
            engine.slab_slots(),
            0,
            "plain-data events ride in their heap entries"
        );
        engine.run(&mut world);
        assert_eq!(world, N * (N + 1) / 2);
        assert_eq!(engine.slab_slots(), 0);
    }

    #[test]
    fn slab_recycles_slots_across_sequential_timers() {
        let mut world = 0u64;
        let mut engine: Engine<u64> = Engine::new();
        for i in 1..=1000u64 {
            engine.schedule_at(SimTime::from_nanos(i), |w, _| *w += 1);
        }
        engine.run(&mut world);
        assert_eq!(world, 1000);
        // Sequential (never overlapping by more than the initial burst)
        // events reuse freed slots instead of growing the slab.
        assert_eq!(engine.slab_slots(), 1000);
        for i in 1..=1000u64 {
            engine.schedule_in(SimTime::from_nanos(i), |w, _| *w += 1);
        }
        engine.run(&mut world);
        assert_eq!(engine.slab_slots(), 1000, "slab did not grow on reuse");
    }

    /// One action of the split-queue exactness script: schedule an event of
    /// one of the four kinds `delay` ns from now, cancel the `n`-th timer
    /// armed so far, or stop the run.
    #[derive(Clone, Copy, Debug)]
    enum Act {
        Boxed(u64),
        Call(u64),
        Timer(u64),
        TimerCall(u64),
        Cancel(usize),
        Stop,
    }

    /// What the script records, in order: each firing as `(now, seq)`, and
    /// each cancel with its result.
    #[derive(Debug, PartialEq)]
    enum Logged {
        Fired(SimTime, u64),
        Canceled(usize, bool),
    }

    /// Draws the actions of one firing. Delays of 0 and a few nanoseconds
    /// make same-instant ties between the FIFO, the event heap and the timer
    /// lane common, and the long delay sends the timers armed after it to
    /// the event heap; cancels favour recent timers, so
    /// many hit timers that are due at the current instant or soon after.
    fn plan(rng: &mut crate::DetRng, budget: &mut u32, timers: usize) -> Vec<Act> {
        const DELAYS: [u64; 7] = [0, 0, 1, 2, 3, 40, 5_000];
        let mut acts = Vec::new();
        for _ in 0..rng.below(4) {
            let delay = DELAYS[rng.below(DELAYS.len() as u64) as usize];
            let act = match rng.below(10) {
                0 | 1 => Act::Boxed(delay),
                2 | 3 => Act::Call(delay),
                4 | 5 => Act::Timer(delay),
                6 => Act::TimerCall(delay),
                7 | 8 if timers > 0 => {
                    let back = rng.below(timers.min(6) as u64) as usize;
                    acts.push(Act::Cancel(timers - 1 - back));
                    continue;
                }
                9 if rng.below(8) == 0 => {
                    acts.push(Act::Stop);
                    continue;
                }
                _ => continue,
            };
            if *budget > 0 {
                *budget -= 1;
                acts.push(act);
            }
        }
        acts
    }

    /// The engine-side world of the exactness script.
    struct Script {
        rng: crate::DetRng,
        budget: u32,
        /// Mirrors the engine's sequence counter: every schedule bumps both.
        seq: u64,
        /// Every timer armed, with its due time and whether it joined the
        /// lane (else the event heap).
        timers: Vec<(TimerHandle, SimTime, bool)>,
        log: Vec<Logged>,
        reached: Reached,
    }

    /// Which queue paths the exactness script exercised.
    #[derive(Default)]
    struct Reached {
        lane_timers: u32,
        /// Timers that went to the event heap instead.
        heap_timers: u32,
        /// In-order timers sent to the heap because their `seq` does not fit
        /// a lane key.
        unpackable: u32,
        /// Successful cancels of a lane timer due at the current instant.
        lane_cancels_due_now: u32,
        /// Successful cancels of a timer in the event heap, whose stale
        /// entry is later retired as a spent top that no push replaces.
        heap_cancels: u32,
        /// Heap-fired handlers whose first heap push replaced the spent top.
        spent_replaced: u32,
        /// ...by an out-of-order timer (`push_timer`'s heap fallback).
        spent_replaced_by_timer: u32,
        /// ...that went on to push more heap events.
        spent_replaced_then_pushed: u32,
        /// Heap-fired handlers that pushed nothing to the heap, leaving the
        /// spent top to be popped after them.
        spent_popped: u32,
        /// Handlers that called `stop()` after pushing to the heap.
        stops_after_heap_push: u32,
    }

    impl Reached {
        fn absorb(&mut self, other: &Reached) {
            self.lane_timers += other.lane_timers;
            self.heap_timers += other.heap_timers;
            self.unpackable += other.unpackable;
            self.lane_cancels_due_now += other.lane_cancels_due_now;
            self.heap_cancels += other.heap_cancels;
            self.spent_replaced += other.spent_replaced;
            self.spent_replaced_by_timer += other.spent_replaced_by_timer;
            self.spent_replaced_then_pushed += other.spent_replaced_then_pushed;
            self.spent_popped += other.spent_popped;
            self.stops_after_heap_push += other.stops_after_heap_push;
        }
    }

    impl Script {
        fn new(seed: u64, budget: u32, seq: u64) -> Self {
            Script {
                rng: crate::DetRng::new(seed),
                budget,
                seq,
                timers: Vec::new(),
                log: Vec::new(),
                reached: Reached::default(),
            }
        }

        fn armed(&mut self, eng: &Engine<Script>, h: TimerHandle, delay: u64) {
            let in_lane = eng
                .lane
                .back()
                .is_some_and(|b| b.unpack::<Script>().seq == h.seq);
            if in_lane {
                self.reached.lane_timers += 1;
            } else {
                self.reached.heap_timers += 1;
                let lane_back = eng.lane.back().map_or(SimTime::ZERO, |b| b.time);
                if h.seq >= 1 << (64 - LANE_SLOT_BITS)
                    && eng.now() + SimTime::from_nanos(delay) >= lane_back
                {
                    self.reached.unpackable += 1;
                }
            }
            self.timers
                .push((h, eng.now() + SimTime::from_nanos(delay), in_lane));
        }
    }

    fn script_fire(w: &mut Script, eng: &mut Engine<Script>, seq: u64) {
        w.log.push(Logged::Fired(eng.now(), seq));
        // An event fired from the heap finds its entry still on top, spent.
        let from_heap = eng.spent_top;
        let heap_len = eng.heap.len();
        let mut stopped = false;
        for act in plan(&mut w.rng, &mut w.budget, w.timers.len()) {
            stopped |= matches!(act, Act::Stop);
            script_apply(w, eng, act);
        }
        // The first push overwrote the spent top; the rest grew the heap.
        let replaced = from_heap && !eng.spent_top;
        let pushes = eng.heap.len() - heap_len + usize::from(replaced);
        if stopped && pushes > 0 {
            w.reached.stops_after_heap_push += 1;
        }
        if replaced {
            w.reached.spent_replaced += 1;
            if pushes > 1 {
                w.reached.spent_replaced_then_pushed += 1;
            }
        } else if from_heap {
            w.reached.spent_popped += 1;
        }
    }

    fn script_call(w: &mut Script, eng: &mut Engine<Script>, [seq, _, _]: [u64; 3]) {
        script_fire(w, eng, seq);
    }

    fn script_apply(w: &mut Script, eng: &mut Engine<Script>, act: Act) {
        let ns = SimTime::from_nanos;
        let seq = w.seq + 1;
        let spent = eng.spent_top;
        match act {
            Act::Boxed(d) => eng.schedule_in(ns(d), move |w, eng| script_fire(w, eng, seq)),
            Act::Call(d) => eng.schedule_call_at(eng.now() + ns(d), script_call, [seq, 0, 0]),
            Act::Timer(d) => {
                let h = eng.schedule_timer_in(ns(d), move |w, eng| script_fire(w, eng, seq));
                w.armed(eng, h, d);
            }
            Act::TimerCall(d) => {
                let h = eng.schedule_timer_call_in(ns(d), script_call, [seq, 0, 0]);
                w.armed(eng, h, d);
            }
            Act::Cancel(i) => {
                let (h, due, in_lane) = w.timers[i];
                let ok = eng.cancel(h);
                if ok && in_lane && due == eng.now() {
                    w.reached.lane_cancels_due_now += 1;
                }
                if ok && !in_lane {
                    w.reached.heap_cancels += 1;
                }
                w.log.push(Logged::Canceled(i, ok));
                return;
            }
            Act::Stop => {
                eng.stop();
                return;
            }
        }
        if spent && !eng.spent_top && matches!(act, Act::Timer(_) | Act::TimerCall(_)) {
            w.reached.spent_replaced_by_timer += 1;
        }
        w.seq = seq;
    }

    /// Test-only oracle: the engine's contract with one ordered queue for
    /// every pending entry, no FIFO and no lane. A canceled timer
    /// stays queued and is retired at its due time.
    struct Oracle {
        now: SimTime,
        seq: u64,
        queue: std::collections::BTreeSet<(SimTime, u64)>,
        canceled: std::collections::BTreeSet<u64>,
        fired: u64,
        stopped: bool,
        rng: crate::DetRng,
        budget: u32,
        timers: Vec<(SimTime, u64)>,
        log: Vec<Logged>,
        /// Successful cancels of a timer due at the current instant.
        same_instant_cancels: u32,
        stops: u32,
    }

    impl Oracle {
        fn apply(&mut self, act: Act) {
            let (d, timer) = match act {
                Act::Boxed(d) | Act::Call(d) => (d, false),
                Act::Timer(d) | Act::TimerCall(d) => (d, true),
                Act::Cancel(i) => {
                    let (at, seq) = self.timers[i];
                    let ok = self.queue.contains(&(at, seq)) && self.canceled.insert(seq);
                    if ok && at == self.now {
                        self.same_instant_cancels += 1;
                    }
                    self.log.push(Logged::Canceled(i, ok));
                    return;
                }
                Act::Stop => {
                    self.stopped = true;
                    self.stops += 1;
                    return;
                }
            };
            self.seq += 1;
            let at = self.now + SimTime::from_nanos(d);
            self.queue.insert((at, self.seq));
            if timer {
                self.timers.push((at, self.seq));
            }
        }

        fn run(&mut self, deadline: Option<SimTime>) {
            self.stopped = false;
            while !self.stopped {
                let Some(&(time, seq)) = self.queue.first() else {
                    break;
                };
                if deadline.is_some_and(|d| time > d) {
                    break;
                }
                self.queue.pop_first();
                self.now = time;
                self.fired += 1;
                if self.canceled.remove(&seq) {
                    continue;
                }
                self.log.push(Logged::Fired(time, seq));
                for act in plan(&mut self.rng, &mut self.budget, self.timers.len()) {
                    self.apply(act);
                }
            }
            if let Some(d) = deadline {
                if !self.stopped && self.now < d {
                    self.now = d;
                }
            }
        }
    }

    #[test]
    fn split_queues_fire_exactly_like_one_ordered_queue() {
        let (mut same_instant_cancels, mut stops, mut timer_fires) = (0, 0, 0);
        let mut reached = Reached::default();
        for seed in 0..24u64 {
            let budget = 1_500;
            // Half the seeds start the sequence numbers just below the lane
            // key's limit, so timers armed in order mid-run stop fitting a
            // lane entry and fall back to the event heap.
            let seq = if seed % 4 >= 2 {
                (1 << (64 - LANE_SLOT_BITS)) - 800
            } else {
                0
            };
            let mut w = Script::new(seed, budget, seq);
            let mut engine: Engine<Script> = Engine::new();
            engine.seq = seq;
            let mut oracle = Oracle {
                now: SimTime::ZERO,
                seq,
                queue: Default::default(),
                canceled: Default::default(),
                fired: 0,
                stopped: false,
                rng: crate::DetRng::new(seed),
                budget,
                timers: Vec::new(),
                log: Vec::new(),
                same_instant_cancels: 0,
                stops: 0,
            };
            // Odd seeds first arm a timer far ahead of every other, so the
            // timers armed after it fall back to the event heap until it
            // retires.
            let far = (seed % 2 == 1).then_some(Act::Timer(1_000_000));
            // Every kind at a handful of instants (0 ns included, which
            // sends the non-timers through the FIFO), then a few cancels.
            let mut before: Vec<Act> = far.into_iter().collect();
            before.extend((0..24u64).map(|i| {
                let d = i * 7 % 5;
                [
                    Act::Boxed(d),
                    Act::Call(d),
                    Act::Timer(d),
                    Act::TimerCall(d),
                ][i as usize % 4]
            }));
            before.extend([Act::Cancel(seed as usize % 6), Act::Cancel(4)]);
            for act in before {
                script_apply(&mut w, &mut engine, act);
                oracle.apply(act);
            }
            for deadline in [0, 2, 2, 25, 90, 300, 2_000] {
                let deadline = SimTime::from_nanos(deadline);
                engine.run_until(&mut w, deadline);
                oracle.run(Some(deadline));
                assert_eq!(w.log, oracle.log, "seed {seed}, window to {deadline}");
                assert_eq!(
                    (engine.now(), engine.stats().events_fired),
                    (oracle.now, oracle.fired),
                    "seed {seed}, window to {deadline}"
                );
            }
            // A stop in the final run leaves entries behind; keep running.
            while !oracle.queue.is_empty() {
                engine.run(&mut w);
                oracle.run(None);
                assert_eq!(w.log, oracle.log, "seed {seed}, final run");
                assert_eq!(
                    (engine.now(), engine.stats().events_fired),
                    (oracle.now, oracle.fired),
                    "seed {seed}, final run"
                );
            }
            assert!(engine.heap.is_empty() && engine.lane.is_empty() && engine.fast.is_empty());
            assert_eq!(engine.pending(), 0);
            let canceled = w
                .log
                .iter()
                .filter(|l| matches!(l, Logged::Canceled(_, true)))
                .count() as u64;
            assert_eq!(engine.stats().events_canceled, canceled);
            same_instant_cancels += oracle.same_instant_cancels;
            reached.absorb(&w.reached);
            stops += oracle.stops;
            let timer_seqs: std::collections::BTreeSet<u64> =
                oracle.timers.iter().map(|&(_, seq)| seq).collect();
            timer_fires += w
                .log
                .iter()
                .filter(|l| matches!(l, Logged::Fired(_, seq) if timer_seqs.contains(seq)))
                .count();
        }
        // The script reached the cases the merge rule exists for.
        assert!(same_instant_cancels > 0, "no cancel of a timer due now");
        assert!(stops > 0, "no stop()");
        assert!(timer_fires > 0, "no timer fired");
        assert!(reached.lane_timers > 0, "no timer in the lane");
        assert!(reached.heap_timers > 0, "no timer in the event heap");
        assert!(
            reached.unpackable > 0,
            "no in-order timer too big for the lane"
        );
        assert!(
            reached.lane_cancels_due_now > 0,
            "no cancel of a lane timer due now"
        );
        assert!(reached.heap_cancels > 0, "no cancel of a heap timer");
        assert!(
            reached.spent_replaced > 0,
            "no spent top replaced by a push"
        );
        assert!(
            reached.spent_replaced_then_pushed > 0,
            "no heap-fired handler pushed several heap events"
        );
        assert!(
            reached.spent_replaced_by_timer > 0,
            "no spent top replaced by an out-of-order timer"
        );
        assert!(
            reached.spent_popped > 0,
            "no spent top popped after its handler"
        );
        assert!(
            reached.stops_after_heap_push > 0,
            "no stop() from a handler that pushed"
        );
    }

    #[test]
    fn canceled_deadlines_stay_out_of_the_event_heap() {
        // Four chains of ops; each op arms a deadline 1 s out and completes
        // 200 ns later, canceling it. 10k ops in all.
        const OPS: u64 = 10_000;
        const CHAINS: u64 = 4;
        fn arm(eng: &mut Engine<u64>) {
            let deadline = eng.schedule_timer_in(SimTime::from_millis(1_000), |_, _| {
                panic!("deadline fired despite cancellation")
            });
            eng.schedule_in(SimTime::from_nanos(200), move |done: &mut u64, eng| {
                *done += 1;
                assert!(eng.cancel(deadline));
                if *done <= OPS - CHAINS {
                    arm(eng);
                }
            });
        }
        let mut done = 0u64;
        let mut engine: Engine<u64> = Engine::new();
        for _ in 0..CHAINS {
            arm(&mut engine);
        }
        // Every heap entry is a live event: plain data, or a slab-backed
        // entry whose slot still holds it (no canceled deadline).
        let live_only = |engine: &Engine<u64>| {
            engine
                .heap
                .iter()
                .all(|e| e.call.is_some() || engine.slots[e.args[0] as usize].seq == e.seq)
        };
        engine.run_until(&mut done, SimTime::from_micros(250));
        assert!(done > OPS / 3 && done < OPS);
        assert_eq!(engine.heap.len() as u64, CHAINS, "one completion per chain");
        assert!(live_only(&engine));
        engine.run_until(&mut done, SimTime::from_millis(1));
        assert_eq!(done, OPS);
        assert!(
            engine.heap.is_empty(),
            "armed in order, none in the event heap"
        );
        assert_eq!(engine.lane.len() as u64, OPS, "stale deadlines wait here");
        assert_eq!(engine.pending(), 0);
        // They still retire at their due times.
        let end = engine.run(&mut done);
        assert!(engine.lane.is_empty());
        assert_eq!(engine.stats().events_fired, 2 * OPS);
        assert!(end > SimTime::from_millis(1_000));
    }

    /// Records `(now, seq)` of each firing; `push` schedules a follow-up
    /// half a microsecond out (through the heap), and `reenter` then runs
    /// the engine re-entrantly for that many microseconds.
    fn reentrant(
        w: &mut Vec<(SimTime, u64)>,
        eng: &mut Engine<Vec<(SimTime, u64)>>,
        [seq, push, reenter]: [u64; 3],
    ) {
        w.push((eng.now(), seq));
        if push != 0 {
            let at = eng.now() + SimTime::from_nanos(500);
            eng.schedule_call_at(at, reentrant, [eng.seq + 1, 0, 0]);
        }
        if reenter != 0 {
            eng.run_until(w, eng.now() + SimTime::from_micros(reenter));
        }
    }

    #[test]
    fn reentrant_run_until_fires_nothing_twice() {
        let mut fired = Vec::new();
        let mut engine: Engine<Vec<(SimTime, u64)>> = Engine::new();
        for us in 1..=12u64 {
            // At 2 µs the handler re-enters with its top still spent (no
            // push); at 6 µs its push has already replaced the top; the
            // event at 3 µs, fired by the inner loop, re-enters once more.
            let (push, reenter) = match us {
                2 => (0, 3),
                3 => (1, 1),
                6 => (1, 2),
                _ => (u64::from(us % 4 == 0), 0),
            };
            let seq = engine.seq + 1;
            engine.schedule_call_at(SimTime::from_micros(us), reentrant, [seq, push, reenter]);
        }
        let end = engine.run(&mut fired);
        assert!(!engine.spent_top && engine.heap.is_empty());
        // The 12 µs event's follow-up fires last.
        assert_eq!(end, SimTime::from_nanos(12_500));
        let stats = engine.stats();
        assert_eq!(stats.events_fired, stats.events_scheduled);
        assert_eq!(fired.len() as u64, stats.events_fired);
        for pair in fired.windows(2) {
            assert!(pair[0] < pair[1], "fired out of order: {pair:?}");
        }
    }
}
