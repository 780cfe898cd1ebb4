//! Write-behind data plane: in `DataMode::Full` stripe writes apply on an
//! applier thread while the simulation runs on, and every later access to
//! a stripe first takes its chunks back. The bytes must be exactly those of
//! the synchronous store.
//!
//! Closed loops over a hot set of a few stripes put same-stripe
//! write-after-write and read-after-write inside the queue, a member fails
//! mid-run and is rebuilt onto a spare, and every read must equal a shadow
//! copy. At the end every stored chunk must equal a synchronous
//! `ChunkStore` that replayed the same writes in completion order.
//!
//! A read that is one healthy segment shares the stored chunk, so the loop
//! also runs holding its read results: every later change to a chunk a
//! held result views (a queued or caller-applied write, a rebuild, a
//! `Corrupt` injection) must copy it first, leaving the result as it was.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use draid::block::{Cluster, ServerId};
use draid::core::{
    ArrayConfig, ArraySim, ChunkStore, DataMode, FaultAction, IoKind, IoResult, Layout, RaidLevel,
    SystemKind, UserIo, WriteBehind, WriteMode,
};
use draid::sim::{DetRng, Engine, SimTime};

const KIB: u64 = 1024;
const WIDTH: usize = 6;
/// 64 KiB chunks: a whole-chunk segment is a long kernel stream.
const CHUNK: u64 = 64 * KIB;
/// The hot set: every I/O lands in one of these stripes.
const HOT: u64 = 3;
const GRANULE: u64 = 16 * KIB;
const QUEUE_DEPTH: usize = 6;
const IOS: u64 = 600;
const FAILED_MEMBER: usize = 4;
/// When the member fails and its rebuild starts, after the loop starts.
const FAIL_AT: SimTime = SimTime::from_micros(300);
const REBUILD_AT: SimTime = SimTime::from_micros(900);

/// The closed loop's state, shared by the completion hooks.
struct Driver {
    rng: DetRng,
    stripe_bytes: u64,
    /// What every byte of the hot set must read as.
    shadow: Vec<u8>,
    /// Byte ranges of the I/Os in flight: a new I/O never overlaps one,
    /// so each read has exactly one right answer.
    inflight: Vec<(u64, u64)>,
    issued: u64,
    /// Completed writes, in completion order.
    writes: Vec<(u64, Bytes)>,
    reads_checked: u64,
    failures: Vec<String>,
    /// Whether to keep the results of reads within one chunk.
    hold: bool,
    /// Kept read results, each with the bytes it returned.
    held: Vec<(Bytes, Vec<u8>)>,
}

impl Driver {
    /// Draws an I/O inside one hot stripe that overlaps nothing in flight.
    fn next_io(&mut self) -> Option<UserIo> {
        for _ in 0..64 {
            let stripe = self.rng.below(HOT);
            let granules = self.stripe_bytes / GRANULE;
            let len = GRANULE * [1, 3, 4, 8, granules][self.rng.below(5) as usize];
            let at = GRANULE * self.rng.below(granules - len / GRANULE + 1);
            let offset = stripe * self.stripe_bytes + at;
            let end = offset + len;
            if self.inflight.iter().any(|&(o, e)| offset < e && o < end) {
                continue;
            }
            self.inflight.push((offset, end));
            return Some(if self.rng.chance(0.5) {
                let mut data = vec![0u8; len as usize];
                self.rng.fill_bytes(&mut data);
                self.shadow[offset as usize..end as usize].copy_from_slice(&data);
                UserIo::write_bytes(offset, Bytes::from(data))
            } else {
                UserIo::read(offset, len)
            });
        }
        None
    }

    fn complete(&mut self, r: &IoResult) {
        let span = (r.offset, r.offset + r.len);
        let at = self
            .inflight
            .iter()
            .position(|&s| s == span)
            .expect("in flight");
        self.inflight.swap_remove(at);
        if !r.is_ok() {
            self.failures.push(format!(
                "{:?} at {} failed: {:?}",
                r.kind, r.offset, r.error
            ));
            return;
        }
        let expect = &self.shadow[span.0 as usize..span.1 as usize];
        match r.kind {
            IoKind::Write => self.writes.push((r.offset, Bytes::copy_from_slice(expect))),
            IoKind::Read => {
                self.reads_checked += 1;
                match &r.data {
                    Some(got) if got[..] == *expect => {
                        if self.hold && r.len <= CHUNK {
                            self.held.push((got.clone(), expect.to_vec()));
                        }
                    }
                    _ => self
                        .failures
                        .push(format!("read at {} returned wrong bytes", r.offset)),
                }
            }
        }
    }
}

fn issue(array: &mut ArraySim, eng: &mut Engine<ArraySim>, d: &Rc<RefCell<Driver>>) {
    let io = {
        let mut drv = d.borrow_mut();
        if drv.issued == IOS {
            return;
        }
        let Some(io) = drv.next_io() else {
            return;
        };
        drv.issued += 1;
        io
    };
    let d2 = Rc::clone(d);
    array.submit_with_hook(
        eng,
        io,
        Some(Box::new(move |array, eng, r| {
            d2.borrow_mut().complete(r);
            issue(array, eng, &d2);
        })),
    );
}

fn full_array(level: RaidLevel, chunk: u64) -> ArraySim {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = level;
    cfg.width = WIDTH;
    cfg.chunk_size = chunk;
    cfg.data_mode = DataMode::Full;
    // One more server than the width: the rebuild's spare.
    ArraySim::new(Cluster::homogeneous(WIDTH + 1), cfg).expect("valid config")
}

/// Replays `writes` in order on a synchronous store of a healthy array.
fn replay(layout: Layout, writes: &[(u64, Bytes)]) -> ChunkStore {
    let mut store = ChunkStore::new(layout);
    let healthy = BTreeSet::new();
    for (offset, data) in writes {
        for sio in layout.map(*offset, data.len() as u64) {
            let lo = sio.buf_offset as usize;
            let part = &data[lo..lo + sio.bytes() as usize];
            store.apply_write(&sio, part, layout.write_mode(&sio), &healthy);
        }
    }
    store
}

/// Prefills the hot set and runs the closed loops to the end, through the
/// member's failure and its rebuild onto the spare; `hold` keeps the
/// results of reads within one chunk.
fn run_hot_loops(level: RaidLevel, hold: bool) -> (ArraySim, Engine<ArraySim>, Driver) {
    let mut array = full_array(level, CHUNK);
    let mut eng: Engine<ArraySim> = Engine::new();
    let stripe_bytes = array.layout().stripe_data_bytes();

    // Prefill every hot stripe with a full-stripe write, so every chunk
    // exists in both stores.
    let mut rng = DetRng::new(0xB0B + level.parity_count() as u64);
    let mut shadow = vec![0u8; (HOT * stripe_bytes) as usize];
    rng.fill_bytes(&mut shadow);
    let prefill = Bytes::copy_from_slice(&shadow);
    array.submit(&mut eng, UserIo::write_bytes(0, prefill.clone()));
    eng.run(&mut array);
    assert!(array.drain_completions().iter().all(IoResult::is_ok));

    let d = Rc::new(RefCell::new(Driver {
        rng,
        stripe_bytes,
        shadow,
        inflight: Vec::new(),
        issued: 0,
        writes: vec![(0, prefill)],
        reads_checked: 0,
        failures: Vec::new(),
        hold,
        held: Vec::new(),
    }));
    for _ in 0..QUEUE_DEPTH {
        issue(&mut array, &mut eng, &d);
    }
    eng.schedule_in(FAIL_AT, |array: &mut ArraySim, _| {
        array.fail_member(FAILED_MEMBER)
    });
    eng.schedule_in(REBUILD_AT, |array: &mut ArraySim, eng| {
        array.start_rebuild(eng, FAILED_MEMBER, ServerId(WIDTH), HOT, 1)
    });
    eng.run(&mut array);
    array.drain_completions();
    let drv = Rc::try_unwrap(d).ok().expect("the loop ended").into_inner();

    assert_eq!(drv.failures, Vec::<String>::new(), "{level:?}");
    assert_eq!(drv.issued, IOS, "{level:?}: the loop ran to the end");
    assert!(drv.reads_checked > IOS / 4, "{level:?}: reads checked");
    assert!(array.stats.degraded_ios > 0, "{level:?}: I/Os ran degraded");
    assert!(
        !array.is_degraded() && array.rebuild_status().is_none(),
        "{level:?}: the rebuild finished"
    );
    (array, eng, drv)
}

/// Every stored chunk of the hot set equals a synchronous replay of
/// `writes`, and parity checks.
fn assert_matches_replay(array: &mut ArraySim, writes: &[(u64, Bytes)], level: RaidLevel) {
    let sync = replay(*array.layout(), writes);
    let store = array.store().expect("full mode");
    for stripe in 0..HOT {
        for member in 0..WIDTH {
            let (got, want) = (
                store.stored_chunk(stripe, member),
                sync.stored_chunk(stripe, member),
            );
            assert!(
                got.is_some(),
                "{level:?}: stripe {stripe} member {member} stored"
            );
            assert!(
                got == want,
                "{level:?}: stripe {stripe} member {member} differs"
            );
        }
    }
    assert_eq!(store.chunk_count(), sync.chunk_count(), "{level:?}");
    assert_eq!(store.verify_all(), Vec::<u64>::new(), "{level:?}");
}

#[test]
fn closed_loops_through_failure_and_rebuild_match_a_synchronous_replay() {
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        let (mut array, _, drv) = run_hot_loops(level, false);
        assert_matches_replay(&mut array, &drv.writes, level);
    }
}

/// Reads `len` bytes at `offset` and returns what the read returned.
fn read_now(array: &mut ArraySim, eng: &mut Engine<ArraySim>, offset: u64, len: u64) -> Bytes {
    array.submit(eng, UserIo::read(offset, len));
    eng.run(array);
    let res = array.drain_completions().pop().expect("one read");
    assert!(res.is_ok(), "read at {offset}: {:?}", res.error);
    res.data.expect("full mode returns bytes")
}

/// Flips `byte` of `member`'s chunk of stripe 0 through fault injection.
fn corrupt(array: &mut ArraySim, eng: &Engine<ArraySim>, member: usize, byte: usize) {
    let action = FaultAction::Corrupt {
        stripe: 0,
        member,
        byte,
    };
    array.inject(eng.now(), action);
}

#[test]
fn held_read_results_keep_their_bytes_through_writes_rebuild_and_corruption() {
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        let (mut array, mut eng, mut drv) = run_hot_loops(level, true);
        assert!(drv.held.len() > 20, "{level:?}: reads held");

        // A fresh view of stripe 0's first chunk, then a `Corrupt` of that
        // chunk: the store changes, the view does not. A second flip of the
        // same byte restores the chunk.
        let (len, byte) = (GRANULE, 5);
        let want = drv.shadow[..len as usize].to_vec();
        let view = read_now(&mut array, &mut eng, 0, len);
        assert_eq!(view[..], want[..], "{level:?}");
        let member = array.layout().data_member(0, 0);
        corrupt(&mut array, &eng, member, byte);
        assert_eq!(view[..], want[..], "{level:?}: the held view changed");
        let torn = read_now(&mut array, &mut eng, 0, len);
        assert_eq!(torn[byte], want[byte] ^ 0xFF, "{level:?}: corrupted");
        corrupt(&mut array, &eng, member, byte);
        assert_eq!(read_now(&mut array, &mut eng, 0, len)[..], want[..]);
        assert_eq!(torn[byte], want[byte] ^ 0xFF, "{level:?}: torn read kept");
        drv.held.push((view, want));

        for (i, (got, want)) in drv.held.iter().enumerate() {
            assert!(got[..] == want[..], "{level:?}: held read {i} changed");
        }
        assert_matches_replay(&mut array, &drv.writes, level);
    }
}

#[test]
fn dropping_an_array_with_writes_queued_returns_promptly() {
    // 512 KiB chunks: each whole-chunk write keeps the applier busy for a
    // while, so some are still queued when the array drops.
    let chunk = 512 * KIB;
    let mut array = full_array(RaidLevel::Raid6, chunk);
    let mut eng: Engine<ArraySim> = Engine::new();
    let stripe_bytes = array.layout().stripe_data_bytes();
    let mut rng = DetRng::new(7);
    for stripe in 0..8 {
        let mut data = vec![0u8; chunk as usize];
        rng.fill_bytes(&mut data);
        array.submit(
            &mut eng,
            UserIo::write_bytes(stripe * stripe_bytes, Bytes::from(data)),
        );
    }
    eng.run(&mut array);
    assert!(array.drain_completions().iter().all(IoResult::is_ok));
    let t = Instant::now();
    drop(array);
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "drop took {:?}",
        t.elapsed()
    );
}

fn raid5_layout() -> Layout {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.width = WIDTH;
    cfg.chunk_size = CHUNK;
    Layout::new(&cfg)
}

#[test]
#[should_panic(expected = "payload size mismatch")]
fn a_short_payload_panics_on_the_caller() {
    let layout = raid5_layout();
    let mut store = WriteBehind::new(layout);
    let io = &layout.map(0, 8 * KIB)[0];
    let short = Bytes::from(vec![1u8; 4 * KIB as usize]);
    store.write(io, short, WriteMode::ReadModifyWrite, BTreeSet::new());
}

#[test]
#[should_panic(expected = "failures exceed the RAID level's tolerance")]
fn too_many_failures_panic_on_the_caller() {
    let layout = raid5_layout();
    let mut store = WriteBehind::new(layout);
    let io = &layout.map(0, 8 * KIB)[0];
    let data = Bytes::from(vec![1u8; 8 * KIB as usize]);
    store.write(io, data, WriteMode::ReadModifyWrite, [0usize, 1].into());
}
