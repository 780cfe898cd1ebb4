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

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use draid::block::{Cluster, ServerId};
use draid::core::{
    ArrayConfig, ArraySim, ChunkStore, DataMode, IoKind, IoResult, Layout, RaidLevel, SystemKind,
    UserIo, WriteBehind, WriteMode,
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
                if r.data.as_deref() != Some(expect) {
                    self.failures
                        .push(format!("read at {} returned wrong bytes", r.offset));
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

#[test]
fn closed_loops_through_failure_and_rebuild_match_a_synchronous_replay() {
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        let mut array = full_array(level, CHUNK);
        let mut eng: Engine<ArraySim> = Engine::new();
        let layout = *array.layout();
        let stripe_bytes = layout.stripe_data_bytes();

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

        let drv = d.borrow();
        assert_eq!(drv.failures, Vec::<String>::new(), "{level:?}");
        assert_eq!(drv.issued, IOS, "{level:?}: the loop ran to the end");
        assert!(drv.reads_checked > IOS / 4, "{level:?}: reads checked");
        assert!(array.stats.degraded_ios > 0, "{level:?}: I/Os ran degraded");
        assert!(
            !array.is_degraded() && array.rebuild_status().is_none(),
            "{level:?}: the rebuild finished"
        );
        let sync = replay(layout, &drv.writes);
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
