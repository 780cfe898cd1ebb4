//! The closed loop: each completion hook draws and submits the next I/O,
//! keeping [`QUEUE_DEPTH`] user I/Os outstanding on the simulated side.
//! The host side runs the loop in fixed simulated-time slices and checks
//! the host clock between slices.
//!
//! The loop also carries the output checks that need per-I/O state (the
//! Full-mode shadow copy) and, in the traced run, the span recorder and the
//! input recording the replays consume.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use draid_block::ServerId;
use draid_core::{ArraySim, IoKind, IoResult, Layout, UserIo};
use draid_net::LinkDir;
use draid_sim::{DetRng, Engine, SimTime};
use draid_workload::FioStream;

use crate::scenario::{Payload, Scenario, QUEUE_DEPTH};
use crate::spans::{Name, Spans};

/// One submitted user I/O, as the replays need it.
#[derive(Clone, Copy, Debug)]
pub struct Rec {
    /// Logical offset.
    pub offset: u64,
    /// Length.
    pub len: u64,
    /// Direction.
    pub kind: IoKind,
    /// Simulated submit time.
    pub at: SimTime,
    /// Payload pool index of a Full-mode write.
    pub pick: u16,
}

/// What a completion must check, fixed when the I/O was submitted.
#[derive(Clone, Copy)]
enum Tag {
    Plain,
    Write {
        block: usize,
        pick: u16,
    },
    Read {
        block: usize,
        epoch: u32,
        clean: bool,
    },
}

/// Full-mode shadow of the volume: the pool block each 128 KiB block holds,
/// plus what is needed to tell whether a read raced a write to its block.
struct Shadow {
    payload: Payload,
    pick: DetRng,
    holds: Vec<u16>,
    writes_inflight: Vec<u16>,
    epoch: Vec<u32>,
    verified: u64,
    mismatches: u64,
}

impl Shadow {
    fn new(payload: Payload, blocks: u64, seed: u64) -> Shadow {
        Shadow {
            holds: (0..blocks).map(|b| payload.initial(b)).collect(),
            writes_inflight: vec![0; blocks as usize],
            epoch: vec![0; blocks as usize],
            pick: DetRng::new(seed ^ 0xB10C_5EED),
            payload,
            verified: 0,
            mismatches: 0,
        }
    }

    fn block_of(io: &UserIo) -> usize {
        assert_eq!(io.len, Payload::BLOCK, "full-mode I/O must be one block");
        assert_eq!(
            io.offset % Payload::BLOCK,
            0,
            "full-mode I/O must be aligned"
        );
        (io.offset / Payload::BLOCK) as usize
    }

    /// Attaches a payload to writes and notes what the completion checks.
    fn on_submit(&mut self, io: UserIo) -> (UserIo, Tag) {
        let block = Self::block_of(&io);
        match io.kind {
            IoKind::Write => {
                let pick = self.pick.below(self.payload.blocks.len() as u64) as u16;
                self.writes_inflight[block] += 1;
                self.epoch[block] += 1;
                let data = self.payload.blocks[pick as usize].clone();
                (
                    UserIo::write_bytes(io.offset, data),
                    Tag::Write { block, pick },
                )
            }
            IoKind::Read => {
                let tag = Tag::Read {
                    block,
                    epoch: self.epoch[block],
                    clean: self.writes_inflight[block] == 0,
                };
                (io, tag)
            }
        }
    }

    /// A read that overlapped no in-flight write must return the bytes
    /// the shadow says its block holds.
    fn on_complete(&mut self, res: &IoResult, tag: Tag) {
        match tag {
            Tag::Plain => {}
            Tag::Write { block, pick } => {
                self.writes_inflight[block] -= 1;
                if res.is_ok() {
                    self.holds[block] = pick;
                }
            }
            Tag::Read {
                block,
                epoch,
                clean,
            } => {
                if !res.is_ok() || !clean || self.epoch[block] != epoch {
                    return;
                }
                let want = &self.payload.blocks[self.holds[block] as usize];
                match &res.data {
                    Some(got) if got[..] == want[..] => self.verified += 1,
                    _ => self.mismatches += 1,
                }
            }
        }
    }
}

/// Shared state of the closed loop (the hooks hold it through an `Rc`).
pub struct Loop {
    stream: FioStream,
    layout: Layout,
    /// While set, every completion submits the next I/O.
    open: bool,
    shadow: Option<Shadow>,
    /// Inputs recorded for the replays (traced segment only).
    pub record: Option<Vec<Rec>>,
    /// Span recorder (traced segment only).
    pub spans: Option<Spans>,
    /// Running hash of every drained completion (warm-up only; see
    /// [`sim_digest`]).
    pub completions_hash: Option<u64>,
}

/// Handle to the loop, shared with the completion hooks.
pub type Shared = Rc<RefCell<Loop>>;

impl Loop {
    /// Copies the stream out of `sc` and, in Full mode, takes its payload
    /// for the shadow of the working set.
    pub fn new(sc: &mut Scenario, seed: u64) -> Shared {
        let stream = sc.stream.clone();
        let blocks = crate::scenario::working_stripes(sc) * sc.array.layout().stripe_data_bytes()
            / Payload::BLOCK;
        let shadow = sc.payload.take().map(|p| Shadow::new(p, blocks, seed));
        Rc::new(RefCell::new(Loop {
            stream,
            layout: *sc.array.layout(),
            open: false,
            shadow,
            record: None,
            spans: None,
            completions_hash: None,
        }))
    }

    fn span_open(&mut self, name: Name) -> Option<u32> {
        self.spans.as_mut().map(|s| s.open(name))
    }

    fn span_close(&mut self, id: Option<u32>) {
        if let (Some(s), Some(id)) = (self.spans.as_mut(), id) {
            s.close(id);
        }
    }

    /// `(verified reads, mismatched reads)` of the Full-mode shadow check.
    pub fn shadow_counts(&self) -> Option<(u64, u64)> {
        self.shadow.as_ref().map(|s| (s.verified, s.mismatches))
    }

    /// The payload pool, Full mode only.
    pub fn payload(&self) -> Option<&Payload> {
        self.shadow.as_ref().map(|s| &s.payload)
    }
}

fn submit_next(lp: &Shared, array: &mut ArraySim, eng: &mut Engine<ArraySim>) {
    let (io, tag) = {
        let mut l = lp.borrow_mut();
        let l = &mut *l;
        let span = l.span_open(Name::NextIo);
        let io = l.stream.next_io(&l.layout);
        l.span_close(span);
        let (io, tag) = match &mut l.shadow {
            Some(shadow) => shadow.on_submit(io),
            None => (io, Tag::Plain),
        };
        if let Some(rec) = &mut l.record {
            rec.push(Rec {
                offset: io.offset,
                len: io.len,
                kind: io.kind,
                at: eng.now(),
                pick: match tag {
                    Tag::Write { pick, .. } => pick,
                    _ => 0,
                },
            });
        }
        (io, tag)
    };
    let handle = Rc::clone(lp);
    let hook: draid_core::CompletionHook = Box::new(move |array, eng, res| {
        on_complete(&handle, array, eng, res, tag);
    });
    let span = lp.borrow_mut().span_open(Name::Submit);
    array.submit_with_hook(eng, io, Some(hook));
    lp.borrow_mut().span_close(span);
}

fn on_complete(
    lp: &Shared,
    array: &mut ArraySim,
    eng: &mut Engine<ArraySim>,
    res: &IoResult,
    tag: Tag,
) {
    let (hook, resubmit) = {
        let mut l = lp.borrow_mut();
        let hook = l.span_open(Name::Hook);
        if l.shadow.is_some() {
            let verify = l.span_open(Name::Verify);
            l.shadow
                .as_mut()
                .expect("checked above")
                .on_complete(res, tag);
            l.span_close(verify);
        }
        (hook, l.open)
    };
    if resubmit {
        submit_next(lp, array, eng);
    }
    lp.borrow_mut().span_close(hook);
}

/// Completed and failed user I/Os, as drained from the array.
#[derive(Clone, Copy, Debug, Default)]
pub struct Drained {
    /// User I/Os completed.
    pub ios: u64,
    /// Of which failed.
    pub failed: u64,
}

impl Drained {
    /// Adds another count.
    pub fn add(&mut self, other: Drained) {
        self.ios += other.ios;
        self.failed += other.failed;
    }
}

fn drain(lp: &Shared, array: &mut ArraySim) -> Drained {
    let span = lp.borrow_mut().span_open(Name::Drain);
    let done = array.drain_completions();
    let mut l = lp.borrow_mut();
    l.span_close(span);
    if let Some(h) = &mut l.completions_hash {
        for r in &done {
            let kind = match r.kind {
                IoKind::Read => 0,
                IoKind::Write => 1,
            };
            for v in [
                r.id.0,
                kind,
                r.offset,
                r.len,
                r.submitted.as_nanos(),
                r.completed.as_nanos(),
                u64::from(r.is_ok()),
            ] {
                *h = fnv1a(*h, &v.to_le_bytes());
            }
        }
    }
    Drained {
        ios: done.len() as u64,
        failed: done.iter().filter(|r| !r.is_ok()).count() as u64,
    }
}

/// Opens the loop: submits [`QUEUE_DEPTH`] I/Os.
pub fn prime(lp: &Shared, sc: &mut Scenario) {
    lp.borrow_mut().open = true;
    for _ in 0..QUEUE_DEPTH {
        submit_next(lp, &mut sc.array, &mut sc.engine);
    }
}

/// Runs one slice of simulated time and drains its completions.
fn step(lp: &Shared, sc: &mut Scenario) -> Drained {
    let until = sc.engine.now() + sc.workload.slice();
    let span = lp.borrow_mut().span_open(Name::RunUntil);
    sc.engine.run_until(&mut sc.array, until);
    lp.borrow_mut().span_close(span);
    drain(lp, &mut sc.array)
}

/// Runs the loop for `sim` more simulated time.
pub fn run_sim(lp: &Shared, sc: &mut Scenario, sim: SimTime) -> Drained {
    let end = sc.engine.now() + sim;
    let mut total = Drained::default();
    while sc.engine.now() < end {
        total.add(step(lp, sc));
    }
    total
}

/// Runs the loop until `seconds` of host time have passed or `stop` says
/// so (checked per slice). Returns what completed and the host seconds.
pub fn run_host(
    lp: &Shared,
    sc: &mut Scenario,
    seconds: f64,
    stop: impl Fn(&Loop) -> bool,
) -> (Drained, f64) {
    let start = Instant::now();
    let mut done = Drained::default();
    loop {
        done.add(step(lp, sc));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds || stop(&lp.borrow()) {
            return (done, elapsed);
        }
    }
}

/// Closes the loop and runs the engine dry, so every recorded I/O has
/// completed and every canceled timer has been retired.
pub fn close(lp: &Shared, sc: &mut Scenario) -> Drained {
    lp.borrow_mut().open = false;
    let span = lp.borrow_mut().span_open(Name::RunUntil);
    sc.engine.run(&mut sc.array);
    lp.borrow_mut().span_close(span);
    drain(lp, &mut sc.array)
}

/// Initial value of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a (64-bit) hash `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The simulated outcome so far, hashed: every completed I/O (the
/// drained-completions hash, which the caller collected), simulated MB/s,
/// simulated read/write p50/p99, events fired and host-NIC bytes. Equal
/// for equal seeds, since simulated results depend on nothing else.
/// Returns `(hash, the hashed fields)`.
pub fn sim_digest(sc: &mut Scenario, completions_hash: u64) -> (String, String) {
    let host = sc.array.cluster.host_node();
    let nic =
        sc.array.cluster.fabric().bytes_sent(host) + sc.array.cluster.fabric().bytes_received(host);
    let now = sc.engine.now();
    let stats = &mut sc.array.stats;
    let fields = format!(
        "completions={completions_hash:016x} ios={} mb_per_s={:.6} read_p50_ns={} read_p99_ns={} write_p50_ns={} write_p99_ns={} events={} host_nic_bytes={}",
        stats.total_ops(),
        stats.bandwidth_mb_per_sec(now),
        stats.read_latency.percentile(50.0).as_nanos(),
        stats.read_latency.percentile(99.0).as_nanos(),
        stats.write_latency.percentile(50.0).as_nanos(),
        stats.write_latency.percentile(99.0).as_nanos(),
        sc.engine.stats().events_fired,
        nic,
    );
    (
        format!("{:016x}", fnv1a(FNV_OFFSET, fields.as_bytes())),
        fields,
    )
}

/// Checks the public conservation ledgers: for every node and direction
/// `bytes_offered == bytes_sent/received + bytes_dropped`, and for every
/// drive `bytes_offered == bytes_served + bytes_dropped`. Returns one
/// message per imbalance.
pub fn ledger_errors(array: &ArraySim) -> Vec<String> {
    let cluster = &array.cluster;
    let fabric = cluster.fabric();
    let mut nodes = vec![cluster.host_node()];
    nodes.extend((0..cluster.width()).map(|s| cluster.server_node(ServerId(s))));
    let mut errors = Vec::new();
    for node in nodes {
        for (dir, served) in [
            (LinkDir::Egress, fabric.bytes_sent(node)),
            (LinkDir::Ingress, fabric.bytes_received(node)),
        ] {
            let offered = fabric.bytes_offered(node, dir);
            let dropped = fabric.bytes_dropped(node, dir);
            if offered != served + dropped {
                errors.push(format!(
                    "fabric ledger {node:?} {dir:?}: offered {offered} != served {served} + dropped {dropped}"
                ));
            }
        }
    }
    for s in 0..cluster.width() {
        let d = cluster.drive(ServerId(s));
        if d.bytes_offered() != d.bytes_served() + d.bytes_dropped() {
            errors.push(format!(
                "drive ledger {s}: offered {} != served {} + dropped {}",
                d.bytes_offered(),
                d.bytes_served(),
                d.bytes_dropped()
            ));
        }
    }
    errors
}
