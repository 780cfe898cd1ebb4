//! The real-bytes data plane: chunk contents, parity maintenance, and
//! degraded reconstruction.
//!
//! In [`DataMode::Full`] the simulation doesn't just account for time — every
//! write stores real bytes and real parity (computed with `draid-ec`), and
//! every read returns bytes, reconstructing through the Reed-Solomon decoder
//! when members are lost. Integration tests assert end-to-end data integrity
//! across failures, which validates the layout, write-mode, and recovery
//! logic the timing model alone could not.
//!
//! GF(256) codes act on one byte position at a time, so every operation
//! touches only the byte ranges it changes:
//!
//! * a degraded read decodes each lost segment's `[offset, offset + len)`
//!   straight into the read's buffer, reading `k` survivors over that
//!   range;
//! * a read-modify-write applies parity deltas (`P ^= D ⊕ D'`, `Q ^=
//!   g^i·(D ⊕ D')`) over each segment's range to every surviving parity,
//!   decoding a lost touched chunk's old bytes over that range only;
//! * a reconstruct-write or full-stripe write re-encodes parity over the
//!   segments' ranges, decoding lost untouched data over those ranges only;
//! * a resync (no segments) re-encodes the whole chunk.
//!
//! Each step is one pass of a fused kernel, so every cold stream is read
//! once, and prefetched a fixed distance ahead of the line the kernel is
//! on, across the page boundaries where the hardware prefetchers stop: a
//! decode or an encode is one [`kernels::encode`] call for all its output
//! rows, a read-modify-write is one [`kernels::update`] call per segment
//! that reads the old and new data, P and Q together and writes each once,
//! and a healthy read segment is one slice copy. Every kernel call runs on
//! the thread that calls the store.
//!
//! Every decode happens before the first byte changes. Each chunk is a
//! shared copy-on-write buffer (`Arc<Vec<u8>>`): a read that is one healthy
//! segment returns a [`Bytes`] view of the stored chunk and copies nothing
//! ([`ChunkStore::read_shared`]), and every change goes through
//! `Arc::make_mut`, which changes a chunk no read result holds in place and
//! copies one that is still held, once. Any other read is gathered into a
//! fresh buffer by appending slices and decodes ([`ReadBuf`]).
//!
//! The array's store is a [`WriteBehind`]: each stripe write moves that
//! stripe's chunks, with the payload, to an applier thread that runs
//! [`ChunkStore::apply_write`] on them and hands them back, while the
//! simulation runs on. Every later access to the stripe (a read, the next
//! write, rebuild, scrub, fault injection, dropping a member, or the whole
//! store through `ArraySim::store`) first takes the chunks back. A stripe
//! has at most one write out, so its writes apply in order and every byte
//! is what the synchronous store holds. The chunks a queued write stores
//! are made unique on the caller before it queues, so the applier changes
//! only chunks no read result shares, and copies none.
//!
//! An array holds all of this in one [`DataPlane`], and only in Full mode.
//! It owns the write-behind store and the bytes of the reads in flight, and
//! makes every data-plane decision: what a finished stripe op stores or
//! reads, when a stripe settles, and what a lost member, a rebuilt chunk, a
//! scrub check, an injected corruption or a host crash does to the bytes.
//! The array's callers only hand it the op, its payload and the members it
//! lost, so a `DataMode::Timing` op never reaches this code.
//!
//! [`DataMode::Full`]: crate::DataMode::Full

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use bytes::Bytes;
use draid_ec::{kernels, ReedSolomon};

use crate::builders::Purpose;
use crate::exec::OpState;
use crate::idhash::IdHasher;
use crate::io::IoKind;
use crate::layout::{Layout, Segment, StripeIo, WriteMode};

/// Bytes verified per decode call when checking a stripe's parity.
const VERIFY_WINDOW: usize = 64 * 1024;

/// A stored chunk: shared with the read results that view it, and copied
/// on the first change while one is held (`Arc::make_mut`).
type Chunk = Arc<Vec<u8>>;

/// Per-array chunk contents keyed by `(stripe, member)`.
///
/// Unwritten chunks read as zeros, like a freshly created (and implicitly
/// synchronized) array. Chunks live in a `BTreeMap` (and failure sets are
/// `BTreeSet`s) so every iteration — fsck sweeps, rebuild scans — observes a
/// deterministic order; hash-iteration order leaking into simulation results
/// would break replayability.
///
/// A stripe's rows are numbered like the codec's shards: `0..d` are its data
/// chunks, `d` is P and `d + 1` is Q.
#[derive(Debug)]
pub struct ChunkStore {
    layout: Layout,
    codec: ReedSolomon,
    chunks: BTreeMap<(u64, usize), Chunk>,
    /// One chunk of zeros: what an unwritten chunk reads as, shared.
    zeros: Chunk,
    /// Decoded bytes of a write, reused across writes.
    scratch: Vec<u8>,
}

/// A segment's byte range within its chunk.
fn span(seg: &Segment) -> Range<usize> {
    seg.offset as usize..(seg.offset + seg.len) as usize
}

/// The rows a write of `io` stores: each surviving row a segment writes and
/// each surviving parity row. `lost` marks the stripe's lost rows, of which
/// the first `d` are data.
fn written_rows<'a>(
    io: &'a StripeIo,
    lost: &'a [bool],
    d: usize,
) -> impl Iterator<Item = usize> + 'a {
    io.segments
        .iter()
        .map(|s| s.data_index)
        .chain(d..lost.len())
        .filter(|&r| !lost[r])
}

/// Writes `src` at `at` in `out`, extending it. A gap before `at` (a later
/// part of a read that arrived first) is zero-filled until its own part
/// overwrites it.
fn put_at(out: &mut Vec<u8>, at: usize, src: &[u8]) {
    if out.len() < at {
        out.resize(at, 0);
    }
    let overlap = (out.len() - at).min(src.len());
    out[at..at + overlap].copy_from_slice(&src[..overlap]);
    out.extend_from_slice(&src[overlap..]);
}

impl ChunkStore {
    /// Creates an empty store for the given geometry.
    pub fn new(layout: Layout) -> Self {
        ChunkStore {
            layout,
            codec: ReedSolomon::new(layout.data_chunks(), layout.level().parity_count()),
            chunks: BTreeMap::new(),
            zeros: Arc::new(vec![0; layout.chunk_size() as usize]),
            scratch: Vec::new(),
        }
    }

    /// Number of materialized chunks (test/diagnostic aid).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The stored bytes of `member`'s chunk in `stripe`, or `None` if the
    /// chunk was never written or its drive was lost (test/diagnostic aid).
    pub fn stored_chunk(&self, stripe: u64, member: usize) -> Option<&[u8]> {
        self.chunks.get(&(stripe, member)).map(|c| c.as_slice())
    }

    fn rows(&self) -> usize {
        self.codec.data_chunks() + self.codec.parity_chunks()
    }

    /// The member holding `row` of `stripe`.
    fn member(&self, stripe: u64, row: usize) -> usize {
        let d = self.layout.data_chunks();
        if row < d {
            self.layout.data_member(stripe, row)
        } else if row == d {
            self.layout.p_member(stripe)
        } else {
            self.layout
                .q_member(stripe)
                .expect("only raid6 has a Q row")
        }
    }

    /// Which rows of `stripe` sit on a member in `failed`.
    fn lost_rows(&self, stripe: u64, failed: &BTreeSet<usize>) -> Vec<bool> {
        (0..self.rows())
            .map(|r| !failed.is_empty() && failed.contains(&self.member(stripe, r)))
            .collect()
    }

    /// Bytes `range` of `row`'s chunk; an unwritten chunk reads as zeros.
    fn bytes(&self, stripe: u64, row: usize, range: Range<usize>) -> &[u8] {
        match self.chunks.get(&(stripe, self.member(stripe, row))) {
            Some(chunk) => &chunk[range],
            None => &self.zeros[..range.len()],
        }
    }

    /// Decodes `row` of `stripe` over `range` into `dst` from the rows not
    /// marked in `lost` (which must include `row`).
    ///
    /// # Panics
    ///
    /// Panics if more rows are lost than the level tolerates.
    fn decode(&self, stripe: u64, lost: &[bool], row: usize, range: Range<usize>, dst: &mut [u8]) {
        let shards: Vec<Option<&[u8]>> = lost
            .iter()
            .enumerate()
            .map(|(r, &gone)| (!gone).then(|| self.bytes(stripe, r, range.clone())))
            .collect();
        self.codec
            .decode_rows(&shards, &mut [(row, dst)])
            .expect("failures exceed the RAID level's tolerance");
    }

    /// `row`'s chunk, taken out of the map for update (the shared zeros if
    /// unwritten); [`ChunkStore::put_chunk`] returns it.
    fn take_chunk(&mut self, stripe: u64, row: usize) -> Chunk {
        let member = self.member(stripe, row);
        self.chunks
            .remove(&(stripe, member))
            .unwrap_or_else(|| Arc::clone(&self.zeros))
    }

    /// `member`'s chunk of `stripe`, materialized and unshared for update.
    fn chunk_mut(&mut self, stripe: u64, member: usize) -> &mut Vec<u8> {
        let zeros = &self.zeros;
        Arc::make_mut(
            self.chunks
                .entry((stripe, member))
                .or_insert_with(|| Arc::clone(zeros)),
        )
    }

    fn put_chunk(&mut self, stripe: u64, member: usize, data: Chunk) {
        debug_assert_eq!(data.len() as u64, self.layout.chunk_size());
        self.chunks.insert((stripe, member), data);
    }

    /// Materializes every chunk a write of `io` stores (see
    /// [`written_rows`]) and makes it unshared, copying one a read result
    /// still holds. `lost` marks the stripe's lost rows.
    fn materialize_write(&mut self, io: &StripeIo, lost: &[bool]) {
        for row in written_rows(io, lost, self.layout.data_chunks()) {
            let member = self.member(io.stripe, row);
            self.chunk_mut(io.stripe, member);
        }
    }

    /// Whether every chunk a write of `io` stores exists and no read result
    /// shares it, so that the write changes each in place and copies none.
    fn stores_unshared(&self, io: &StripeIo, failed: &BTreeSet<usize>) -> bool {
        let lost = self.lost_rows(io.stripe, failed);
        let unshared = written_rows(io, &lost, self.layout.data_chunks()).all(|row| {
            let chunk = self.chunks.get(&(io.stripe, self.member(io.stripe, row)));
            chunk.is_some_and(|c| Arc::strong_count(c) == 1)
        });
        unshared
    }

    /// Moves every stored chunk of `stripe` into `out`, as
    /// `(member, chunk)`.
    fn take_stripe(&mut self, stripe: u64, out: &mut Vec<(usize, Chunk)>) {
        for row in 0..self.rows() {
            let member = self.member(stripe, row);
            if let Some(chunk) = self.chunks.remove(&(stripe, member)) {
                out.push((member, chunk));
            }
        }
    }

    /// Applies `job`'s write to its chunks, in this store, and hands them
    /// back in `job.chunks`: the applier's half of [`WriteBehind`]. The
    /// store holds no chunk before or after.
    fn apply_job(&mut self, job: &mut Job) {
        let stripe = job.io.stripe;
        for (member, chunk) in job.chunks.drain(..) {
            self.put_chunk(stripe, member, chunk);
        }
        let payload = job.payload.as_deref().expect("a queued job has a payload");
        draid_sim::draid_invariant!(
            self.stores_unshared(&job.io, &job.failed),
            "the applier would change a missing or shared chunk of stripe {stripe}"
        );
        self.apply_write(&job.io, payload, job.mode, &job.failed);
        let chunks = std::mem::take(&mut self.chunks);
        job.chunks.extend(
            chunks
                .into_iter()
                .map(|((_, member), chunk)| (member, chunk)),
        );
    }

    /// Discards every chunk stored on `member` — the drive is gone (§5.4
    /// prolonged failure). Parity on the surviving members still encodes the
    /// lost contents.
    pub fn drop_member(&mut self, member: usize) {
        self.chunks.retain(|&(_, m), _| m != member);
    }

    /// Returns the bytes a read of `io` must produce, reconstructing lost
    /// chunks as needed (the §6.1 degraded read, data-plane side).
    pub fn read(&self, io: &StripeIo, failed: &BTreeSet<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(io.bytes() as usize);
        self.read_into(&mut out, io, failed);
        out
    }

    /// Gathers the bytes a read of `io` must produce into a caller-provided
    /// buffer (cleared first, then `io.bytes()` long).
    pub fn read_into(&self, out: &mut Vec<u8>, io: &StripeIo, failed: &BTreeSet<usize>) {
        out.clear();
        self.gather(out, 0, io, failed);
    }

    /// A read of `io` that copies nothing: a view of the stored chunk (the
    /// shared zeros if unwritten), if `io` is one segment on a member not
    /// in `failed`.
    pub(crate) fn read_shared(&self, io: &StripeIo, failed: &BTreeSet<usize>) -> Option<Bytes> {
        let [seg] = &io.segments[..] else {
            return None;
        };
        let member = self.member(io.stripe, seg.data_index);
        if failed.contains(&member) {
            return None;
        }
        let chunk = self.chunks.get(&(io.stripe, member)).unwrap_or(&self.zeros);
        Some(Bytes::from_owner(Arc::clone(chunk)).slice(span(seg)))
    }

    /// Writes the bytes a read of `io` must produce at `out[at..]`,
    /// extending `out`: each healthy segment is appended from the stored
    /// chunk, and only a lost segment's range is sized before it is decoded
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics if a lost segment cannot be decoded.
    fn gather(&self, out: &mut Vec<u8>, mut at: usize, io: &StripeIo, failed: &BTreeSet<usize>) {
        let lost = self.lost_rows(io.stripe, failed);
        for seg in io.segments.iter() {
            let range = at..at + seg.len as usize;
            at = range.end;
            if lost[seg.data_index] {
                if out.len() < range.end {
                    out.resize(range.end, 0);
                }
                self.decode(io.stripe, &lost, seg.data_index, span(seg), &mut out[range]);
            } else {
                put_at(
                    out,
                    range.start,
                    self.bytes(io.stripe, seg.data_index, span(seg)),
                );
            }
        }
    }

    /// Applies a stripe write: updates data chunks with `payload` and brings
    /// parity up to date over the written ranges — deltas in
    /// read-modify-write mode, a range-restricted encode otherwise, a whole
    /// re-encode for a resync (no segments). Chunks on `failed` members are
    /// not stored (the drive is dead) but parity still encodes their
    /// intended contents, so later degraded reads return the new data.
    ///
    /// # Panics
    ///
    /// Panics if `payload` length differs from the stripe I/O size, or more
    /// members failed than tolerated.
    pub fn apply_write(
        &mut self,
        io: &StripeIo,
        payload: &[u8],
        mode: WriteMode,
        failed: &BTreeSet<usize>,
    ) {
        let lost = self.check_write(io, payload.len(), failed);
        if mode == WriteMode::ReadModifyWrite && !io.segments.is_empty() {
            self.write_delta(io, payload, &lost);
        } else {
            self.write_encode(io, payload, &lost);
        }
    }

    /// The rows of `io`'s stripe lost to `failed`, after checking that a
    /// write of `len` payload bytes can apply.
    ///
    /// # Panics
    ///
    /// Panics if `len` differs from the stripe I/O size, or more members
    /// failed than tolerated.
    fn check_write(&self, io: &StripeIo, len: usize, failed: &BTreeSet<usize>) -> Vec<bool> {
        assert_eq!(len as u64, io.bytes(), "payload size mismatch");
        let lost = self.lost_rows(io.stripe, failed);
        assert!(
            lost.iter().filter(|&&l| l).count() <= self.codec.parity_chunks(),
            "failures exceed the RAID level's tolerance"
        );
        lost
    }

    /// Read-modify-write: one [`kernels::update`] pass per segment sets
    /// `D = D'` and applies `P ^= D ⊕ D'` and `Q ^= g^i·(D ⊕ D')` over the
    /// segment's range to every surviving parity.
    fn write_delta(&mut self, io: &StripeIo, payload: &[u8], lost: &[bool]) {
        let stripe = io.stripe;
        let d = self.layout.data_chunks();
        // Old bytes of lost touched chunks, decoded before anything changes;
        // the update then advances these scratch copies in place.
        let mut old_lost = std::mem::take(&mut self.scratch);
        old_lost.clear();
        for seg in io.segments.iter().filter(|s| lost[s.data_index]) {
            let at = old_lost.len();
            old_lost.resize(at + seg.len as usize, 0);
            self.decode(stripe, lost, seg.data_index, span(seg), &mut old_lost[at..]);
        }

        let mut parity: Vec<(usize, Chunk)> = (d..self.rows())
            .filter(|&r| !lost[r])
            .map(|r| (r, self.take_chunk(stripe, r)))
            .collect();
        let (mut cursor, mut decoded) = (0, 0);
        for seg in io.segments.iter() {
            let range = span(seg);
            let new = &payload[cursor..cursor + range.len()];
            cursor += range.len();
            let coeffs: Vec<u8> = parity
                .iter()
                .map(|(row, _)| self.codec.coefficient(row - d, seg.data_index))
                .collect();
            let mut dsts: Vec<&mut [u8]> = parity
                .iter_mut()
                .map(|(_, chunk)| &mut Arc::make_mut(chunk)[range.clone()])
                .collect();
            let data = if lost[seg.data_index] {
                decoded += range.len();
                &mut old_lost[decoded - range.len()..decoded]
            } else {
                &mut self.chunk_mut(stripe, seg.member)[range]
            };
            kernels::update(&coeffs, data, new, &mut dsts);
        }
        for (row, chunk) in parity {
            let member = self.member(stripe, row);
            self.put_chunk(stripe, member, chunk);
        }
        self.scratch = old_lost;
    }

    /// Reconstruct-write, full-stripe write and resync: re-encodes every
    /// surviving parity over the union of the segments' ranges (the whole
    /// chunk for a resync), from the new payload, the stored untouched data
    /// and lost untouched data decoded over those ranges.
    fn write_encode(&mut self, io: &StripeIo, payload: &[u8], lost: &[bool]) {
        let stripe = io.stripe;
        let d = self.layout.data_chunks();
        // Each data row's segment and that segment's payload offset.
        let mut written: Vec<Option<(Range<usize>, usize)>> = vec![None; d];
        let mut cursor = 0;
        for seg in io.segments.iter() {
            written[seg.data_index] = Some((span(seg), cursor));
            cursor += seg.len as usize;
        }
        // The payload offset of `row`'s bytes over `iv`, if a segment
        // writes them.
        let covers = |row: usize, iv: &Range<usize>| match &written[row] {
            Some((r, at)) if r.start <= iv.start && iv.end <= r.end => {
                Some(at + iv.start - r.start)
            }
            _ => None,
        };
        // Cut the union at every segment boundary, so each interval lies
        // wholly inside or outside every segment.
        let intervals: Vec<Range<usize>> = if io.segments.is_empty() {
            std::iter::once(0..self.layout.chunk_size() as usize).collect()
        } else {
            let mut cuts: Vec<usize> = io
                .segments
                .iter()
                .flat_map(|s| [span(s).start, span(s).end])
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            cuts.windows(2)
                .map(|w| w[0]..w[1])
                .filter(|iv| (0..d).any(|r| covers(r, iv).is_some()))
                .collect()
        };

        // Lost untouched data, decoded before anything changes, in
        // (interval, row) order.
        let mut decoded = std::mem::take(&mut self.scratch);
        decoded.clear();
        for iv in &intervals {
            for row in (0..d).filter(|&r| lost[r] && covers(r, iv).is_none()) {
                let at = decoded.len();
                decoded.resize(at + iv.len(), 0);
                self.decode(stripe, lost, row, iv.clone(), &mut decoded[at..]);
            }
        }

        let mut parity: Vec<(usize, Chunk)> = (d..self.rows())
            .filter(|&r| !lost[r])
            .map(|r| (r, self.take_chunk(stripe, r)))
            .collect();
        let mut used = 0;
        for iv in &intervals {
            let sources: Vec<&[u8]> = (0..d)
                .map(|row| match covers(row, iv) {
                    Some(at) => &payload[at..at + iv.len()],
                    None if lost[row] => {
                        used += iv.len();
                        &decoded[used - iv.len()..used]
                    }
                    None => self.bytes(stripe, row, iv.clone()),
                })
                .collect();
            let mut out: Vec<(usize, &mut [u8])> = parity
                .iter_mut()
                .map(|(row, chunk)| (*row, &mut Arc::make_mut(chunk)[iv.clone()]))
                .collect();
            self.codec.encode_into(&sources, &mut out);
        }
        let mut cursor = 0;
        for seg in io.segments.iter() {
            let new = &payload[cursor..cursor + seg.len as usize];
            cursor += seg.len as usize;
            if !lost[seg.data_index] {
                self.chunk_mut(stripe, seg.member)[span(seg)].copy_from_slice(new);
            }
        }
        for (row, chunk) in parity {
            let member = self.member(stripe, row);
            self.put_chunk(stripe, member, chunk);
        }
        self.scratch = decoded;
    }

    /// Restores the chunk `member` held in `stripe` from the survivors and
    /// stores it — the data-plane side of a hot-spare rebuild. Only that one
    /// row is produced: a data row is decoded, a parity row encoded.
    ///
    /// # Panics
    ///
    /// Panics if more members than tolerated are in `failed` (excluding
    /// `member` itself, which is the one being restored).
    pub fn rebuild_chunk(&mut self, stripe: u64, member: usize, failed: &BTreeSet<usize>) {
        let row = (0..self.rows())
            .find(|&r| self.member(stripe, r) == member)
            .expect("every member holds a row of every stripe");
        let mut lost = self.lost_rows(stripe, failed);
        lost[row] = true;
        let mut chunk = vec![0; self.zeros.len()];
        self.decode(stripe, &lost, row, 0..chunk.len(), &mut chunk);
        self.put_chunk(stripe, member, Arc::new(chunk));
    }

    /// Fault injection for tests: flips one byte of a stored chunk (e.g. a
    /// parity chunk left torn by a crashed write).
    ///
    /// # Panics
    ///
    /// Panics if the chunk was never written.
    pub fn corrupt_chunk(&mut self, stripe: u64, member: usize, byte: usize) {
        let chunk = Arc::make_mut(
            self.chunks
                .get_mut(&(stripe, member))
                .expect("cannot corrupt an unwritten chunk"),
        );
        let idx = byte % chunk.len();
        chunk[idx] ^= 0xFF;
    }

    /// Array-wide consistency check ("fsck"): verifies every materialized
    /// stripe's parity against its data. Returns the inconsistent stripe
    /// indices (empty = clean). Only meaningful on a non-degraded array —
    /// faulty members' chunks are absent by design.
    pub fn verify_all(&self) -> Vec<u64> {
        // BTreeMap keys are already sorted by (stripe, member).
        let mut stripes: Vec<u64> = self.chunks.keys().map(|&(s, _)| s).collect();
        stripes.dedup();
        stripes
            .into_iter()
            .filter(|&s| !self.verify_stripe(s))
            .collect()
    }

    /// Verifies that a stripe's stored parity matches its stored data
    /// (returns `true` for never-written stripes).
    pub fn verify_stripe(&self, stripe: u64) -> bool {
        self.verify_survivors(stripe, &BTreeSet::new())
    }

    /// Verifies what the members outside `failed` can check: the first `k`
    /// surviving rows determine every other row, so each further surviving
    /// row must equal its decode. With no redundancy left (RAID-5 with one
    /// loss, RAID-6 with two) there is nothing to check and the stripe
    /// passes.
    pub fn verify_survivors(&self, stripe: u64, failed: &BTreeSet<usize>) -> bool {
        let k = self.codec.data_chunks();
        let lost = self.lost_rows(stripe, failed);
        let survivors: Vec<usize> = (0..self.rows()).filter(|&r| !lost[r]).collect();
        let Some(checked) = survivors.get(k..).filter(|c| !c.is_empty()) else {
            return true;
        };
        // Decode the checked rows from the first k survivors only.
        let mut outside = vec![true; self.rows()];
        for &r in &survivors[..k] {
            outside[r] = false;
        }
        let len = self.zeros.len();
        let mut buf = vec![0u8; VERIFY_WINDOW.min(len)];
        (0..len).step_by(VERIFY_WINDOW).all(|lo| {
            let range = lo..(lo + VERIFY_WINDOW).min(len);
            checked.iter().all(|&r| {
                let out = &mut buf[..range.len()];
                self.decode(stripe, &outside, r, range.clone(), out);
                *out == *self.bytes(stripe, r, range.clone())
            })
        })
    }
}

/// A Full-mode user read's bytes, built as its stripe ops complete. Nothing
/// is allocated when the read is submitted.
#[derive(Debug)]
enum ReadBuf {
    /// No stripe op has applied yet; the read is this many bytes long.
    Empty(usize),
    /// The whole read is one healthy segment: a view of its stored chunk
    /// ([`ChunkStore::read_shared`]).
    Shared(Bytes),
    /// The bytes gathered so far, and the read's length.
    Gathered(Vec<u8>, usize),
}

impl ReadBuf {
    /// Adds the bytes of `io`, one stripe op of the read, from `store`.
    /// The first op to apply allocates, unless it is the whole read and
    /// `store` can share it.
    fn fill(&mut self, store: &ChunkStore, io: &StripeIo, failed: &BTreeSet<usize>) {
        if let ReadBuf::Empty(len) = *self {
            if io.bytes() == len as u64 {
                if let Some(view) = store.read_shared(io, failed) {
                    *self = ReadBuf::Shared(view);
                    return;
                }
            }
            *self = ReadBuf::Gathered(Vec::with_capacity(len), len);
        }
        let ReadBuf::Gathered(buf, _) = self else {
            unreachable!("a shared read is one stripe op");
        };
        store.gather(buf, io.buf_offset as usize, io, failed);
    }

    /// The read's bytes. Ranges no stripe op filled (the op failed, or
    /// completed after the array failed) read as zeros.
    fn into_bytes(self) -> Bytes {
        match self {
            ReadBuf::Empty(len) => Bytes::from(vec![0; len]),
            ReadBuf::Shared(view) => view,
            ReadBuf::Gathered(mut buf, len) => {
                buf.resize(len, 0);
                Bytes::from(buf)
            }
        }
    }
}

/// Stripe writes that may be out with the applier at once.
const QUEUE_JOBS: usize = 8;

/// Payload bytes the writes out with the applier may hold at once: eight
/// 128 KiB writes. A queued write keeps its payload alive until it is taken
/// back, so this bounds the memory write-behind adds; a larger write
/// applies on the caller.
const QUEUE_BYTES: usize = 1 << 20;

/// One stripe write on its way through the applier: the stripe's chunks,
/// moved out of the store, and the arguments of
/// [`ChunkStore::apply_write`]. A finished job keeps its buffers for the
/// next write.
struct Job {
    io: StripeIo,
    payload: Option<Bytes>,
    mode: WriteMode,
    failed: BTreeSet<usize>,
    chunks: Vec<(usize, Chunk)>,
}

/// What the caller and the applier share, under one lock.
#[derive(Default)]
struct Queue {
    /// Writes the applier has not started, oldest first.
    queued: VecDeque<Job>,
    /// The stripe of the write the applier is applying.
    applying: Option<u64>,
    /// Applied writes the caller has not taken back.
    done: Vec<Job>,
    /// The applier waits for work.
    idle: bool,
    /// The caller waits for a write to finish.
    waiting: bool,
    /// The store is dropping: the applier stops after its current write.
    closed: bool,
    /// The applier's panic, raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
    /// The applier panicked: the chunks of the write it was applying are
    /// gone.
    died: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signals the applier: a write was queued, or the store closed.
    work: Condvar,
    /// Signals the caller: a write finished.
    finished: Condvar,
}

impl Shared {
    /// Every update of the queue leaves it valid (the applier applies with
    /// the lock released, under `catch_unwind`), so a poisoned lock is
    /// recovered.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The applier thread and its queue.
struct Applier {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Applier {
    fn spawn(layout: Layout) -> Applier {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            finished: Condvar::new(),
        });
        // Built here, so the chunk of zeros and the decode scratch of the
        // applier's store come from the caller's heap.
        let mut one_stripe = ChunkStore::new(layout);
        let parity = layout.level().parity_count();
        one_stripe.scratch = Vec::with_capacity(parity * one_stripe.zeros.len());
        let theirs = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("draid-applier".into())
            .spawn(move || serve(&theirs, one_stripe))
            .expect("spawn the write-behind applier");
        Applier {
            shared,
            thread: Some(thread),
        }
    }
}

impl Drop for Applier {
    fn drop(&mut self) {
        // Queued writes die with the store; only the one being applied
        // finishes.
        let mut q = self.shared.lock();
        q.closed = true;
        if q.idle {
            self.shared.work.notify_one();
        }
        drop(q);
        if let Some(thread) = self.thread.take() {
            // `serve` catches the panics of the writes it applies; one the
            // caller never took back dies with the store, as a drop must
            // not panic.
            let _ = thread.join();
        }
    }
}

/// The applier's loop: apply queued writes in order, in a one-stripe store.
fn serve(shared: &Shared, mut one_stripe: ChunkStore) {
    let mut q = shared.lock();
    loop {
        if q.closed {
            return;
        }
        let Some(mut job) = q.queued.pop_front() else {
            q.idle = true;
            q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            q.idle = false;
            continue;
        };
        q.applying = Some(job.io.stripe);
        drop(q);
        let applied = panic::catch_unwind(AssertUnwindSafe(|| one_stripe.apply_job(&mut job)));
        q = shared.lock();
        q.applying = None;
        if q.waiting {
            shared.finished.notify_one();
        }
        match applied {
            Ok(()) => q.done.push(job),
            Err(panic) => {
                q.panic = Some(panic);
                q.died = true;
                return;
            }
        }
    }
}

/// The caller's side of a [`WriteBehind`]: the store and the bookkeeping of
/// the chunks that are out.
struct Home {
    store: ChunkStore,
    /// Stripes whose chunks are out with a queued, applying or applied
    /// write.
    out: Vec<u64>,
    /// Payload bytes of the writes out.
    out_bytes: usize,
    /// Finished jobs, reused by the next writes.
    idle: Vec<Job>,
}

impl Home {
    /// Materializes every chunk the write will store, unshared, and moves
    /// the stripe's chunks into a job.
    fn prepare(
        &mut self,
        io: &StripeIo,
        payload: Bytes,
        mode: WriteMode,
        failed: BTreeSet<usize>,
        lost: &[bool],
    ) -> Job {
        let mut job = self.idle.pop().unwrap_or_else(|| Job {
            io: StripeIo::default(),
            payload: None,
            mode,
            failed: BTreeSet::new(),
            chunks: Vec::new(),
        });
        self.store.materialize_write(io, lost);
        self.store.take_stripe(io.stripe, &mut job.chunks);
        job.io.stripe = io.stripe;
        job.io.buf_offset = io.buf_offset;
        job.io.segments.clear();
        job.io.segments.extend_from_slice(&io.segments);
        job.payload = Some(payload);
        job.mode = mode;
        job.failed = failed;
        job
    }

    /// Puts a job's chunks back in the store.
    fn put_back(&mut self, job: &mut Job) {
        let stripe = job.io.stripe;
        for (member, chunk) in job.chunks.drain(..) {
            self.store.put_chunk(stripe, member, chunk);
        }
        if let Some(at) = self.out.iter().position(|&s| s == stripe) {
            self.out.swap_remove(at);
            self.out_bytes -= job.payload.as_ref().map_or(0, Bytes::len);
        }
    }

    /// Keeps a finished job's buffers for the next write.
    fn recycle(&mut self, mut job: Job) {
        job.payload = None;
        job.failed.clear();
        self.idle.push(job);
    }

    /// Applies a queued job the applier has not started, here.
    fn apply_here(&mut self, mut job: Job) {
        self.put_back(&mut job);
        let payload = job
            .payload
            .as_deref()
            .expect("an unapplied job has a payload");
        self.store
            .apply_write(&job.io, payload, job.mode, &job.failed);
        self.recycle(job);
    }

    /// Takes back every write the applier has finished.
    ///
    /// # Panics
    ///
    /// Resumes the applier's panic if it had one, and panics on every
    /// later call.
    fn take_back(&mut self, q: &mut Queue) {
        if let Some(panic) = q.panic.take() {
            std::panic::resume_unwind(panic);
        }
        assert!(!q.died, "the write-behind applier panicked");
        while let Some(mut job) = q.done.pop() {
            self.put_back(&mut job);
            self.recycle(job);
        }
    }
}

/// A [`ChunkStore`] whose stripe writes apply on an applier thread while
/// the caller runs on: the write-behind data plane of
/// [`DataMode::Full`](crate::DataMode::Full).
///
/// [`WriteBehind::write`] checks the write, materializes on the calling
/// thread every chunk the write will store and makes it unshared (copying
/// one a held read result views), moves the stripe's chunks out
/// of the store and queues them with the payload. The applier runs
/// [`ChunkStore::apply_write`] on them in a one-stripe store of its own and
/// hands them back. Any later access to a stripe first takes its chunks
/// back (`settled` for one stripe, `settled_all` for the whole store): it
/// waits for a write the applier is applying, and applies one still queued
/// itself. A stripe
/// has at most one write out at a time, so writes to one stripe apply one
/// by one in the order they were made, and every stored and every read
/// byte is what the synchronous store would hold.
///
/// At most eight writes with 1 MiB of payload are out at once; a write
/// beyond either applies on the caller. The applier allocates no chunk
/// memory: the chunks it writes exist before they are queued, and its
/// store's buffers are built by the caller. The thread starts with the
/// first write, and dropping the store drops the writes still queued and
/// joins it.
pub struct WriteBehind {
    home: Home,
    applier: Option<Applier>,
}

impl WriteBehind {
    /// Creates an empty store for the given geometry.
    pub fn new(layout: Layout) -> Self {
        WriteBehind {
            home: Home {
                store: ChunkStore::new(layout),
                out: Vec::with_capacity(QUEUE_JOBS),
                out_bytes: 0,
                idle: Vec::new(),
            },
            applier: None,
        }
    }

    /// Queues a stripe write (see [`ChunkStore::apply_write`]) to the
    /// applier, once an earlier write to the stripe has applied. When the
    /// writes out would exceed eight or 1 MiB of payload with it, the write
    /// applies here instead.
    ///
    /// # Panics
    ///
    /// Panics here, on the caller, if `payload` length differs from the
    /// stripe I/O size or more members failed than tolerated; panics if the
    /// applier thread cannot be spawned.
    pub fn write(
        &mut self,
        io: &StripeIo,
        payload: Bytes,
        mode: WriteMode,
        failed: BTreeSet<usize>,
    ) {
        let lost = self.home.store.check_write(io, payload.len(), &failed);
        self.settle(io.stripe);
        let layout = self.home.store.layout;
        let shared = &self
            .applier
            .get_or_insert_with(|| Applier::spawn(layout))
            .shared;
        let mut q = shared.lock();
        self.home.take_back(&mut q);
        let home = &mut self.home;
        if home.out.len() == QUEUE_JOBS || home.out_bytes + payload.len() > QUEUE_BYTES {
            drop(q);
            home.store.apply_write(io, &payload, mode, &failed);
            return;
        }
        home.out.push(io.stripe);
        home.out_bytes += payload.len();
        q.queued
            .push_back(home.prepare(io, payload, mode, failed, &lost));
        if q.idle {
            shared.work.notify_one();
        }
    }

    /// The store, with `stripe`'s chunks back: valid for accesses to
    /// `stripe` only.
    fn settled(&mut self, stripe: u64) -> &mut ChunkStore {
        self.settle(stripe);
        &mut self.home.store
    }

    /// The store, with every write applied and back.
    fn settled_all(&mut self) -> &mut ChunkStore {
        while let Some(&stripe) = self.home.out.first() {
            self.settle(stripe);
        }
        &mut self.home.store
    }

    /// Takes `stripe`'s chunks back: waits while the applier applies its
    /// write, or applies it here if it is still queued.
    fn settle(&mut self, stripe: u64) {
        if !self.home.out.contains(&stripe) {
            return;
        }
        let shared = &self.applier.as_ref().expect("a write is out").shared;
        let mut q = shared.lock();
        loop {
            self.home.take_back(&mut q);
            if !self.home.out.contains(&stripe) {
                return;
            }
            if let Some(at) = q.queued.iter().position(|j| j.io.stripe == stripe) {
                let job = q.queued.remove(at).expect("found above");
                drop(q);
                self.home.apply_here(job);
                return;
            }
            debug_assert_eq!(q.applying, Some(stripe), "an out write is somewhere");
            q.waiting = true;
            q = shared
                .finished
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
            q.waiting = false;
        }
    }
}

/// The data plane of a [`DataMode::Full`](crate::DataMode::Full) array: the
/// write-behind store and the bytes of the user reads in flight. The array
/// holds one only in Full mode, and each method below takes the whole
/// decision its caller needs about bytes, settling the stripes it touches.
pub(crate) struct DataPlane {
    store: WriteBehind,
    /// The bytes of the user reads in flight, by user I/O id. A read
    /// submitted to a failed array has none.
    reads: HashMap<u64, ReadBuf, BuildHasherDefault<IdHasher>>,
}

impl DataPlane {
    pub(crate) fn new(layout: Layout) -> Self {
        DataPlane {
            store: WriteBehind::new(layout),
            reads: HashMap::default(),
        }
    }

    /// The store, with every queued write applied.
    pub(crate) fn store(&mut self) -> &mut ChunkStore {
        self.store.settled_all()
    }

    /// A user I/O was submitted: a read gets a record its stripe ops fill
    /// in (see [`ReadBuf`]); nothing is allocated.
    pub(crate) fn start_io(&mut self, id: u64, kind: IoKind, len: u64) {
        if kind == IoKind::Read {
            self.reads.insert(id, ReadBuf::Empty(len as usize));
        }
    }

    /// The bytes user I/O `id` returns as it completes: a read's, if it has
    /// a record. O(1): a healthy one-segment read already is a view of its
    /// chunk, and `Bytes::from(Vec)` takes a gathered buffer without
    /// copying it.
    pub(crate) fn finish_io(&mut self, id: u64) -> Option<Bytes> {
        if self.reads.is_empty() {
            return None;
        }
        self.reads.remove(&id).map(ReadBuf::into_bytes)
    }

    /// A host crash: the reads in flight die with their issuer. The writes
    /// handed to the store stay, as they reached the members.
    pub(crate) fn host_crash(&mut self) {
        self.reads.clear();
    }

    /// Applies the effect of stripe op `op`, which finished on an array
    /// that has not failed. `payload` is its user's write payload, if any;
    /// `lost` are the members whose chunk of the stripe is lost.
    ///
    /// A write queues to the write-behind applier, its payload an O(1)
    /// sub-view of the user's `Bytes`; a write without one (a resync, whose
    /// stripe I/O has no segments, or a write submitted without bytes)
    /// stores zeros. A read adds its bytes to the user read's [`ReadBuf`],
    /// which shares the stored chunk when the read is one healthy segment
    /// and otherwise gathers (possibly reconstructed) bytes into a buffer
    /// the first op allocates.
    pub(crate) fn apply(&mut self, op: &OpState, payload: Option<&Bytes>, lost: BTreeSet<usize>) {
        let stripe = op.io.stripe;
        // Sampled post-write parity re-verification: every 8th stripe write
        // on a stripe with no effectively-lost member is checked against
        // its stored parity once it has applied. (A stripe with a lost
        // member is skipped: its dropped chunks read back as zeros by
        // design, and only parity encodes the data.) No-op unless
        // invariants are on.
        let verify = draid_sim::invariants_enabled()
            && lost.is_empty()
            && matches!(op.purpose, Some(Purpose::Write { .. }))
            && stripe.is_multiple_of(8);
        match op.purpose {
            Some(Purpose::Write { mode, .. }) => {
                let len = op.io.bytes() as usize;
                let bytes = match payload {
                    Some(data) => {
                        let lo = op.io.buf_offset as usize;
                        data.slice(lo..lo + len)
                    }
                    None => Bytes::from(vec![0; len]),
                };
                self.store.write(&op.io, bytes, mode, lost);
            }
            Some(Purpose::Read { .. }) => {
                if let Some(read) = self.reads.get_mut(&op.user) {
                    read.fill(self.store.settled(stripe), &op.io, &lost);
                }
            }
            _ => {}
        }
        if verify {
            draid_sim::draid_invariant!(
                self.store.settled(stripe).verify_stripe(stripe),
                "post-write parity mismatch on stripe {}",
                stripe
            );
        }
    }

    /// Discards every chunk on `member`, whose drive is gone, once every
    /// queued write has applied (see [`ChunkStore::drop_member`]).
    pub(crate) fn drop_member(&mut self, member: usize) {
        self.store.settled_all().drop_member(member);
    }

    /// Restores `member`'s chunk of `stripe` from the survivors (see
    /// [`ChunkStore::rebuild_chunk`]).
    pub(crate) fn rebuild_chunk(&mut self, stripe: u64, member: usize, failed: &BTreeSet<usize>) {
        self.store
            .settled(stripe)
            .rebuild_chunk(stripe, member, failed);
    }

    /// Whether `stripe`'s surviving chunks agree with its parity, as far as
    /// the members outside `lost` can check (see
    /// [`ChunkStore::verify_survivors`]): a lost chunk is absent by design,
    /// not corrupt.
    pub(crate) fn verify_survivors(&mut self, stripe: u64, lost: &BTreeSet<usize>) -> bool {
        self.store.settled(stripe).verify_survivors(stripe, lost)
    }

    /// Flips one byte of `member`'s stored chunk of `stripe` (see
    /// [`ChunkStore::corrupt_chunk`]).
    pub(crate) fn corrupt_chunk(&mut self, stripe: u64, member: usize, byte: usize) {
        self.store
            .settled(stripe)
            .corrupt_chunk(stripe, member, byte);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrayConfig, RaidLevel, SystemKind};

    fn small_layout(level: RaidLevel) -> Layout {
        let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
        cfg.level = level;
        cfg.width = 5;
        cfg.chunk_size = 4096;
        Layout::new(&cfg)
    }

    fn payload(len: u64, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let layout = small_layout(RaidLevel::Raid5);
        let mut store = ChunkStore::new(layout);
        let none = BTreeSet::new();
        let io = &layout.map(1000, 6000)[0];
        let data = payload(io.bytes(), 7);
        store.apply_write(io, &data, layout.write_mode(io), &none);
        assert_eq!(store.read(io, &none), data);
        assert!(store.verify_stripe(io.stripe));
    }

    #[test]
    fn rmw_delta_matches_full_encode() {
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let layout = small_layout(level);
            let mut a = ChunkStore::new(layout);
            let mut b = ChunkStore::new(layout);
            let none = BTreeSet::new();
            // Pre-populate with a full-stripe write.
            let full = &layout.map(0, layout.stripe_data_bytes())[0];
            let base = payload(full.bytes(), 3);
            a.apply_write(full, &base, WriteMode::FullStripe, &none);
            b.apply_write(full, &base, WriteMode::FullStripe, &none);
            // Partial update via delta on one store, full re-encode on the other.
            let io = &layout.map(4096, 4096)[0];
            let upd = payload(io.bytes(), 9);
            a.apply_write(io, &upd, WriteMode::ReadModifyWrite, &none);
            b.apply_write(io, &upd, WriteMode::ReconstructWrite, &none);
            assert!(a.verify_stripe(0), "{level:?} delta path consistent");
            assert_eq!(a.read(io, &none), b.read(io, &none));
            let pm = layout.p_member(0);
            assert_eq!(
                a.stored_chunk(0, pm),
                b.stored_chunk(0, pm),
                "{level:?} parity equal"
            );
        }
    }

    #[test]
    fn degraded_read_returns_written_bytes() {
        let layout = small_layout(RaidLevel::Raid5);
        let mut store = ChunkStore::new(layout);
        let none = BTreeSet::new();
        let io = &layout.map(0, 3 * 4096)[0];
        let data = payload(io.bytes(), 5);
        store.apply_write(io, &data, layout.write_mode(io), &none);
        // Fail the member holding data chunk 1.
        let victim = layout.data_member(io.stripe, 1);
        store.drop_member(victim);
        let failed: BTreeSet<usize> = [victim].into();
        assert_eq!(store.read(io, &failed), data, "reconstructed read");
    }

    #[test]
    fn degraded_write_preserved_through_parity() {
        let layout = small_layout(RaidLevel::Raid5);
        let mut store = ChunkStore::new(layout);
        let victim = layout.data_member(0, 0);
        store.drop_member(victim);
        let failed: BTreeSet<usize> = [victim].into();
        // Write to the failed chunk itself: bytes land only in parity.
        let io = &layout.map(0, 4096)[0];
        assert_eq!(io.segments[0].member, victim);
        let data = payload(4096, 11);
        store.apply_write(io, &data, WriteMode::ReconstructWrite, &failed);
        assert!(
            !store.chunks.contains_key(&(0, victim)),
            "dead drive not written"
        );
        assert_eq!(store.read(io, &failed), data, "parity encodes new data");
    }

    #[test]
    fn raid6_survives_two_failures() {
        let layout = small_layout(RaidLevel::Raid6);
        let mut store = ChunkStore::new(layout);
        let none = BTreeSet::new();
        let io = &layout.map(0, layout.stripe_data_bytes())[0];
        let data = payload(io.bytes(), 13);
        store.apply_write(io, &data, WriteMode::FullStripe, &none);
        let v1 = layout.data_member(0, 0);
        let v2 = layout.data_member(0, 2);
        store.drop_member(v1);
        store.drop_member(v2);
        let failed: BTreeSet<usize> = [v1, v2].into();
        assert_eq!(store.read(io, &failed), data);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn raid5_two_failures_panics() {
        let layout = small_layout(RaidLevel::Raid5);
        let store = ChunkStore::new(layout);
        let failed: BTreeSet<usize> = [0usize, 1].into();
        let io = &layout.map(0, 4096)[0];
        // Force a reconstructing read with two lost members.
        let mut segments = io.segments.to_vec();
        segments[0].member = 0;
        let io = StripeIo::new(io.stripe, io.buf_offset, segments);
        store.read(&io, &failed);
    }

    /// Applies the same write to both stores.
    fn write_both(wb: &mut WriteBehind, sync: &mut ChunkStore, io: &StripeIo, data: Vec<u8>) {
        let (mode, healthy) = (wb.home.store.layout.write_mode(io), BTreeSet::new());
        sync.apply_write(io, &data, mode, &healthy);
        wb.write(io, Bytes::from(data), mode, healthy);
    }

    #[test]
    fn write_behind_matches_the_synchronous_store() {
        // Sixteen stripes let more than eight writes be out at once, and
        // 64 KiB chunks let the writes out exceed 1 MiB of payload, so
        // every path runs: queued, applied on the caller when the queue is
        // full, settled by waiting and by taking a queued write back.
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
            cfg.level = level;
            cfg.width = 5;
            cfg.chunk_size = 64 * 1024;
            let layout = Layout::new(&cfg);
            let mut wb = WriteBehind::new(layout);
            let mut sync = ChunkStore::new(layout);
            let mut rng = draid_sim::DetRng::new(level.parity_count() as u64);
            let mut failed = BTreeSet::new();
            let (stripes, granule) = (16, 4096);
            let stripe_bytes = layout.stripe_data_bytes();
            // Back-to-back writes to every stripe, payloads drawn first:
            // full-stripe ones pass the payload bound, one-granule ones the
            // job bound.
            for len in [stripe_bytes, granule] {
                let mut data = vec![0u8; (stripes * len) as usize];
                rng.fill_bytes(&mut data);
                for (s, data) in (0..stripes).zip(data.chunks(len as usize)) {
                    let io = &layout.map(s * stripe_bytes, len)[0];
                    write_both(&mut wb, &mut sync, io, data.to_vec());
                }
            }
            for step in 0..1000 {
                let len = granule * (1 + rng.below(stripe_bytes / granule));
                let at = granule * rng.below((stripe_bytes - len) / granule + 1);
                let io = &layout.map(rng.below(stripes) * stripe_bytes + at, len)[0];
                match rng.below(10) {
                    0..=5 => {
                        let mut data = vec![0u8; len as usize];
                        rng.fill_bytes(&mut data);
                        let mode = layout.write_mode(io);
                        sync.apply_write(io, &data, mode, &failed);
                        wb.write(io, Bytes::from(data), mode, failed.clone());
                    }
                    6..=8 => assert_eq!(
                        wb.settled(io.stripe).read(io, &failed),
                        sync.read(io, &failed),
                        "{level:?} step {step}"
                    ),
                    _ => match failed.pop_first() {
                        None => {
                            let member = rng.below(5) as usize;
                            failed.insert(member);
                            wb.settled_all().drop_member(member);
                            sync.drop_member(member);
                        }
                        Some(member) => {
                            let lost = [member].into();
                            for s in 0..stripes {
                                wb.settled(s).rebuild_chunk(s, member, &lost);
                                sync.rebuild_chunk(s, member, &lost);
                            }
                        }
                    },
                }
            }
            assert!(wb.settled_all().chunks == sync.chunks, "{level:?}");
        }
    }

    #[test]
    fn unwritten_chunks_read_zero() {
        let layout = small_layout(RaidLevel::Raid5);
        let store = ChunkStore::new(layout);
        let io = &layout.map(12345, 100)[0];
        assert_eq!(store.read(io, &BTreeSet::new()), vec![0u8; 100]);
        assert!(
            store.verify_stripe(io.stripe),
            "all-zero stripe is consistent"
        );
    }
}
