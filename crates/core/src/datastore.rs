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
//!   straight into the destination, reading `k` survivors over that range;
//! * a read-modify-write applies parity deltas (`P ^= D ⊕ D'`, `Q ^=
//!   g^i·(D ⊕ D')`) over each segment's range to every surviving parity,
//!   decoding a lost touched chunk's old bytes over that range only;
//! * a reconstruct-write or full-stripe write re-encodes parity over the
//!   segments' ranges, decoding lost untouched data over those ranges only;
//! * a resync (no segments) re-encodes the whole chunk.
//!
//! Each step is one pass of a fused kernel, so every cold stream is read
//! once: a decode or an encode is one [`kernels::encode`] call for all its
//! output rows, a read-modify-write is one [`kernels::update`] call per
//! segment that reads the old and new data, P and Q together and writes
//! each once, and a healthy read segment is one [`kernels::copy`]. With
//! `draid-ec`'s `simd` feature each of those calls runs half of a stream of
//! 64 KiB or more on a second core; the store itself stays single-threaded
//! and its bytes are the same either way.
//!
//! Every decode happens before the first byte changes, and healthy chunks
//! are borrowed, never cloned.
//!
//! [`DataMode::Full`]: crate::DataMode::Full

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use draid_ec::{kernels, ReedSolomon};

use crate::layout::{Layout, Segment, StripeIo, WriteMode};

/// Bytes verified per decode call when checking a stripe's parity.
const VERIFY_WINDOW: usize = 64 * 1024;

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
    chunks: BTreeMap<(u64, usize), Vec<u8>>,
    /// One chunk of zeros: what an unwritten chunk reads as, borrowed.
    zeros: Vec<u8>,
    /// Decoded bytes of a write, reused across writes.
    scratch: Vec<u8>,
}

/// A segment's byte range within its chunk.
fn span(seg: &Segment) -> Range<usize> {
    seg.offset as usize..(seg.offset + seg.len) as usize
}

impl ChunkStore {
    /// Creates an empty store for the given geometry.
    pub fn new(layout: Layout) -> Self {
        ChunkStore {
            layout,
            codec: ReedSolomon::new(layout.data_chunks(), layout.level().parity_count()),
            chunks: BTreeMap::new(),
            zeros: vec![0; layout.chunk_size() as usize],
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
        self.chunks.get(&(stripe, member)).map(Vec::as_slice)
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

    /// `row`'s chunk, taken out of the map for in-place update (zeros if
    /// unwritten); [`ChunkStore::put_chunk`] returns it.
    fn take_chunk(&mut self, stripe: u64, row: usize) -> Vec<u8> {
        let member = self.member(stripe, row);
        self.chunks
            .remove(&(stripe, member))
            .unwrap_or_else(|| self.zeros.clone())
    }

    fn put_chunk(&mut self, stripe: u64, member: usize, data: Vec<u8>) {
        debug_assert_eq!(data.len() as u64, self.layout.chunk_size());
        self.chunks.insert((stripe, member), data);
    }

    /// Writes `bytes` at `range` of `member`'s chunk, materializing it.
    fn store_bytes(&mut self, stripe: u64, member: usize, range: Range<usize>, bytes: &[u8]) {
        let zeros = &self.zeros;
        self.chunks
            .entry((stripe, member))
            .or_insert_with(|| zeros.clone())[range]
            .copy_from_slice(bytes);
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
    /// buffer (cleared first, then sized to `io.bytes()`).
    pub fn read_into(&self, out: &mut Vec<u8>, io: &StripeIo, failed: &BTreeSet<usize>) {
        out.clear();
        out.resize(io.bytes() as usize, 0);
        self.read_to(out, io, failed);
    }

    /// Gathers the bytes a read of `io` must produce into a slice of exactly
    /// `io.bytes()`: the form that fills a user's read buffer in place.
    /// Healthy segments are copied once from the stored chunk; a lost
    /// segment is decoded over its own range only.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len()` differs from the stripe I/O size, or a lost
    /// segment cannot be decoded.
    pub(crate) fn read_to(&self, dst: &mut [u8], io: &StripeIo, failed: &BTreeSet<usize>) {
        assert_eq!(dst.len() as u64, io.bytes(), "read buffer size mismatch");
        let lost = self.lost_rows(io.stripe, failed);
        let mut at = 0;
        for seg in io.segments.iter() {
            let dst = &mut dst[at..at + seg.len as usize];
            at += seg.len as usize;
            if lost[seg.data_index] {
                self.decode(io.stripe, &lost, seg.data_index, span(seg), dst);
            } else {
                kernels::copy(dst, self.bytes(io.stripe, seg.data_index, span(seg)));
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
        assert_eq!(payload.len() as u64, io.bytes(), "payload size mismatch");
        let lost = self.lost_rows(io.stripe, failed);
        assert!(
            lost.iter().filter(|&&l| l).count() <= self.codec.parity_chunks(),
            "failures exceed the RAID level's tolerance"
        );
        if mode == WriteMode::ReadModifyWrite && !io.segments.is_empty() {
            self.write_delta(io, payload, &lost);
        } else {
            self.write_encode(io, payload, &lost);
        }
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

        let mut parity: Vec<(usize, Vec<u8>)> = (d..self.rows())
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
                .map(|(_, chunk)| &mut chunk[range.clone()])
                .collect();
            let data = if lost[seg.data_index] {
                decoded += range.len();
                &mut old_lost[decoded - range.len()..decoded]
            } else {
                let zeros = &self.zeros;
                &mut self
                    .chunks
                    .entry((stripe, seg.member))
                    .or_insert_with(|| zeros.clone())[range]
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

        let mut parity: Vec<(usize, Vec<u8>)> = (d..self.rows())
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
                .map(|(row, chunk)| (*row, &mut chunk[iv.clone()]))
                .collect();
            self.codec.encode_into(&sources, &mut out);
        }
        let mut cursor = 0;
        for seg in io.segments.iter() {
            let new = &payload[cursor..cursor + seg.len as usize];
            cursor += seg.len as usize;
            if !lost[seg.data_index] {
                self.store_bytes(stripe, seg.member, span(seg), new);
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
        let mut chunk = self.zeros.clone();
        self.decode(stripe, &lost, row, 0..chunk.len(), &mut chunk);
        self.put_chunk(stripe, member, chunk);
    }

    /// Fault injection for tests: flips one byte of a stored chunk (e.g. a
    /// parity chunk left torn by a crashed write).
    ///
    /// # Panics
    ///
    /// Panics if the chunk was never written.
    pub fn corrupt_chunk(&mut self, stripe: u64, member: usize, byte: usize) {
        let chunk = self
            .chunks
            .get_mut(&(stripe, member))
            .expect("cannot corrupt an unwritten chunk");
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
