//! Stripe geometry: mapping logical byte ranges to (stripe, member, offset)
//! extents with rotating parity, and the per-stripe write-mode decision.

use std::ops::Range;

use crate::config::{ArrayConfig, RaidLevel};

/// Geometry of a parity-RAID array: width, chunk size, parity rotation.
///
/// Parity rotates left-symmetric style: the P chunk of stripe `s` lives on
/// member `width-1-(s % width)` (RAID-6's Q on the next member), and data
/// chunks fill the remaining members in rotated order — so parity load is
/// evenly distributed, the property §6 relies on ("parity chunks are evenly
/// distributed among all member drives").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    level: RaidLevel,
    width: usize,
    chunk_size: u64,
}

/// One member-chunk extent of a striped I/O.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Index of the data chunk within the stripe (`0..data_chunks`).
    pub data_index: usize,
    /// Member drive holding the chunk.
    pub member: usize,
    /// Byte offset within the chunk.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Segment {
    /// Whether this segment covers its entire chunk.
    pub fn covers_chunk(&self, chunk_size: u64) -> bool {
        self.offset == 0 && self.len == chunk_size
    }
}

/// The portion of a user I/O that falls on one stripe.
///
/// The segment list is a plain owned `Vec`: the array maps each stripe op
/// into a segment buffer recycled from a finished op, and a retry moves the
/// op's `StripeIo` into the retry op, so the op path neither allocates nor
/// clones segment lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StripeIo {
    /// Stripe index.
    pub stripe: u64,
    /// Offset of this stripe portion within the user I/O's buffer.
    pub buf_offset: u64,
    /// Per-chunk extents, ordered by data index.
    pub segments: Vec<Segment>,
}

impl StripeIo {
    /// Builds a stripe I/O from its extents.
    pub fn new(stripe: u64, buf_offset: u64, segments: Vec<Segment>) -> Self {
        StripeIo {
            stripe,
            buf_offset,
            segments,
        }
    }

    /// Total bytes of this stripe portion.
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Length of the byte range within the chunk that covers every
    /// segment: the region a parity read-modify-write must cover.
    pub(crate) fn extent(&self) -> u64 {
        let lo = self.segments.iter().map(|s| s.offset).min().unwrap_or(0);
        let hi = self.segments.iter().map(|s| s.offset + s.len).max();
        hi.unwrap_or(0) - lo
    }
}

/// Write mode for a partial or full stripe write (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// Every data chunk is fully overwritten: parity computed from new data
    /// alone; no remote reads.
    FullStripe,
    /// Few chunks touched: read old data + old parity, XOR deltas
    /// (Fig. 2; up to 2 reads + 2 writes per request).
    ReadModifyWrite,
    /// Most chunks touched: read the untouched chunks, recompute parity from
    /// the full new stripe.
    ReconstructWrite,
}

impl Layout {
    /// Creates a layout from an array configuration.
    pub fn new(cfg: &ArrayConfig) -> Self {
        Layout {
            level: cfg.level,
            width: cfg.width,
            chunk_size: cfg.chunk_size,
        }
    }

    /// RAID level.
    pub fn level(&self) -> RaidLevel {
        self.level
    }

    /// Stripe width (data + parity members).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Chunk size in bytes.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Data chunks per stripe.
    pub fn data_chunks(&self) -> usize {
        self.width - self.level.parity_count()
    }

    /// User bytes per stripe.
    pub fn stripe_data_bytes(&self) -> u64 {
        self.data_chunks() as u64 * self.chunk_size
    }

    /// Member holding stripe `s`'s P chunk.
    pub fn p_member(&self, stripe: u64) -> usize {
        self.width - 1 - (stripe % self.width as u64) as usize
    }

    /// Member holding stripe `s`'s Q chunk (RAID-6 only).
    pub fn q_member(&self, stripe: u64) -> Option<usize> {
        match self.level {
            RaidLevel::Raid5 => None,
            RaidLevel::Raid6 => Some((self.p_member(stripe) + 1) % self.width),
        }
    }

    /// Member holding the `k`-th data chunk of stripe `s`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= data_chunks()`.
    pub fn data_member(&self, stripe: u64, k: usize) -> usize {
        assert!(k < self.data_chunks(), "data index out of range");
        let after = match self.level {
            RaidLevel::Raid5 => self.p_member(stripe),
            RaidLevel::Raid6 => self.q_member(stripe).expect("raid6 has q"),
        };
        (after + 1 + k) % self.width
    }

    /// Inverse of [`Layout::data_member`]: which data index (if any) a member
    /// holds in stripe `s`. Returns `None` for parity members.
    pub fn data_index_of(&self, stripe: u64, member: usize) -> Option<usize> {
        assert!(member < self.width, "member out of range");
        if member == self.p_member(stripe) || Some(member) == self.q_member(stripe) {
            return None;
        }
        let after = match self.level {
            RaidLevel::Raid5 => self.p_member(stripe),
            RaidLevel::Raid6 => self.q_member(stripe).expect("raid6 has q"),
        };
        let k = (member + self.width - after - 1) % self.width;
        debug_assert!(k < self.data_chunks());
        Some(k)
    }

    /// Splits a logical byte range into per-stripe I/Os.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn map(&self, offset: u64, len: u64) -> Vec<StripeIo> {
        self.stripes(offset, len)
            .map(|stripe| {
                let mut io = StripeIo::default();
                self.map_stripe_into(offset, len, stripe, &mut io);
                io
            })
            .collect()
    }

    /// The stripes a logical byte range touches, in order.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub(crate) fn stripes(&self, offset: u64, len: u64) -> Range<u64> {
        assert!(len > 0, "zero-length I/O");
        let stripe_bytes = self.stripe_data_bytes();
        offset / stripe_bytes..(offset + len - 1) / stripe_bytes + 1
    }

    /// Writes into `io` the portion of the byte range `offset..offset + len`
    /// that falls on `stripe` (one of [`Layout::stripes`]), replacing its
    /// segments but keeping their capacity — the array maps every stripe op
    /// into a recycled buffer this way without allocating.
    pub(crate) fn map_stripe_into(&self, offset: u64, len: u64, stripe: u64, io: &mut StripeIo) {
        let stripe_bytes = self.stripe_data_bytes();
        let stripe_start = stripe * stripe_bytes;
        let lo = offset.max(stripe_start);
        let hi = (offset + len).min(stripe_start + stripe_bytes);
        assert!(lo < hi, "stripe {stripe} outside the mapped range");
        io.stripe = stripe;
        io.buf_offset = lo - offset;
        io.segments.clear();
        let (mut pos, end) = (lo - stripe_start, hi - stripe_start);
        while pos < end {
            let k = (pos / self.chunk_size) as usize;
            let off = pos % self.chunk_size;
            let take = (end - pos).min(self.chunk_size - off);
            io.segments.push(Segment {
                data_index: k,
                member: self.data_member(stripe, k),
                offset: off,
                len: take,
            });
            pos += take;
        }
    }

    /// Chooses the write mode for a stripe write touching `io.segments`,
    /// following the MD heuristic the paper's boundaries reflect (§9.3: for
    /// the 8-drive/512 KiB default, <1536 KiB ⇒ RMW, 1536–3584 KiB ⇒
    /// reconstruct write, 3584 KiB ⇒ full stripe):
    ///
    /// * full stripe if every data chunk is fully covered;
    /// * otherwise compare remote reads: RMW needs `touched + parity_count`,
    ///   reconstruct needs `data_chunks - fully_touched`; pick the cheaper
    ///   (ties go to reconstruct write).
    pub fn write_mode(&self, io: &StripeIo) -> WriteMode {
        let d = self.data_chunks();
        let p = self.level.parity_count();
        let full_cover = io
            .segments
            .iter()
            .filter(|s| s.covers_chunk(self.chunk_size))
            .count();
        if full_cover == d {
            return WriteMode::FullStripe;
        }
        let touched = io.segments.len();
        let rmw_reads = touched + p;
        let rcw_reads = d - full_cover;
        if rcw_reads <= rmw_reads {
            WriteMode::ReconstructWrite
        } else {
            WriteMode::ReadModifyWrite
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;

    fn layout(level: RaidLevel, width: usize, chunk_kib: u64) -> Layout {
        let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
        cfg.level = level;
        cfg.width = width;
        cfg.chunk_size = chunk_kib * 1024;
        Layout::new(&cfg)
    }

    #[test]
    fn parity_rotates_evenly() {
        let l = layout(RaidLevel::Raid5, 8, 512);
        let mut counts = [0u32; 8];
        for s in 0..800 {
            counts[l.p_member(s)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "even parity distribution");
    }

    #[test]
    fn raid6_q_follows_p() {
        let l = layout(RaidLevel::Raid6, 8, 512);
        for s in 0..16 {
            let p = l.p_member(s);
            let q = l.q_member(s).unwrap();
            assert_eq!(q, (p + 1) % 8);
            assert_ne!(p, q);
        }
    }

    #[test]
    fn data_member_partition() {
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let l = layout(level, 8, 512);
            for s in 0..16 {
                let mut seen = [false; 8];
                seen[l.p_member(s)] = true;
                if let Some(q) = l.q_member(s) {
                    seen[q] = true;
                }
                for k in 0..l.data_chunks() {
                    let m = l.data_member(s, k);
                    assert!(!seen[m], "member reused in stripe {s}");
                    seen[m] = true;
                    assert_eq!(l.data_index_of(s, m), Some(k));
                }
                assert!(seen.iter().all(|&b| b));
                assert_eq!(l.data_index_of(s, l.p_member(s)), None);
            }
        }
    }

    #[test]
    fn map_single_chunk_io() {
        let l = layout(RaidLevel::Raid5, 8, 512);
        let ios = l.map(0, 128 * 1024);
        assert_eq!(ios.len(), 1);
        assert_eq!(ios[0].segments.len(), 1);
        let seg = ios[0].segments[0];
        assert_eq!(seg.data_index, 0);
        assert_eq!(seg.offset, 0);
        assert_eq!(seg.len, 128 * 1024);
    }

    #[test]
    fn map_spans_chunks_and_stripes() {
        let l = layout(RaidLevel::Raid5, 8, 512);
        let stripe_bytes = l.stripe_data_bytes(); // 3584 KiB
                                                  // An I/O straddling the stripe boundary.
        let ios = l.map(stripe_bytes - 1024, 4096);
        assert_eq!(ios.len(), 2);
        assert_eq!(ios[0].stripe, 0);
        assert_eq!(ios[1].stripe, 1);
        assert_eq!(ios[0].bytes() + ios[1].bytes(), 4096);
        assert_eq!(ios[0].buf_offset, 0);
        assert_eq!(ios[1].buf_offset, 1024);
        // Stripe 1's portion starts at chunk 0, offset 0.
        assert_eq!(ios[1].segments[0].data_index, 0);
        assert_eq!(ios[1].segments[0].offset, 0);
    }

    #[test]
    fn write_mode_boundaries_match_paper() {
        // §9.3: 8 drives, 512 KiB chunks, RAID-5: <1536 KiB RMW; 1536–3584
        // reconstruct; 3584 full stripe (I/Os aligned to stripe start).
        let l = layout(RaidLevel::Raid5, 8, 512);
        let kib = |k: u64| k * 1024;
        let mode = |len: u64| {
            let ios = l.map(0, len);
            assert_eq!(ios.len(), 1);
            l.write_mode(&ios[0])
        };
        assert_eq!(mode(kib(4)), WriteMode::ReadModifyWrite);
        assert_eq!(mode(kib(128)), WriteMode::ReadModifyWrite);
        assert_eq!(mode(kib(1024)), WriteMode::ReadModifyWrite);
        assert_eq!(mode(kib(1535)), WriteMode::ReadModifyWrite);
        assert_eq!(mode(kib(1536)), WriteMode::ReconstructWrite);
        assert_eq!(mode(kib(2048)), WriteMode::ReconstructWrite);
        assert_eq!(mode(kib(3583)), WriteMode::ReconstructWrite);
        assert_eq!(mode(kib(3584)), WriteMode::FullStripe);
    }

    #[test]
    fn raid6_write_modes() {
        // 8 drives RAID-6: 6 data chunks, stripe 3072 KiB.
        let l = layout(RaidLevel::Raid6, 8, 512);
        let kib = |k: u64| k * 1024;
        let mode = |len: u64| l.write_mode(&l.map(0, len)[0]);
        assert_eq!(mode(kib(128)), WriteMode::ReadModifyWrite);
        assert_eq!(mode(kib(3072)), WriteMode::FullStripe);
        // touched=1 ⇒ rmw_reads=3 < rcw_reads=5 ⇒ RMW.
        assert_eq!(mode(kib(512)), WriteMode::ReadModifyWrite);
        // touched=2 ⇒ rmw_reads=4 = rcw_reads=4 ⇒ tie goes to reconstruct.
        assert_eq!(mode(kib(1024)), WriteMode::ReconstructWrite);
        // touched=3 full ⇒ rmw 5 vs rcw 3 ⇒ reconstruct.
        assert_eq!(mode(kib(1536)), WriteMode::ReconstructWrite);
    }

    #[test]
    fn unaligned_partial_write_is_rmw() {
        let l = layout(RaidLevel::Raid5, 8, 512);
        let ios = l.map(4096, 8192);
        assert_eq!(l.write_mode(&ios[0]), WriteMode::ReadModifyWrite);
        assert!(!ios[0].segments[0].covers_chunk(l.chunk_size()));
    }
}
