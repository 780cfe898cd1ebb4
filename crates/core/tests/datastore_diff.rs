//! Differential test of the range-restricted data plane: `ChunkStore`
//! against an encode-from-scratch oracle.
//!
//! For RAID-5 and RAID-6 at widths 5 and 8, and every erasure pattern up to
//! the level's tolerance, a store takes partial, full-chunk, unaligned,
//! multi-chunk and full-stripe writes in read-modify-write and
//! reconstruct-write mode, plus resyncs with an empty segment list. After
//! every op each stored chunk must equal the oracle's data or its parity
//! computed byte by byte from the whole logical stripe, lost members must
//! hold nothing, and every read must return the oracle's bytes.

use std::collections::BTreeSet;

use draid_core::{ArrayConfig, ChunkStore, Layout, RaidLevel, StripeIo, SystemKind, WriteMode};
use draid_ec::gf256;

/// Odd-sized chunks exercise the kernels' non-multiple-of-8 tails.
const CHUNK: u64 = 200;
/// Stripes 0 and 1 are prefilled; stripe 2 starts unwritten.
const STRIPES: u64 = 3;

fn layout(level: RaidLevel, width: usize) -> Layout {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = level;
    cfg.width = width;
    cfg.chunk_size = CHUNK;
    Layout::new(&cfg)
}

/// Deterministic byte stream (splitmix64).
struct Bytes(u64);

impl Bytes {
    fn fill(&mut self, len: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }
}

/// The logical contents of the array, one flat buffer of user bytes.
struct Oracle {
    layout: Layout,
    bytes: Vec<u8>,
}

impl Oracle {
    fn data(&self, stripe: u64, k: usize) -> &[u8] {
        let lo = (stripe * self.layout.stripe_data_bytes() + k as u64 * CHUNK) as usize;
        &self.bytes[lo..lo + CHUNK as usize]
    }

    /// Parity row `j` (0 = P, 1 = Q) of `stripe`, one byte at a time.
    fn parity(&self, stripe: u64, j: usize) -> Vec<u8> {
        (0..CHUNK as usize)
            .map(|x| {
                (0..self.layout.data_chunks()).fold(0u8, |acc, k| {
                    acc ^ gf256::mul(gf256::exp(k * j), self.data(stripe, k)[x])
                })
            })
            .collect()
    }

    /// What `member`'s chunk of `stripe` must hold.
    fn chunk(&self, stripe: u64, member: usize) -> Vec<u8> {
        match self.layout.data_index_of(stripe, member) {
            Some(k) => self.data(stripe, k).to_vec(),
            None if member == self.layout.p_member(stripe) => self.parity(stripe, 0),
            None => self.parity(stripe, 1),
        }
    }
}

/// Every stored chunk equals the oracle, lost members hold nothing, and
/// every read (whole chunks and unaligned spans) returns the oracle's bytes.
fn check(store: &ChunkStore, oracle: &Oracle, failed: &BTreeSet<usize>, what: &str) {
    let l = oracle.layout;
    for s in 0..STRIPES {
        for m in 0..l.width() {
            let stored = store.stored_chunk(s, m);
            if failed.contains(&m) {
                assert!(
                    stored.is_none(),
                    "{what}: lost member {m} stores stripe {s}"
                );
                continue;
            }
            let want = oracle.chunk(s, m);
            match stored {
                Some(bytes) => assert_eq!(bytes, &want[..], "{what}: stripe {s} member {m}"),
                None => assert!(
                    want.iter().all(|&b| b == 0),
                    "{what}: stripe {s} member {m} unwritten but should hold data"
                ),
            }
        }
    }
    let total = STRIPES * l.stripe_data_bytes();
    let spans = (0..total / CHUNK).map(|c| (c * CHUNK, CHUNK)).chain([
        (3, 17),
        (CHUNK - 9, CHUNK + 30),
        (5, total - 11),
    ]);
    for (off, len) in spans {
        for io in l.map(off, len) {
            let lo = (off + io.buf_offset) as usize;
            assert_eq!(
                store.read(&io, failed),
                &oracle.bytes[lo..lo + io.bytes() as usize],
                "{what}: read {off}+{len} stripe {}",
                io.stripe
            );
        }
    }
}

/// Writes `off..off+len` through the store in `mode` and into the oracle.
fn write(
    store: &mut ChunkStore,
    oracle: &mut Oracle,
    failed: &BTreeSet<usize>,
    rng: &mut Bytes,
    (off, len): (u64, u64),
    mode: WriteMode,
) {
    let payload = rng.fill(len);
    for io in oracle.layout.map(off, len) {
        let lo = io.buf_offset as usize;
        store.apply_write(&io, &payload[lo..lo + io.bytes() as usize], mode, failed);
    }
    oracle.bytes[off as usize..(off + len) as usize].copy_from_slice(&payload);
}

fn patterns(width: usize, tolerance: usize) -> Vec<BTreeSet<usize>> {
    (0u32..1 << width)
        .filter(|mask| mask.count_ones() as usize <= tolerance)
        .map(|mask| (0..width).filter(|m| mask & (1 << m) != 0).collect())
        .collect()
}

#[test]
fn range_restricted_writes_and_reads_match_the_oracle() {
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        for width in [5, 8] {
            let l = layout(level, width);
            let stripe = l.stripe_data_bytes();
            for failed in patterns(width, level.parity_count()) {
                let mut rng = Bytes(width as u64 * 1000 + failed.len() as u64);
                let mut store = ChunkStore::new(l);
                let mut oracle = Oracle {
                    layout: l,
                    bytes: vec![0; (STRIPES * stripe) as usize],
                };
                let healthy = BTreeSet::new();
                for s in 0..STRIPES - 1 {
                    let span = (s * stripe, stripe);
                    write(
                        &mut store,
                        &mut oracle,
                        &healthy,
                        &mut rng,
                        span,
                        WriteMode::FullStripe,
                    );
                }
                for &m in &failed {
                    store.drop_member(m);
                }
                let tag = format!("{level:?} w{width} lost {failed:?}");
                check(&store, &oracle, &failed, &tag);

                for s in 0..STRIPES {
                    let base = s * stripe;
                    let spans = [
                        (base + 13, 50),                // partial, inside one chunk
                        (base + CHUNK, CHUNK),          // one full chunk
                        (base + CHUNK - 7, CHUNK + 20), // unaligned, three chunks
                        (base, 2 * CHUNK),              // aligned, two full chunks
                        (base + CHUNK - 30, 70),        // two partials, a gap between
                        (base + 5, stripe - 10),        // every chunk, ragged ends
                        (base + stripe - 40, 90),       // crosses into the next stripe
                    ];
                    for span in spans
                        .into_iter()
                        .filter(|&(o, n)| o + n <= STRIPES * stripe)
                    {
                        for mode in [WriteMode::ReadModifyWrite, WriteMode::ReconstructWrite] {
                            write(&mut store, &mut oracle, &failed, &mut rng, span, mode);
                            check(
                                &store,
                                &oracle,
                                &failed,
                                &format!("{tag} {mode:?} {span:?}"),
                            );
                        }
                    }
                    write(
                        &mut store,
                        &mut oracle,
                        &failed,
                        &mut rng,
                        (base, stripe),
                        WriteMode::FullStripe,
                    );
                    check(&store, &oracle, &failed, &format!("{tag} full stripe {s}"));
                }

                // Resync: an empty segment list re-encodes every surviving
                // parity chunk whole, in either mode. With all data present
                // it repairs a torn parity chunk; with data lost, the lost
                // rows decode through parity, so there is nothing to tear.
                for s in 0..STRIPES {
                    let data_lost = failed.iter().any(|&m| l.data_index_of(s, m).is_some());
                    for mode in [WriteMode::ReadModifyWrite, WriteMode::ReconstructWrite] {
                        let parity = [Some(l.p_member(s)), l.q_member(s)];
                        let torn = parity.into_iter().flatten().find(|m| !failed.contains(m));
                        if let Some(pm) = torn.filter(|_| !data_lost) {
                            store.corrupt_chunk(s, pm, 3 * s as usize + 1);
                        }
                        let resync = StripeIo::new(s, 0, Vec::new());
                        store.apply_write(&resync, &[], mode, &failed);
                        check(
                            &store,
                            &oracle,
                            &failed,
                            &format!("{tag} resync {s} {mode:?}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn rebuilt_chunks_match_the_oracle() {
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        let l = layout(level, 8);
        let stripe = l.stripe_data_bytes();
        for failed in patterns(8, level.parity_count())
            .into_iter()
            .filter(|f| !f.is_empty())
        {
            let mut rng = Bytes(77);
            let mut store = ChunkStore::new(l);
            let mut oracle = Oracle {
                layout: l,
                bytes: vec![0; (STRIPES * stripe) as usize],
            };
            let healthy = BTreeSet::new();
            write(
                &mut store,
                &mut oracle,
                &healthy,
                &mut rng,
                (0, STRIPES * stripe),
                WriteMode::FullStripe,
            );
            for &m in &failed {
                store.drop_member(m);
            }
            // Rebuild one member after another, as consecutive spares would.
            let mut remaining = failed.clone();
            for &m in &failed {
                for s in 0..STRIPES {
                    store.rebuild_chunk(s, m, &remaining);
                }
                remaining.remove(&m);
                for s in 0..STRIPES {
                    assert_eq!(
                        store.stored_chunk(s, m),
                        Some(&oracle.chunk(s, m)[..]),
                        "{level:?} lost {failed:?}: rebuilt member {m} stripe {s}"
                    );
                }
            }
            assert!(store.verify_all().is_empty());
        }
    }
}

#[test]
fn degraded_verify_checks_only_survivor_redundancy() {
    let l = layout(RaidLevel::Raid6, 5);
    let stripe = l.stripe_data_bytes();
    let mut rng = Bytes(5);
    let mut store = ChunkStore::new(l);
    let mut oracle = Oracle {
        layout: l,
        bytes: vec![0; (STRIPES * stripe) as usize],
    };
    let healthy = BTreeSet::new();
    write(
        &mut store,
        &mut oracle,
        &healthy,
        &mut rng,
        (0, STRIPES * stripe),
        WriteMode::FullStripe,
    );
    store.drop_member(1);
    let one: BTreeSet<usize> = [1].into();
    assert!((0..STRIPES).all(|s| store.verify_survivors(s, &one)));
    let victim = l.p_member(1);
    store.corrupt_chunk(1, victim, 9);
    assert!(
        !store.verify_survivors(1, &one),
        "one redundant row still checks"
    );
    // With a second loss nothing redundant is left to check.
    let two: BTreeSet<usize> = [1, victim].into();
    assert!(store.verify_survivors(1, &two));
}
