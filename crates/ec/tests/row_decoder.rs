//! `ReedSolomon::decode_rows` against full reconstruction: for every
//! erasure pattern up to the code's tolerance and random byte sub-ranges,
//! each decoded row equals the matching slice of a whole-shard
//! `reconstruct`. (That a repeated pattern reuses its cached decoder is a
//! unit test in `rs.rs`.)

use draid_ec::ReedSolomon;

/// Minimal deterministic generator (splitmix64).
struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        ((self.next() as u128 * bound as u128) >> 64) as usize
    }
}

const LEN: usize = 301;

#[test]
fn decoded_rows_match_full_reconstruct_on_every_pattern() {
    for (k, m) in [(4, 1), (6, 2), (4, 3)] {
        let rs = ReedSolomon::new(k, m);
        let n = k + m;
        let mut rng = TestRng((k * 31 + m) as u64);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..LEN).map(|_| rng.next() as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(rs.encode(&refs)).collect();

        for mask in 1u32..(1 << n) {
            if mask.count_ones() as usize > m {
                continue;
            }
            let lost: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let mut shards: Vec<Option<Vec<u8>>> = full
                .iter()
                .enumerate()
                .map(|(i, s)| (!lost.contains(&i)).then(|| s.clone()))
                .collect();
            rs.reconstruct(&mut shards).expect("within tolerance");
            let restored: Vec<Vec<u8>> = shards.into_iter().map(|s| s.expect("restored")).collect();
            assert_eq!(restored, full, "k={k} m={m} mask={mask:b}");

            for _ in 0..4 {
                let lo = rng.below(LEN);
                let hi = lo + 1 + rng.below(LEN - lo);
                let view: Vec<Option<&[u8]>> = full
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (!lost.contains(&i)).then(|| &s[lo..hi]))
                    .collect();
                // Ask for a random non-empty subset of the missing rows.
                let pick = 1 + rng.below((1 << lost.len()) - 1);
                let wanted: Vec<usize> = lost
                    .iter()
                    .enumerate()
                    .filter(|(b, _)| pick & (1 << b) != 0)
                    .map(|(_, &r)| r)
                    .collect();
                let mut bufs: Vec<Vec<u8>> = wanted.iter().map(|_| vec![0xA5; hi - lo]).collect();
                let mut out: Vec<(usize, &mut [u8])> = wanted
                    .iter()
                    .copied()
                    .zip(bufs.iter_mut().map(|b| &mut b[..]))
                    .collect();
                rs.decode_rows(&view, &mut out).expect("within tolerance");
                for (&r, buf) in wanted.iter().zip(&bufs) {
                    assert_eq!(
                        &buf[..],
                        &full[r][lo..hi],
                        "k={k} m={m} mask={mask:b} row {r} range {lo}..{hi}"
                    );
                }
            }
        }
    }
}

#[test]
fn too_many_erasures_reported_by_row_decoder() {
    let rs = ReedSolomon::new(3, 1);
    let a = [1u8; 4];
    let shards = [None, None, Some(&a[..]), Some(&a[..])];
    let mut buf = [0u8; 4];
    assert!(rs.decode_rows(&shards, &mut [(0, &mut buf[..])]).is_err());
}
