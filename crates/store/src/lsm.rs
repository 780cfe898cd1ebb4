//! A compact LSM key-value store — the RocksDB + BlobFS stand-in for the
//! §9.6 application evaluation (Fig. 19).
//!
//! The paper runs a *single* RocksDB instance over BlobFS and observes that
//! complex data structures, locks and filesystem overhead keep it below ~5%
//! of the array's bandwidth, which compresses dRAID's advantage to ~1.3× on
//! write-heavy workloads. This model reproduces exactly those I/O-level
//! mechanics: WAL group commits, memtable flushes, leveled compaction, and
//! mostly-cached reads — all issued through the same block device, with the
//! single-instance concurrency cap applied by the driver.
//!
//! The paper measures one configuration, so the model's parameters are
//! constants beside their one reader: a stock RocksDB instance running
//! YCSB with 1 KiB records, over a 1 GiB WAL and a 32 GiB data region.

use draid_core::UserIo;
use draid_sim::{DetRng, SimTime};

use crate::driver::{BlockApp, IoPlan, PlanStep};
use crate::YcsbOp;

/// Logical record size (YCSB default: 1 KiB).
const RECORD_SIZE: u64 = 1024;
/// SST data block read per point-lookup miss: 8 KiB.
const BLOCK_SIZE: u64 = 8 * 1024;
/// Memtable capacity, 64 MiB (RocksDB's write buffer); a flush is issued
/// when it fills.
const MEMTABLE_BYTES: u64 = 64 << 20;
/// Probability a read is served from the memtable/row cache: 0.35.
const MEMORY_HIT: f64 = 0.35;
/// Probability a block needed by a read is in the block cache: 0.60.
const BLOCK_CACHE_HIT: f64 = 0.60;
/// Flushes per L0→L1 compaction round: 4 (RocksDB's L0 trigger).
const COMPACTION_EVERY: u64 = 4;
/// Read + write amplification of one compaction round, as a multiple of
/// the flushed bytes: 3.
const COMPACTION_MULTIPLIER: u64 = 3;
/// Software service time per op, 6 µs (filesystem + KV CPU path; §9.6:
/// BlobFS locks and super-block handling make it substantial).
const SERVICE: SimTime = SimTime::from_micros(6);
/// Device region reserved for the WAL, at the start of the device: 1 GiB.
const WAL_REGION: u64 = 1 << 30;
/// Device region the SSTs cycle through, after the WAL: 32 GiB.
const DATA_REGION: u64 = 32 << 30;
/// RNG seed for hit/miss draws.
const SEED: u64 = 0x15B;

const _: () = assert!(
    DATA_REGION >= MEMTABLE_BYTES,
    "data region smaller than one flush"
);

/// The LSM store state machine.
#[derive(Clone, Debug)]
pub struct LsmStore {
    rng: DetRng,
    wal_pos: u64,
    memtable_fill: u64,
    flushes_since_compaction: u64,
    sst_cursor: u64,
}

impl LsmStore {
    /// The §9.6 instance: an empty store over a 1 GiB WAL and a 32 GiB
    /// data region.
    pub fn paper_default() -> Self {
        LsmStore {
            rng: DetRng::new(SEED),
            wal_pos: 0,
            memtable_fill: 0,
            flushes_since_compaction: 0,
            sst_cursor: 0,
        }
    }

    fn wal_append(&mut self) -> UserIo {
        // Group commit: a 4 KiB WAL page per write op.
        let io = UserIo::write(self.wal_pos, 4096);
        self.wal_pos = (self.wal_pos + 4096) % WAL_REGION;
        io
    }

    /// The device offset of the next `bytes`-long SST write or compaction
    /// read, inside the data region.
    fn data_offset(&mut self, bytes: u64) -> u64 {
        let off = self.sst_cursor % (DATA_REGION - bytes);
        let aligned = off - off % 4096;
        self.sst_cursor = self.sst_cursor.wrapping_add(bytes + 4096);
        WAL_REGION + aligned
    }

    fn read_plan(&mut self) -> Vec<PlanStep> {
        let mut steps = vec![PlanStep::Think(SERVICE)];
        if self.rng.chance(MEMORY_HIT) {
            return steps; // memtable / row cache hit
        }
        // Bloom filters route the lookup to ~1 SST; the block may be cached.
        if !self.rng.chance(BLOCK_CACHE_HIT) {
            let off = WAL_REGION + self.rng.below(DATA_REGION / 4096) * 4096;
            steps.push(PlanStep::Io(UserIo::read(off, BLOCK_SIZE)));
        }
        steps
    }

    fn write_plan(&mut self) -> IoPlan {
        let mut plan = IoPlan {
            steps: vec![PlanStep::Think(SERVICE), PlanStep::Io(self.wal_append())],
            background: Vec::new(),
        };
        self.memtable_fill += RECORD_SIZE;
        if self.memtable_fill >= MEMTABLE_BYTES {
            self.memtable_fill = 0;
            self.flushes_since_compaction += 1;
            // Flush: the memtable streams out as 1 MiB SST writes.
            let mut remaining = MEMTABLE_BYTES;
            while remaining > 0 {
                let chunk = remaining.min(1 << 20);
                let off = self.data_offset(chunk);
                plan.background.push(UserIo::write(off, chunk));
                remaining -= chunk;
            }
            if self.flushes_since_compaction >= COMPACTION_EVERY {
                self.flushes_since_compaction = 0;
                // Compaction: read + rewrite `multiplier ×` the flushed bytes.
                let mut remaining = MEMTABLE_BYTES * COMPACTION_MULTIPLIER;
                while remaining > 0 {
                    let chunk = remaining.min(1 << 20);
                    let roff = self.data_offset(chunk);
                    let woff = self.data_offset(chunk);
                    plan.background.push(UserIo::read(roff, chunk));
                    plan.background.push(UserIo::write(woff, chunk));
                    remaining -= chunk;
                }
            }
        }
        plan
    }
}

impl BlockApp for LsmStore {
    fn plan(&mut self, op: &YcsbOp) -> IoPlan {
        match op {
            YcsbOp::Read(_) => IoPlan {
                steps: self.read_plan(),
                background: Vec::new(),
            },
            YcsbOp::Update(_) | YcsbOp::Insert(_) => self.write_plan(),
            YcsbOp::ReadModifyWrite(_) => {
                let mut plan = self.write_plan();
                let mut steps = self.read_plan();
                steps.append(&mut plan.steps);
                IoPlan {
                    steps,
                    background: plan.background,
                }
            }
        }
    }

    fn name(&self) -> &str {
        "lsm-kv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use draid_core::IoKind;

    /// Updates that fill the memtable `COMPACTION_EVERY` times: four
    /// flushes, the last of which triggers one compaction.
    const UPDATES_PER_COMPACTION: u64 = COMPACTION_EVERY * MEMTABLE_BYTES / RECORD_SIZE;

    #[test]
    fn reads_mostly_avoid_io() {
        let mut lsm = LsmStore::paper_default();
        let mut io_reads = 0;
        for _ in 0..1000 {
            let plan = lsm.plan(&YcsbOp::Read(1));
            io_reads += plan
                .steps
                .iter()
                .filter(|s| matches!(s, PlanStep::Io(_)))
                .count();
        }
        // memory_hit 0.35, then cache_hit 0.6 ⇒ ~26% of reads touch blocks.
        assert!((150..400).contains(&io_reads), "io reads {io_reads}");
    }

    #[test]
    fn writes_append_wal_and_flush_periodically() {
        let mut lsm = LsmStore::paper_default();
        let (mut read_bytes, mut write_bytes) = (0, 0);
        for _ in 0..UPDATES_PER_COMPACTION {
            let plan = lsm.plan(&YcsbOp::Update(7));
            assert!(plan
                .steps
                .iter()
                .any(|s| matches!(s, PlanStep::Io(io) if io.len == 4096)));
            for io in &plan.background {
                match io.kind {
                    IoKind::Read => read_bytes += io.len,
                    IoKind::Write => write_bytes += io.len,
                }
            }
        }
        // Four memtable flushes, then one compaction that reads and
        // rewrites three memtables' worth.
        assert_eq!(read_bytes, COMPACTION_MULTIPLIER * MEMTABLE_BYTES);
        assert_eq!(
            write_bytes,
            (COMPACTION_EVERY + COMPACTION_MULTIPLIER) * MEMTABLE_BYTES
        );
    }

    #[test]
    fn rmw_combines_read_and_write() {
        let mut lsm = LsmStore::paper_default();
        let plan = lsm.plan(&YcsbOp::ReadModifyWrite(9));
        let ios = plan
            .steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Io(_)))
            .count();
        assert!(ios >= 1, "at least the WAL write");
    }

    #[test]
    fn offsets_stay_in_device_regions() {
        let mut lsm = LsmStore::paper_default();
        let mut background = 0;
        for _ in 0..UPDATES_PER_COMPACTION {
            let plan = lsm.plan(&YcsbOp::Update(3));
            for step in &plan.steps {
                if let PlanStep::Io(io) = step {
                    assert!(io.offset + io.len <= WAL_REGION, "{io:?}");
                }
            }
            for io in &plan.background {
                assert!(io.offset >= WAL_REGION, "{io:?}");
                assert!(io.offset + io.len <= WAL_REGION + DATA_REGION, "{io:?}");
            }
            background += plan.background.len();
        }
        assert!(background > 0, "no flush or compaction was checked");
    }
}
