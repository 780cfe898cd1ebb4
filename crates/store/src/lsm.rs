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

use draid_core::UserIo;
use draid_sim::{DetRng, SimTime};

use crate::driver::{BlockApp, IoPlan, PlanStep};
use crate::YcsbOp;

/// Tunables of the LSM model; defaults mirror a stock RocksDB instance
/// running YCSB with 1 KiB records.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LsmConfig {
    /// Logical record size (YCSB default: 1 KiB).
    pub record_size: u64,
    /// SST/data block size read per point lookup miss.
    pub block_size: u64,
    /// Memtable capacity; a flush is issued when it fills.
    pub memtable_bytes: u64,
    /// Probability a read is served from the memtable/row cache.
    pub memory_hit: f64,
    /// Probability a block needed by a read is in the block cache.
    pub block_cache_hit: f64,
    /// Flushes per L0→L1 compaction round.
    pub compaction_every: u64,
    /// Read + write amplification of one compaction round, as a multiple of
    /// the flushed bytes.
    pub compaction_multiplier: u64,
    /// Software service time per op (filesystem + KV CPU path; BlobFS locks
    /// and super-block handling make this substantial).
    pub service: SimTime,
    /// Device region reserved for the WAL.
    pub wal_region: u64,
    /// RNG seed for hit/miss draws.
    pub seed: u64,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            record_size: 1024,
            block_size: 8 * 1024,
            memtable_bytes: 64 << 20,
            memory_hit: 0.35,
            block_cache_hit: 0.60,
            compaction_every: 4,
            compaction_multiplier: 3,
            service: SimTime::from_micros(6),
            wal_region: 1 << 30,
            seed: 0x15B,
        }
    }
}

/// The LSM store state machine.
#[derive(Clone, Debug)]
pub struct LsmStore {
    cfg: LsmConfig,
    rng: DetRng,
    wal_pos: u64,
    memtable_fill: u64,
    flushes_since_compaction: u64,
    sst_cursor: u64,
    data_region: u64,
    flush_count_total: u64,
    compactions: u64,
}

impl LsmStore {
    /// Creates a store with the given tunables over a device data region of
    /// `data_region` bytes (SSTs cycle through it).
    ///
    /// # Panics
    ///
    /// Panics if the data region cannot hold one memtable flush.
    pub fn new(cfg: LsmConfig, data_region: u64) -> Self {
        assert!(
            data_region >= cfg.memtable_bytes,
            "data region smaller than one flush"
        );
        LsmStore {
            rng: DetRng::new(cfg.seed),
            wal_pos: 0,
            memtable_fill: 0,
            flushes_since_compaction: 0,
            sst_cursor: 0,
            data_region,
            flush_count_total: 0,
            compactions: 0,
            cfg,
        }
    }

    /// Default instance over a 32 GiB data region.
    pub fn paper_default() -> Self {
        Self::new(LsmConfig::default(), 32 << 30)
    }

    /// Completed compaction rounds.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    fn wal_append(&mut self) -> UserIo {
        // Group commit: a 4 KiB WAL page per write op.
        let io = UserIo::write(self.cfg.wal_region.min(self.wal_pos), 4096);
        self.wal_pos = (self.wal_pos + 4096) % self.cfg.wal_region;
        io
    }

    fn data_offset(&mut self, bytes: u64) -> u64 {
        let off = self.sst_cursor % (self.data_region - bytes);
        let aligned = off - off % 4096;
        self.sst_cursor = self.sst_cursor.wrapping_add(bytes + 4096);
        aligned
    }

    fn read_plan(&mut self) -> Vec<PlanStep> {
        let mut steps = vec![PlanStep::Think(self.cfg.service)];
        if self.rng.chance(self.cfg.memory_hit) {
            return steps; // memtable / row cache hit
        }
        // Bloom filters route the lookup to ~1 SST; the block may be cached.
        if !self.rng.chance(self.cfg.block_cache_hit) {
            let off = self.wal_region_end() + self.rng.below(self.data_region / 4096) * 4096;
            steps.push(PlanStep::Io(UserIo::read(off, self.cfg.block_size)));
        }
        steps
    }

    fn wal_region_end(&self) -> u64 {
        self.cfg.wal_region
    }

    fn write_plan(&mut self) -> IoPlan {
        let mut plan = IoPlan {
            steps: vec![
                PlanStep::Think(self.cfg.service),
                PlanStep::Io(self.wal_append()),
            ],
            background: Vec::new(),
        };
        self.memtable_fill += self.cfg.record_size;
        if self.memtable_fill >= self.cfg.memtable_bytes {
            self.memtable_fill = 0;
            self.flushes_since_compaction += 1;
            self.flush_count_total += 1;
            // Flush: the memtable streams out as 1 MiB SST writes.
            let mut remaining = self.cfg.memtable_bytes;
            while remaining > 0 {
                let chunk = remaining.min(1 << 20);
                let off = self.wal_region_end() + self.data_offset(chunk);
                plan.background.push(UserIo::write(off, chunk));
                remaining -= chunk;
            }
            if self.flushes_since_compaction >= self.cfg.compaction_every {
                self.flushes_since_compaction = 0;
                self.compactions += 1;
                // Compaction: read + rewrite `multiplier ×` the flushed bytes.
                let total = self.cfg.memtable_bytes * self.cfg.compaction_multiplier;
                let mut remaining = total;
                while remaining > 0 {
                    let chunk = remaining.min(1 << 20);
                    let roff = self.wal_region_end() + self.data_offset(chunk);
                    let woff = self.wal_region_end() + self.data_offset(chunk);
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

    fn tiny() -> LsmStore {
        let cfg = LsmConfig {
            memtable_bytes: 64 * 1024,
            compaction_every: 2,
            ..LsmConfig::default()
        };
        LsmStore::new(cfg, 8 << 20)
    }

    #[test]
    fn reads_mostly_avoid_io() {
        let mut lsm = tiny();
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
        let mut lsm = tiny();
        let mut background = 0usize;
        for _ in 0..256 {
            let plan = lsm.plan(&YcsbOp::Update(7));
            assert!(plan
                .steps
                .iter()
                .any(|s| matches!(s, PlanStep::Io(io) if io.len == 4096)));
            background += plan.background.len();
        }
        // 256 KiB written with a 64 KiB memtable ⇒ 4 flushes, 2 compactions.
        assert_eq!(lsm.flush_count_total, 4);
        assert_eq!(lsm.compactions(), 2);
        assert!(background > 0);
    }

    #[test]
    fn rmw_combines_read_and_write() {
        let mut lsm = tiny();
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
        let mut lsm = tiny();
        for _ in 0..2000 {
            for step_or_bg in lsm
                .plan(&YcsbOp::Update(3))
                .background
                .iter()
                .chain(std::iter::empty())
            {
                assert!(step_or_bg.offset >= lsm.wal_region_end());
            }
        }
    }

    #[test]
    #[should_panic(expected = "smaller than one flush")]
    fn region_must_hold_a_flush() {
        LsmStore::new(LsmConfig::default(), 1024);
    }
}
