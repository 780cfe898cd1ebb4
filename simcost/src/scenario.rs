//! The three benchmark workloads: how each array, workload stream and
//! payload is built, and the Full-mode prefill that precedes its closed loop.

use bytes::Bytes;
use draid_block::Cluster;
use draid_core::{ArrayConfig, ArraySim, DataMode, RaidLevel, SystemKind, UserIo};
use draid_sim::{DetRng, Engine, Histogram, SimTime};
use draid_workload::{FioJob, FioStream};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// Outstanding user I/Os of every workload's closed loop.
pub const QUEUE_DEPTH: usize = 32;

/// Stripe width of every workload's array.
pub const WIDTH: usize = 8;

/// The member `full_degraded_mix` fails after its prefill.
pub const FAILED_MEMBER: usize = 3;

/// Distinct 128 KiB payload blocks `full_degraded_mix` writes.
const PAYLOAD_BLOCKS: usize = 64;

/// One named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// dRAID RAID-5 128 KiB random writes: the partial-stripe RMW path.
    RmwWrite128k,
    /// dRAID RAID-5 4 KiB random reads: lock-free reads, small DAGs.
    SmallRead4k,
    /// dRAID RAID-6 with a failed member, 50/50 128 KiB reads and writes
    /// carrying real bytes (`DataMode::Full`).
    FullDegradedMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::RmwWrite128k,
        Workload::SmallRead4k,
        Workload::FullDegradedMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RmwWrite128k => "rmw_write_128k",
            Workload::SmallRead4k => "small_read_4k",
            Workload::FullDegradedMix => "full_degraded_mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the real-bytes data plane.
    pub fn full(self) -> bool {
        self == Workload::FullDegradedMix
    }

    /// The host-speed reference resembling where this workload's host time
    /// goes (see [`crate::reference`]).
    pub fn reference(self) -> crate::reference::Kind {
        if self.full() {
            crate::reference::Kind::DataPlane
        } else {
            crate::reference::Kind::Branchy
        }
    }

    fn level(self) -> RaidLevel {
        match self {
            Workload::FullDegradedMix => RaidLevel::Raid6,
            _ => RaidLevel::Raid5,
        }
    }

    fn job(self) -> FioJob {
        match self {
            Workload::RmwWrite128k => FioJob::random_write(128 * KIB),
            Workload::SmallRead4k => FioJob::random_read(4 * KIB),
            Workload::FullDegradedMix => FioJob::mixed(0.5, 128 * KIB).working_set(256 * MIB),
        }
        .queue_depth(QUEUE_DEPTH)
    }

    /// Simulated time the closed loop runs before measuring; the
    /// `sim_digest` is taken at its end, so it covers a fixed amount of
    /// simulated work whatever the host speed.
    pub fn warmup(self) -> SimTime {
        match self {
            Workload::RmwWrite128k => SimTime::from_millis(40),
            Workload::SmallRead4k => SimTime::from_millis(5),
            Workload::FullDegradedMix => SimTime::from_millis(3),
        }
    }

    /// Simulated time per `run_until` call: small enough that the host
    /// clock is checked every few milliseconds.
    pub fn slice(self) -> SimTime {
        match self {
            Workload::RmwWrite128k => SimTime::from_micros(500),
            Workload::SmallRead4k => SimTime::from_micros(50),
            Workload::FullDegradedMix => SimTime::from_micros(100),
        }
    }
}

/// Seeded real-bytes payloads: a pool of distinct 128 KiB blocks. Every
/// Full-mode write carries one pool block, so the expected contents of a
/// 128 KiB block of the volume are a pool index.
pub struct Payload {
    /// The pool.
    pub blocks: Vec<Bytes>,
    seed: u64,
}

impl Payload {
    /// Bytes per pool block (the I/O size of `full_degraded_mix`).
    pub const BLOCK: u64 = 128 * KIB;

    fn new(seed: u64) -> Payload {
        let mut rng = DetRng::new(seed ^ 0x5EED_DA7A);
        let blocks = (0..PAYLOAD_BLOCKS)
            .map(|_| {
                let mut b = vec![0u8; Self::BLOCK as usize];
                rng.fill_bytes(&mut b);
                Bytes::from(b)
            })
            .collect();
        Payload { blocks, seed }
    }

    /// The pool index volume block `block` holds after the prefill.
    pub fn initial(&self, block: u64) -> u16 {
        let mut z = block ^ self.seed ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % self.blocks.len() as u64) as u16
    }

    /// The prefill contents of `stripe`: its pool blocks back to back.
    pub fn stripe_image(&self, stripe: u64, stripe_bytes: u64) -> Vec<u8> {
        let per = stripe_bytes / Self::BLOCK;
        let mut out = Vec::with_capacity(stripe_bytes as usize);
        for b in stripe * per..(stripe + 1) * per {
            out.extend_from_slice(&self.blocks[self.initial(b) as usize]);
        }
        out
    }
}

/// A freshly built workload, before its first submit.
pub struct Scenario {
    /// Which workload this is.
    pub workload: Workload,
    /// The simulated array.
    pub array: ArraySim,
    /// Its event engine.
    pub engine: Engine<ArraySim>,
    /// The seeded I/O stream.
    pub stream: FioStream,
    /// Real-bytes payloads (Full mode only).
    pub payload: Option<Payload>,
}

/// Builds cluster, array, workload stream and payload for `workload`; the
/// seed feeds both `FioJob::seed` and `ArrayConfig::seed`. This is what
/// `setup_s` times.
pub fn setup(workload: Workload, seed: u64) -> Scenario {
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = workload.level();
    cfg.width = WIDTH;
    cfg.chunk_size = 512 * KIB;
    cfg.data_mode = if workload.full() {
        DataMode::Full
    } else {
        DataMode::Timing
    };
    cfg.seed = seed;
    let mut array = ArraySim::new(Cluster::homogeneous(WIDTH), cfg).expect("valid array config");
    // Bounded-memory latency histograms keep peak RSS independent of how
    // many I/Os a run completes.
    array.stats.read_latency = Histogram::bucketed();
    array.stats.write_latency = Histogram::bucketed();
    Scenario {
        workload,
        array,
        engine: Engine::new(),
        stream: FioStream::new(workload.job().seed(seed)),
        payload: workload.full().then(|| Payload::new(seed)),
    }
}

/// Number of stripes the Full-mode working set spans.
pub fn working_stripes(sc: &Scenario) -> u64 {
    sc.stream
        .job()
        .working_set
        .div_ceil(sc.array.layout().stripe_data_bytes())
}

/// Full mode only: writes every stripe of the working set with its seeded
/// image through the array (full-stripe writes), then fails
/// [`FAILED_MEMBER`]. The closed loop then starts on a populated,
/// degraded array, as after a drive loss in service.
///
/// # Panics
///
/// Panics if a prefill write fails.
pub fn prefill(sc: &mut Scenario) {
    let payload = sc.payload.as_ref().expect("prefill needs a payload");
    let stripe_bytes = sc.array.layout().stripe_data_bytes();
    let stripes = working_stripes(sc);
    // Eight stripes in flight at a time bound the payload memory.
    for first in (0..stripes).step_by(8) {
        for s in first..(first + 8).min(stripes) {
            let image = Bytes::from(payload.stripe_image(s, stripe_bytes));
            sc.array
                .submit(&mut sc.engine, UserIo::write_bytes(s * stripe_bytes, image));
        }
        sc.engine.run(&mut sc.array);
        for done in sc.array.drain_completions() {
            assert!(done.is_ok(), "prefill write failed: {:?}", done.error);
        }
    }
    sc.array.fail_member(FAILED_MEMBER);
}
