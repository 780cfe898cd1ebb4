//! Fixed reference kernels that measure host speed.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over seconds to minutes, far wider than any useful regression
//! bound. A reference kernel is interleaved with the measured work in short
//! slices, and its rate relative to its nominal rate scales the end-to-end
//! host-time metrics to a nominal host speed.
//!
//! A reference tracks host speed only for work like its own, so each
//! workload uses the kind that resembles where its host time goes:
//!
//! * [`Kind::Branchy`] for the `Timing` workloads, whose time goes to the
//!   engine and executor: branchy, allocation-heavy code spread over many
//!   functions. Each op picks one of eight such operations at random. A
//!   tight event loop tracked the simulator poorly: the simulator swung
//!   about 1.5 times as much in log terms.
//! * [`Kind::DataPlane`] for `full_degraded_mix`, whose time goes to the
//!   chunk store: each op copies six random 512 KiB chunks out of a 32 MiB
//!   buffer and XORs them into a parity chunk. The branchy kernel swings
//!   more than this workload does and over-corrects it.
//!
//! The kernels belong to the benchmark and call nothing in the simulator,
//! so no change to the simulator can move them.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Which kind of host work a reference stands in for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Branchy, allocation-heavy code (engine and executor).
    Branchy,
    /// Streaming chunk copies and XOR (the Full-mode data plane).
    DataPlane,
}

impl Kind {
    /// Ops per slice (about 3 ms on a nominal host).
    fn slice_ops(self) -> u64 {
        match self {
            Kind::Branchy => 30_000,
            Kind::DataPlane => 6,
        }
    }

    /// Ops per host-second on a nominal host: the kernel's typical rate on
    /// the 2-core machine the benchmark was written on.
    fn nominal_ops_per_s(self) -> f64 {
        match self {
            Kind::Branchy => 1.0e7,
            Kind::DataPlane => 2.0e3,
        }
    }
}

const CHUNK: usize = 512 * 1024;
const DATA_BYTES: usize = 32 * 1024 * 1024;

/// A kernel's state; it persists across slices so later slices run warm.
pub struct Reference {
    kind: Kind,
    tree: BTreeMap<u64, u64>,
    map: HashMap<u64, Vec<u8>>,
    text: String,
    small: Vec<u64>,
    heap: BinaryHeap<u64>,
    data: Vec<u8>,
    rng: u64,
    ops: u64,
    secs: f64,
}

type Op = fn(&mut Reference, u64) -> u64;

const BRANCHY_OPS: [Op; 8] = [
    |r, x| {
        r.tree.insert(x % 4096, x);
        r.tree.remove(&((x >> 7) % 4096)).unwrap_or(0)
    },
    |r, x| {
        r.map.insert(x % 2048, vec![x as u8; 1 + (x % 48) as usize]);
        r.map
            .remove(&((x >> 9) % 2048))
            .map_or(0, |v| v.len() as u64)
    },
    |r, x| {
        r.text.clear();
        write!(r.text, "{} {:x} {}", x, x >> 3, (x % 1000) as f64 / 7.0)
            .expect("writing to a String cannot fail");
        r.text.len() as u64
    },
    |r, x| {
        r.small.clear();
        r.small
            .extend((0..12).map(|i| x.rotate_left(i) ^ u64::from(i)));
        r.small.sort_unstable();
        r.small[5]
    },
    |r, x| {
        r.heap.push(x % 100_000);
        if r.heap.len() > 512 {
            r.heap.pop().unwrap_or(0)
        } else {
            0
        }
    },
    |r, x| {
        let b: Box<[u64]> = vec![x; 1 + (x % 24) as usize].into_boxed_slice();
        b.iter()
            .fold(r.tree.len() as u64, |a, &v| a.wrapping_add(v))
    },
    |r, x| {
        r.tree
            .range(x % 4096..)
            .take(3)
            .fold(0, |a, (k, v)| a.wrapping_add(k ^ v))
    },
    |r, x| {
        r.map
            .get(&(x % 2048))
            .map_or(x, |v| v.iter().map(|&b| u64::from(b)).sum())
    },
];

impl Reference {
    /// A kernel of `kind`; the data-plane kind allocates its buffer here.
    pub fn new(kind: Kind) -> Reference {
        let data = match kind {
            Kind::Branchy => Vec::new(),
            Kind::DataPlane => (0..DATA_BYTES).map(|i| (i * 131 % 251) as u8).collect(),
        };
        Reference {
            kind,
            tree: BTreeMap::new(),
            map: HashMap::new(),
            text: String::new(),
            small: Vec::new(),
            heap: BinaryHeap::new(),
            data,
            rng: 0x2545_F491_4F6C_DD1D,
            ops: 0,
            secs: 0.0,
        }
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Copies six random chunks out of the buffer, XORs them into a parity
    /// chunk and writes it back.
    fn stripe(&mut self) -> u64 {
        let chunks = (DATA_BYTES / CHUNK) as u64;
        let mut parity = vec![0u8; CHUNK];
        for _ in 0..6 {
            let at = (self.next() % chunks) as usize * CHUNK;
            let chunk = self.data[at..at + CHUNK].to_vec();
            for (p, c) in parity.iter_mut().zip(&chunk) {
                *p ^= *c;
            }
        }
        let at = (self.next() % chunks) as usize * CHUNK;
        self.data[at..at + CHUNK].copy_from_slice(&parity);
        u64::from(parity[0])
    }

    /// Runs one slice of the kernel and adds it to the sample.
    pub fn slice(&mut self) {
        let ops = self.kind.slice_ops();
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..ops {
            acc = acc.wrapping_add(match self.kind {
                Kind::Branchy => {
                    let x = self.next();
                    BRANCHY_OPS[(x % BRANCHY_OPS.len() as u64) as usize](self, x)
                }
                Kind::DataPlane => self.stripe(),
            });
        }
        black_box(acc);
        self.secs += t.elapsed().as_secs_f64();
        self.ops += ops;
    }

    /// Host speed over the slices since the last call, relative to nominal
    /// (above 1 means faster); resets the sample.
    pub fn take_speed(&mut self) -> f64 {
        let speed = self.ops as f64 / self.secs / self.kind.nominal_ops_per_s();
        self.ops = 0;
        self.secs = 0.0;
        speed
    }
}
