//! Layer replays: the traced run's recorded inputs fed again into one
//! layer's public functions, alone, so that layer's host cost can be timed
//! without the others.
//!
//! Every timed region covers only the calls it names. Input preparation
//! (stripe mapping, step flattening, payload slicing), fresh `Cluster` and
//! `ChunkStore` construction, prefill and deallocation all happen outside
//! it. Each replay reports the counts it reproduced so the caller can
//! compare them with the run's own counters.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use draid_block::{Cluster, ServerId};
use draid_core::{
    build_dag, ArrayConfig, ArraySim, BuildCtx, ChunkStore, Dag, IoKind, Layout, Purpose, StepKind,
    StripeIo, WriteMode,
};
use draid_ec::ReedSolomon;
use draid_net::NodeId;
use draid_sim::{DetRng, Engine, SimTime};

use crate::closed_loop::Rec;
use crate::scenario::{Payload, WIDTH};

/// User I/Os per replay batch: bounds the memory of built DAGs.
const BATCH: usize = 4096;

/// What `build_dag` needs, copied out of the array through its public
/// accessors.
pub struct Geometry {
    cfg: ArrayConfig,
    layout: Layout,
    host: NodeId,
    nodes: Vec<NodeId>,
    servers: Vec<ServerId>,
    faulty: BTreeSet<usize>,
}

impl Geometry {
    /// Reads the geometry of `array`.
    pub fn of(array: &ArraySim) -> Geometry {
        let width = array.config().width;
        let servers: Vec<ServerId> = (0..width).map(ServerId).collect();
        Geometry {
            cfg: *array.config(),
            layout: *array.layout(),
            host: array.cluster.host_node(),
            nodes: servers
                .iter()
                .map(|&s| array.cluster.server_node(s))
                .collect(),
            servers,
            faulty: array.faulty_members().into_iter().collect(),
        }
    }

    /// The purpose the executor gives a first-attempt stripe op, and the
    /// reducer of a degraded read.
    ///
    /// The array picks degraded-read reducers with its private RNG; the
    /// replay picks one deterministically from the same eligible set. With
    /// one lost member every eligible reducer is in the reconstruction set,
    /// so the DAG has the same steps whichever is chosen.
    fn purpose(&self, kind: IoKind, io: &StripeIo) -> (Purpose, Option<usize>) {
        let l = &self.layout;
        match kind {
            IoKind::Read => {
                let degraded = io.segments.iter().any(|s| self.faulty.contains(&s.member));
                let reducer = degraded.then(|| {
                    let eligible: Vec<usize> = (0..l.data_chunks())
                        .map(|k| l.data_member(io.stripe, k))
                        .chain([l.p_member(io.stripe)])
                        .filter(|m| !self.faulty.contains(m))
                        .collect();
                    eligible[io.stripe as usize % eligible.len()]
                });
                (Purpose::Read { degraded }, reducer)
            }
            IoKind::Write => {
                let mut members = (0..l.data_chunks())
                    .map(|k| l.data_member(io.stripe, k))
                    .chain([l.p_member(io.stripe)])
                    .chain(l.q_member(io.stripe));
                let degraded = members.any(|m| self.faulty.contains(&m));
                let mode = l.write_mode(io);
                (Purpose::Write { mode, degraded }, None)
            }
        }
    }
}

/// One stripe op of the run, ready for `build_dag`.
struct OpInput {
    purpose: Purpose,
    reducer: Option<usize>,
    io: StripeIo,
    at: SimTime,
}

fn op_inputs(geo: &Geometry, recs: &[Rec]) -> Vec<OpInput> {
    let mut out = Vec::with_capacity(recs.len());
    for r in recs {
        for io in geo.layout.map(r.offset, r.len) {
            let (purpose, reducer) = geo.purpose(r.kind, &io);
            out.push(OpInput {
                purpose,
                reducer,
                io,
                at: r.at,
            });
        }
    }
    out
}

/// Host time and counts of the DAG-build and rate-server replays.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpPath {
    /// Stripe ops built.
    pub ops: u64,
    /// DAG steps built.
    pub steps: u64,
    /// Host ns inside `build_dag`.
    pub build_ns: u64,
    /// Rate-server calls replayed.
    pub serve_calls: u64,
    /// Of which drive reads and writes.
    pub drive_calls: u64,
    /// Host ns inside the rate-server calls.
    pub serve_ns: u64,
}

/// Replays every recorded user I/O's stripe ops through
/// `draid_core::build_dag`, then replays the built DAGs' resource steps on
/// a fresh [`Cluster`] through `try_transfer` (the executor's fabric call),
/// `drive_read`, `drive_write` and the `cpu_mut()` calls, each step at its
/// op's simulated submit time.
pub fn op_path(geo: &Geometry, recs: &[Rec]) -> OpPath {
    let mut cluster = Cluster::homogeneous(WIDTH);
    let mut out = OpPath::default();
    let mut dags: Vec<Dag> = Vec::with_capacity(BATCH * 2);
    let mut calls: Vec<(SimTime, StepKind)> = Vec::new();
    for batch in recs.chunks(BATCH) {
        let inputs = op_inputs(geo, batch);
        dags.clear();
        let t = Instant::now();
        for op in &inputs {
            let ctx = BuildCtx {
                cfg: &geo.cfg,
                layout: &geo.layout,
                host: geo.host,
                nodes: &geo.nodes,
                servers: &geo.servers,
                faulty: &geo.faulty,
                reducer: op.reducer,
            };
            dags.push(build_dag(&ctx, op.purpose, &op.io));
        }
        out.build_ns += t.elapsed().as_nanos() as u64;
        out.ops += inputs.len() as u64;

        calls.clear();
        for (op, dag) in inputs.iter().zip(&dags) {
            out.steps += dag.len() as u64;
            calls.extend(
                dag.iter()
                    .map(|(_, s)| (op.at, s.kind))
                    .filter(|(_, k)| !matches!(k, StepKind::Delay { .. } | StepKind::Join)),
            );
        }
        out.drive_calls += calls
            .iter()
            .filter(|(_, k)| matches!(k, StepKind::DriveRead { .. } | StepKind::DriveWrite { .. }))
            .count() as u64;
        out.serve_calls += calls.len() as u64;
        let t = Instant::now();
        for &(now, kind) in &calls {
            let svc = match kind {
                StepKind::Transfer { from, to, bytes } => cluster
                    .try_transfer(now, from, to, bytes)
                    .expect("fresh cluster links are up"),
                StepKind::DriveRead { server, bytes } => cluster
                    .drive_read(now, server, bytes)
                    .expect("fresh cluster drives are healthy"),
                StepKind::DriveWrite { server, bytes } => cluster
                    .drive_write(now, server, bytes)
                    .expect("fresh cluster drives are healthy"),
                StepKind::Xor { node, bytes } => cluster.cpu_mut(node).xor(now, bytes),
                StepKind::GfMul { node, bytes } => cluster.cpu_mut(node).gf_mul(now, bytes),
                StepKind::PerIo { node } => cluster.cpu_mut(node).per_io(now),
                StepKind::CoreBusy { node, duration } => {
                    cluster.cpu_mut(node).busy_for(now, duration)
                }
                StepKind::Delay { .. } | StepKind::Join => unreachable!("filtered above"),
            };
            black_box(svc);
        }
        out.serve_ns += t.elapsed().as_nanos() as u64;
    }
    out
}

/// World of the engine replay: events left to schedule and a cheap RNG
/// for their delays.
struct Ticks {
    left: u64,
    rng: u64,
}

/// Mirrors the executor's step-completion closure, which captures a slot,
/// a generation and a step index.
fn tick(w: &mut Ticks, eng: &mut Engine<Ticks>, capture: (usize, u64, usize)) {
    black_box(capture);
    if w.left == 0 {
        return;
    }
    w.left -= 1;
    w.rng ^= w.rng << 13;
    w.rng ^= w.rng >> 7;
    w.rng ^= w.rng << 17;
    let next = (capture.0, capture.1 + 1, capture.2);
    eng.schedule_in(SimTime::from_nanos(1 + w.rng % 4096), move |w, e| {
        tick(w, e, next)
    });
}

/// Replays `events` no-op events through a fresh engine holding `depth`
/// pending events at a time (the run's slab high-water mark). Returns
/// `(host ns, events fired)`.
pub fn engine(events: u64, depth: usize) -> (u64, u64) {
    let depth = depth.clamp(1, events.max(1) as usize);
    let mut world = Ticks {
        left: events.saturating_sub(depth as u64),
        rng: 0x2545_F491_4F6C_DD1D,
    };
    let mut eng: Engine<Ticks> = Engine::new();
    for i in 0..depth {
        eng.schedule_in(SimTime::from_nanos(1 + i as u64), move |w, e| {
            tick(w, e, (i, 0, 0))
        });
    }
    let t = Instant::now();
    eng.run(&mut world);
    (t.elapsed().as_nanos() as u64, eng.stats().events_fired)
}

/// Host time and counts of the chunk-store replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Store {
    /// `apply_write` calls.
    pub writes: u64,
    /// Host ns in `apply_write`.
    pub write_ns: u64,
    /// `read_into` calls that needed no reconstruction.
    pub reads: u64,
    /// Host ns in those.
    pub read_ns: u64,
    /// `read_into` calls that reconstructed a lost chunk.
    pub degraded_reads: u64,
    /// Host ns in those.
    pub degraded_read_ns: u64,
}

impl Store {
    /// Every timed store call.
    pub fn calls(&self) -> u64 {
        self.writes + self.reads + self.degraded_reads
    }

    /// Host ns in every timed store call.
    pub fn ns(&self) -> u64 {
        self.write_ns + self.read_ns + self.degraded_read_ns
    }
}

/// Replays the recorded stripe writes and reads through
/// `ChunkStore::apply_write` / `read_into` on a fresh store that holds the
/// same prefill and lost the same member. Calls run in submission order
/// (the run applies them in completion order; the work per call is the
/// same).
pub fn store(geo: &Geometry, recs: &[Rec], payload: &Payload, stripes: u64) -> Store {
    let layout = geo.layout;
    let stripe_bytes = layout.stripe_data_bytes();
    let mut store = ChunkStore::new(layout);
    let healthy = BTreeSet::new();
    for s in 0..stripes {
        let io = &layout.map(s * stripe_bytes, stripe_bytes)[0];
        store.apply_write(
            io,
            &payload.stripe_image(s, stripe_bytes),
            WriteMode::FullStripe,
            &healthy,
        );
    }
    for &m in &geo.faulty {
        store.drop_member(m);
    }

    let mut out = Store::default();
    let mut buf = Vec::new();
    for r in recs {
        for io in layout.map(r.offset, r.len) {
            match r.kind {
                IoKind::Write => {
                    let data = &payload.blocks[r.pick as usize];
                    let lo = io.buf_offset as usize;
                    let sub = &data[lo..lo + io.bytes() as usize];
                    let mode = layout.write_mode(&io);
                    let t = Instant::now();
                    store.apply_write(&io, sub, mode, &geo.faulty);
                    out.write_ns += t.elapsed().as_nanos() as u64;
                    out.writes += 1;
                }
                IoKind::Read => {
                    let degraded = io.segments.iter().any(|s| geo.faulty.contains(&s.member));
                    let t = Instant::now();
                    store.read_into(&mut buf, &io, &geo.faulty);
                    let ns = t.elapsed().as_nanos() as u64;
                    black_box(&buf);
                    if degraded {
                        out.degraded_read_ns += ns;
                        out.degraded_reads += 1;
                    } else {
                        out.read_ns += ns;
                        out.reads += 1;
                    }
                }
            }
        }
    }
    out
}

/// Median host ns of `ReedSolomon::reconstruct` on a 6+2 stripe of
/// 512 KiB shards with one data shard lost. The shard set is copied before
/// each timed call, outside the timed region.
pub fn rs_reconstruct(iterations: usize) -> f64 {
    const SHARD: usize = 512 * 1024;
    let rs = ReedSolomon::new(6, 2);
    let mut rng = DetRng::new(0x0EC0_DEC0);
    let data: Vec<Vec<u8>> = (0..6)
        .map(|_| {
            let mut b = vec![0u8; SHARD];
            rng.fill_bytes(&mut b);
            b
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
    let parity = rs.encode(&refs);
    let full: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
    let mut samples = Vec::with_capacity(iterations + 1);
    for _ in 0..=iterations {
        let mut shards = full.clone();
        shards[1] = None;
        let t = Instant::now();
        rs.reconstruct(black_box(&mut shards))
            .expect("one erasure decodes");
        samples.push(t.elapsed().as_nanos() as f64);
        assert!(
            shards[1].as_deref() == Some(&data[1][..]),
            "decoded shard differs"
        );
    }
    // The first call pays for cold tables and caches; drop it.
    crate::median(&mut samples[1..])
}
