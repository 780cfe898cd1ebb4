//! Per-system DAG builders: compile one stripe operation into the dependency
//! graph of resource steps the executor schedules.
//!
//! This is where the paper's Table 1 data-movement asymmetry lives. The same
//! logical operation (say, a partial-stripe read-modify-write) compiles to
//! very different graphs per system:
//!
//! * **dRAID** (§5): the host ships only the new data plus command capsules;
//!   data bdevs compute partial parities locally and forward them
//!   peer-to-peer to the parity bdev, which reduces and persists. Degraded
//!   reads (§6) stream survivor extents to a chosen reducer rather than the
//!   host.
//! * **Centralized** (SPDK POC, Linux MD): every byte crosses the host NIC —
//!   old data and old parity in, new data and new parity out ("4x" in
//!   Table 1) — and parity math runs on the host cores.
//!
//! Every builder composes one small step vocabulary, the data-movement
//! primitives the paper builds its operations from (§4's opcode extensions,
//! §5.3's per-bdev fetch → read → write ∥ forward pipeline):
//!
//! * `command`/`command_after` and `callback`: a command capsule from the
//!   host to a member, and a member's completion back;
//! * `read`, `write` and `combine`: one drive read, one drive write, one XOR
//!   (or, for Q terms, GF(256)) pass on a core;
//! * `read_to`: command, drive read, ship the bytes to a node; `pull` is
//!   `read_to` the host plus the host's per-completion cost;
//! * `push`: the host ships bytes to a member, which persists and
//!   acknowledges;
//! * `contribute`: fan a data member's term out to the P/Q parity members
//!   (scaled by gⁱ for Q), peer-to-peer or through the host;
//! * `untouched` and `pull_complements`: the healthy chunks a
//!   reconstruct-write needs besides the new data.
//!
//! Builders are pure functions of `(BuildCtx, Purpose, StripeIo)`. For a
//! running array only the executor calls them, once per op shape: it
//! caches each built graph as a template (`exec::ShapeCache`) and launches
//! every later op of that shape from it. While tracing is on it hands each
//! launched graph to the tracer, so [`crate::trace::Tracer::critical_path`]
//! re-associates recorded events with steps without rebuilding anything.

use std::collections::BTreeSet;

use draid_block::ServerId;
use draid_net::NodeId;
use draid_sim::SimTime;

use crate::config::{ArrayConfig, SystemKind};
use crate::dag::{Dag, StepKind};
use crate::layout::{Layout, StripeIo, WriteMode};

/// Size of a command capsule on the wire, in bytes.
pub const COMMAND_BYTES: u64 = 128;
/// Size of a completion/callback message on the wire, in bytes.
pub const CALLBACK_BYTES: u64 = 64;

/// Host-core cost of acquiring+releasing a stripe lock, paid by the locking
/// systems on every I/O (the small-I/O read gap of Fig. 9 that dRAID's
/// lock-free read avoids).
const LOCK_OVERHEAD: SimTime = SimTime::from_nanos(1200);

// Extra per-I/O costs of the Linux MD kernel path, applied on the host CPU.
// MD funnels every stripe head through the `raid5d` kernel thread and a
// stripe cache of 4 KiB pages; the per-page cost grows with stripe width
// (wider stripes mean more stripe-cache bookkeeping per head), which is what
// bends Linux's curves downward as width grows (Figs. 12 and 16).

/// Linux MD: base handling cost per 4 KiB page on the write path.
const LINUX_PAGE_COST: SimTime = SimTime::from_nanos(1500);
/// Linux MD: additional per-page cost per member of stripe width.
const LINUX_PAGE_COST_PER_WIDTH: SimTime = SimTime::from_nanos(160);
/// Linux MD: extra fixed per-I/O cost of crossing the kernel block stack (on
/// top of the host core's base per-I/O cost).
const LINUX_PER_IO_EXTRA: SimTime = SimTime::from_micros(5);

/// Everything a builder needs to know about the array at op-launch time.
pub struct BuildCtx<'a> {
    /// Array configuration (system kind, ablation toggles).
    pub cfg: &'a ArrayConfig,
    /// Stripe geometry.
    pub layout: &'a Layout,
    /// The host (coordinator) node.
    pub host: NodeId,
    /// Fabric node of each member, indexed by member.
    pub nodes: &'a [NodeId],
    /// Drive server of each member, indexed by member.
    pub servers: &'a [ServerId],
    /// Members currently marked faulty.
    pub faulty: &'a BTreeSet<usize>,
    /// Reducer member chosen for degraded reads (§6), if applicable.
    pub reducer: Option<usize>,
}

/// What the operation is for, decided at launch from the array's health.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// A user read; `degraded` when any touched segment sits on a faulty
    /// member and must be reconstructed.
    Read {
        /// Whether reconstruction is required.
        degraded: bool,
    },
    /// A user (or internal resync) write in the given mode.
    Write {
        /// Parity-update strategy (§2.1).
        mode: WriteMode,
        /// Whether the stripe has faulty members.
        degraded: bool,
    },
    /// Hot-spare rebuild of the op's one segment, a faulty member's chunk:
    /// §6 reconstruction at `BuildCtx::reducer`, then a write to the spare.
    Rebuild {
        /// Pool drive receiving the reconstructed chunk.
        spare: ServerId,
        /// The spare's fabric node.
        spare_node: NodeId,
    },
    /// Patrol-read parity check of the whole stripe.
    Scrub,
}

/// Builds the operation DAG for `purpose` over the stripe portion `io`.
pub fn build(ctx: &BuildCtx, purpose: Purpose, io: &StripeIo) -> Dag {
    let mut dag = Dag::new();
    let mut b = Builder::new(ctx, purpose, io, &mut dag);
    let draid = ctx.cfg.system == SystemKind::Draid;
    // Working lists: the contributions forwarded to the P and Q members as
    // `(data member, arrival step)`, the dependency list of one join,
    // reduction or write step, and a degraded read's reconstruction set.
    let (fwds, deps, set) = (
        &mut [Vec::new(), Vec::new()],
        &mut Vec::new(),
        &mut Vec::new(),
    );
    match purpose {
        // Segment health comes from `ctx.faulty`, as the read's `degraded`
        // flag does.
        Purpose::Read { .. } => b.user_read(io, set, deps),
        Purpose::Write {
            mode: WriteMode::FullStripe,
            degraded: false,
        } => b.full_stripe_write(io),
        Purpose::Write { degraded: true, .. } if draid => b.draid_degraded_write(io, fwds, deps),
        Purpose::Write { mode, .. } if draid => b.draid_partial_write(io, mode, fwds, deps),
        Purpose::Write { mode, degraded } => b.central_write(io, mode, degraded, deps),
        Purpose::Rebuild { spare, spare_node } => b.rebuild(io, spare, spare_node, deps),
        Purpose::Scrub => b.scrub(io, deps),
    }
    dag
}

/// Internal builder state: the DAG under construction plus the admission
/// root every command capsule depends on.
struct Builder<'a, 'c> {
    ctx: &'a BuildCtx<'c>,
    dag: &'a mut Dag,
    root: usize,
}

impl<'a, 'c> Builder<'a, 'c> {
    fn new(ctx: &'a BuildCtx<'c>, purpose: Purpose, io: &StripeIo, dag: &'a mut Dag) -> Self {
        // Host software admission cost.
        let mut root = dag.add(StepKind::PerIo { node: ctx.host }, &[]);
        // Background sweeps run beside the block layer: no stripe lock, no
        // kernel path.
        if matches!(purpose, Purpose::Rebuild { .. } | Purpose::Scrub) {
            return Builder { ctx, dag, root };
        }
        let cfg = ctx.cfg;
        // Stripe-lock CPU cost: the centralized systems lock every I/O;
        // dRAID locks writes, and reads only under the lock-free-read
        // ablation (§8).
        let is_read = matches!(purpose, Purpose::Read { .. });
        let pays_lock = match cfg.system {
            SystemKind::SpdkRaid | SystemKind::LinuxMd => true,
            SystemKind::Draid => !is_read || !cfg.draid.lockfree_read,
        };
        if pays_lock {
            root = dag.add(
                StepKind::CoreBusy {
                    node: ctx.host,
                    duration: LOCK_OVERHEAD,
                },
                &[root],
            );
        }
        // Linux MD kernel-path costs: block-stack crossing plus stripe-cache
        // page handling (grows with width; Figs. 12/16). Writes always pass
        // through the stripe cache; reads bypass it only while the array is
        // optimal — any degradation routes *every* read through `raid5d` and
        // the page cache (the Fig. 15 collapse).
        if cfg.system == SystemKind::LinuxMd {
            let pays_pages = match purpose {
                Purpose::Read { .. } => !ctx.faulty.is_empty(),
                _ => true,
            };
            let mut busy = LINUX_PER_IO_EXTRA;
            if pays_pages {
                let pages = io.bytes().div_ceil(4096);
                let per_page = LINUX_PAGE_COST.as_nanos()
                    + cfg.width as u64 * LINUX_PAGE_COST_PER_WIDTH.as_nanos();
                busy += SimTime::from_nanos(pages * per_page);
            }
            root = dag.add(
                StepKind::CoreBusy {
                    node: ctx.host,
                    duration: busy,
                },
                &[root],
            );
        }
        Builder { ctx, dag, root }
    }

    fn node(&self, member: usize) -> NodeId {
        self.ctx.nodes[member]
    }

    fn server(&self, member: usize) -> ServerId {
        self.ctx.servers[member]
    }

    fn healthy(&self, member: usize) -> bool {
        !self.ctx.faulty.contains(&member)
    }

    /// The stripe's healthy parity members: P, then Q (`None` when the
    /// level has no Q or the member is faulty).
    fn parity(&self, stripe: u64) -> [Option<usize>; 2] {
        let l = self.ctx.layout;
        [Some(l.p_member(stripe)), l.q_member(stripe)].map(|m| m.filter(|&m| self.healthy(m)))
    }

    /// Adds a fabric transfer, degenerating to a free `Join` when source and
    /// destination share a node (two-tier clusters can colocate servers).
    fn xfer(&mut self, from: NodeId, to: NodeId, bytes: u64, deps: &[usize]) -> usize {
        if from == to {
            self.dag.add(StepKind::Join, deps)
        } else {
            self.dag.add(StepKind::Transfer { from, to, bytes }, deps)
        }
    }

    /// Host sends a command capsule (optionally carrying `payload` data
    /// bytes) to `member`; the member's controller admits it. Returns the
    /// step every member-side work depends on.
    fn command(&mut self, member: usize, payload: u64) -> usize {
        let root = self.root;
        self.command_after(member, payload, root)
    }

    /// Like [`Builder::command`] but gated on an arbitrary earlier step
    /// (phase-two dispatches of centralized writes).
    fn command_after(&mut self, member: usize, payload: u64, dep: usize) -> usize {
        let cmd = self.xfer(
            self.ctx.host,
            self.node(member),
            COMMAND_BYTES + payload,
            &[dep],
        );
        self.dag.add(
            StepKind::PerIo {
                node: self.node(member),
            },
            &[cmd],
        )
    }

    /// Completion callback from `member` to the host.
    fn callback(&mut self, member: usize, deps: &[usize]) -> usize {
        let arrive = self.xfer(self.node(member), self.ctx.host, CALLBACK_BYTES, deps);
        // Completion processing on the host stack: every callback consumes a
        // per-I/O slice of the host core, whichever system sent it.
        self.dag.add(
            StepKind::PerIo {
                node: self.ctx.host,
            },
            &[arrive],
        )
    }

    /// `member`'s drive reads `bytes` after step `dep`.
    fn read(&mut self, member: usize, bytes: u64, dep: usize) -> usize {
        let server = self.server(member);
        self.dag.add(StepKind::DriveRead { server, bytes }, &[dep])
    }

    /// `member`'s drive writes `bytes` after `deps`.
    fn write(&mut self, member: usize, bytes: u64, deps: &[usize]) -> usize {
        let server = self.server(member);
        self.dag.add(StepKind::DriveWrite { server, bytes }, deps)
    }

    /// A pass over `bytes` on `node`'s core: GF(256) multiply-accumulate
    /// for Q terms (`gf`), XOR otherwise.
    fn combine(&mut self, gf: bool, node: NodeId, bytes: u64, deps: &[usize]) -> usize {
        let kind = if gf {
            StepKind::GfMul { node, bytes }
        } else {
            StepKind::Xor { node, bytes }
        };
        self.dag.add(kind, deps)
    }

    /// Host commands `member` to read `bytes`, which it ships to `to`.
    /// Returns the arrival.
    fn read_to(&mut self, member: usize, bytes: u64, to: NodeId) -> usize {
        let ready = self.command(member, 0);
        let read = self.read(member, bytes, ready);
        self.xfer(self.node(member), to, bytes, &[read])
    }

    /// [`Builder::read_to`] the host, whose stack then processes the payload
    /// as a completion (the per-verb software cost dRAID offloads to its
    /// controllers).
    fn pull(&mut self, member: usize, bytes: u64) -> usize {
        let arrival = self.read_to(member, bytes, self.ctx.host);
        self.dag.add(
            StepKind::PerIo {
                node: self.ctx.host,
            },
            &[arrival],
        )
    }

    /// Host ships `bytes` to `member` after step `dep`; the member persists
    /// them and acknowledges.
    fn push(&mut self, member: usize, bytes: u64, dep: usize) {
        let ready = self.command_after(member, bytes, dep);
        let write = self.write(member, bytes, &[ready]);
        self.callback(member, &[write]);
    }

    /// Fans data member `m`'s `bytes`-long term `src` out to the `parity`
    /// members: P takes it as is, Q scaled by gⁱ on the data bdev (§5.2).
    /// Each forward goes peer-to-peer, or through the host under the
    /// ablation, and lands in that parity's list in `fwds`.
    fn contribute(
        &mut self,
        m: usize,
        bytes: u64,
        src: usize,
        parity: [Option<usize>; 2],
        fwds: &mut [Vec<(usize, usize)>; 2],
    ) {
        let (host, from) = (self.ctx.host, self.node(m));
        for (slot, pm) in parity.into_iter().enumerate() {
            let Some(pm) = pm else { continue };
            let term = if slot == 1 {
                self.combine(true, from, bytes, &[src])
            } else {
                src
            };
            let fwd = if self.ctx.cfg.draid.peer_to_peer {
                self.xfer(from, self.node(pm), bytes, &[term])
            } else {
                let up = self.xfer(from, host, bytes, &[term]);
                self.xfer(host, self.node(pm), bytes, &[up])
            };
            fwds[slot].push((m, fwd));
        }
    }

    /// The stripe's healthy data members that `io` leaves untouched, in data
    /// order.
    fn untouched<'x>(&self, io: &'x StripeIo) -> impl Iterator<Item = usize> + use<'a, 'c, 'x> {
        let ctx = self.ctx;
        (0..ctx.layout.data_chunks())
            .map(move |k| ctx.layout.data_member(io.stripe, k))
            .filter(move |m| !ctx.faulty.contains(m) && io.segments.iter().all(|s| s.member != *m))
    }

    /// Pulls what a reconstruct-write needs besides the new data to the
    /// host: every untouched chunk, then the complement of every partially
    /// covered healthy one. Returns the bytes pulled.
    fn pull_complements(&mut self, io: &StripeIo, arrivals: &mut Vec<usize>) -> u64 {
        let chunk = self.ctx.layout.chunk_size();
        let mut pulled = 0;
        for m in self.untouched(io) {
            arrivals.push(self.pull(m, chunk));
            pulled += chunk;
        }
        for seg in io.segments.iter() {
            if self.healthy(seg.member) && !seg.covers_chunk(chunk) {
                arrivals.push(self.pull(seg.member, chunk - seg.len));
                pulled += chunk - seg.len;
            }
        }
        pulled
    }

    /// Fills `set` with the healthy members able to reconstruct `victim`'s
    /// chunk of `stripe`: the surviving data members plus as many parity
    /// members as the losses require (P first, then Q), in member order.
    fn reconstruction_set(&self, stripe: u64, victim: usize, set: &mut Vec<usize>) {
        let l = self.ctx.layout;
        set.clear();
        set.extend(
            (0..l.data_chunks())
                .map(|k| l.data_member(stripe, k))
                .filter(|&m| m != victim && self.healthy(m)),
        );
        let needed = l.data_chunks() - set.len();
        let parity = self.parity(stripe).into_iter().flatten();
        set.extend(parity.filter(|&pm| pm != victim).take(needed));
        set.sort_unstable();
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// User read, one shape for every system: each healthy segment is a
    /// command out, a drive read and the data straight back to the host
    /// (the data transfer is the completion; no separate callback). A
    /// segment on a faulty member is reconstructed: dRAID (§6) streams the
    /// survivors' extents to the reducer, which alone ships the rebuilt
    /// extent to the host; the centralized systems pull every survivor's
    /// extent across the host NIC (Table 1 "Nx") and reconstruct there.
    fn user_read(&mut self, io: &StripeIo, set: &mut Vec<usize>, deps: &mut Vec<usize>) {
        let host = self.ctx.host;
        for seg in io.segments.iter().copied() {
            if self.healthy(seg.member) {
                self.read_to(seg.member, seg.len, host);
                continue;
            }
            self.reconstruction_set(io.stripe, seg.member, set);
            deps.clear();
            if self.ctx.cfg.system != SystemKind::Draid {
                deps.extend(set.iter().map(|&m| self.pull(m, seg.len)));
                self.combine(false, host, set.len() as u64 * seg.len, deps);
                continue;
            }
            let reducer = self
                .ctx
                .reducer
                .filter(|&r| self.healthy(r))
                .or_else(|| set.first().copied())
                .expect("degraded read with no survivors");
            let (at, q) = (self.node(reducer), self.ctx.layout.q_member(io.stripe));
            let r_ready = self.command(reducer, 0);
            deps.extend(set.iter().map(|&m| {
                let arrival = if m == reducer {
                    self.read(m, seg.len, r_ready)
                } else {
                    self.read_to(m, seg.len, at)
                };
                // Q-based recovery needs GF(256) math; plain survivors XOR.
                self.combine(Some(m) == q, at, seg.len, &[arrival, r_ready])
            }));
            let done = self.dag.add(StepKind::Join, deps);
            self.xfer(at, host, seg.len, &[done]);
        }
    }

    // ------------------------------------------------------------------
    // Background sweeps
    // ------------------------------------------------------------------

    /// Rebuild of one stripe (identical for every system): each surviving
    /// data member and P reads its chunk and streams it to the reducer,
    /// which XORs and forwards the reconstructed chunk peer-to-peer to the
    /// spare, which persists it. For a lost parity chunk the survivors are
    /// the data members and the result is the recomputed parity.
    fn rebuild(
        &mut self,
        io: &StripeIo,
        spare: ServerId,
        spare_node: NodeId,
        deps: &mut Vec<usize>,
    ) {
        let (l, faulty) = (*self.ctx.layout, self.ctx.faulty);
        let victim = io.segments[0].member;
        let reducer = self.ctx.reducer.expect("rebuild without a reducer");
        let q = l.q_member(io.stripe);
        deps.clear();
        for m in (0..l.width()).filter(|&m| m != victim && Some(m) != q && !faulty.contains(&m)) {
            let ready = self.command(m, 0);
            deps.push(self.chunk_to(m, reducer, ready));
        }
        let done = self.dag.add(StepKind::Join, deps);
        let chunk = l.chunk_size();
        let to_spare = self.xfer(self.node(reducer), spare_node, chunk, &[done]);
        let write = self.dag.add(
            StepKind::DriveWrite {
                server: spare,
                bytes: chunk,
            },
            &[to_spare],
        );
        self.xfer(spare_node, self.ctx.host, CALLBACK_BYTES, &[write]);
    }

    /// Scrub of one stripe (identical for every system): every healthy
    /// member reads its chunk and streams it to the stripe's P member, which
    /// XOR-verifies; only a small verdict message reaches the host.
    fn scrub(&mut self, io: &StripeIo, deps: &mut Vec<usize>) {
        let host = self.ctx.host;
        let verifier = self.ctx.layout.p_member(io.stripe);
        deps.clear();
        for m in 0..self.ctx.layout.width() {
            if self.healthy(m) {
                let cmd = self.xfer(host, self.node(m), COMMAND_BYTES, &[self.root]);
                deps.push(self.chunk_to(m, verifier, cmd));
            }
        }
        let done = self.dag.add(StepKind::Join, deps);
        self.xfer(self.node(verifier), host, CALLBACK_BYTES, &[done]);
    }

    /// Member `m` reads its whole chunk after step `ready` and streams it to
    /// member `sink`, which XORs it in. Returns the XOR step.
    fn chunk_to(&mut self, m: usize, sink: usize, ready: usize) -> usize {
        let chunk = self.ctx.layout.chunk_size();
        let read = self.read(m, chunk, ready);
        let arrival = if m == sink {
            read
        } else {
            self.xfer(self.node(m), self.node(sink), chunk, &[read])
        };
        self.combine(false, self.node(sink), chunk, &[arrival])
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Full-stripe write, shared by all systems (§3): the host holds every
    /// data chunk, computes parity locally, and ships data + parity with no
    /// reads anywhere.
    fn full_stripe_write(&mut self, io: &StripeIo) {
        let (host, root) = (self.ctx.host, self.root);
        let l = *self.ctx.layout;
        let [p, q] = self.parity(io.stripe);
        let xor = self.combine(false, host, l.stripe_data_bytes(), &[root]);
        let q_gen = q.map(|_| self.combine(true, host, l.stripe_data_bytes(), &[root]));
        for seg in io.segments.iter() {
            self.push(seg.member, seg.len, root);
        }
        if let Some(p) = p {
            self.push(p, l.chunk_size(), xor);
        }
        if let (Some(q), Some(qg)) = (q, q_gen) {
            self.push(q, l.chunk_size(), qg);
        }
    }

    /// dRAID partial-stripe write (§5): host ships only new data; partial
    /// parities flow peer-to-peer to the parity bdev(s).
    fn draid_partial_write(
        &mut self,
        io: &StripeIo,
        mode: WriteMode,
        fwds: &mut [Vec<(usize, usize)>; 2],
        deps: &mut Vec<usize>,
    ) {
        let chunk = self.ctx.layout.chunk_size();
        let pipeline = self.ctx.cfg.draid.pipeline;
        let parity = self.parity(io.stripe);
        let rmw = mode == WriteMode::ReadModifyWrite;
        let extent = if rmw { io.extent() } else { chunk };

        // Parity-side admission; RMW additionally reads the old parity.
        let old_reads = parity.map(|pm| {
            let ready = pm.map(|pm| (pm, self.command(pm, 0)));
            ready
                .filter(|_| rmw)
                .map(|(pm, ready)| self.read(pm, extent, ready))
        });

        // Data-side: each touched member fetches its new data, persists it,
        // and emits a partial-parity contribution; in reconstruct-write mode
        // the untouched members stream their (old) chunks as contributions.
        fwds.iter_mut().for_each(Vec::clear);
        for seg in io.segments.iter().copied() {
            let m = seg.member;
            let fetch = self.command(m, seg.len);
            let read = if rmw {
                // Old data needed for the delta.
                self.read(m, seg.len, fetch)
            } else if !seg.covers_chunk(chunk) {
                // Reconstruct-write of a partial chunk forwards the full
                // new chunk, so the complement is read locally.
                self.read(m, chunk - seg.len, fetch)
            } else {
                fetch
            };
            let write = self.write(m, seg.len, &[read]);
            let src = if pipeline {
                // §5.3: the drive-write and the parity forwarding both hang
                // off the fetch/read alone — and the data bdev acknowledges
                // the host as soon as its own write lands.
                self.callback(m, &[write]);
                read
            } else {
                // Serial NVMe-oF-style chain: fetch -> read -> write ->
                // forward, no per-bdev callback.
                write
            };
            // RMW's partial is old ⊕ new data (Alg. 1 l.2-4); a
            // reconstruct-write forwards the new chunk as is (l.5-6).
            if rmw {
                let delta = self.combine(false, self.node(m), seg.len, &[src]);
                self.contribute(m, seg.len, delta, parity, fwds);
            } else {
                self.contribute(m, chunk, src, parity, fwds);
            }
        }
        if !rmw {
            self.contribute_untouched(io, parity, fwds);
        }

        // Parity-side reduction and persist.
        for (slot, pm) in parity.into_iter().enumerate() {
            if let Some(pm) = pm {
                self.reduce_and_write(io, pm, &fwds[slot], old_reads[slot], extent, deps);
            }
        }
    }

    /// Untouched healthy members read their resident chunks and contribute
    /// them to the `parity` members.
    fn contribute_untouched(
        &mut self,
        io: &StripeIo,
        parity: [Option<usize>; 2],
        fwds: &mut [Vec<(usize, usize)>; 2],
    ) {
        let chunk = self.ctx.layout.chunk_size();
        for m in self.untouched(io) {
            let ready = self.command(m, 0);
            let read = self.read(m, chunk, ready);
            self.contribute(m, chunk, read, parity, fwds);
        }
    }

    /// Parity member `pm` reduces the arriving contributions `fwds` (in
    /// GF(256) when it is the Q member) and persists the `bytes`-long
    /// result, with `deps` as working space. Non-blocking
    /// (§5.2): each reduction depends only on its contribution's arrival;
    /// blocking ablation: a barrier joins every arrival (and the old-parity
    /// read) first.
    fn reduce_and_write(
        &mut self,
        io: &StripeIo,
        pm: usize,
        fwds: &[(usize, usize)],
        old_read: Option<usize>,
        bytes: u64,
        deps: &mut Vec<usize>,
    ) {
        let gf = Some(pm) == self.ctx.layout.q_member(io.stripe);
        let barrier = (!self.ctx.cfg.draid.nonblocking).then(|| {
            deps.clear();
            deps.extend(fwds.iter().map(|&(_, f)| f));
            deps.extend(old_read);
            self.dag.add(StepKind::Join, deps)
        });
        // The reductions, then the old parity, are the write's dependencies.
        deps.clear();
        for &(m, fwd) in fwds {
            let seg = io.segments.iter().find(|s| s.member == m);
            let len = seg.map_or(bytes, |s| s.len).min(bytes).max(1);
            deps.push(self.combine(gf, self.node(pm), len, &[barrier.unwrap_or(fwd)]));
        }
        deps.extend(old_read);
        let write = self.write(pm, bytes, deps);
        self.callback(pm, &[write]);
    }

    /// dRAID degraded write: reconstruction-shaped regardless of the chosen
    /// mode. Healthy touched members persist their segments and contribute
    /// their full new chunks; untouched healthy members contribute resident
    /// chunks; segments on faulty members are shipped from the host straight
    /// to the surviving parity member(s), which recompute and persist —
    /// the lost chunk's content stays implied by parity until rebuild.
    fn draid_degraded_write(
        &mut self,
        io: &StripeIo,
        fwds: &mut [Vec<(usize, usize)>; 2],
        deps: &mut Vec<usize>,
    ) {
        let chunk = self.ctx.layout.chunk_size();
        let parity = self.parity(io.stripe);
        let readies = parity.map(|pm| pm.map(|pm| self.command(pm, 0)));
        fwds.iter_mut().for_each(Vec::clear);
        for seg in io.segments.iter().copied() {
            let m = seg.member;
            if self.healthy(m) {
                let fetch = self.command(m, seg.len);
                let src = if seg.covers_chunk(chunk) {
                    fetch
                } else {
                    self.read(m, chunk - seg.len, fetch)
                };
                let write = self.write(m, seg.len, &[src]);
                self.callback(m, &[write]);
                self.contribute(m, chunk, src, parity, fwds);
                continue;
            }
            // The dead member's new data goes straight to each parity.
            for (slot, pm) in parity.into_iter().enumerate() {
                if let Some(pm) = pm {
                    let bytes = COMMAND_BYTES + seg.len;
                    let fwd = self.xfer(self.ctx.host, self.node(pm), bytes, &[self.root]);
                    fwds[slot].push((m, fwd));
                }
            }
        }
        self.contribute_untouched(io, parity, fwds);

        for (slot, (pm, ready)) in parity.into_iter().zip(readies).enumerate() {
            let (Some(pm), Some(ready)) = (pm, ready) else {
                continue;
            };
            deps.clear();
            deps.extend(
                fwds[slot]
                    .iter()
                    .map(|&(_, fwd)| self.combine(slot == 1, self.node(pm), chunk, &[fwd, ready])),
            );
            let write = self.write(pm, chunk, deps);
            self.callback(pm, &[write]);
        }
    }

    /// Centralized write of part of a stripe, healthy or degraded: old data
    /// and old parity (RMW) or the untouched chunks and complements
    /// (reconstruct; a degraded write always reconstructs) are pulled to the
    /// host, parity math runs on the host cores, and new data + parity are
    /// pushed back out to the healthy members — every byte crossing the
    /// host NIC twice.
    fn central_write(
        &mut self,
        io: &StripeIo,
        mode: WriteMode,
        degraded: bool,
        arrivals: &mut Vec<usize>,
    ) {
        let host = self.ctx.host;
        let chunk = self.ctx.layout.chunk_size();
        let [p, q] = self.parity(io.stripe);
        let rmw = mode == WriteMode::ReadModifyWrite && !degraded;
        let extent = if rmw { io.extent() } else { chunk };

        arrivals.clear();
        let pulled = if rmw {
            for seg in io.segments.iter() {
                arrivals.push(self.pull(seg.member, seg.len));
            }
            for pm in [p, q].into_iter().flatten() {
                arrivals.push(self.pull(pm, extent));
            }
            io.bytes() + extent * [p, q].iter().flatten().count() as u64
        } else {
            self.pull_complements(io, arrivals)
        };
        // The parity pass streams every input operand through the core: the
        // new data plus everything that was pulled (old data and old parity
        // for RMW, the chunk complements for reconstruct-write); a degraded
        // write's pass is costed as the new data plus one chunk.
        let pass = io.bytes() + if degraded { chunk } else { pulled };
        let xor = self.combine(false, host, pass, arrivals);
        let q_gen = q.map(|_| self.combine(true, host, pass, arrivals));

        // Phase two: only after every read has landed and parity math is done
        // may the host dispatch the writes — the old contents feed the delta,
        // so nothing can be overwritten while phase one is in flight.
        for seg in io.segments.iter() {
            if self.healthy(seg.member) {
                self.push(seg.member, seg.len, xor);
            }
        }
        if let Some(p) = p {
            self.push(p, extent, xor);
        }
        if let (Some(q), Some(qg)) = (q, q_gen) {
            self.push(q, extent, qg);
        }
    }
}
