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
//! Builders are pure functions of `(BuildCtx, Purpose, StripeIo)`. Only the
//! executor calls them for a running array; while tracing is on it hands
//! each launched graph to the tracer, so [`crate::trace::Tracer::critical_path`]
//! re-associates recorded events with steps without rebuilding anything.

use std::collections::BTreeSet;

use draid_block::ServerId;
use draid_net::NodeId;
use draid_sim::SimTime;

use crate::config::{ArrayConfig, SystemKind};
use crate::dag::{Dag, StepKind};
use crate::layout::{Layout, StripeIo, WriteMode};

/// Everything a builder needs to know about the array at op-launch time.
pub struct BuildCtx<'a> {
    /// Array configuration (system kind, ablation toggles, wire sizes).
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    build_into(ctx, purpose, io, &mut dag);
    dag
}

/// [`build`] into a caller-owned DAG, replacing its steps but keeping its
/// capacity: the executor rebuilds into recycled DAGs without allocating.
pub(crate) fn build_into(ctx: &BuildCtx, purpose: Purpose, io: &StripeIo, dag: &mut Dag) {
    dag.clear();
    let mut b = Builder::new(ctx, purpose, io, dag);
    match purpose {
        Purpose::Read { degraded: false } => b.normal_read(io),
        Purpose::Read { degraded: true } => match ctx.cfg.system {
            SystemKind::Draid => b.draid_degraded_read(io),
            SystemKind::SpdkRaid | SystemKind::LinuxMd => b.central_degraded_read(io),
        },
        Purpose::Write { degraded: true, .. } => match ctx.cfg.system {
            SystemKind::Draid => b.draid_degraded_write(io),
            SystemKind::SpdkRaid | SystemKind::LinuxMd => b.central_degraded_write(io),
        },
        Purpose::Write {
            mode: WriteMode::FullStripe,
            ..
        } => b.full_stripe_write(io),
        Purpose::Write { mode, .. } => match ctx.cfg.system {
            SystemKind::Draid => b.draid_partial_write(io, mode),
            SystemKind::SpdkRaid | SystemKind::LinuxMd => b.central_partial_write(io, mode),
        },
        Purpose::Rebuild { spare, spare_node } => b.rebuild(io, spare, spare_node),
        Purpose::Scrub => b.scrub(io),
    }
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
        if pays_lock && cfg.lock_overhead > SimTime::ZERO {
            root = dag.add(
                StepKind::CoreBusy {
                    node: ctx.host,
                    duration: cfg.lock_overhead,
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
            let mut busy = cfg.linux.per_io_extra;
            if pays_pages {
                let pages = io.bytes().div_ceil(4096);
                let per_page = cfg.linux.page_cost.as_nanos()
                    + cfg.width as u64 * cfg.linux.page_cost_per_width.as_nanos();
                busy += SimTime::from_nanos(pages * per_page);
            }
            if busy > SimTime::ZERO {
                root = dag.add(
                    StepKind::CoreBusy {
                        node: ctx.host,
                        duration: busy,
                    },
                    &[root],
                );
            }
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
            self.ctx.cfg.command_bytes + payload,
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
        let arrive = self.xfer(
            self.node(member),
            self.ctx.host,
            self.ctx.cfg.callback_bytes,
            deps,
        );
        // Completion processing on the host stack: every callback consumes a
        // per-I/O slice of the host core, whichever system sent it.
        self.dag.add(
            StepKind::PerIo {
                node: self.ctx.host,
            },
            &[arrive],
        )
    }

    /// Byte extent `[lo, hi)` within the chunk covering every touched
    /// segment — the region a parity read-modify-write must cover.
    fn parity_extent(&self, io: &StripeIo) -> u64 {
        let lo = io.segments.iter().map(|s| s.offset).min().unwrap_or(0);
        let hi = io
            .segments
            .iter()
            .map(|s| s.offset + s.len)
            .max()
            .unwrap_or(0);
        hi - lo
    }

    /// Healthy members able to reconstruct `victim`'s chunk of `stripe`:
    /// the surviving data members plus as many parity members as the losses
    /// require (P first, then Q).
    fn reconstruction_set(&self, stripe: u64, victim: usize) -> Vec<usize> {
        let l = self.ctx.layout;
        let mut set: Vec<usize> = (0..l.data_chunks())
            .map(|k| l.data_member(stripe, k))
            .filter(|&m| m != victim && self.healthy(m))
            .collect();
        let mut needed = l.data_chunks() - set.len();
        for pm in [Some(l.p_member(stripe)), l.q_member(stripe)]
            .into_iter()
            .flatten()
        {
            if needed == 0 {
                break;
            }
            if pm != victim && self.healthy(pm) {
                set.push(pm);
                needed -= 1;
            }
        }
        set.sort_unstable();
        set
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Normal read, identical shape for every system: command out, drive
    /// read, data straight back to the host (the data transfer is the
    /// completion; no separate callback).
    fn normal_read(&mut self, io: &StripeIo) {
        for seg in io.segments.iter().copied() {
            let ready = self.command(seg.member, 0);
            let read = self.dag.add(
                StepKind::DriveRead {
                    server: self.server(seg.member),
                    bytes: seg.len,
                },
                &[ready],
            );
            self.xfer(self.node(seg.member), self.ctx.host, seg.len, &[read]);
        }
    }

    /// dRAID degraded read (§6): healthy segments go straight to the host;
    /// each lost segment is reconstructed at the reducer, which alone ships
    /// the rebuilt extent to the host.
    fn draid_degraded_read(&mut self, io: &StripeIo) {
        let stripe = io.stripe;
        for seg in io.segments.iter().copied() {
            if self.healthy(seg.member) {
                let ready = self.command(seg.member, 0);
                let read = self.dag.add(
                    StepKind::DriveRead {
                        server: self.server(seg.member),
                        bytes: seg.len,
                    },
                    &[ready],
                );
                self.xfer(self.node(seg.member), self.ctx.host, seg.len, &[read]);
                continue;
            }
            let set = self.reconstruction_set(stripe, seg.member);
            let reducer = self
                .ctx
                .reducer
                .filter(|r| self.healthy(*r))
                .or_else(|| set.first().copied())
                .expect("degraded read with no survivors");
            let q = self.ctx.layout.q_member(stripe);
            let r_ready = self.command(reducer, 0);
            let mut reduces = Vec::new();
            for &m in &set {
                let arrival = if m == reducer {
                    self.dag.add(
                        StepKind::DriveRead {
                            server: self.server(m),
                            bytes: seg.len,
                        },
                        &[r_ready],
                    )
                } else {
                    let ready = self.command(m, 0);
                    let read = self.dag.add(
                        StepKind::DriveRead {
                            server: self.server(m),
                            bytes: seg.len,
                        },
                        &[ready],
                    );
                    self.xfer(self.node(m), self.node(reducer), seg.len, &[read])
                };
                // Q-based recovery needs GF(256) math; plain survivors XOR.
                let kind = if Some(m) == q {
                    StepKind::GfMul {
                        node: self.node(reducer),
                        bytes: seg.len,
                    }
                } else {
                    StepKind::Xor {
                        node: self.node(reducer),
                        bytes: seg.len,
                    }
                };
                reduces.push(self.dag.add(kind, &[arrival, r_ready]));
            }
            let done = self.dag.add(StepKind::Join, &reduces);
            self.xfer(self.node(reducer), self.ctx.host, seg.len, &[done]);
        }
    }

    /// Centralized degraded read: every survivor's extent crosses the host
    /// NIC (Table 1 "Nx") and the host reconstructs.
    fn central_degraded_read(&mut self, io: &StripeIo) {
        let stripe = io.stripe;
        for seg in io.segments.iter().copied() {
            if self.healthy(seg.member) {
                let ready = self.command(seg.member, 0);
                let read = self.dag.add(
                    StepKind::DriveRead {
                        server: self.server(seg.member),
                        bytes: seg.len,
                    },
                    &[ready],
                );
                self.xfer(self.node(seg.member), self.ctx.host, seg.len, &[read]);
                continue;
            }
            let set = self.reconstruction_set(stripe, seg.member);
            let mut arrivals = Vec::new();
            for &m in &set {
                let ready = self.command(m, 0);
                let read = self.dag.add(
                    StepKind::DriveRead {
                        server: self.server(m),
                        bytes: seg.len,
                    },
                    &[ready],
                );
                let arrival = self.xfer(self.node(m), self.ctx.host, seg.len, &[read]);
                arrivals.push(self.dag.add(
                    StepKind::PerIo {
                        node: self.ctx.host,
                    },
                    &[arrival],
                ));
            }
            self.dag.add(
                StepKind::Xor {
                    node: self.ctx.host,
                    bytes: set.len() as u64 * seg.len,
                },
                &arrivals,
            );
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
    fn rebuild(&mut self, io: &StripeIo, spare: ServerId, spare_node: NodeId) {
        let stripe = io.stripe;
        let l = *self.ctx.layout;
        let victim = io.segments[0].member;
        let reducer = self.ctx.reducer.expect("rebuild without a reducer");
        let mut participants: Vec<usize> = (0..l.data_chunks())
            .map(|k| l.data_member(stripe, k))
            .chain(std::iter::once(l.p_member(stripe)))
            .filter(|&m| m != victim && self.healthy(m))
            .collect();
        participants.sort_unstable();
        let mut reduces = Vec::new();
        for m in participants {
            let ready = self.command(m, 0);
            reduces.push(self.chunk_to(m, reducer, ready));
        }
        let done = self.dag.add(StepKind::Join, &reduces);
        let chunk = l.chunk_size();
        let to_spare = self.xfer(self.node(reducer), spare_node, chunk, &[done]);
        let write = self.dag.add(
            StepKind::DriveWrite {
                server: spare,
                bytes: chunk,
            },
            &[to_spare],
        );
        self.xfer(
            spare_node,
            self.ctx.host,
            self.ctx.cfg.callback_bytes,
            &[write],
        );
    }

    /// Scrub of one stripe (identical for every system): every healthy
    /// member reads its chunk and streams it to the stripe's P member, which
    /// XOR-verifies; only a small verdict message reaches the host.
    fn scrub(&mut self, io: &StripeIo) {
        let (host, cfg) = (self.ctx.host, self.ctx.cfg);
        let verifier = self.ctx.layout.p_member(io.stripe);
        let mut checks = Vec::new();
        for m in 0..self.ctx.layout.width() {
            if self.healthy(m) {
                let cmd = self.xfer(host, self.node(m), cfg.command_bytes, &[self.root]);
                checks.push(self.chunk_to(m, verifier, cmd));
            }
        }
        let done = self.dag.add(StepKind::Join, &checks);
        self.xfer(self.node(verifier), host, cfg.callback_bytes, &[done]);
    }

    /// Member `m` reads its whole chunk after step `ready` and streams it to
    /// member `sink`, which XORs it in. Returns the XOR step.
    fn chunk_to(&mut self, m: usize, sink: usize, ready: usize) -> usize {
        let chunk = self.ctx.layout.chunk_size();
        let read = self.dag.add(
            StepKind::DriveRead {
                server: self.server(m),
                bytes: chunk,
            },
            &[ready],
        );
        let arrival = if m == sink {
            read
        } else {
            self.xfer(self.node(m), self.node(sink), chunk, &[read])
        };
        self.dag.add(
            StepKind::Xor {
                node: self.node(sink),
                bytes: chunk,
            },
            &[arrival],
        )
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Full-stripe write, shared by all systems (§3): the host holds every
    /// data chunk, computes parity locally, and ships data + parity with no
    /// reads anywhere.
    fn full_stripe_write(&mut self, io: &StripeIo) {
        let stripe = io.stripe;
        let l = *self.ctx.layout;
        let xor = self.dag.add(
            StepKind::Xor {
                node: self.ctx.host,
                bytes: l.stripe_data_bytes(),
            },
            &[self.root],
        );
        let q_gen = l.q_member(stripe).map(|_| {
            self.dag.add(
                StepKind::GfMul {
                    node: self.ctx.host,
                    bytes: l.stripe_data_bytes(),
                },
                &[self.root],
            )
        });
        for seg in io.segments.iter().copied() {
            let ready = self.command(seg.member, seg.len);
            let write = self.dag.add(
                StepKind::DriveWrite {
                    server: self.server(seg.member),
                    bytes: seg.len,
                },
                &[ready],
            );
            self.callback(seg.member, &[write]);
        }
        let p = l.p_member(stripe);
        let ready = {
            let cmd = self.xfer(
                self.ctx.host,
                self.node(p),
                self.ctx.cfg.command_bytes + l.chunk_size(),
                &[xor],
            );
            self.dag.add(StepKind::PerIo { node: self.node(p) }, &[cmd])
        };
        let write = self.dag.add(
            StepKind::DriveWrite {
                server: self.server(p),
                bytes: l.chunk_size(),
            },
            &[ready],
        );
        self.callback(p, &[write]);
        if let (Some(q), Some(qg)) = (l.q_member(stripe), q_gen) {
            let cmd = self.xfer(
                self.ctx.host,
                self.node(q),
                self.ctx.cfg.command_bytes + l.chunk_size(),
                &[qg],
            );
            let ready = self.dag.add(StepKind::PerIo { node: self.node(q) }, &[cmd]);
            let write = self.dag.add(
                StepKind::DriveWrite {
                    server: self.server(q),
                    bytes: l.chunk_size(),
                },
                &[ready],
            );
            self.callback(q, &[write]);
        }
    }

    /// dRAID partial-stripe write (§5): host ships only new data; partial
    /// parities flow peer-to-peer to the parity bdev(s).
    fn draid_partial_write(&mut self, io: &StripeIo, mode: WriteMode) {
        let stripe = io.stripe;
        let l = *self.ctx.layout;
        let opts = self.ctx.cfg.draid;
        let p = l.p_member(stripe);
        let q = l.q_member(stripe);
        let chunk = l.chunk_size();
        let rmw = mode == WriteMode::ReadModifyWrite;
        let extent = if rmw { self.parity_extent(io) } else { chunk };

        // Parity-side admission; RMW additionally reads the old parity.
        let p_ready = self.command(p, 0);
        let p_read = rmw.then(|| {
            self.dag.add(
                StepKind::DriveRead {
                    server: self.server(p),
                    bytes: extent,
                },
                &[p_ready],
            )
        });
        let q_side = q.map(|qm| {
            let ready = self.command(qm, 0);
            let read = rmw.then(|| {
                self.dag.add(
                    StepKind::DriveRead {
                        server: self.server(qm),
                        bytes: extent,
                    },
                    &[ready],
                )
            });
            (qm, ready, read)
        });

        // Data-side: each touched member fetches its new data, persists it,
        // and emits a partial-parity contribution; in reconstruct-write mode
        // the untouched members stream their (old) chunks as contributions.
        let mut p_fwds = Vec::new();
        let mut q_fwds = Vec::new();
        for seg in io.segments.iter().copied() {
            let m = seg.member;
            let fetch = self.command(m, seg.len);
            let contrib_bytes = if rmw { seg.len } else { chunk };
            let read = if rmw {
                // Old data needed for the delta.
                self.dag.add(
                    StepKind::DriveRead {
                        server: self.server(m),
                        bytes: seg.len,
                    },
                    &[fetch],
                )
            } else if !seg.covers_chunk(chunk) {
                // Reconstruct-write of a partial chunk forwards the full
                // new chunk, so the complement is read locally.
                self.dag.add(
                    StepKind::DriveRead {
                        server: self.server(m),
                        bytes: chunk - seg.len,
                    },
                    &[fetch],
                )
            } else {
                fetch
            };
            let write = self.dag.add(
                StepKind::DriveWrite {
                    server: self.server(m),
                    bytes: seg.len,
                },
                &[read],
            );
            let src = if opts.pipeline {
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
            let delta = self.dag.add(
                StepKind::Xor {
                    node: self.node(m),
                    bytes: contrib_bytes,
                },
                &[src],
            );
            p_fwds.push((
                m,
                self.forward(m, p, contrib_bytes, delta, opts.peer_to_peer),
            ));
            if let Some((qm, _, _)) = q_side {
                // §5.2: the Q term is scaled by g^i on the data bdev.
                let scaled = self.dag.add(
                    StepKind::GfMul {
                        node: self.node(m),
                        bytes: contrib_bytes,
                    },
                    &[delta],
                );
                q_fwds.push((
                    m,
                    self.forward(m, qm, contrib_bytes, scaled, opts.peer_to_peer),
                ));
            }
        }
        if !rmw {
            // Untouched members contribute their resident chunks.
            let touched: BTreeSet<usize> = io.segments.iter().map(|s| s.member).collect();
            for k in 0..l.data_chunks() {
                let m = l.data_member(stripe, k);
                if touched.contains(&m) {
                    continue;
                }
                let ready = self.command(m, 0);
                let read = self.dag.add(
                    StepKind::DriveRead {
                        server: self.server(m),
                        bytes: chunk,
                    },
                    &[ready],
                );
                p_fwds.push((m, self.forward(m, p, chunk, read, opts.peer_to_peer)));
                if let Some((qm, _, _)) = q_side {
                    let scaled = self.dag.add(
                        StepKind::GfMul {
                            node: self.node(m),
                            bytes: chunk,
                        },
                        &[read],
                    );
                    q_fwds.push((m, self.forward(m, qm, chunk, scaled, opts.peer_to_peer)));
                }
            }
        }

        // Parity-side reduction and persist.
        let contrib = |rmw_len: u64| if rmw { rmw_len } else { chunk };
        self.reduce_and_write(
            io,
            p,
            &p_fwds,
            p_read,
            if rmw { extent } else { chunk },
            contrib(extent),
            false,
            opts.nonblocking,
        );
        if let Some((qm, _, q_read)) = q_side {
            self.reduce_and_write(
                io,
                qm,
                &q_fwds,
                q_read,
                if rmw { extent } else { chunk },
                contrib(extent),
                true,
                opts.nonblocking,
            );
        }
    }

    /// Forwards a partial-parity contribution from `from` to parity member
    /// `to`, peer-to-peer or detouring through the host under the ablation.
    fn forward(&mut self, from: usize, to: usize, bytes: u64, dep: usize, p2p: bool) -> usize {
        if p2p {
            self.xfer(self.node(from), self.node(to), bytes, &[dep])
        } else {
            let up = self.xfer(self.node(from), self.ctx.host, bytes, &[dep]);
            self.xfer(self.ctx.host, self.node(to), bytes, &[up])
        }
    }

    /// Parity member `pm` reduces arriving contributions and persists the
    /// result. Non-blocking (§5.2): each reduction depends only on its
    /// contribution's arrival; blocking ablation: a barrier joins every
    /// arrival (and the old-parity read) first.
    #[allow(clippy::too_many_arguments)]
    fn reduce_and_write(
        &mut self,
        io: &StripeIo,
        pm: usize,
        fwds: &[(usize, usize)],
        old_read: Option<usize>,
        write_bytes: u64,
        _contrib_bytes: u64,
        gf: bool,
        nonblocking: bool,
    ) {
        let barrier = if nonblocking {
            None
        } else {
            let mut deps: Vec<usize> = fwds.iter().map(|&(_, f)| f).collect();
            deps.extend(old_read);
            Some(self.dag.add(StepKind::Join, &deps))
        };
        let mut reduces = Vec::new();
        for &(m, fwd) in fwds {
            let seg_len = io
                .segments
                .iter()
                .find(|s| s.member == m)
                .map(|s| s.len)
                .unwrap_or(write_bytes);
            let deps = match barrier {
                Some(b) => vec![b],
                None => vec![fwd],
            };
            let kind = if gf {
                StepKind::GfMul {
                    node: self.node(pm),
                    bytes: seg_len.min(write_bytes).max(1),
                }
            } else {
                StepKind::Xor {
                    node: self.node(pm),
                    bytes: seg_len.min(write_bytes).max(1),
                }
            };
            reduces.push(self.dag.add(kind, &deps));
        }
        let mut wdeps = reduces;
        wdeps.extend(old_read);
        let write = self.dag.add(
            StepKind::DriveWrite {
                server: self.server(pm),
                bytes: write_bytes,
            },
            &wdeps,
        );
        self.callback(pm, &[write]);
    }

    /// Centralized partial-stripe write: old data/parity (RMW) or untouched
    /// chunks (reconstruct) are pulled to the host, parity math runs on the
    /// host cores, and new data + parity are pushed back out — every byte
    /// crossing the host NIC twice.
    fn central_partial_write(&mut self, io: &StripeIo, mode: WriteMode) {
        let stripe = io.stripe;
        let l = *self.ctx.layout;
        let p = l.p_member(stripe);
        let q = l.q_member(stripe);
        let chunk = l.chunk_size();
        let rmw = mode == WriteMode::ReadModifyWrite;
        let extent = if rmw { self.parity_extent(io) } else { chunk };
        let write_bytes = extent;

        let mut arrivals = Vec::new();
        let mut pulled = 0u64;
        // Each returned payload is a completion the host stack must process
        // (the per-verb software cost dRAID offloads to its controllers).
        let pull = |b: &mut Self, pulled: &mut u64, m: usize, bytes: u64| {
            *pulled += bytes;
            let ready = b.command(m, 0);
            let read = b.dag.add(
                StepKind::DriveRead {
                    server: b.server(m),
                    bytes,
                },
                &[ready],
            );
            let arrival = b.xfer(b.node(m), b.ctx.host, bytes, &[read]);
            b.dag.add(StepKind::PerIo { node: b.ctx.host }, &[arrival])
        };
        if rmw {
            for seg in io.segments.iter().copied() {
                arrivals.push(pull(self, &mut pulled, seg.member, seg.len));
            }
            arrivals.push(pull(self, &mut pulled, p, extent));
            if let Some(qm) = q {
                arrivals.push(pull(self, &mut pulled, qm, extent));
            }
        } else {
            let touched: BTreeSet<usize> = io.segments.iter().map(|s| s.member).collect();
            for k in 0..l.data_chunks() {
                let m = l.data_member(stripe, k);
                if !touched.contains(&m) {
                    arrivals.push(pull(self, &mut pulled, m, chunk));
                }
            }
            // Partially-covered chunks need their complements too.
            for seg in io.segments.iter().copied() {
                if !seg.covers_chunk(chunk) {
                    arrivals.push(pull(self, &mut pulled, seg.member, chunk - seg.len));
                }
            }
        }
        // The parity pass streams every input operand through the core: the
        // new data plus everything that was pulled (old data and old parity
        // for RMW, the chunk complements for reconstruct-write).
        let xor = self.dag.add(
            StepKind::Xor {
                node: self.ctx.host,
                bytes: io.bytes() + pulled,
            },
            &arrivals,
        );
        let q_gen = q.map(|_| {
            self.dag.add(
                StepKind::GfMul {
                    node: self.ctx.host,
                    bytes: io.bytes() + pulled,
                },
                &arrivals,
            )
        });

        // Phase two: only after every read has landed and parity math is done
        // may the host dispatch the writes — the old contents feed the delta,
        // so nothing can be overwritten while phase one is in flight.
        for seg in io.segments.iter().copied() {
            let ready = self.command_after(seg.member, seg.len, xor);
            let write = self.dag.add(
                StepKind::DriveWrite {
                    server: self.server(seg.member),
                    bytes: seg.len,
                },
                &[ready],
            );
            self.callback(seg.member, &[write]);
        }
        self.push_parity(p, write_bytes, xor);
        if let (Some(qm), Some(qg)) = (q, q_gen) {
            self.push_parity(qm, write_bytes, qg);
        }
    }

    /// Host ships `bytes` of freshly computed parity to member `pm`, which
    /// persists and acknowledges.
    fn push_parity(&mut self, pm: usize, bytes: u64, dep: usize) {
        let cmd = self.xfer(
            self.ctx.host,
            self.node(pm),
            self.ctx.cfg.command_bytes + bytes,
            &[dep],
        );
        let ready = self.dag.add(
            StepKind::PerIo {
                node: self.node(pm),
            },
            &[cmd],
        );
        let write = self.dag.add(
            StepKind::DriveWrite {
                server: self.server(pm),
                bytes,
            },
            &[ready],
        );
        self.callback(pm, &[write]);
    }

    /// dRAID degraded write: reconstruction-shaped regardless of the chosen
    /// mode. Healthy touched members persist their segments and contribute
    /// their full new chunks; untouched healthy members contribute resident
    /// chunks; segments on faulty members are shipped from the host straight
    /// to the surviving parity member(s), which recompute and persist —
    /// the lost chunk's content stays implied by parity until rebuild.
    fn draid_degraded_write(&mut self, io: &StripeIo) {
        let stripe = io.stripe;
        let l = *self.ctx.layout;
        let opts = self.ctx.cfg.draid;
        let chunk = l.chunk_size();
        let p = l.p_member(stripe);
        let q = l.q_member(stripe);
        let parities: Vec<(usize, bool)> = std::iter::once((p, false))
            .chain(q.map(|qm| (qm, true)))
            .filter(|&(m, _)| self.healthy(m))
            .collect();

        let mut contributions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); parities.len()];
        let touched: BTreeSet<usize> = io.segments.iter().map(|s| s.member).collect();

        let mut p_readies = Vec::new();
        for &(pm, _) in &parities {
            p_readies.push(self.command(pm, 0));
        }

        for seg in io.segments.iter().copied() {
            let m = seg.member;
            if self.healthy(m) {
                let fetch = self.command(m, seg.len);
                let src = if seg.covers_chunk(chunk) {
                    fetch
                } else {
                    self.dag.add(
                        StepKind::DriveRead {
                            server: self.server(m),
                            bytes: chunk - seg.len,
                        },
                        &[fetch],
                    )
                };
                let write = self.dag.add(
                    StepKind::DriveWrite {
                        server: self.server(m),
                        bytes: seg.len,
                    },
                    &[src],
                );
                self.callback(m, &[write]);
                for (slot, &(pm, gf)) in parities.iter().enumerate() {
                    let contrib = if gf {
                        self.dag.add(
                            StepKind::GfMul {
                                node: self.node(m),
                                bytes: chunk,
                            },
                            &[src],
                        )
                    } else {
                        src
                    };
                    let fwd = self.forward(m, pm, chunk, contrib, opts.peer_to_peer);
                    contributions[slot].push((m, fwd));
                }
            } else {
                // The dead member's new data goes straight to each parity.
                for (slot, &(pm, _)) in parities.iter().enumerate() {
                    let fwd = self.xfer(
                        self.ctx.host,
                        self.node(pm),
                        self.ctx.cfg.command_bytes + seg.len,
                        &[self.root],
                    );
                    contributions[slot].push((m, fwd));
                }
            }
        }
        for k in 0..l.data_chunks() {
            let m = l.data_member(stripe, k);
            if touched.contains(&m) || !self.healthy(m) {
                continue;
            }
            let ready = self.command(m, 0);
            let read = self.dag.add(
                StepKind::DriveRead {
                    server: self.server(m),
                    bytes: chunk,
                },
                &[ready],
            );
            for (slot, &(pm, gf)) in parities.iter().enumerate() {
                let contrib = if gf {
                    self.dag.add(
                        StepKind::GfMul {
                            node: self.node(m),
                            bytes: chunk,
                        },
                        &[read],
                    )
                } else {
                    read
                };
                let fwd = self.forward(m, pm, chunk, contrib, opts.peer_to_peer);
                contributions[slot].push((m, fwd));
            }
        }

        for (slot, &(pm, gf)) in parities.iter().enumerate() {
            let ready = p_readies[slot];
            let mut reduces = Vec::new();
            for &(_, fwd) in &contributions[slot] {
                let kind = if gf {
                    StepKind::GfMul {
                        node: self.node(pm),
                        bytes: chunk,
                    }
                } else {
                    StepKind::Xor {
                        node: self.node(pm),
                        bytes: chunk,
                    }
                };
                reduces.push(self.dag.add(kind, &[fwd, ready]));
            }
            let write = self.dag.add(
                StepKind::DriveWrite {
                    server: self.server(pm),
                    bytes: chunk,
                },
                &reduces,
            );
            self.callback(pm, &[write]);
        }
    }

    /// Centralized degraded write: untouched healthy chunks are pulled to
    /// the host, parity is recomputed there, and new data (healthy members
    /// only) plus parity are pushed out.
    fn central_degraded_write(&mut self, io: &StripeIo) {
        let stripe = io.stripe;
        let l = *self.ctx.layout;
        let chunk = l.chunk_size();
        let p = l.p_member(stripe);
        let q = l.q_member(stripe);
        let touched: BTreeSet<usize> = io.segments.iter().map(|s| s.member).collect();

        let mut arrivals = Vec::new();
        for k in 0..l.data_chunks() {
            let m = l.data_member(stripe, k);
            if touched.contains(&m) || !self.healthy(m) {
                continue;
            }
            let ready = self.command(m, 0);
            let read = self.dag.add(
                StepKind::DriveRead {
                    server: self.server(m),
                    bytes: chunk,
                },
                &[ready],
            );
            let arrival = self.xfer(self.node(m), self.ctx.host, chunk, &[read]);
            arrivals.push(self.dag.add(
                StepKind::PerIo {
                    node: self.ctx.host,
                },
                &[arrival],
            ));
        }
        for seg in io.segments.iter().copied() {
            if self.healthy(seg.member) && !seg.covers_chunk(chunk) {
                let ready = self.command(seg.member, 0);
                let read = self.dag.add(
                    StepKind::DriveRead {
                        server: self.server(seg.member),
                        bytes: chunk - seg.len,
                    },
                    &[ready],
                );
                let arrival = self.xfer(
                    self.node(seg.member),
                    self.ctx.host,
                    chunk - seg.len,
                    &[read],
                );
                arrivals.push(self.dag.add(
                    StepKind::PerIo {
                        node: self.ctx.host,
                    },
                    &[arrival],
                ));
            }
        }
        let xor = self.dag.add(
            StepKind::Xor {
                node: self.ctx.host,
                bytes: io.bytes() + chunk,
            },
            &arrivals,
        );
        let q_gen = q.filter(|&qm| self.healthy(qm)).map(|_| {
            self.dag.add(
                StepKind::GfMul {
                    node: self.ctx.host,
                    bytes: io.bytes() + chunk,
                },
                &arrivals,
            )
        });

        // Writes are phase two: the survivors' old chunks feed the parity
        // recompute, so no overwrite may race the pulls.
        for seg in io.segments.iter().copied() {
            if !self.healthy(seg.member) {
                continue;
            }
            let ready = self.command_after(seg.member, seg.len, xor);
            let write = self.dag.add(
                StepKind::DriveWrite {
                    server: self.server(seg.member),
                    bytes: seg.len,
                },
                &[ready],
            );
            self.callback(seg.member, &[write]);
        }
        if self.healthy(p) {
            self.push_parity(p, chunk, xor);
        }
        if let (Some(qm), Some(qg)) = (q.filter(|&qm| self.healthy(qm)), q_gen) {
            self.push_parity(qm, chunk, qg);
        }
    }
}
