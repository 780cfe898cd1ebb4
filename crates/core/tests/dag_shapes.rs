//! Structural tests of the per-system operation DAGs: the paper's data-path
//! claims, asserted on the graphs themselves (independent of timing).

use std::collections::BTreeSet;

use draid_block::ServerId;
use draid_core::protocol::{Command, Dest, Opcode, Subtype};
use draid_core::target::handle_data_chunk;
use draid_core::{
    build_dag, ArrayConfig, BuildCtx, Dag, DraidOptions, Layout, Purpose, RaidLevel, Segment,
    StepKind, StripeIo, SystemKind, WriteMode,
};
use draid_net::NodeId;

const KIB: u64 = 1024;

struct Fixture {
    cfg: ArrayConfig,
    layout: Layout,
    nodes: Vec<NodeId>,
    servers: Vec<ServerId>,
}

impl Fixture {
    fn new(system: SystemKind, level: RaidLevel) -> Self {
        let mut cfg = ArrayConfig::paper_default(system);
        cfg.level = level;
        cfg.width = 8;
        cfg.chunk_size = 512 * KIB;
        let layout = Layout::new(&cfg);
        Fixture {
            cfg,
            layout,
            // Host is node 0; member m lives on node m+1 (cluster layout).
            nodes: (1..=8).map(NodeId).collect(),
            servers: (0..8).map(ServerId).collect(),
        }
    }

    fn ctx<'a>(&'a self, faulty: &'a BTreeSet<usize>, reducer: Option<usize>) -> BuildCtx<'a> {
        BuildCtx {
            cfg: &self.cfg,
            layout: &self.layout,
            host: NodeId(0),
            nodes: &self.nodes,
            servers: &self.servers,
            faulty,
            reducer,
        }
    }
}

const HOST: NodeId = NodeId(0);

#[test]
fn draid_rmw_host_sends_only_new_data() {
    // §2.3/Table 1: the host NIC carries exactly the new data (plus tiny
    // commands) on a partial-stripe write; partial parities flow
    // peer-to-peer.
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 128 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    let sent = dag.bytes_sent_by(HOST);
    let recv = dag.bytes_received_by(HOST);
    assert!(
        sent < 128 * KIB + 4 * KIB,
        "host egress {sent} should be ~payload"
    );
    assert!(
        recv < 4 * KIB,
        "host ingress {recv} should be callbacks only"
    );
    // Exactly one peer transfer of the partial parity to the P bdev.
    let p_node = fx.nodes[fx.layout.p_member(0)];
    let peer_bytes = dag.bytes_received_by(p_node);
    assert_eq!(peer_bytes, 128 * KIB + fx.cfg.command_bytes);
}

#[test]
fn centralized_rmw_host_carries_four_copies() {
    let fx = Fixture::new(SystemKind::SpdkRaid, RaidLevel::Raid5);
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 128 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    // In: old data + old parity. Out: new data + new parity (+ commands).
    assert!(dag.bytes_received_by(HOST) >= 2 * 128 * KIB);
    assert!(dag.bytes_sent_by(HOST) >= 2 * 128 * KIB);
}

#[test]
fn draid_raid6_forwards_partials_to_p_and_q() {
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid6);
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 128 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    let p_node = fx.nodes[fx.layout.p_member(0)];
    let q_node = fx.nodes[fx.layout.q_member(0).expect("raid6")];
    assert!(dag.bytes_received_by(p_node) >= 128 * KIB);
    assert!(dag.bytes_received_by(q_node) >= 128 * KIB);
    // The Q term is scaled by g^i on the data bdev before forwarding.
    assert!(dag.count_steps(|k| matches!(k, StepKind::GfMul { .. })) >= 1);
    // Host still sends only the data (+ capsules) — the RAID-6 advantage.
    assert!(dag.bytes_sent_by(HOST) < 128 * KIB + 4 * KIB);
}

#[test]
fn draid_rcw_reads_untouched_chunks_remotely() {
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    let none = BTreeSet::new();
    // 2048 KiB = 4 of 7 chunks -> reconstruct write.
    let io = &fx.layout.map(0, 2048 * KIB)[0];
    assert_eq!(fx.layout.write_mode(io), WriteMode::ReconstructWrite);
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReconstructWrite,
            degraded: false,
        },
        io,
    );
    // 3 untouched members read full chunks; 4 touched write their segments.
    let reads = dag.count_steps(|k| matches!(k, StepKind::DriveRead { .. }));
    let writes = dag.count_steps(|k| matches!(k, StepKind::DriveWrite { .. }));
    assert_eq!(reads, 3, "untouched chunks read locally");
    assert_eq!(writes, 5, "4 data writes + parity write");
    // Untouched chunks never cross the host NIC.
    assert!(dag.bytes_received_by(HOST) < 4 * KIB);
}

#[test]
fn degraded_read_normal_segments_bypass_reducer() {
    // §6.1: normal read data goes straight to the host; only reconstruction
    // partials go to the reducer.
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    let victim = fx.layout.data_member(0, 1);
    let faulty: BTreeSet<usize> = [victim].into();
    let reducer = fx.layout.p_member(0);
    // Read two chunks: one on the failed member, one healthy.
    let io = &fx.layout.map(0, 1024 * KIB)[0];
    assert!(io.segments.iter().any(|s| s.member == victim));
    let dag = build_dag(
        &fx.ctx(&faulty, Some(reducer)),
        Purpose::Read { degraded: true },
        io,
    );
    // Host receives: healthy segment (512 KiB) + reconstructed segment
    // (512 KiB) + nothing else.
    let recv = dag.bytes_received_by(HOST);
    assert_eq!(recv, 1024 * KIB);
    // The reducer receives one partial per other survivor (width-2 of them).
    let reducer_in = dag.bytes_received_by(fx.nodes[reducer]);
    assert_eq!(
        reducer_in,
        6 * 512 * KIB + fx.cfg.command_bytes,
        "6 peers stream partials to the reducer"
    );
    // The failed member is never touched.
    assert_eq!(
        dag.count_steps(|k| matches!(
            k,
            StepKind::DriveRead { server, .. } | StepKind::DriveWrite { server, .. }
            if *server == fx.servers[victim]
        )),
        0
    );
}

#[test]
fn centralized_degraded_read_pulls_survivors_to_host() {
    let fx = Fixture::new(SystemKind::SpdkRaid, RaidLevel::Raid5);
    let victim = fx.layout.data_member(0, 0);
    let faulty: BTreeSet<usize> = [victim].into();
    let io = &fx.layout.map(0, 512 * KIB)[0];
    let dag = build_dag(&fx.ctx(&faulty, None), Purpose::Read { degraded: true }, io);
    // Table 1 "Nx": all 7 survivors' extents land on the host.
    assert_eq!(dag.bytes_received_by(HOST), 7 * 512 * KIB);
}

#[test]
fn degraded_write_skips_dead_member_and_keeps_parity() {
    for system in [SystemKind::Draid, SystemKind::SpdkRaid] {
        let fx = Fixture::new(system, RaidLevel::Raid5);
        let victim = fx.layout.data_member(0, 0);
        let faulty: BTreeSet<usize> = [victim].into();
        let io = &fx.layout.map(0, 512 * KIB)[0]; // exactly the dead chunk
        let dag = build_dag(
            &fx.ctx(&faulty, None),
            Purpose::Write {
                mode: WriteMode::ReadModifyWrite,
                degraded: true,
            },
            io,
        );
        // No I/O on the dead drive; the parity drive is written.
        assert_eq!(
            dag.count_steps(|k| matches!(
                k,
                StepKind::DriveWrite { server, .. } if *server == fx.servers[victim]
            )),
            0,
            "{system:?}"
        );
        let p_server = fx.servers[fx.layout.p_member(0)];
        assert!(
            dag.count_steps(|k| matches!(
                k,
                StepKind::DriveWrite { server, .. } if *server == p_server
            )) == 1,
            "{system:?}: parity must be updated"
        );
    }
}

#[test]
fn full_stripe_write_has_no_remote_reads() {
    for system in [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid] {
        let fx = Fixture::new(system, RaidLevel::Raid5);
        let none = BTreeSet::new();
        let io = &fx.layout.map(0, fx.layout.stripe_data_bytes())[0];
        let dag = build_dag(
            &fx.ctx(&none, None),
            Purpose::Write {
                mode: WriteMode::FullStripe,
                degraded: false,
            },
            io,
        );
        assert_eq!(
            dag.count_steps(|k| matches!(k, StepKind::DriveRead { .. })),
            0,
            "{system:?}: §3 — full stripe writes read nothing"
        );
        // Host computes parity and ships data + parity.
        assert!(dag.count_steps(|k| matches!(k, StepKind::Xor { node, .. } if *node == HOST)) == 1);
        assert_eq!(
            dag.count_steps(|k| matches!(k, StepKind::DriveWrite { .. })),
            8
        );
    }
}

#[test]
fn pipeline_ablation_serializes_and_drops_bdev_callbacks() {
    let fx_pipe = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    let mut fx_serial = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    fx_serial.cfg.draid = DraidOptions {
        pipeline: false,
        ..DraidOptions::default()
    };
    let none = BTreeSet::new();
    let io = &fx_pipe.layout.map(0, 128 * KIB)[0];
    let purpose = Purpose::Write {
        mode: WriteMode::ReadModifyWrite,
        degraded: false,
    };
    let piped = build_dag(&fx_pipe.ctx(&none, None), purpose, io);
    let serial = build_dag(&fx_serial.ctx(&none, None), purpose, io);
    // Pipelined: data bdev callback + parity callback. Serial: parity only.
    let cbs = |dag: &draid_core::Dag| {
        dag.count_steps(|k| {
            matches!(k, StepKind::Transfer { to, bytes, .. }
            if *to == HOST && *bytes == fx_pipe.cfg.callback_bytes)
        })
    };
    assert_eq!(cbs(&piped), 2);
    assert_eq!(cbs(&serial), 1);
}

#[test]
fn blocking_ablation_adds_barrier() {
    let mut fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    fx.cfg.draid = DraidOptions {
        nonblocking: false,
        ..DraidOptions::default()
    };
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 1024 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    assert!(
        dag.count_steps(|k| matches!(k, StepKind::Join)) >= 1,
        "barrier join present in blocking mode"
    );
}

#[test]
fn p2p_ablation_routes_partials_through_host() {
    let mut fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid5);
    fx.cfg.draid = DraidOptions {
        peer_to_peer: false,
        ..DraidOptions::default()
    };
    let none = BTreeSet::new();
    let io = &fx.layout.map(0, 128 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&none, None),
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        },
        io,
    );
    // The partial parity now crosses the host: ingress grows by its size.
    assert!(dag.bytes_received_by(HOST) >= 128 * KIB);
}

#[test]
fn raid6_degraded_read_uses_q_when_p_is_lost() {
    let fx = Fixture::new(SystemKind::Draid, RaidLevel::Raid6);
    let victim_data = fx.layout.data_member(0, 0);
    let victim_p = fx.layout.p_member(0);
    let q = fx.layout.q_member(0).expect("raid6");
    let faulty: BTreeSet<usize> = [victim_data, victim_p].into();
    let io = &fx.layout.map(0, 512 * KIB)[0];
    let dag = build_dag(
        &fx.ctx(&faulty, Some(q)),
        Purpose::Read { degraded: true },
        io,
    );
    // Q participates in the reconstruction (its drive is read)...
    assert!(
        dag.count_steps(|k| matches!(
            k,
            StepKind::DriveRead { server, .. } if *server == fx.servers[q]
        )) == 1,
        "Q must stand in for the lost P"
    );
    // ...and neither failed member is touched.
    for victim in [victim_data, victim_p] {
        assert_eq!(
            dag.count_steps(|k| matches!(
                k,
                StepKind::DriveRead { server, .. } | StepKind::DriveWrite { server, .. }
                if *server == fx.servers[victim]
            )),
            0
        );
    }
}

/// Per-member bytes of a dRAID write DAG, in `DataChunkPlan` terms: drive
/// read, drive write, fetched payload, and partials forwarded to P and Q.
fn member_bytes(fx: &Fixture, dag: &Dag, m: usize, p: usize, q: Option<usize>) -> [u64; 5] {
    let (node, server) = (fx.nodes[m], fx.servers[m]);
    let mut out = [0; 5];
    for (_, step) in dag.iter() {
        match step.kind {
            StepKind::DriveRead { server: s, bytes } if s == server => out[0] += bytes,
            StepKind::DriveWrite { server: s, bytes } if s == server => out[1] += bytes,
            StepKind::Transfer { from, to, bytes } if from == HOST && to == node => {
                out[2] += bytes - fx.cfg.command_bytes;
            }
            StepKind::Transfer { from, to, bytes } if from == node && to == fx.nodes[p] => {
                out[3] += bytes;
            }
            StepKind::Transfer { from, to, bytes }
                if from == node && Some(to) == q.map(|q| fx.nodes[q]) =>
            {
                out[4] += bytes;
            }
            _ => {}
        }
    }
    out
}

#[test]
fn draid_write_members_follow_algorithm_1() {
    // One stripe write touching data chunk 0 partly (its last 64 KiB), chunk
    // 1 fully and chunk 2 partly (its first 32 KiB); the rest are untouched.
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        for mode in [WriteMode::ReadModifyWrite, WriteMode::ReconstructWrite] {
            for pipeline in [true, false] {
                let mut fx = Fixture::new(SystemKind::Draid, level);
                fx.cfg.draid.pipeline = pipeline;
                let chunk = fx.layout.chunk_size();
                let io = &fx.layout.map(chunk - 64 * KIB, 64 * KIB + chunk + 32 * KIB)[0];
                let none = BTreeSet::new();
                let purpose = Purpose::Write {
                    mode,
                    degraded: false,
                };
                let dag = build_dag(&fx.ctx(&none, None), purpose, io);
                let (p, q) = (fx.layout.p_member(0), fx.layout.q_member(0));
                for k in 0..fx.layout.data_chunks() {
                    let m = fx.layout.data_member(0, k);
                    let seg = io.segments.iter().find(|s| s.member == m);
                    let got = member_bytes(&fx, &dag, m, p, q);
                    let case = format!("{level:?} {mode:?} pipeline={pipeline} chunk {k}");
                    if mode == WriteMode::ReadModifyWrite && seg.is_none() {
                        assert_eq!(got, [0; 5], "{case}: untouched in RMW");
                        continue;
                    }
                    let (offset, length) = seg.map_or((0, 0), |s| (s.offset, s.len));
                    let (fwd_offset, fwd_length) = match mode {
                        WriteMode::ReadModifyWrite => (offset, length),
                        _ => (0, chunk),
                    };
                    let plan = handle_data_chunk(&Command {
                        id: 1,
                        opcode: Opcode::PartialWrite,
                        nsid: 0,
                        subtype: Some(Subtype::for_write_mode(mode, seg.is_some())),
                        offset,
                        length,
                        fwd_offset,
                        fwd_length,
                        next_dest: Some(Dest { member: p as u32 }),
                        wait_num: 0,
                        next_dest2: q.map(|q| Dest { member: q as u32 }),
                        data_idx: k as u32,
                    });
                    let len = |extent: Option<(u64, u64)>| extent.map_or(0, |(_, len)| len);
                    let fwd = plan.forward.expect("every data member forwards").fwd_length;
                    let want = [
                        len(plan.drive_read),
                        len(plan.drive_write),
                        len(plan.fetch),
                        fwd,
                        if q.is_some() { fwd } else { 0 },
                    ];
                    assert_eq!(got, want, "{case}: [read, write, fetch, to P, to Q]");
                }
            }
        }
    }
}

#[test]
fn rebuild_and_scrub_stream_chunks_to_one_member_in_every_system() {
    // Rebuild (§6 reconstruction plus a spare write) and scrub never touch
    // the host's data path, so their DAGs are the same for every system.
    let spare = ServerId(8);
    let spare_node = NodeId(9);
    for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
        let fxs = [SystemKind::Draid, SystemKind::SpdkRaid, SystemKind::LinuxMd]
            .map(|system| Fixture::new(system, level));
        let fx = &fxs[0];
        let (l, chunk) = (&fx.layout, fx.layout.chunk_size());
        let p = l.p_member(0);
        let count = |dag: &Dag, step: StepKind| dag.count_steps(|k| *k == step);
        let reads = |dag: &Dag, m: usize| {
            let server = fx.servers[m];
            count(
                dag,
                StepKind::DriveRead {
                    server,
                    bytes: chunk,
                },
            )
        };
        let sends = |dag: &Dag, m: usize, to: NodeId| {
            let from = fx.nodes[m];
            count(
                dag,
                StepKind::Transfer {
                    from,
                    to,
                    bytes: chunk,
                },
            )
        };
        for victim in 0..8 {
            let faulty: BTreeSet<usize> = [victim].into();
            let case = format!("{level:?} victim {victim}");

            let participants: Vec<usize> = (0..l.data_chunks())
                .map(|k| l.data_member(0, k))
                .chain([p])
                .filter(|&m| m != victim)
                .collect();
            let segment = Segment {
                data_index: l.data_index_of(0, victim).unwrap_or(0),
                member: victim,
                offset: 0,
                len: chunk,
            };
            let io = StripeIo::new(0, 0, vec![segment]);
            let purpose = Purpose::Rebuild { spare, spare_node };
            for &reducer in &participants {
                let dags = fxs
                    .each_ref()
                    .map(|fx| build_dag(&fx.ctx(&faulty, Some(reducer)), purpose, &io));
                let dag = &dags[0];
                assert!(dags.iter().all(|d| d == dag), "{case}: same DAG per system");
                let case = format!("{case} reducer {reducer}");
                for m in 0..8 {
                    let participant = participants.contains(&m);
                    let forwards = participant && m != reducer;
                    assert_eq!(reads(dag, m), usize::from(participant), "{case}: {m} reads");
                    let sent = sends(dag, m, fx.nodes[reducer]);
                    assert_eq!(sent, usize::from(forwards), "{case}: {m} forwards");
                }
                let node = fx.nodes[reducer];
                let xors = count(dag, StepKind::Xor { node, bytes: chunk });
                assert_eq!(xors, participants.len(), "{case}: one XOR per participant");
                assert_eq!(sends(dag, reducer, spare_node), 1, "{case}: to the spare");
                let writes = dag.count_steps(|k| matches!(k, StepKind::DriveWrite { .. }));
                let to_spare = count(
                    dag,
                    StepKind::DriveWrite {
                        server: spare,
                        bytes: chunk,
                    },
                );
                assert_eq!(
                    (writes, to_spare),
                    (1, 1),
                    "{case}: only the spare is written"
                );
            }

            let io = StripeIo::new(0, 0, Vec::new());
            let dags = fxs
                .each_ref()
                .map(|fx| build_dag(&fx.ctx(&faulty, None), Purpose::Scrub, &io));
            let dag = &dags[0];
            assert!(dags.iter().all(|d| d == dag), "{case}: same DAG per system");
            for m in 0..8 {
                let healthy = m != victim;
                assert_eq!(reads(dag, m), usize::from(healthy), "{case}: {m} reads");
                let sent = sends(dag, m, fx.nodes[p]);
                assert_eq!(sent, usize::from(healthy && m != p), "{case}: {m} forwards");
            }
        }
    }
}
