//! Distributed colouring and matching pinned bit for bit.
//!
//! Distance-2 runs under `SimEngine` with the default Blue Gene/P cost
//! model on three graphs (a weighted grid, `circuit_like`, a star) ×
//! p ∈ {1, 3, 8} × superstep s ∈ {1, 16, 1000}. Each run is reduced to an
//! FNV-1a digest of the assembled colours, the round count, every rank's
//! `RankStats` (virtual time by its bits), `phases_executed` and
//! `total_recolored`. Any change to what distance-2 colours, sends,
//! charges or when moves a digest.
//!
//! The wire bytes of both distributed programs are pinned too: one
//! instance of every `ColorMsg` / `ColorSnap` variant and of every
//! `MatchMsg` / `MatchSnap` variant, encoded. Jones–Plassmann's snapshot
//! is pinned as one `JpSnap` record of each variant plus a digest of
//! every rank's encoded snapshot at every round edge of two runs.

use bytes::BytesMut;
use cmg_coloring::{
    assemble_coloring, ColorMsg, ColorSnap, DistColoring, Distance2, JonesPlassmann, JpSnap,
};
use cmg_graph::generators::{circuit_like, grid2d, star};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::CsrGraph;
use cmg_matching::{MatchMsg, MatchSnap};
use cmg_partition::simple::{block_partition, hash_partition};
use cmg_partition::{DistGraph, Partition};
use cmg_runtime::{encode_snapshot, EngineConfig, RankProgram, SimEngine, WireMessage};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of one distance-2 run of `g` over `p` hash-partitioned ranks.
fn d2_digest(g: &CsrGraph, p: u32, s: usize) -> u64 {
    let programs: Vec<DistColoring<Distance2>> =
        DistGraph::build_all(g, &hash_partition(g.num_vertices(), p, 5))
            .into_iter()
            .map(|dg| DistColoring::distance2(dg, s, 7))
            .collect();
    let result = SimEngine::new(programs, EngineConfig::default()).run();
    assert!(!result.hit_round_cap, "p={p} s={s}: did not quiesce");
    let mut h = Fnv::new();
    for &c in assemble_coloring(&result.programs, g.num_vertices()).colors() {
        h.u64(u64::from(c));
    }
    h.u64(result.stats.rounds);
    for r in &result.stats.per_rank {
        for x in [
            r.packets_sent,
            r.packets_received,
            r.messages_sent,
            r.messages_received,
            r.bytes_sent,
            r.bytes_received,
            r.work,
            r.rounds_active,
            r.virtual_time.to_bits(),
        ] {
            h.u64(x);
        }
    }
    for q in &result.programs {
        h.u64(u64::from(q.phases_executed));
        h.u64(q.total_recolored);
    }
    h.0
}

#[test]
fn distance2_runs_are_pinned() {
    let graphs = [
        (
            "weighted grid",
            assign_weights(
                &grid2d(16, 16),
                WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
                3,
            ),
        ),
        ("circuit_like", circuit_like(600, 4)),
        ("star", star(30)),
    ];
    let mut got = Vec::new();
    for (name, g) in &graphs {
        for p in [1u32, 3, 8] {
            for s in [1usize, 16, 1000] {
                got.push((*name, p, s, d2_digest(g, p, s)));
            }
        }
    }
    for row in &got {
        println!("0x{:016x}, // {} p={} s={}", row.3, row.0, row.1, row.2);
    }
    let want: [u64; 27] = [
        0x15b8617d919d5491, // weighted grid p=1 s=1
        0x6ff68c43663c2da3, // weighted grid p=1 s=16
        0x32cecfb842496b23, // weighted grid p=1 s=1000
        0x55168937968664a4, // weighted grid p=3 s=1
        0x39d32875e700389f, // weighted grid p=3 s=16
        0xf59de809bb304a35, // weighted grid p=3 s=1000
        0xa9ddba678ba24c45, // weighted grid p=8 s=1
        0xf191f35e639aa7e6, // weighted grid p=8 s=16
        0xea16303fd67c3653, // weighted grid p=8 s=1000
        0xe7ddaa213cda3f58, // circuit_like p=1 s=1
        0x5d53bf08d410a61c, // circuit_like p=1 s=16
        0x52d8a199583f0194, // circuit_like p=1 s=1000
        0x400d03240b25f0e1, // circuit_like p=3 s=1
        0x7b32dc583f14792c, // circuit_like p=3 s=16
        0xd35d4072a3ef9bb5, // circuit_like p=3 s=1000
        0x83d5740f01490ac3, // circuit_like p=8 s=1
        0xcaced91fe1909ce5, // circuit_like p=8 s=16
        0x3323e4dbaf9bb618, // circuit_like p=8 s=1000
        0x45172700ab68c2a5, // star p=1 s=1
        0x56bdd593e80c6c4e, // star p=1 s=16
        0xb1ccd9dfd03ff23b, // star p=1 s=1000
        0x63abc3cacc82e08a, // star p=3 s=1
        0x2e87031a31fadad4, // star p=3 s=16
        0x2e87031a31fadad4, // star p=3 s=1000
        0x8e146d6b446bbf2b, // star p=8 s=1
        0x158acd631ef35f95, // star p=8 s=16
        0x158acd631ef35f95, // star p=8 s=1000
    ];
    for (row, &w) in got.iter().zip(&want) {
        assert_eq!(row.3, w, "{} p={} s={}", row.0, row.1, row.2);
    }
}

fn encoded<M: WireMessage>(m: &M) -> Vec<u8> {
    let mut buf = BytesMut::new();
    m.encode(&mut buf);
    buf.to_vec()
}

#[test]
fn distance1_wire_bytes_are_pinned() {
    let msgs: [(ColorMsg, &[u8]); 5] = [
        (
            ColorMsg::Color {
                v: 0x0102_0304,
                color: 5,
            },
            &[0, 4, 3, 2, 1, 5, 0, 0, 0],
        ),
        (ColorMsg::Empty, &[1]),
        (ColorMsg::Done { phase: 6 }, &[2, 6, 0, 0, 0]),
        (
            ColorMsg::Reduce {
                phase: 7,
                count: 0x0809,
            },
            &[3, 7, 0, 0, 0, 9, 8, 0, 0, 0, 0, 0, 0],
        ),
        (
            ColorMsg::Bcast {
                phase: 10,
                count: 11,
            },
            &[4, 10, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0],
        ),
    ];
    for (m, want) in msgs {
        assert_eq!(encoded(&m), want, "{m:?}");
    }
    let snaps: [(ColorSnap, &[u8]); 5] = [
        (
            ColorSnap::Head {
                phase: 1,
                state: 2,
                phases_executed: 3,
                total_recolored: 4,
                flags: 5,
                my_conflicts: 6,
                u_pos: 7,
            },
            &[
                0, 1, 0, 0, 0, 2, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 5, 6, 0, 0, 0, 0, 0, 0, 0, 7,
                0, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            ColorSnap::Colored { idx: 8, color: 9 },
            &[1, 8, 0, 0, 0, 9, 0, 0, 0],
        ),
        (ColorSnap::Pending { v: 10 }, &[2, 10, 0, 0, 0]),
        (
            ColorSnap::DoneCount {
                phase: 12,
                count: 13,
            },
            &[4, 12, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            ColorSnap::Reduce {
                phase: 14,
                count: 15,
                value: 16,
            },
            &[
                5, 14, 0, 0, 0, 15, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
    ];
    for (s, want) in snaps {
        assert_eq!(encoded(&s), want, "{s:?}");
    }
    // Tag 3, the retired usage-table record, is not reused: it no longer
    // decodes.
    let retired: &[u8] = &[3, 11, 0, 0, 0, 0, 0, 0, 0];
    assert_eq!(ColorSnap::decode(&mut &retired[..]), None);
}

#[test]
fn matching_wire_bytes_are_pinned() {
    let msgs: [(MatchMsg, &[u8]); 3] = [
        (
            MatchMsg::Request {
                from: 0x0102_0304,
                to: 5,
            },
            &[0, 4, 3, 2, 1, 5, 0, 0, 0],
        ),
        (
            MatchMsg::Succeeded { from: 6, to: 7 },
            &[1, 6, 0, 0, 0, 7, 0, 0, 0],
        ),
        (
            MatchMsg::Failed { from: 8, to: 9 },
            &[2, 8, 0, 0, 0, 9, 0, 0, 0],
        ),
    ];
    for (m, want) in msgs {
        assert_eq!(encoded(&m), want, "{m:?}");
    }
    let snaps: [(MatchSnap, &[u8]); 5] = [
        (
            MatchSnap::Vertex {
                ptr: 0x0a0b,
                state: 2,
                mate: 12,
                candidate: 13,
            },
            &[0, 11, 10, 0, 0, 0, 0, 0, 0, 2, 12, 0, 0, 0, 13, 0, 0, 0],
        ),
        (MatchSnap::Ghost { idx: 14, state: 1 }, &[1, 14, 0, 0, 0, 1]),
        (
            MatchSnap::Proposal {
                v: 15,
                requester: 16,
            },
            &[2, 15, 0, 0, 0, 16, 0, 0, 0],
        ),
        (MatchSnap::Queued { idx: 17 }, &[3, 17, 0, 0, 0]),
        (
            MatchSnap::Counts {
                requests: 18,
                succeeded: 19,
                failed: 20,
            },
            &[
                4, 18, 0, 0, 0, 0, 0, 0, 0, 19, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
    ];
    for (s, want) in snaps {
        assert_eq!(encoded(&s), want, "{s:?}");
    }
}

#[test]
fn jp_snapshot_bytes_are_pinned() {
    let colors = JpSnap::Colors {
        base: 0x0102_0304,
        c0: 5,
        c1: 6,
        c2: 7,
        c3: 8,
        c4: 9,
        c5: 10,
        c6: 11,
        c7: u32::MAX,
    };
    assert_eq!(
        encoded(&colors),
        [
            0, 4, 3, 2, 1, 5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0, 10, 0, 0, 0,
            11, 0, 0, 0, 255, 255, 255, 255,
        ]
    );
    assert_eq!(encoded(&JpSnap::Pending { v: 12 }), [1, 12, 0, 0, 0]);
}

/// FNV-1a digest and total length of every rank's encoded snapshot after
/// Jones–Plassmann runs capped at 1, 2, … rounds, up to the first run
/// that quiesces.
fn jp_snapshot_digest(g: &CsrGraph, partition: &Partition) -> (u64, usize) {
    let (mut h, mut len) = (Fnv::new(), 0);
    for max_rounds in 1.. {
        let programs: Vec<JonesPlassmann> = DistGraph::build_all(g, partition)
            .into_iter()
            .map(|dg| JonesPlassmann::new(dg, 9))
            .collect();
        let cfg = EngineConfig {
            max_rounds,
            ..Default::default()
        };
        let result = SimEngine::new(programs, cfg).run();
        for q in &result.programs {
            let mut bytes = Vec::new();
            encode_snapshot(&q.snapshot(), &mut bytes);
            h.bytes(&bytes);
            len += bytes.len();
        }
        if !result.hit_round_cap {
            break;
        }
    }
    (h.0, len)
}

#[test]
fn jp_snapshots_are_pinned() {
    let grid = grid2d(40, 40);
    let circuit = circuit_like(3000, 3);
    let got = [
        jp_snapshot_digest(&grid, &block_partition(1600, 4)),
        jp_snapshot_digest(&circuit, &hash_partition(circuit.num_vertices(), 6, 2)),
    ];
    assert_eq!(got[0], (0x8d6f_b229_6f8b_d87f, 109_698), "grid");
    assert_eq!(got[1], (0x5d1f_53c5_147a_4e24, 692_174), "circuit_like");
}
