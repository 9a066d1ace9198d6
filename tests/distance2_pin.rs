//! The wire bytes of both distributed colouring and matching programs,
//! pinned: one instance of every `ColorMsg` / `ColorSnap` variant and of
//! every `MatchMsg` / `MatchSnap` variant, encoded. Jones–Plassmann's
//! snapshot is pinned as one `JpSnap` record of each variant plus a
//! digest of every rank's encoded snapshot at every round edge of two
//! runs. Whole runs are pinned by the sweep (`tests/sweep.rs`); its
//! distance-2 slice is checked here too.

mod sweep_harness;

use bytes::BytesMut;
use cmg_coloring::{ColorMsg, ColorSnap, JonesPlassmann, JpSnap};
use cmg_graph::generators::{circuit_like, grid2d};
use cmg_graph::CsrGraph;
use cmg_matching::{MatchMsg, MatchSnap};
use cmg_obs::Fnv1a;
use cmg_partition::simple::{block_partition, hash_partition};
use cmg_partition::{DistGraph, Partition};
use cmg_runtime::{encode_snapshot, EngineConfig, RankProgram, SimEngine, WireMessage};

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
    let (mut h, mut len) = (Fnv1a::new(), 0);
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
    (h.finish(), len)
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

/// The sweep's restored distance-2 cells and those under the other
/// delivery orders: their relations hold and their digests are the pinned
/// ones.
#[test]
fn distance2_runs_are_pinned() {
    use sweep_harness::{check_small_tier, os_scheduled};
    check_small_tier("distance2_runs_are_pinned", os_scheduled);
}
