//! The launch-path payloads are pinned byte for byte: FNV-1a digests of
//! `encode_assignment` and `encode_outcome` over fixed slices — a weighted
//! grid, a hash-partitioned unweighted RMAT graph, and an assignment with
//! a resume section — recorded from the per-element encoders the bulk
//! array codecs replaced. Any drift in the bytes a slice encodes to moves
//! a digest, so the wire stays what older and newer builds both read.
//!
//! Protocol v8 changed two things on purpose, and the v7 digests still
//! hold for everything else: an assignment lost its bundling and
//! telemetry flag bytes (put back, the old bytes come out), and an
//! outcome gained the rank's summary after its pairs (cut off, likewise).
//!
//! The wire surface is pinned per protocol version: a digest of the
//! declared tables (`WIRE_SHAPE`) of the control frames and of the
//! checkpoint records that ride inside them.

use cmg_coloring::{ColorSnap, ColoringConfig, CommVariant, JpSnap};
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_graph::{generators, CsrGraph};
use cmg_matching::MatchSnap;
use cmg_net::proto::{decode_assignment, decode_outcome, encode_assignment, encode_outcome};
use cmg_net::{
    encode_checkpoint, Assignment, CheckpointState, Ctrl, FaultPlan, NetTask, ResumeFrom,
    RunOptions, WorkerOutcome, PROTO_VERSION,
};
use cmg_obs::Fnv1a;
use cmg_partition::simple::{block_partition, hash_partition};
use cmg_partition::DistGraph;

fn weighted_grid() -> Vec<DistGraph> {
    let g = assign_weights(
        &generators::grid2d(32, 32),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        7,
    );
    DistGraph::build_all(&g, &block_partition(g.num_vertices(), 4))
}

fn hashed_rmat() -> Vec<DistGraph> {
    let g: CsrGraph = generators::rmat(10, 8, (0.57, 0.19, 0.19, 0.05), 3);
    DistGraph::build_all(&g, &hash_partition(g.num_vertices(), 4, 3))
}

fn options() -> RunOptions {
    RunOptions {
        observed: true,
        max_rounds: 777,
        heartbeat_millis: 40,
        gap_deadline_millis: 900,
        fault: FaultPlan {
            seed: 5,
            drop_per_mille: 1,
            dup_per_mille: 2,
            delay_per_mille: 3,
            delay_depth: 4,
        },
        die_at_round: 9,
        run_id: 0x0123_4567_89ab_cdef,
        checkpoint_every: 2,
    }
}

/// Bytes of the encoded run options: `observed`, three `u64` limits, the
/// fault plan (24), `die_at_round`, `run_id` and `checkpoint_every`.
const OPTIONS_LEN: usize = 73;

/// Digest and total length of every rank's encoded assignment, then of
/// the same bytes in the v7 layout, checking on the way that each one
/// decodes back to what was encoded.
fn assignment_digest(parts: Vec<DistGraph>, task: NetTask, resume: bool) -> [(u64, usize); 2] {
    let (mut all, mut v7) = (Vec::new(), Vec::new());
    for dg in parts {
        let resume = resume.then(|| {
            let mut ck = CheckpointState {
                round: 6,
                program: (0..=dg.rank as u8 * 40).collect(),
                ..CheckpointState::default()
            };
            ck.stats.work = u64::from(dg.rank) * 1000 + 17;
            ck.transport.writer_next_seq = vec![0, 3, 5, 8];
            ResumeFrom {
                round: 6,
                payload: encode_checkpoint(&ck),
            }
        });
        let a = Assignment {
            dg,
            task,
            opts: options(),
            resume,
        };
        let bytes = encode_assignment(&a);
        assert_eq!(decode_assignment(&bytes).expect("decodes"), a);
        all.extend_from_slice(&bytes);
        // v7 had a bundling flag ahead of the options and a telemetry flag
        // ahead of `checkpoint_every`, both set.
        let resume_len = a.resume.as_ref().map_or(1, |r| 17 + r.payload.len());
        let at = bytes.len() - resume_len - OPTIONS_LEN;
        let telemetry_at = at + OPTIONS_LEN - 8;
        v7.extend_from_slice(&bytes[..at]);
        v7.push(1);
        v7.extend_from_slice(&bytes[at..telemetry_at]);
        v7.push(1);
        v7.extend_from_slice(&bytes[telemetry_at..]);
    }
    [(Fnv1a::hash(&all), all.len()), (Fnv1a::hash(&v7), v7.len())]
}

#[test]
fn assignment_bytes_are_pinned() {
    let coloring = NetTask::Coloring(ColoringConfig {
        superstep_size: 11,
        comm: CommVariant::Fiac,
        seed: 42,
    });
    let got = [
        assignment_digest(weighted_grid(), NetTask::Matching, false),
        assignment_digest(hashed_rmat(), coloring, false),
        assignment_digest(weighted_grid(), NetTask::JonesPlassmann { seed: 8 }, true),
    ];
    let want = [
        [
            (0x56d8_4655_1672_8214, 63_108),
            (0xe040_5a85_256d_6e94, 63_116),
        ],
        [
            (0xe79e_76fd_bdfb_2055, 75_824),
            (0xd456_769d_d695_5185, 75_832),
        ],
        [
            (0xdbe6_7cab_7d7c_c4ac, 64_088),
            (0xfa67_e04c_e4b4_1074, 64_096),
        ],
    ];
    assert_eq!(got, want);
}

#[test]
fn outcome_bytes_are_pinned() {
    let (mut all, mut v7) = (Vec::new(), Vec::new());
    for dg in hashed_rmat() {
        let owned = &dg.global_ids[..dg.n_local];
        let mates = WorkerOutcome::Matching {
            pairs: owned.iter().map(|&v| (v, v ^ 1)).collect(),
            weight: f64::from(dg.rank) + 0.25,
        };
        let colors = WorkerOutcome::Coloring {
            pairs: owned.iter().map(|&v| (v, v % 13)).collect(),
            phases: dg.rank + 3,
            conflicts: u64::from(dg.rank) * 5,
        };
        for outcome in [mates, colors] {
            let bytes = encode_outcome(&outcome);
            assert_eq!(decode_outcome(&bytes).expect("decodes"), outcome);
            all.extend_from_slice(&bytes);
            // The summary's last 8 bytes (the weight, or the conflict
            // count after the phases) are what v8 appended.
            v7.extend_from_slice(&bytes[..bytes.len() - 8]);
        }
    }
    assert_eq!(
        [(Fnv1a::hash(&all), all.len()), (Fnv1a::hash(&v7), v7.len())],
        [
            (0x2521_0216_02b2_7e94, 16_536),
            (0x6330_f0ee_c633_e6cc, 16_472)
        ]
    );
}

/// `(PROTO_VERSION, digest of the wire tables)`. A `Ctrl` or snapshot
/// record change must bump the version and pin its digest here, so every
/// wire change is a reviewed two-line diff. The list is explicit: a new
/// snapshot enum must be added to it by hand. Versions before 8 were
/// pinned by another digest scheme and have no row.
const SHAPE_PINS: &[(u32, u64)] = &[(8, 0x44c5_40c3_d7c7_f700)];

#[test]
fn wire_shape_is_pinned_per_protocol_version() {
    let mut h = Fnv1a::new();
    for (name, shape) in [
        ("Ctrl", Ctrl::WIRE_SHAPE),
        ("MatchSnap", MatchSnap::WIRE_SHAPE),
        ("ColorSnap", ColorSnap::WIRE_SHAPE),
        ("JpSnap", JpSnap::WIRE_SHAPE),
    ] {
        h.bytes(name.as_bytes());
        h.bytes(shape.as_bytes());
    }
    let digest = h.finish();
    let Some(&(_, pinned)) = SHAPE_PINS.iter().find(|(v, _)| *v == PROTO_VERSION) else {
        panic!("PROTO_VERSION {PROTO_VERSION} has no pinned row: pin {digest:#018x}");
    };
    assert_eq!(
        digest, pinned,
        "the wire tables changed without a PROTO_VERSION bump ({digest:#018x})"
    );
}
