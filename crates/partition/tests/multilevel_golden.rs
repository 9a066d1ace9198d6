//! `multilevel_partition` is pinned bit for bit: every ledger row
//! downstream of the partition (`partition.ghosts`, `runtime.messages`,
//! `net.wire_bytes`, …) is an exact count of *this* assignment, so a
//! partitioner change that moves one vertex needs a re-baseline, and a
//! change that claims not to must pass here unchanged.
//!
//! The fingerprints are FNV-1a over the assignment vector, recorded by
//! running commit 8759f94 (the last one with the triple sort-merge
//! contraction). A mismatch prints the fingerprints the run produced.

use cmg_graph::generators::{circuit_like, grid2d, rmat, star};
use cmg_graph::{CsrGraph, GraphBuilder};
use cmg_partition::multilevel_partition;

fn fnv1a(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in assignment.iter().flat_map(|a| a.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Two components (a 30 × 30 grid and a 400-cycle) laid over 1 410 ids
/// of which every thirteenth is skipped, which leaves 110 isolated
/// vertices interleaved with the rest.
fn islands() -> CsrGraph {
    let ids: Vec<u32> = (0..1_410u32).filter(|v| v % 13 != 5).collect();
    let mut b = GraphBuilder::new(1_410);
    let grid = |r: usize, c: usize| ids[r * 30 + c];
    for r in 0..30 {
        for c in 0..30 {
            if c + 1 < 30 {
                b.add_edge_unweighted(grid(r, c), grid(r, c + 1));
            }
            if r + 1 < 30 {
                b.add_edge_unweighted(grid(r, c), grid(r + 1, c));
            }
        }
    }
    for i in 0..400 {
        b.add_edge_unweighted(ids[900 + i], ids[900 + (i + 1) % 400]);
    }
    b.build()
}

const KS: [u32; 7] = [2, 3, 4, 5, 8, 16, 64];

/// `(family, its generator, partition seed, fingerprint per k in KS)`.
type Row = (&'static str, fn() -> CsrGraph, u64, [u64; 7]);

#[rustfmt::skip]
const GOLDEN: [Row; 7] = [
    ("circuit_like(20000, 1)", || circuit_like(20_000, 1), 1, [
        0x2e65756d75ac8694, 0x31cc937dbb2637b5, 0x734ffa2cde77add6, 0x9e86253536f02836,
        0x350ef19516f93283, 0x3ff9707cad8444e8, 0x22287d1380197933,
    ]),
    ("circuit_like(20000, 2)", || circuit_like(20_000, 2), 2, [
        0x95611dec9e244144, 0x39b317ef1beeb735, 0x66806ebcf5e91a47, 0xdd5938d5dd7d8076,
        0x3a09990d28c00fb0, 0xa4ddcffc7452ffaf, 0xfc7e0c7d43e1712f,
    ]),
    ("circuit_like(20000, 3)", || circuit_like(20_000, 3), 3, [
        0xee1cda4255cb9c34, 0x27240f7ab654e2e5, 0x71cb0ad7f1069db6, 0xf6c6ee460f973057,
        0x11c72739b0efb163, 0x38b4cc5a68962b69, 0xb91d6f24ae5b9bc7,
    ]),
    ("grid2d(64, 64)", || grid2d(64, 64), 7, [
        0x4a92e0dc16830764, 0x5957cfb15f2b1564, 0x836334a9223ba0d7, 0x86346200b99d5823,
        0x7c51f47fbc829f81, 0xcdbc3f57b4b7106c, 0xb44697e393caaf60,
    ]),
    ("rmat(12, 8, (0.57, 0.19, 0.19, 0.05), 4)", || rmat(12, 8, (0.57, 0.19, 0.19, 0.05), 4), 4, [
        0x49d6e960585990e4, 0x7f1d006513f17346, 0x36a20d609c779546, 0xd19cbe4d1ad283d0,
        0xc1e7abb06a119312, 0xd2d06bcde81b613b, 0x62050a975e22682e,
    ]),
    ("star(500)", || star(500), 5, [
        0xc47d5ae14b2f7924, 0x30ba22e76c3fdb76, 0xf3f0437d64944dc7, 0x9477bf4448f04e76,
        0x6f0f1c1d31261a91, 0x97aa7385a82a8d2c, 0x2961324a34565be1,
    ]),
    ("islands()", islands, 6, [
        0x1d53577a1822ed55, 0xbf092c4eaa956f87, 0xacc5dfaee0e1f8a5, 0x48a4fb3a073d34b6,
        0x2d418d443bf3ccc4, 0x9647832c0a9db387, 0xbc5c7f5d7472bf9d,
    ]),
];

/// Where `available_parallelism()` is 2 or more, the three
/// `circuit_like(20000, …)` rows at k = 4, 8, 16 and 64 bisect their two
/// top-level halves (9 711–10 311 vertices each) on two threads at once, so
/// the concurrent path is pinned in debug builds too. Their k = 2 has no
/// halves to split; at k = 3 side 0 is a single part, and at k = 5 it is
/// two fifths of the graph, below the 2¹³-vertex spawn size.
#[test]
fn assignments_match_the_recorded_fingerprints() {
    let mut wrong = Vec::new();
    for (name, generate, seed, want) in GOLDEN {
        let g = generate();
        let got = KS.map(|k| fnv1a(multilevel_partition(&g, k, seed).assignment()));
        if got != want {
            wrong.push(format!("{name}, seed {seed}: {got:#018x?}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "fingerprints moved:\n{}",
        wrong.join("\n")
    );
}

/// The ledger's `circuit_ml_net` shape. Release builds only: the debug
/// build's gain cross-check makes 200 000 vertices a minute of test time.
#[test]
#[cfg_attr(debug_assertions, ignore = "release builds only")]
fn the_ledger_shape_matches_its_fingerprint() {
    let g = circuit_like(200_000, 1);
    let got = fnv1a(multilevel_partition(&g, 4, 1).assignment());
    assert_eq!(got, 0xcb17ee5a39a90e16, "got {got:#018x}");
}
