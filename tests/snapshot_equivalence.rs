//! The snapshot/restore contract: round-tripping every rank through
//! `snapshot → encode → decode → restore` at every round edge
//! (`EngineConfig::checkpoint_every = 1`) leaves a run bit-identical to the
//! uninterrupted one. Each test runs its share of the sweep's small tier
//! (`tests/sweep.rs`; `sweep_harness::owner` splits it) and checks it
//! against the pinned digests.

mod sweep_harness;

use sweep_harness::{check_small_tier, os_scheduled};

#[test]
fn matching_snapshot_equivalence() {
    check_small_tier("matching_snapshot_equivalence", os_scheduled);
}

/// Distance-1 colouring under NEW, FIAC and FIAB, with its DONE wave and
/// allreduce in flight at the checkpoints.
#[test]
fn coloring_snapshot_equivalence() {
    check_small_tier("coloring_snapshot_equivalence", os_scheduled);
}

/// Distance-2: two DONE waves, learned bans and backoff windows.
#[test]
fn d2_snapshot_equivalence() {
    check_small_tier("d2_snapshot_equivalence", os_scheduled);
}

#[test]
fn jp_snapshot_equivalence() {
    check_small_tier("jp_snapshot_equivalence", os_scheduled);
}

/// Real threads and channels, every program checkpointed every round.
#[test]
fn threaded_snapshot_equivalence() {
    check_small_tier("threaded_snapshot_equivalence", os_scheduled);
}

/// `checkpoint_every = 0` is off: distance-2's uninterrupted cells, the
/// `ck0` twins its checkpointed cells must equal, on sim and threaded.
#[test]
fn zero_interval_is_ignored() {
    check_small_tier("zero_interval_is_ignored", os_scheduled);
}
