//! The simulator, the threaded engine and the multi-process net engine
//! agree on the answer, the rounds and every rank's traffic. Each test
//! runs one program's threaded and net cells of the sweep's small tier
//! (`tests/sweep.rs`) with the simulator cells they must equal, each
//! threaded and net cell twice, against the pinned digests.

mod sweep_harness;

use sweep_harness::{check_small_tier, os_scheduled};

#[test]
fn matching_identical_across_all_three_engines() {
    check_small_tier("matching_identical_across_all_three_engines", os_scheduled);
}

#[test]
fn coloring_identical_across_all_three_engines() {
    check_small_tier("coloring_identical_across_all_three_engines", os_scheduled);
}

#[test]
fn jones_plassmann_identical_on_net_engine() {
    check_small_tier("jones_plassmann_identical_on_net_engine", os_scheduled);
}
