//! The experiment table and the `repro` command line: the shape checks
//! hold on what the experiments produce and can fail, the committed
//! `repro_output.txt` is what the code prints, and a mistyped argument
//! is refused instead of regenerating some other table.

use cmg_bench::experiments::{Cell, Section};
use cmg_bench::{Experiment, Scale, EXPERIMENTS};
use std::process::{Command, Output};

fn experiment(name: &str) -> &'static Experiment {
    EXPERIMENTS.iter().find(|e| e.name == name).expect("listed")
}

/// The experiments quick enough for every test run (the rest run in CI's
/// `repro | diff` step): each passes its check, and prints exactly its
/// section of the committed output.
#[test]
fn quick_experiments_hold_and_print_the_committed_output() {
    let committed = include_str!("../../../repro_output.txt");
    for name in [
        "table5_1",
        "fig5_4",
        "ablation_superstep",
        "ablation_jp",
        "ablation_weight_dist",
        "ablation_sync",
        "ext_distance2",
    ] {
        let exp = experiment(name);
        let sections = (exp.run)(Scale::Small);
        assert_eq!((exp.check)(&sections), Ok(()), "{name}");
        let printed: String = sections.iter().map(Section::to_string).collect();
        let expected = format!("\n=== {name} ===\n\n{printed}check {name}: holds\n");
        assert!(committed.contains(&expected), "{name} prints:\n{printed}");
    }
}

/// A check is only worth running if it can fail: the bundling check
/// passes a row pair as the experiment produces it and names the row
/// once its packet count is doctored to show no saving.
#[test]
fn a_doctored_row_fails_its_check() {
    let row = |bundling: &str, packets: u64, time: f64| {
        vec![
            Cell::text("Input", "grid"),
            Cell::int("Ranks", 16u32),
            Cell::text("Bundling", bundling),
            Cell::count("Messages", 2951),
            Cell::count("Packets", packets),
            Cell::count("Bytes", 26559),
            Cell::time("Sim time", time),
        ]
    };
    let mut section = Section {
        caption: String::new(),
        rows: vec![row("on", 102, 173e-6), row("off", 2951, 314e-6)],
        notes: "",
    };
    let check = experiment("ablation_bundling").check;
    assert_eq!(check(std::slice::from_ref(&section)), Ok(()));

    section.rows[0][4] = Cell::count("Packets", 2951);
    assert_eq!(
        check(&[section]),
        Err("row `grid | 16 | on`: Packets 2,951 against 2,951 of `grid | 16 | off`".into())
    );
}

fn repro(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_repro");
    Command::new(bin).args(args).output().expect("run repro")
}

#[test]
fn bad_arguments_exit_2_with_the_usage_line() {
    for (args, complaint) in [
        (&["--scale", "smal"][..], "unknown --scale smal"),
        (&["--only", "fig5_5"][..], "--only takes table1_1, table5_1"),
        (&["--scale"][..], "--scale needs a value"),
        (&["--fast"][..], "unrecognised argument --fast"),
        (&["fig5_1"][..], "unrecognised argument fig5_1"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro [--scale"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} still ran something");
    }
}

#[test]
fn only_runs_the_named_experiments_in_table_order() {
    let out = repro(&["--only", "ablation_weight_dist,ablation_superstep"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headings: Vec<&str> = stdout.lines().filter(|l| l.starts_with("===")).collect();
    assert_eq!(
        headings,
        ["=== ablation_superstep ===", "=== ablation_weight_dist ==="]
    );
}
