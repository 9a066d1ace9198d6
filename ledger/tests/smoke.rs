//! Keeps the harness alive: every workload runs at `--smoke` size in
//! both modes, prints exactly the metrics `BENCHMARK.json` declares,
//! and passes its own output checks; inputs are a function of the seed.

use cmg_graph::{Mutation, MutationBatch};
use cmg_ledger::batch::{spec_for, Batch};
use cmg_ledger::checks::{graph_fingerprint, Fnv};
use cmg_ledger::serve::{Op, Stream};
use cmg_ledger::spec::{MetricDef, Spec, BENCHMARK_JSON};
use cmg_obs::Json;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Runs the built binary and returns the JSON object on its last line.
fn ledger(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("ledger runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ledger {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("ledger prints a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn assert_prints_exactly(result: &Json, declared: &[MetricDef], context: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
    assert_eq!(result.get("failed"), Some(&Json::UInt(0)), "{context}");
    assert!(
        result.get("attempted").and_then(Json::as_u64) >= Some(1),
        "{context}"
    );
    let Some(Json::Obj(printed)) = result.get("metrics") else {
        panic!("{context}: no metrics object")
    };
    let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let declared_names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(printed_names, declared_names, "{context}");
    for ((_, value), def) in printed.iter().zip(declared) {
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(def.unit.as_str()),
            "{context}: unit of {}",
            def.name
        );
        let v = value.get("value").and_then(Json::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "{context}: {} = {v:?}",
            def.name
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_checks() {
    let spec = Spec::committed();
    let started = Instant::now();
    for workload in &spec.workloads {
        for (trace, declared) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let result = ledger(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert_prints_exactly(&result, declared, &format!("{workload} --trace {trace}"));
            if trace == "0" {
                // End-to-end metrics are never 0 — except, at smoke size,
                // CPU time: the kernel counts it in 10 ms ticks and a
                // smoke run is over in less.
                for def in declared.iter().filter(|d| d.name != "answer_cpu_ref") {
                    let v = result.get("metrics").and_then(|m| m.get(&def.name));
                    let v = v.and_then(|m| m.get("value")).and_then(Json::as_f64);
                    assert!(v > Some(0.0), "{workload}: {} = {v:?}", def.name);
                }
            }
        }
    }
    // Ten runs and fifteen memory probes; measured 2.7–3.4 s for the
    // whole ledger at smoke size, the rest is for a host in a slow phase.
    assert!(
        started.elapsed().as_secs_f64() < 10.0,
        "smoke ledger took {:?}",
        started.elapsed()
    );
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Json::Obj(top) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let spec = Spec::committed();
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    assert!((1..=60).contains(&spec.run_seconds));

    let name_ok = |s: &str| {
        (1..=64).contains(&s.len())
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(unit_ok(&m.unit), "unit `{}` of {}", m.unit, m.name);
        names.push(&m.name);
    }
    for name in &names {
        assert!(name_ok(name), "name `{name}`");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert!(setup.unit == "s" && setup.lower_is_better);
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");

    for w in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(!why.contains('\n') && why.chars().count() <= 200, "{why}");
    }
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
}

#[test]
fn the_same_seed_gives_the_same_graphs_and_the_same_mutation_stream() {
    for name in ["grid_file_thr", "circuit_ml_net", "rmat_hash_net"] {
        let row = spec_for(name, true).expect("a batch workload");
        let print = |seed| {
            graph_fingerprint(&Batch::new(row, seed, PathBuf::new(), PathBuf::new()).generate())
        };
        assert_eq!(print(5), print(5), "{name}");
        assert_ne!(print(5), print(6), "{name}");
    }

    let stream_print = |seed| {
        let mut stream = Stream::new(32, seed);
        let mut h = Fnv::default();
        let hash_batch = |h: &mut Fnv, batch: &MutationBatch| {
            for op in &batch.ops {
                let (tag, u, v, w) = match *op {
                    Mutation::Insert { u, v, w } => (0, u, v, w),
                    Mutation::Delete { u, v } => (1, u, v, 0.0),
                    Mutation::Reweight { u, v, w } => (2, u, v, w),
                };
                h.word(tag);
                h.word((u64::from(u) << 32) | u64::from(v));
                h.word(w.to_bits());
            }
        };
        for i in 0..2_000 {
            if i % 500 == 0 {
                hash_batch(&mut h, &stream.bulk_batch());
            }
            match stream.next_op() {
                Op::Mutate(batch) => hash_batch(&mut h, &batch),
                Op::Point { matching, v } => h.word(u64::from(v) << 1 | u64::from(matching)),
                Op::Full { matching } => h.word(u64::from(matching)),
            }
        }
        h.0
    };
    assert_eq!(stream_print(5), stream_print(5));
    assert_ne!(stream_print(5), stream_print(6));
}
