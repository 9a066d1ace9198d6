//! Command line: run workloads, write a report, compare two reports —
//! or, when spawned by the net engine, be one rank's worker process.

use crate::batch::{spec_for, Batch};
use crate::harness::{mem_probe, run, Harness, RunResult, Workload, MEM_PROBE_ENV};
use crate::host::{machine_facts, Scratch, SCRATCH_ROOT};
use crate::report::{any_regression, compare, render, render_rows, run_json, SCHEMA};
use crate::serve::Serve;
use crate::simweak::SimWeak;
use crate::spec::Spec;
use cmg_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  ledger --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
      (without --trace both modes run; more than one run: each in a process of its own)
  ledger compare BASE.json NEW.json
  ledger --workload <name> [--seed N] [--smoke] --mem-probe
      (what an untraced run starts to read peak_rss_mb: set up, answer once, print VmHWM in MiB)";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    /// `false`: plain repetitions, end-to-end metrics. `true`: traced
    /// ones, per-layer metrics. Both when `--trace` is not given.
    modes: Vec<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    /// Be a memory-probe process instead of a run.
    mem_probe: bool,
}

fn parse(args: &[String], spec: &Spec) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        modes: vec![false, true],
        smoke: false,
        out: None,
        mem_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.modes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--mem-probe" => o.mem_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.mem_probe && o.workload == "all" {
        return Err("--mem-probe takes one workload".into());
    }
    if o.workload != "all" && !spec.workloads.contains(&o.workload) {
        return Err(format!(
            "--workload must be `all` or one of {}",
            spec.workloads.join(", ")
        ));
    }
    if !o.seconds.is_finite() || o.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(o)
}

/// A harness and the workload `name` on it, not yet set up.
fn open(
    spec: &Spec,
    name: &str,
    o: &Options,
    traced: bool,
) -> Result<(Harness, Box<dyn Workload>), String> {
    let scratch = Scratch::create().map_err(|e| format!("creating {SCRATCH_ROOT}: {e}"))?;
    let h = Harness::new(spec.clone(), o.seed, o.smoke, traced, scratch);
    let worker = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let workload: Box<dyn Workload> = match (name, spec_for(name, o.smoke)) {
        (_, Some(row)) => Box::new(Batch::new(row, o.seed, h.scratch.path("input.mtx"), worker)),
        ("sim_weak_p4k", _) => Box::new(SimWeak::new(&h)),
        ("serve_mixed_stream", _) => Box::new(Serve::new(&h)),
        _ => {
            return Err(format!(
                "BENCHMARK.json names workload `{name}`, the harness does not"
            ))
        }
    };
    Ok((h, workload))
}

/// Starts this binary as a memory probe of `name` and returns the peak
/// resident set it printed, in MiB.
fn spawn_mem_probe(name: &str, o: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", name, "--seed", &o.seed.to_string()])
        .arg("--mem-probe")
        .envs(MEM_PROBE_ENV)
        .stderr(Stdio::inherit());
    if o.smoke {
        child.arg("--smoke");
    }
    let out = child
        .output()
        .map_err(|e| format!("starting the memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(mib) if out.status.success() => Ok(mib),
        _ => Err(format!("{}, printed `{}`", out.status, stdout.trim())),
    }
}

/// Is a memory-probe process; `false` if one of its output checks failed.
fn be_mem_probe(spec: &Spec, o: &Options) -> Result<bool, String> {
    let (mut h, mut workload) = open(spec, &o.workload, o, false)?;
    println!("{}", mem_probe(workload.as_mut(), &mut h));
    Ok(h.failed == 0)
}

/// Runs one workload in one mode.
fn run_one(spec: &Spec, name: &str, o: &Options, traced: bool) -> Result<RunResult, String> {
    let (mut h, mut workload) = open(spec, name, o, traced)?;
    let result = run(workload.as_mut(), &mut h, o.seconds, &|| {
        spawn_mem_probe(name, o)
    });
    if traced {
        let path = Path::new(SCRATCH_ROOT).join(format!("ledger-trace-{name}.json"));
        std::fs::write(&path, h.tracer.to_json().to_string_compact())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(result)
}

/// `"end_to_end"` or `"per_layer"`: the report group a mode fills.
fn group_of(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// Runs one (workload, mode) pair in a process of its own and returns
/// its report group. Allocator state is per process, and a run must
/// not inherit the heap an earlier workload left behind.
fn run_in_child(name: &str, traced: bool, o: &Options) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    std::fs::create_dir_all(SCRATCH_ROOT).map_err(|e| format!("creating {SCRATCH_ROOT}: {e}"))?;
    let part = Path::new(SCRATCH_ROOT).join(format!(
        "report-{}-{name}-{}.json",
        std::process::id(),
        group_of(traced)
    ));
    let mut child = Command::new(exe);
    child
        .args(["--workload", name, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&part);
    if o.smoke {
        child.arg("--smoke");
    }
    let status = child
        .status()
        .map_err(|e| format!("starting the run of {name}: {e}"))?;
    let text = std::fs::read_to_string(&part)
        .map_err(|e| format!("the run of {name} left no report ({status}): {e}"))?;
    let _ = std::fs::remove_file(&part);
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", part.display()))?;
    let group = doc
        .get("workloads")
        .and_then(|w| w.get(name))
        .and_then(|w| w.get(group_of(traced)))
        .ok_or_else(|| format!("{}: no {name} group", part.display()))?;
    Ok((status.success(), group.clone()))
}

fn run_all(spec: &Spec, o: &Options) -> Result<bool, String> {
    let plan: Vec<(&str, bool)> = spec
        .workloads
        .iter()
        .filter(|w| o.workload == "all" || **w == o.workload)
        .flat_map(|w| o.modes.iter().map(move |&traced| (w.as_str(), traced)))
        .collect();
    let mut all_correct = true;
    let mut report: Vec<(&str, Vec<(&str, Json)>)> = Vec::new();
    for &(name, traced) in &plan {
        let (correct, group) = if plan.len() == 1 {
            let result = run_one(spec, name, o, traced)?;
            print!("{}", render(name, &result));
            println!("{}", result.to_contract_json().to_string_compact());
            (result.correct, run_json(&result))
        } else {
            run_in_child(name, traced, o)?
        };
        all_correct &= correct;
        match report.last_mut() {
            Some((last, groups)) if *last == name => groups.push((group_of(traced), group)),
            _ => report.push((name, vec![(group_of(traced), group)])),
        }
    }
    if let Some(path) = &o.out {
        let doc = Json::obj(vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("seed", Json::UInt(o.seed)),
            ("seconds", Json::Float(o.seconds)),
            ("smoke", Json::Bool(o.smoke)),
            ("machine", machine_facts()),
            (
                "workloads",
                Json::obj(
                    report
                        .into_iter()
                        .map(|(name, groups)| (name, Json::obj(groups)))
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn compare_files(spec: &Spec, base: &str, new: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => Ok(doc),
            other => Err(format!("{path}: schema is {other:?}, not {SCHEMA}")),
        }
    };
    let rows = compare(spec, &load(base)?, &load(new)?);
    print!("{}", render_rows(&rows));
    Ok(!any_regression(&rows))
}

/// Entry point of the `ledger` binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The net engine starts its workers as `<binary> <socket dir> <rank>`,
    // and the harness names itself as that binary.
    if let [dir, rank] = &args[..] {
        if let Ok(rank) = rank.parse::<u32>() {
            return match cmg_net::worker_main(Path::new(dir), rank) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("ledger (net worker, rank {rank}): {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let spec = Spec::committed();
    let outcome = match &args[..] {
        [verb, base, new] if verb == "compare" => compare_files(&spec, base, new),
        _ => parse(&args, &spec).and_then(|o| {
            if o.mem_probe {
                be_mem_probe(&spec, &o)
            } else {
                run_all(&spec, &o)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
