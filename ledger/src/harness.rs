//! The run loop every workload shares: set-up, timed repetitions with
//! the recorder off, or alternating plain and traced repetitions, then
//! the metrics the contract names.

use crate::host::{peak_rss_mib, CpuClock, Scratch};
use crate::reference::Reference;
use crate::span::{RepTotals, Tracer};
use crate::spec::{MetricDef, Spec};
use crate::stats::{median, quartiles, Samples};
use cmg_obs::{CollectingRecorder, Json, RecorderHandle, TimedEvent};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often an untraced run repeats its set-up; `setup_s` is the
/// median, so one slow file write or process start cannot move it.
/// (Thirteen set-ups instead of three did not steady it on
/// `serve_mixed_stream`: the run-to-run spread stayed at 13–15 %, so
/// the noise is between processes, not between set-ups.)
const SETUP_REPS: usize = 3;
/// Reference-kernel passes timed right before each set-up; their median
/// is the speed of the host at that moment.
const SETUP_REF_PASSES: usize = 3;
/// `setup_s` is quoted for a host on which the reference kernel takes
/// this long: each set-up's seconds are scaled by `NOMINAL_REF_S` over
/// the kernel's time just before it. Raw, the same set-up read 0.133 s
/// in one set of ten runs and 0.182 s in the next half an hour later
/// (`serve_mixed_stream`; the host's speed moves in steps that last
/// minutes), which is more than any bound the contract allows. The raw
/// seconds are the per-layer metric `core.setup_s`.
const NOMINAL_REF_S: f64 = 0.02;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 2;
/// Fresh processes an untraced run starts to read `peak_rss_mb` from
/// (see [`mem_probe`]); the median is reported.
const MEM_PROBES: usize = 3;
/// Environment of a memory-probe process. glibc's allocator raises its
/// mmap threshold to the size of the largest block freed so far (up to
/// 32 MiB) and keeps freed blocks below it; pinned at its initial
/// 128 KiB, every graph-sized array is a mapping of its own that goes
/// back to the kernel when dropped, so the peak resident set follows
/// the bytes the program holds (measured, `grid_file_thr`, seven probe
/// processes: 357–462 MiB without, 339.0–339.3 MiB with). Allocators
/// that do not know the variables ignore them.
pub const MEM_PROBE_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
];

/// What a workload is given: the tracer, the sample store, the failure
/// tally and where to write.
pub struct Harness {
    /// The committed contract.
    pub spec: Spec,
    /// Input seed (`--seed`).
    pub seed: u64,
    /// `--smoke`: sizes that finish in well under a second.
    pub smoke: bool,
    /// Whether this run reports per-layer metrics (`--trace 1`).
    pub traced_run: bool,
    /// Harness-side spans.
    pub tracer: Tracer,
    /// Every value measured so far.
    pub samples: Samples,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// Where inputs and sockets go.
    pub scratch: Scratch,
    collector: Arc<CollectingRecorder>,
    handle: RecorderHandle,
}

impl Harness {
    /// A harness writing under `scratch`.
    pub fn new(spec: Spec, seed: u64, smoke: bool, traced_run: bool, scratch: Scratch) -> Harness {
        let (collector, handle) = CollectingRecorder::shared();
        Harness {
            spec,
            seed,
            smoke,
            traced_run,
            tracer: Tracer::default(),
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            scratch,
            collector,
            handle,
        }
    }

    /// Counts one output check; a failed one is reported on stderr and
    /// tallied, never a panic.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("ledger: FAILED {what}: {why}");
        }
    }

    /// Whether the repetition in progress is traced.
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// The recorder to hand an engine: the collecting one during a
    /// traced repetition, the no-op one otherwise.
    pub fn recorder(&self) -> RecorderHandle {
        if self.tracing() {
            self.handle.clone()
        } else {
            RecorderHandle::noop()
        }
    }

    /// Takes the obs events the engines recorded since the last call.
    pub fn drain_events(&self) -> Vec<TimedEvent> {
        self.collector.take()
    }

    /// Records a per-layer value; kept only during traced repetitions,
    /// so plain ones pay nothing for it.
    pub fn layer(&mut self, name: &str, value: f64) {
        if self.tracing() {
            self.samples.push(name, value);
        }
    }
}

/// What one repetition took, as its workload defines the three.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepTimes {
    /// Input as delivered → every answer verified.
    pub answer_wall_s: f64,
    /// Graph and partition in memory → every answer verified.
    pub solve_wall_s: f64,
    /// User + kernel CPU of the harness and reaped children.
    pub cpu_s: f64,
}

/// One of the five workloads.
pub trait Workload {
    /// Everything before the timed region: generate inputs from the
    /// seed, write files, start servers, run one warm-up repetition and
    /// compute reference answers. Called again, it starts over.
    fn setup(&mut self, h: &mut Harness);
    /// One repetition, outputs checked.
    fn rep(&mut self, h: &mut Harness) -> RepTimes;
    /// Per-layer measurements taken once, outside any repetition
    /// (sequential baselines, partition quality); traced runs only.
    fn probes(&mut self, _h: &mut Harness) {}
    /// End-of-run checks and teardown.
    fn finish(&mut self, _h: &mut Harness) {}
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Its declaration.
    pub def: MetricDef,
    /// Median of the samples.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// No check failed and every end-to-end metric was measured.
    pub correct: bool,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// The metrics of the run's mode, in declaration order.
    pub metrics: Vec<Measured>,
}

impl RunResult {
    /// The line the driver reads.
    pub fn to_contract_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.def.name.clone(),
                                Json::obj(vec![
                                    ("value", Json::Float(m.value)),
                                    ("unit", Json::Str(m.def.unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Folds one traced repetition's spans into the sample store.
fn fold_totals(h: &mut Harness, totals: &RepTotals) {
    for (&name, &dur) in &totals.by_name {
        if h.spec.is_per_layer(name) {
            h.samples.push(name, dur);
        }
    }
    h.samples.push("core.coverage_frac", totals.coverage());
    h.samples
        .push("core.unattributed_s", totals.unattributed_s());
}

/// What a memory-probe process does: set up, answer once, and report
/// the peak resident set of its whole life in MiB. Peak memory is read
/// from a process of its own, started with [`MEM_PROBE_ENV`], because
/// in one that has already run repetitions most of the resident set is
/// pages the allocator holds on to from earlier ones — how many depends
/// on the order in which the rank threads freed, not on the program
/// (measured on `circuit_ml_net`: 130–180 MiB resident before a
/// repetition that itself needs ~95 MiB, changing from one repetition
/// and one run to the next). Nothing is timed in a probe process.
pub fn mem_probe(w: &mut dyn Workload, h: &mut Harness) -> f64 {
    w.setup(h);
    w.rep(h);
    w.finish(h);
    peak_rss_mib()
}

/// Runs `w` for about `seconds` and reports the metrics of the mode:
/// end-to-end ones from plain repetitions, or per-layer ones from
/// traced repetitions interleaved with plain ones. Every plain
/// repetition is preceded by one pass of the reference kernel, and its
/// times are reported as multiples of that pass (see [`Reference`]).
/// `spawn_mem_probe` runs [`mem_probe`] on the same workload and seed in
/// a new process and returns what it reported.
pub fn run(
    w: &mut dyn Workload,
    h: &mut Harness,
    seconds: f64,
    spawn_mem_probe: &dyn Fn() -> Result<f64, String>,
) -> RunResult {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut reference = Reference::default();
    if h.traced_run {
        let (setup_s, ()) = timed(|| w.setup(h));
        h.samples.push("core.setup_s", setup_s);
        let started = Instant::now();
        let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
        while plain.is_empty() || started.elapsed() < budget {
            h.samples.push("core.reference_s", reference.measure());
            let times = w.rep(h);
            plain.push(times.answer_wall_s);
            h.samples.push("core.answer_wall_s", times.answer_wall_s);
            h.samples.push("core.solve_wall_s", times.solve_wall_s);
            h.samples.push("core.answer_cpu_s", times.cpu_s);
            h.tracer.begin_rep();
            let times = w.rep(h);
            let totals = h.tracer.end_rep();
            with_trace.push(times.answer_wall_s);
            fold_totals(h, &totals);
        }
        h.tracer.begin_rep();
        w.probes(h);
        h.tracer.end_rep();
        h.samples.push(
            "obs.trace_overhead_frac",
            median(&with_trace) / median(&plain) - 1.0,
        );
        w.finish(h);
    } else {
        for _ in 0..SETUP_REPS {
            let passes: Vec<f64> = (0..SETUP_REF_PASSES).map(|_| reference.measure()).collect();
            let (setup_s, ()) = timed(|| w.setup(h));
            h.samples
                .push("setup_s", setup_s * NOMINAL_REF_S / median(&passes));
        }
        let started = Instant::now();
        let (mut reps, mut cpu_s, mut ref_s) = (0usize, 0.0, 0.0);
        while reps < MIN_REPS || started.elapsed() < budget {
            let unit = reference.measure();
            let times = w.rep(h);
            h.samples
                .push("answer_wall_ref", times.answer_wall_s / unit);
            h.samples.push("solve_wall_ref", times.solve_wall_s / unit);
            cpu_s += times.cpu_s;
            ref_s += unit;
            reps += 1;
        }
        // Totals, not a median of ratios: the kernel accounts CPU in
        // 10 ms ticks, so only the sum over the run has the resolution.
        h.samples.push("answer_cpu_ref", cpu_s / ref_s);
        w.finish(h);
        for _ in 0..MEM_PROBES {
            match spawn_mem_probe() {
                Ok(mib) => h.samples.push("peak_rss_mb", mib),
                Err(why) => h.check("memory probe runs", Err(why)),
            }
        }
    }
    collect(h)
}

/// Turns the sample store into the run's result.
fn collect(h: &Harness) -> RunResult {
    let traced = h.traced_run;
    let mut correct = h.failed == 0;
    for name in h.samples.names() {
        if !h.spec.declares(name) {
            eprintln!("ledger: measured `{name}`, which BENCHMARK.json does not declare");
            correct = false;
        }
    }
    let defs = if traced {
        &h.spec.per_layer
    } else {
        &h.spec.end_to_end
    };
    let metrics = defs
        .iter()
        .map(|def| {
            let values = h.samples.get(&def.name);
            if values.is_empty() && !traced {
                eprintln!("ledger: end-to-end metric `{}` was not measured", def.name);
                correct = false;
            }
            let (q1, value, q3) = quartiles(values);
            if !value.is_finite() {
                eprintln!("ledger: metric `{}` is not a finite number", def.name);
                correct = false;
            }
            Measured {
                def: def.clone(),
                value: if value.is_finite() { value } else { 0.0 },
                n: values.len(),
                q1,
                q3,
            }
        })
        .collect();
    RunResult {
        correct,
        attempted: h.attempted,
        failed: h.failed,
        metrics,
    }
}

/// Seconds `f` took, and what it returned.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// A CPU and wall stopwatch for one repetition.
pub struct RepClock {
    wall: Instant,
    cpu: CpuClock,
}

impl RepClock {
    /// Starts both clocks.
    pub fn start() -> RepClock {
        RepClock {
            wall: Instant::now(),
            cpu: CpuClock::now(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds since the start.
    pub fn cpu_s(&self) -> f64 {
        CpuClock::now().since(&self.cpu).total_s()
    }
}
