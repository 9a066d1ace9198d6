//! The benchmark's contract, read from the root `BENCHMARK.json`.
//!
//! The file is compiled in, so the names, units, directions and bounds
//! the harness prints and `ledger compare` applies are the ones the
//! driver reads — there is no second copy to drift.

use cmg_obs::Json;

/// The root `BENCHMARK.json`, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `true` when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics printed with `--trace 0`.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics printed with `--trace 1`.
    pub per_layer: Vec<MetricDef>,
    /// Seconds one run measures when `--seconds` is not given.
    pub run_seconds: u64,
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let rows = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?;
    rows.iter()
        .map(|row| {
            let text = |field: &str| {
                row.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{field}`"))
            };
            let better = text("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("BENCHMARK.json: `better` is `{better}`"));
            }
            Ok(MetricDef {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: better == "lower",
                bound: row.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: a workload lacks `name`".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
        })
    }

    /// The committed contract.
    ///
    /// # Panics
    /// Panics if the compiled-in file does not parse: the build is
    /// unusable as a benchmark then, and the smoke test catches it.
    pub fn committed() -> Spec {
        match Spec::parse(BENCHMARK_JSON) {
            Ok(spec) => spec,
            Err(e) => panic!("{e}"),
        }
    }

    /// Whether `name` is a declared per-layer metric.
    pub fn is_per_layer(&self, name: &str) -> bool {
        self.per_layer.iter().any(|m| m.name == name)
    }

    /// Whether `name` is declared at all.
    pub fn declares(&self, name: &str) -> bool {
        self.is_per_layer(name) || self.end_to_end.iter().any(|m| m.name == name)
    }
}
