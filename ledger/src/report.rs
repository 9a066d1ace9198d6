//! The full report (`--out`) and `ledger compare`.

use crate::harness::RunResult;
use crate::spec::{MetricDef, Spec};
use cmg_obs::Json;

/// Schema tag of the report file.
pub const SCHEMA: &str = "cmg-ledger/v1";

/// Per-layer metrics that are counts or cost-model times: with the same
/// seed they repeat bit for bit, so `compare` holds them to equality.
pub const EXACT: &[&str] = &[
    "runtime.sim.match_makespan_s",
    "runtime.sim.color_makespan_s",
    "runtime.sim.rounds",
    "runtime.sim.ranks_skipped",
    "runtime.messages",
    "runtime.packets",
    "runtime.bytes",
    "partition.ghosts",
    "partition.cut_frac",
    "matching.rounds",
    "matching.messages",
    "matching.work_units",
    "matching.weight",
    "matching.cardinality",
    "coloring.rounds",
    "coloring.phases",
    "coloring.messages",
    "coloring.colors",
];

/// One run's metrics as a report object, quartiles included.
pub fn run_json(r: &RunResult) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::UInt(r.attempted)),
        ("failed", Json::UInt(r.failed)),
        (
            "metrics",
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.def.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Float(m.value)),
                                ("unit", Json::Str(m.def.unit.clone())),
                                ("n", Json::UInt(m.n as u64)),
                                ("q1", Json::Float(m.q1)),
                                ("q3", Json::Float(m.q3)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The human-readable table of one run.
pub fn render(workload: &str, r: &RunResult) -> String {
    let mut out = format!("{workload}: {} checks, {} failed\n", r.attempted, r.failed);
    for m in &r.metrics {
        out.push_str(&format!(
            "  {:<34} {:>16.6} {:<8} n={} q1={:.6} q3={:.6}\n",
            m.def.name, m.value, m.def.unit, m.n, m.q1, m.q3
        ));
    }
    out
}

/// How one (metric, workload) pair compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse by more than the bound.
    Regression,
    /// One side's own q1–q3 range is wider than the bound.
    Unresolved,
    /// An exact metric whose bits differ.
    Changed,
    /// Missing on one side.
    Missing,
}

/// One row of `ledger compare`.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

struct Side {
    value: f64,
    q1: f64,
    q3: f64,
}

fn side(report: &Json, workload: &str, group: &str, metric: &str) -> Option<Side> {
    let m = report
        .get("workloads")?
        .get(workload)?
        .get(group)?
        .get("metrics")?
        .get(metric)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Side {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

fn bounded(def: &MetricDef, bound: f64, a: &Side, b: &Side) -> (f64, Verdict) {
    let worse_by = if def.lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    let spread = |s: &Side| (s.q3 - s.q1) / s.value;
    let verdict = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compares report `new` against report `base`: every end-to-end metric
/// under its bound and direction, every exact per-layer metric bit for
/// bit, one row per (metric, workload).
pub fn compare(spec: &Spec, base: &Json, new: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for def in &spec.end_to_end {
            let Some(bound) = def.bound else { continue };
            let sides = (
                side(base, workload, "end_to_end", &def.name),
                side(new, workload, "end_to_end", &def.name),
            );
            let (base_v, new_v, worse_by, verdict) = match sides {
                (Some(a), Some(b)) => {
                    let (worse_by, verdict) = bounded(def, bound, &a, &b);
                    (a.value, b.value, worse_by, verdict)
                }
                _ => (0.0, 0.0, 0.0, Verdict::Missing),
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                base: base_v,
                new: new_v,
                worse_by,
                verdict,
            });
        }
        for &name in EXACT {
            let sides = (
                side(base, workload, "per_layer", name),
                side(new, workload, "per_layer", name),
            );
            let (Some(a), Some(b)) = sides else { continue };
            rows.push(Row {
                workload: workload.clone(),
                metric: name.to_string(),
                base: a.value,
                new: b.value,
                worse_by: 0.0,
                verdict: if a.value.to_bits() == b.value.to_bits() {
                    Verdict::Ok
                } else {
                    Verdict::Changed
                },
            });
        }
    }
    rows
}

/// Whether `rows` hold a result that must fail the comparison.
pub fn any_regression(rows: &[Row]) -> bool {
    rows.iter().any(|r| {
        matches!(
            r.verdict,
            Verdict::Regression | Verdict::Changed | Verdict::Missing
        )
    })
}

/// The comparison as a table.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<30} {:>16} {:>16} {:>9}  {}\n",
        "workload", "metric", "base", "new", "worse by", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<30} {:>16.6} {:>16.6} {:>8.2}%  {:?}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wall: (f64, f64, f64), ops: f64, makespan: f64) -> Json {
        let metric = |v: f64, q1: f64, q3: f64| {
            Json::obj(vec![
                ("value", Json::Float(v)),
                ("q1", Json::Float(q1)),
                ("q3", Json::Float(q3)),
            ])
        };
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "w",
                Json::obj(vec![
                    (
                        "end_to_end",
                        Json::obj(vec![(
                            "metrics",
                            Json::obj(vec![
                                ("wall_s", metric(wall.0, wall.1, wall.2)),
                                ("ops_per_s", metric(ops, ops, ops)),
                            ]),
                        )]),
                    ),
                    (
                        "per_layer",
                        Json::obj(vec![(
                            "metrics",
                            Json::obj(vec![(
                                "runtime.sim.match_makespan_s",
                                metric(makespan, makespan, makespan),
                            )]),
                        )]),
                    ),
                ]),
            )]),
        )])
    }

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w", "why": ""}],
                "end_to_end": [
                  {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                  {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .expect("parses")
    }

    fn verdicts(base: &Json, new: &Json) -> Vec<Verdict> {
        compare(&spec(), base, new)
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn bounds_apply_in_each_metrics_direction() {
        let base = report((1.0, 0.99, 1.01), 100.0, 3.5e-5);
        // 5 % slower, 5 % fewer ops: inside both bounds.
        let near = report((1.05, 1.04, 1.06), 95.0, 3.5e-5);
        assert_eq!(verdicts(&base, &near), vec![Verdict::Ok; 3]);
        assert!(!any_regression(&compare(&spec(), &base, &near)));
        // 20 % slower; 20 % more ops is a gain, not a regression.
        let slow = report((1.2, 1.19, 1.21), 120.0, 3.5e-5);
        assert_eq!(
            verdicts(&base, &slow),
            vec![Verdict::Regression, Verdict::Ok, Verdict::Ok]
        );
        // 20 % fewer ops is one.
        let starved = report((1.0, 0.99, 1.01), 80.0, 3.5e-5);
        assert_eq!(verdicts(&base, &starved)[1], Verdict::Regression);
        assert!(any_regression(&compare(&spec(), &base, &starved)));
    }

    #[test]
    fn wide_quartiles_leave_a_pair_unresolved() {
        let base = report((1.0, 0.9, 1.1), 100.0, 3.5e-5);
        let slow = report((1.3, 1.29, 1.31), 100.0, 3.5e-5);
        assert_eq!(verdicts(&base, &slow)[0], Verdict::Unresolved);
        assert!(!any_regression(&compare(&spec(), &base, &slow)));
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit() {
        let base = report((1.0, 1.0, 1.0), 100.0, 3.613e-5);
        let moved = report((1.0, 1.0, 1.0), 100.0, 3.613_000_000_000_001e-5);
        assert_eq!(verdicts(&base, &moved)[2], Verdict::Changed);
        assert!(any_regression(&compare(&spec(), &base, &moved)));
    }
}
