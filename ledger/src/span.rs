//! Harness-side spans around every call into a layer.
//!
//! The program under test is not instrumented here: each span is opened
//! and closed by the harness around one public call, named after the
//! per-layer metric it feeds (`graph.load_s`, `partition.dist_build_s`,
//! …), and the text before the first `.` is its layer. Spans stay in
//! memory and are written out once, when the run ends.

use cmg_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer whose self time is glue between calls, not attributed to
/// any crate under test.
pub const HARNESS_LAYER: &str = "core";

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Metric-style name; the layer is the text before the first `.`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created (equals `start_s` while open).
    pub end_s: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The repetition this span belongs to.
    pub rep: u32,
}

impl Span {
    /// Span length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_s();
        }
    }
    own
}

/// What one repetition's spans add up to.
#[derive(Debug, Default, PartialEq)]
pub struct RepTotals {
    /// Summed duration per span name.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Summed self time per layer.
    pub self_by_layer: BTreeMap<&'static str, f64>,
    /// Duration of the repetition's root span(s).
    pub root_s: f64,
}

impl RepTotals {
    /// Share of the root span's duration charged to a layer other than
    /// the harness itself.
    pub fn coverage(&self) -> f64 {
        if self.root_s <= 0.0 {
            return 0.0;
        }
        1.0 - self.unattributed_s() / self.root_s
    }

    /// Self time of the harness's own spans: time inside the repetition
    /// that no layer call covers.
    pub fn unattributed_s(&self) -> f64 {
        self.self_by_layer
            .get(HARNESS_LAYER)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Totals of the spans in `spans` (one repetition's worth).
pub fn rep_totals(spans: &[Span]) -> RepTotals {
    let own = self_times(spans);
    let mut out = RepTotals::default();
    for (s, own) in spans.iter().zip(own) {
        *out.by_name.entry(s.name).or_default() += s.duration_s();
        *out.self_by_layer.entry(s.layer()).or_default() += own;
        if s.parent.is_none() {
            out.root_s += s.duration_s();
        }
    }
    out
}

/// Records spans while enabled; costs one branch per call while not.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    /// Spans of finished repetitions.
    done: Vec<Span>,
    /// Spans of the repetition in progress (parents index into this).
    current: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            rep: 0,
            done: Vec::new(),
            current: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts recording a new repetition.
    pub fn begin_rep(&mut self) {
        self.enabled = true;
        self.rep += 1;
    }

    /// Stops recording and returns the finished repetition's totals.
    pub fn end_rep(&mut self) -> RepTotals {
        self.enabled = false;
        self.stack.clear();
        let totals = rep_totals(&self.current);
        let base = self.done.len();
        self.done.extend(self.current.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        totals
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span that other spans will nest in; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t = self.now();
        self.current.push(Span {
            name,
            start_s: t,
            end_s: t,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        let id = self.current.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span [`Tracer::enter`] returned.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.current[id].end_s = self.now();
            self.stack.retain(|&open| open != id);
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every finished span, for the trace file.
    pub fn to_json(&self) -> Json {
        let own = self_times(&self.done);
        Json::Arr(
            self.done
                .iter()
                .zip(own)
                .enumerate()
                .map(|(id, (s, own))| {
                    Json::obj(vec![
                        ("id", Json::UInt(id as u64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("layer", Json::Str(s.layer().to_string())),
                        ("rep", Json::UInt(u64::from(s.rep))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("start_s", Json::Float(s.start_s)),
                        ("end_s", Json::Float(s.end_s)),
                        ("self_s", Json::Float(own)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("core.rep", 0.0, 10.0, None),
            span("core.match_solve_s", 1.0, 7.0, Some(0)),
            span("partition.dist_build_s", 1.0, 3.0, Some(1)),
            span("matching.init_s", 3.0, 6.5, Some(1)),
            span("graph.load_s", 7.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![2.0, 0.5, 2.0, 3.5, 2.0]);
    }

    #[test]
    fn totals_sum_by_name_and_layer_and_give_coverage() {
        let spans = vec![
            span("core.rep", 0.0, 10.0, None),
            span("partition.dist_build_s", 0.0, 2.0, Some(0)),
            span("partition.dist_build_s", 2.0, 5.0, Some(0)),
            span("matching.init_s", 5.0, 9.5, Some(0)),
        ];
        let t = rep_totals(&spans);
        assert_eq!(t.by_name["partition.dist_build_s"], 5.0);
        assert_eq!(t.self_by_layer["partition"], 5.0);
        assert_eq!(t.self_by_layer["matching"], 4.5);
        assert_eq!(t.root_s, 10.0);
        assert_eq!(t.unattributed_s(), 0.5);
        assert_eq!(t.coverage(), 0.95);
    }

    #[test]
    fn tracer_nests_and_is_silent_while_disabled() {
        let mut tr = Tracer::default();
        assert_eq!(tr.time("graph.load_s", || 7), 7);
        assert_eq!(tr.to_json(), Json::Arr(Vec::new()));

        tr.begin_rep();
        let rep = tr.enter("core.rep");
        tr.time("graph.load_s", || ());
        let solve = tr.enter("core.match_solve_s");
        tr.time("matching.init_s", || ());
        tr.exit(solve);
        tr.exit(rep);
        let totals = tr.end_rep();
        assert!(totals.by_name.contains_key("matching.init_s"));
        assert!(totals.root_s >= totals.by_name["core.match_solve_s"]);

        // A second repetition's parents are re-based onto the full list.
        tr.begin_rep();
        let rep = tr.enter("core.rep");
        tr.time("graph.load_s", || ());
        tr.exit(rep);
        tr.end_rep();
        let Json::Arr(rows) = tr.to_json() else {
            panic!("trace is an array")
        };
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[5].get("parent"), Some(&Json::UInt(4)));
        assert_eq!(rows[5].get("rep"), Some(&Json::UInt(2)));
        assert_eq!(rows[2].get("parent"), Some(&Json::UInt(0)));
    }
}
