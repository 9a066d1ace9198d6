//! The aggregated run report: one human-readable text block and one
//! JSON object summarizing a whole run.

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::TimedEvent;
use std::fmt::Write as _;

/// A run summary assembled from collected events (and optionally
/// engine-level facts the caller already knows, in [`RunReport::extra`]).
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Label for the run (command, figure name, ...).
    pub name: String,
    /// Extra caller-supplied facts, rendered alongside the metrics.
    pub extra: Vec<(String, Json)>,
    /// Metrics folded from the event stream.
    pub metrics: MetricsRegistry,
}

impl RunReport {
    /// Builds a report named `name` from a run's events.
    pub fn from_events(name: &str, events: &[TimedEvent]) -> Self {
        let mut metrics = MetricsRegistry::new();
        metrics.observe_events(events);
        RunReport {
            name: name.to_string(),
            extra: Vec::new(),
            metrics,
        }
    }

    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("name".to_string(), Json::Str(self.name.clone()))];
        pairs.extend(self.extra.iter().cloned());
        pairs.push(("metrics".to_string(), self.metrics.to_json()));
        Json::Obj(pairs)
    }

    /// The report as an aligned text block.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run report: {}", self.name);
        for (key, value) in &self.extra {
            let _ = writeln!(out, "  {key:<24} {}", value.to_string_compact());
        }
        let json = self.metrics.to_json();
        if let Some(Json::Obj(counters)) = json.get("counters").cloned() {
            for (name, value) in counters {
                let _ = writeln!(out, "  {name:<24} {}", value.to_string_compact());
            }
        }
        if let Some(Json::Obj(gauges)) = json.get("gauges").cloned() {
            for (name, value) in gauges {
                let _ = writeln!(out, "  {name:<24} {}", value.to_string_compact());
            }
        }
        if let Some(Json::Obj(histograms)) = json.get("histograms").cloned() {
            for (name, value) in histograms {
                let count = value.get("count").and_then(Json::as_u64).unwrap_or(0);
                let mean = value.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
                let p99 = value.get("p99").and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(out, "  {name:<24} count={count} mean={mean:.1} p99<={p99}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn report_renders_both_forms() {
        let events = vec![TimedEvent {
            rank: 0,
            time: 0.0,
            seq: 0,
            event: Event::PacketSent {
                dst: 1,
                bytes: 256,
                logical: 32,
            },
        }];
        let mut report = RunReport::from_events("unit", &events);
        report.extra.push(("num_ranks".to_string(), Json::UInt(2)));
        let json = report.to_json();
        assert_eq!(json.get("name").unwrap().as_str(), Some("unit"));
        assert_eq!(json.get("num_ranks").unwrap().as_u64(), Some(2));
        let text = report.to_text();
        assert!(text.contains("packets_sent"));
        assert!(text.contains("num_ranks"));
        // JSON form parses back.
        assert!(Json::parse(&json.to_string_pretty()).is_ok());
    }
}
