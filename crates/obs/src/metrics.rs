//! The metrics registry: counters, gauges, and log-scaled histograms.
//!
//! Metrics are populated on the cold path — typically by folding a
//! run's collected events through [`MetricsRegistry::observe_events`] —
//! so the registry can favour simplicity (BTreeMaps, stable iteration
//! order) over lock-free cleverness.

use crate::event::Event;
use crate::json::Json;
use crate::TimedEvent;
use std::collections::BTreeMap;

/// A histogram with logarithmically scaled buckets (powers of two).
///
/// Bucket `i` counts values `v` with `2^(i-1) < v <= 2^i` (bucket 0
/// counts zeros and ones). 65 buckets cover the whole `u64` range, so
/// latencies-in-nanoseconds and packet sizes both fit without
/// configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            64 - (value - 1).leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.sum = self.sum.saturating_add(value);
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the q-quantile (q in 0..=1),
    /// i.e. the value `v` such that at least `q` of samples are `<= v`,
    /// rounded up to a power of two. 0 if empty.
    fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return bucket_upper_bound(i);
            }
        }
        self.max
    }

    /// Interpolated q-quantile estimate (q in 0..=1), 0.0 if empty.
    ///
    /// Finds the bucket containing the q-th sample and interpolates
    /// linearly between the bucket's bounds by the sample's position
    /// within it, then clamps to the observed `[min, max]`. Exact for
    /// q = 0 and q = 1; within one power-of-two bucket otherwise —
    /// good enough for the straggler/SLO reporting it feeds, without
    /// storing raw samples.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min as f64;
        }
        if q >= 1.0 {
            return self.max as f64;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = if i == 0 { 0 } else { bucket_upper_bound(i - 1) };
                let hi = bucket_upper_bound(i);
                let frac = (target - seen) as f64 / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Interpolated median. See [`LogHistogram::quantile`].
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Interpolated 99th percentile. See [`LogHistogram::quantile`].
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Serializes summary plus non-empty buckets.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                Json::obj(vec![
                    ("le", Json::UInt(bucket_upper_bound(i))),
                    ("count", Json::UInt(n)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", Json::UInt(self.min)),
            ("max", Json::UInt(self.max)),
            ("mean", Json::Float(self.mean())),
            ("p50", Json::UInt(self.quantile_bound(0.5))),
            ("p99", Json::UInt(self.quantile_bound(0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// Inclusive upper bound of bucket `i` (bucket 64 covers up to
/// `u64::MAX`, which `1 << 64` cannot express).
fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 1,
        64 => u64::MAX,
        _ => 1u64 << i,
    }
}

/// Named counters, gauges, and histograms with deterministic ordering.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Raises a gauge to `value` if larger (or creates it).
    fn max_gauge(&mut self, name: &str, value: f64) {
        let g = self
            .gauges
            .entry(name.to_string())
            .or_insert(f64::NEG_INFINITY);
        if value > *g {
            *g = value;
        }
    }

    /// Records `value` into a histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Reads a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds a run's events into the standard metric set:
    ///
    /// * counters `packets_sent` / `packets_received`, `bytes_sent` /
    ///   `bytes_received`, `logical_sent`, `match_*`, `conflicts_total`
    /// * gauges `rounds`, `colors_used` (max over ranks/phases)
    /// * histograms `packet_bytes`, `packet_logical`, `phase_<name>_ns`
    pub fn observe_events<'a>(&mut self, events: impl IntoIterator<Item = &'a TimedEvent>) {
        for te in events {
            match te.event {
                Event::RoundStart { .. } => {}
                Event::RoundEnd { round, .. } => {
                    self.max_gauge("rounds", (round + 1) as f64);
                }
                Event::Phase { name, dur, .. } => {
                    let key = format!("phase_{}_ns", name.as_str());
                    self.observe(&key, (dur * 1e9).max(0.0) as u64);
                }
                Event::PacketSent { bytes, logical, .. } => {
                    self.inc("packets_sent", 1);
                    self.inc("bytes_sent", bytes);
                    self.inc("logical_sent", logical.into());
                    self.observe("packet_bytes", bytes);
                    self.observe("packet_logical", logical.into());
                }
                Event::PacketRecv { bytes, logical, .. } => {
                    self.inc("packets_received", 1);
                    self.inc("bytes_received", bytes);
                    self.inc("logical_received", logical.into());
                }
                Event::MatchRound {
                    requests,
                    succeeded,
                    failed,
                    ..
                } => {
                    self.inc("match_requests", requests);
                    self.inc("match_succeeded", succeeded);
                    self.inc("match_failed", failed);
                }
                Event::ColoringRound {
                    conflicts,
                    colors_used,
                    ..
                } => {
                    self.inc("conflicts_total", conflicts);
                    self.max_gauge("colors_used", colors_used as f64);
                }
            }
        }
    }

    /// One JSONL line per metric, deterministic order (counters, then
    /// gauges, then histograms; each alphabetical).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, &value) in &self.counters {
            let line = Json::obj(vec![
                ("metric", Json::Str(name.clone())),
                ("type", Json::Str("counter".into())),
                ("value", Json::UInt(value)),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        for (name, &value) in &self.gauges {
            let line = Json::obj(vec![
                ("metric", Json::Str(name.clone())),
                ("type", Json::Str("gauge".into())),
                ("value", Json::Float(value)),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        for (name, hist) in &self.histograms {
            let line = Json::obj(vec![
                ("metric", Json::Str(name.clone())),
                ("type", Json::Str("histogram".into())),
                ("value", hist.to_json()),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// The whole registry as one JSON object.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::UInt(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Float(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Json::obj(vec![
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_bucketing() {
        let mut h = LogHistogram::default();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min, 0);
        assert_eq!(h.max(), u64::MAX);
        // 0 and 1 share bucket 0; 2 is bucket 1; 3,4 bucket 2.
        assert_eq!(h.quantile_bound(0.0), 1);
        assert!(h.quantile_bound(1.0) >= 1024);
    }

    #[test]
    fn quantiles_on_empty_histogram_are_zero() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn quantiles_are_exact_at_the_extremes() {
        let mut h = LogHistogram::default();
        for v in [3, 17, 900, 4096] {
            h.record(v);
        }
        // min/max clamping makes q=0 and q=1 exact.
        assert_eq!(h.quantile(0.0), 3.0);
        assert_eq!(h.quantile(1.0), 4096.0);
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // 100 identical values: every quantile collapses to that value.
        let mut h = LogHistogram::default();
        for _ in 0..100 {
            h.record(1000);
        }
        assert_eq!(h.p50(), 1000.0);
        assert_eq!(h.p99(), 1000.0);

        // 90 small + 10 large: p50 lands among the small values, p99
        // among the large ones, and both stay inside their bucket's
        // power-of-two bounds.
        let mut h = LogHistogram::default();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(5000);
        }
        let p50 = h.p50();
        assert!((8.0..=16.0).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((4096.0..=5000.0).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = LogHistogram::default();
        for v in [1u64, 2, 5, 9, 33, 70, 150, 600, 2000, 65000] {
            h.record(v);
        }
        let qs: Vec<f64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantile not monotone: {:?}", qs);
        }
        assert!(h.quantile(-1.0) >= h.min as f64);
        assert!(h.quantile(2.0) <= h.max() as f64);
    }

    #[test]
    fn quantile_bound_dominates_interpolated_quantile() {
        let mut h = LogHistogram::default();
        for v in [7u64, 90, 91, 1500, 1501, 1502, 40000] {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert!(
                h.quantile(q) <= h.quantile_bound(q) as f64,
                "interpolated quantile exceeds its bucket bound at q={q}"
            );
        }
    }

    #[test]
    fn registry_folds_events() {
        use crate::event::{Event, TimedEvent};
        let events = vec![
            TimedEvent {
                rank: 0,
                time: 0.0,
                seq: 0,
                event: Event::PacketSent {
                    dst: 1,
                    bytes: 100,
                    logical: 10,
                },
            },
            TimedEvent {
                rank: 1,
                time: 0.1,
                seq: 0,
                event: Event::PacketRecv {
                    src: 0,
                    bytes: 100,
                    logical: 10,
                },
            },
            TimedEvent {
                rank: crate::ENGINE_RANK,
                time: 0.2,
                seq: 0,
                event: Event::RoundEnd {
                    round: 4,
                    active_ranks: 0,
                },
            },
        ];
        let mut m = MetricsRegistry::new();
        m.observe_events(&events);
        assert_eq!(m.counter("packets_sent"), 1);
        assert_eq!(m.counter("bytes_sent"), 100);
        assert_eq!(m.counter("bytes_received"), 100);
        assert_eq!(m.gauge("rounds"), Some(5.0));
        // Conservation holds on this toy stream.
        assert_eq!(m.counter("bytes_sent"), m.counter("bytes_received"));
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut m = MetricsRegistry::new();
        m.inc("packets_sent", 3);
        m.max_gauge("rounds", 7.0);
        m.observe("packet_bytes", 64);
        for line in m.to_jsonl().lines() {
            let v = Json::parse(line).unwrap();
            assert!(v.get("metric").is_some());
            assert!(v.get("type").is_some());
        }
    }
}
