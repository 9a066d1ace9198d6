//! Order statistics and the per-run sample store.

use std::collections::BTreeMap;

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method), which is what the benchmark driver applies to the values
/// this harness prints. One value is its own three quartiles; no value
/// gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    match m {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank on the sorted values;
/// used for latency tails, where interpolating between two order
/// statistics would invent a latency nobody observed.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let idx = ((data.len() as f64 * q).ceil() as usize).clamp(1, data.len()) - 1;
    data[idx]
}

/// Every value measured under one metric name during a run, in
/// measurement order.
#[derive(Default)]
pub struct Samples {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    /// Records one more value of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        match self.by_name.get_mut(name) {
            Some(values) => values.push(value),
            None => {
                self.by_name.insert(name.to_string(), vec![value]);
            }
        }
    }

    /// The values of `name` (empty when never measured).
    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every name that was measured at least once.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.by_name.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_of_even_count_is_the_mean_of_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn nearest_rank_returns_observed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[2.0], 0.99), 2.0);
    }

    #[test]
    fn samples_keep_order_and_report_missing_names_as_empty() {
        let mut s = Samples::default();
        s.push("a", 2.0);
        s.push("a", 1.0);
        assert_eq!(s.get("a"), &[2.0, 1.0]);
        assert!(s.get("b").is_empty());
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["a"]);
    }
}
