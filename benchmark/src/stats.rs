//! Order statistics, the per-layer counter table, and the process's peak
//! memory.

use std::collections::BTreeMap;

/// Quantile `q` in `[0, 1]` of `sorted` (ascending), interpolating between
/// the two nearest ranks. `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of an unsorted sample (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Named per-layer counts, summed (or maximized) over the jobs of a traced
/// pass. Names follow the metric names (`"core.squashes"`).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    values: BTreeMap<&'static str, f64>,
}

impl Counters {
    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Raises the counter `name` to at least `v` (high-water marks).
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// The counter's value, `0.0` when never touched.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `get(num) / get(den)`, `0.0` when the denominator is zero.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0.0 {
            0.0
        } else {
            self.get(num) / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn counters_sum_and_max() {
        let mut c = Counters::default();
        c.add("a", 2.0);
        c.add("a", 3.0);
        c.max("m", 4.0);
        c.max("m", 1.0);
        assert_eq!(c.get("a"), 5.0);
        assert_eq!(c.get("m"), 4.0);
        assert_eq!(c.ratio("a", "m"), 1.25);
        assert_eq!(c.ratio("a", "none"), 0.0);
    }
}
