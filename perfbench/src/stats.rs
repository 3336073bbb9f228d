//! Percentiles, process memory readings and the result line.

use std::fmt::Write;
use std::time::Instant;

/// The benchmark's wall clock. Measuring wall time is what the benchmark is for, so every
/// timing reads the clock here, in one place.
#[inline]
pub fn now() -> Instant {
    // lint:allow(determinism) — the benchmark's one wall-clock read, by design.
    Instant::now()
}

/// Wall time since `start`, in ns.
#[inline]
pub fn ns_since(start: Instant) -> f64 {
    now().duration_since(start).as_nanos() as f64
}

/// Nearest-rank `q`-quantile of `samples` (`None` when empty).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The tolerance keeps e.g. 0.9 · 100 = 90.000…01 at rank 90.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Whether at least ten samples lie beyond the `q`-quantile, the least a reported
/// percentile rests on.
pub fn percentile_is_supported(samples: usize, q: f64) -> bool {
    samples > 0 && samples - rank(samples, q) >= 10
}

/// Sum starting from +0.0 (`Iterator::sum` of no floats is -0.0).
pub fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |acc, v| acc + v)
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`, …) in MiB.
pub fn proc_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips, i.e. every digit
        // the measurement carries; non-finite values are not valid JSON numbers.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert!(percentile_is_supported(100, 0.9));
        assert!(!percentile_is_supported(99, 0.9));
    }
}
