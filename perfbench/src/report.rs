//! Percentiles and the result line.

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of a few values (the set-up repeats).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Metrics in print order, and figures printed beside them but left out
/// of the result line.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Record `name` = `value` `unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.entries.push((name, value, unit));
    }

    /// Record a figure that is printed but is not in the result line.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// Print one human-readable line per metric and note, then the result
    /// line (always the last line of standard output).
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit) in self.entries.iter().chain(&self.notes) {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric that is not finite
                // is a harness bug, reported as a failed run.
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }

    /// Whether every value is finite.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time so far as `(stolen, total)` clock ticks, from the first
/// line of `/proc/stat`; `None` where that is unavailable.
pub fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the CPU time between two [`cpu_times`] readings that the
/// hypervisor stole; 0 when either reading is missing.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => {
            ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        }
        _ => 0.0,
    }
}
