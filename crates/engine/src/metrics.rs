//! Latency bookkeeping for the serving layer, built on `oreo-obs`
//! streaming histograms.
//!
//! Workers record each query's latency into a shared log-bucketed
//! [`Histogram`](oreo_obs::Histogram) as it completes, so percentiles are
//! available **live** (the metrics exporter reads them mid-run) and the
//! engine's memory for latency tracking is a fixed ~15 KiB per histogram
//! — *not* one `u64` per query. The earlier per-worker sample vectors grew
//! without bound on long runs; that path survives only as the exact test
//! oracle ([`LatencyStats::from_samples`]), used by tests to bound the
//! histogram's error on bounded streams.
//!
//! Accuracy: histogram percentiles are within one log-bucket of the
//! exact nearest-rank answer — a relative error of at most
//! `oreo_obs::RELATIVE_ERROR` (1/32 ≈ 3.1%); values below 32 µs are
//! exact. Count, sum, mean, and max are exact in both paths.

use oreo_obs::HistogramStats;
use std::time::Duration;

/// Summary statistics over a set of per-query latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean, microseconds (exact).
    pub mean_us: f64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Maximum, microseconds (exact).
    pub max_us: f64,
}

impl LatencyStats {
    /// Compute exact stats from raw microsecond samples (sorts in place).
    ///
    /// This is the **test oracle** for [`LatencyStats::from_stats`]:
    /// the engine no longer retains per-query samples (unbounded for
    /// long streams); tests that want exact percentiles collect a
    /// bounded sample vector themselves and compare the two paths.
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u64 = samples.iter().sum();
        Self {
            count,
            mean_us: sum as f64 / count as f64,
            p50_us: percentile(samples, 0.50),
            p95_us: percentile(samples, 0.95),
            p99_us: percentile(samples, 0.99),
            max_us: *samples.last().expect("non-empty") as f64,
        }
    }

    /// Read the summary from a streaming histogram's stats (a live
    /// [`oreo_obs::Histogram::stats`] or a registry snapshot's entry):
    /// count/mean/max are exact, percentiles carry the log-bucket error
    /// documented in [`oreo_obs::RELATIVE_ERROR`].
    pub fn from_stats(s: &HistogramStats) -> Self {
        if s.count == 0 {
            return Self::default();
        }
        Self {
            count: s.count,
            mean_us: s.mean,
            p50_us: s.p50,
            p95_us: s.p95,
            p99_us: s.p99,
            max_us: s.max as f64,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Duration → whole microseconds, saturating.
pub fn as_micros_u64(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oreo_obs::{Histogram, RELATIVE_ERROR};
    use proptest::prelude::*;

    #[test]
    fn empty_samples_are_zero() {
        assert_eq!(
            LatencyStats::from_samples(&mut Vec::new()),
            LatencyStats::default()
        );
        assert_eq!(
            LatencyStats::from_stats(&Histogram::new().stats()),
            LatencyStats::default()
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).collect();
        let st = LatencyStats::from_samples(&mut s);
        assert_eq!(st.count, 100);
        assert_eq!(st.p50_us, 50.0);
        assert_eq!(st.p95_us, 95.0);
        assert_eq!(st.p99_us, 99.0);
        assert_eq!(st.max_us, 100.0);
        assert!((st.mean_us - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = vec![42];
        let st = LatencyStats::from_samples(&mut s);
        assert_eq!(st.p50_us, 42.0);
        assert_eq!(st.p99_us, 42.0);
        assert_eq!(st.max_us, 42.0);
        let h = Histogram::new();
        h.record(42);
        assert_eq!(
            LatencyStats::from_stats(&h.stats()),
            st,
            "42 < 32? no — 42 \
            lands in a width-2 bucket; midpoint of [42,43] is 42"
        );
    }

    /// `exact` within one bucket's relative error of `approx`.
    fn close(approx: f64, exact: f64) {
        let tol = exact * RELATIVE_ERROR + 1e-9;
        assert!(
            (approx - exact).abs() <= tol,
            "histogram {approx} vs exact {exact} (tol {tol})"
        );
    }

    /// Mixed-magnitude latency samples: microseconds spanning the sub-µs
    /// exact range through multi-second outliers.
    fn samples_strategy() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(0u64..5_000_000, 1..400)
    }

    proptest! {
        // Satellite: log-bucketed p50/p95/p99 stay within one bucket's
        // relative error of the exact sorted-sample oracle.
        #[test]
        fn histogram_percentiles_match_oracle(samples in samples_strategy()) {
            let mut samples = samples;
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let approx = LatencyStats::from_stats(&h.stats());
            let exact = LatencyStats::from_samples(&mut samples);
            prop_assert_eq!(approx.count, exact.count);
            prop_assert!((approx.mean_us - exact.mean_us).abs() < 1e-6);
            prop_assert_eq!(approx.max_us, exact.max_us);
            close(approx.p50_us, exact.p50_us);
            close(approx.p95_us, exact.p95_us);
            close(approx.p99_us, exact.p99_us);
        }

        // Satellite: merging two histograms equals histogramming the
        // concatenation — the guarantee that lets per-worker histograms
        // fold into one summary.
        #[test]
        fn merge_equals_concatenation(
            a in samples_strategy(),
            b in samples_strategy(),
        ) {
            let ha = Histogram::new();
            for &v in &a {
                ha.record(v);
            }
            let hb = Histogram::new();
            for &v in &b {
                hb.record(v);
            }
            ha.merge(&hb);
            let concat = Histogram::new();
            for &v in a.iter().chain(&b) {
                concat.record(v);
            }
            prop_assert_eq!(ha.stats(), concat.stats());
            prop_assert_eq!(ha.bucket_counts(), concat.bucket_counts());
        }
    }
}
