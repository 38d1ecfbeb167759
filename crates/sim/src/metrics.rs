//! Metric recorders used by the experiment harnesses.
//!
//! * [`TimeSeries`] — bucketed samples over virtual time (Fig 1/13/15
//!   timelines).
//! * [`MovingAverage`] — the windowed average the contention policy in
//!   Fig 3 computes over NVML utilization samples.
//! * [`UtilizationMeter`] — busy-time accounting for CPUs and the GPU
//!   (Fig 15 utilization traces).
//! * [`Histogram`] — latency distributions (Fig 7 averages and tails).

use std::collections::VecDeque;

use crate::clock::{Duration, Instant};

/// A windowed moving average over `f64` samples.
///
/// # Example
///
/// ```
/// use lake_sim::MovingAverage;
///
/// let mut avg = MovingAverage::new(3);
/// avg.push(1.0);
/// avg.push(2.0);
/// avg.push(3.0);
/// avg.push(4.0); // evicts 1.0
/// assert_eq!(avg.value(), Some(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: usize,
    samples: VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Creates a moving average over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "moving-average window must be non-zero");
        MovingAverage { window, samples: VecDeque::with_capacity(window), sum: 0.0 }
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, sample: f64) {
        if self.samples.len() == self.window {
            if let Some(old) = self.samples.pop_front() {
                self.sum -= old;
            }
        }
        self.samples.push_back(sample);
        self.sum += sample;
    }

    /// The current average, or `None` before any sample.
    pub fn value(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A `(time, value)` series with optional fixed-width bucket aggregation.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(Instant, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Records a point. Points must be recorded in non-decreasing time
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded point.
    pub fn record(&mut self, at: Instant, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "time series points must be time-ordered");
        }
        self.points.push((at, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(Instant, f64)] {
        &self.points
    }

    /// Number of points recorded.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Aggregates points into fixed-width buckets, averaging values within
    /// each bucket. Returns `(bucket_start, mean)` pairs for non-empty
    /// buckets. Used to render paper-style throughput timelines.
    pub fn bucket_mean(&self, width: Duration) -> Vec<(Instant, f64)> {
        assert!(!width.is_zero(), "bucket width must be non-zero");
        let mut out: Vec<(Instant, f64)> = Vec::new();
        let mut cur_bucket: Option<(u64, f64, usize)> = None;
        for &(at, v) in &self.points {
            let idx = at.as_nanos() / width.as_nanos();
            match cur_bucket {
                Some((b, sum, n)) if b == idx => cur_bucket = Some((b, sum + v, n + 1)),
                Some((b, sum, n)) => {
                    out.push((Instant::from_nanos(b * width.as_nanos()), sum / n as f64));
                    cur_bucket = Some((idx, v, 1));
                    let _ = b;
                }
                None => cur_bucket = Some((idx, v, 1)),
            }
        }
        if let Some((b, sum, n)) = cur_bucket {
            out.push((Instant::from_nanos(b * width.as_nanos()), sum / n as f64));
        }
        out
    }

    /// Mean of all recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Minimum recorded value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum recorded value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// Tracks what fraction of virtual time a resource was busy, in fixed
/// buckets — e.g. "GPU utilization per 500 ms" for Fig 15.
#[derive(Debug, Clone)]
pub struct UtilizationMeter {
    bucket: Duration,
    /// busy nanoseconds accumulated per bucket index
    busy: Vec<u64>,
}

impl UtilizationMeter {
    /// Creates a meter with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: Duration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be non-zero");
        UtilizationMeter { bucket, busy: Vec::new() }
    }

    /// Records that the resource was busy during `[start, end)`. Intervals
    /// may be recorded in any order and may span buckets.
    pub fn record_busy(&mut self, start: Instant, end: Instant) {
        if end <= start {
            return;
        }
        let bw = self.bucket.as_nanos();
        let mut s = start.as_nanos();
        let e = end.as_nanos();
        while s < e {
            let idx = (s / bw) as usize;
            let bucket_end = (idx as u64 + 1) * bw;
            let span = e.min(bucket_end) - s;
            if self.busy.len() <= idx {
                self.busy.resize(idx + 1, 0);
            }
            self.busy[idx] += span;
            s += span;
        }
    }

    /// Utilization (0..=1) per bucket, up to and including `until`.
    pub fn utilization_until(&self, until: Instant) -> Vec<(Instant, f64)> {
        let bw = self.bucket.as_nanos();
        let n_buckets = (until.as_nanos() / bw + 1) as usize;
        (0..n_buckets)
            .map(|i| {
                let busy = self.busy.get(i).copied().unwrap_or(0);
                (Instant::from_nanos(i as u64 * bw), (busy as f64 / bw as f64).min(1.0))
            })
            .collect()
    }

    /// Overall utilization across `[EPOCH, until)`. Busy time recorded
    /// beyond `until` is excluded; within the bucket containing `until`,
    /// busy time is attributed proportionally.
    pub fn overall_until(&self, until: Instant) -> f64 {
        if until == Instant::EPOCH {
            return 0.0;
        }
        let bw = self.bucket.as_nanos();
        let full = (until.as_nanos() / bw) as usize;
        let mut busy: f64 = self.busy.iter().take(full).map(|&b| b as f64).sum();
        if let Some(&partial) = self.busy.get(full) {
            let frac = (until.as_nanos() % bw) as f64 / bw as f64;
            busy += partial as f64 * frac;
        }
        (busy / until.as_nanos() as f64).min(1.0)
    }
}

/// A simple latency histogram with power-of-two-ish linear buckets plus
/// exact aggregate statistics (count, mean, min, max, percentiles via
/// sorted samples when small).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records a latency.
    pub fn record(&mut self, d: Duration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency, or `None` if empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        Some(Duration::from_nanos((sum / self.samples.len() as u128) as u64))
    }

    /// The `p`-th percentile (0..=100), or `None` if empty.
    pub fn percentile(&mut self, p: f64) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile must be within 0..=100");
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * (self.samples.len() - 1) as f64).round() as usize;
        Some(Duration::from_nanos(self.samples[rank]))
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<Duration> {
        self.samples.iter().max().map(|&ns| Duration::from_nanos(ns))
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<Duration> {
        self.samples.iter().min().map(|&ns| Duration::from_nanos(ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_window_semantics() {
        let mut m = MovingAverage::new(2);
        assert!(m.value().is_none());
        m.push(10.0);
        assert_eq!(m.value(), Some(10.0));
        m.push(20.0);
        assert_eq!(m.value(), Some(15.0));
        m.push(40.0);
        assert_eq!(m.value(), Some(30.0));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn time_series_bucketing_averages_within_buckets() {
        let mut ts = TimeSeries::new();
        ts.record(Instant::from_nanos(0), 1.0);
        ts.record(Instant::from_nanos(500), 3.0);
        ts.record(Instant::from_nanos(1_200), 10.0);
        let buckets = ts.bucket_mean(Duration::from_nanos(1_000));
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (Instant::from_nanos(0), 2.0));
        assert_eq!(buckets[1], (Instant::from_nanos(1_000), 10.0));
    }

    #[test]
    fn time_series_stats() {
        let mut ts = TimeSeries::new();
        for (t, v) in [(0u64, 2.0), (1, 4.0), (2, 9.0)] {
            ts.record(Instant::from_nanos(t), v);
        }
        assert_eq!(ts.mean(), Some(5.0));
        assert_eq!(ts.min(), Some(2.0));
        assert_eq!(ts.max(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(Instant::from_nanos(10), 1.0);
        ts.record(Instant::from_nanos(5), 1.0);
    }

    #[test]
    fn utilization_meter_splits_across_buckets() {
        let mut u = UtilizationMeter::new(Duration::from_nanos(100));
        // busy 50ns in bucket 0, all of bucket 1, 25ns of bucket 2
        u.record_busy(Instant::from_nanos(50), Instant::from_nanos(225));
        let buckets = u.utilization_until(Instant::from_nanos(299));
        assert_eq!(buckets.len(), 3);
        assert!((buckets[0].1 - 0.5).abs() < 1e-9);
        assert!((buckets[1].1 - 1.0).abs() < 1e-9);
        assert!((buckets[2].1 - 0.25).abs() < 1e-9);
        let overall = u.overall_until(Instant::from_nanos(300));
        assert!((overall - 175.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_meter_ignores_empty_intervals() {
        let mut u = UtilizationMeter::new(Duration::from_nanos(100));
        u.record_busy(Instant::from_nanos(50), Instant::from_nanos(50));
        assert_eq!(u.overall_until(Instant::from_nanos(100)), 0.0);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for us in [10u64, 20, 30, 40, 50] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Some(Duration::from_micros(30)));
        assert_eq!(h.min(), Some(Duration::from_micros(10)));
        assert_eq!(h.max(), Some(Duration::from_micros(50)));
        assert_eq!(h.percentile(50.0), Some(Duration::from_micros(30)));
        assert_eq!(h.percentile(100.0), Some(Duration::from_micros(50)));
        assert_eq!(h.percentile(0.0), Some(Duration::from_micros(10)));
    }

    #[test]
    fn histogram_empty_is_none() {
        let mut h = Histogram::new();
        assert!(h.mean().is_none());
        assert!(h.percentile(50.0).is_none());
    }
}
