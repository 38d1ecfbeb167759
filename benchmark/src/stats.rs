//! Order statistics, process memory and the host calibration loop.

/// Sorts `v` and returns its median (mean of the two middle values when the
/// count is even). 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The slack keeps 99.9 % of 10 000 at rank 9990 despite binary rounding.
    let rank = (pct / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile and how many samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
}

/// The ladder 50/90/99/99.9/99.99 as "one sample in `k` lies beyond".
const LADDER: [usize; 5] = [2, 10, 100, 1000, 10_000];

/// The highest percentile of the ladder 50/90/99/99.9/99.99 that still has
/// at least ten samples beyond it, so the reported tail is not one outlier.
/// With fewer than twenty samples that is still the median.
pub fn highest_supported(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let k = LADDER.iter().copied().filter(|k| n / k >= 10).max().unwrap_or(LADDER[0]);
    let pct = 100.0 - 100.0 / k as f64;
    Tail { pct, value: percentile(sorted, pct), samples: n }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times a fixed 4e8-step dependent integer chain, milliseconds. The same
/// work on every host and commit: two runs whose values differ by more than
/// a tenth ran on differently loaded hosts and are not comparable. The step
/// mixes a shift into the multiply so the compiler cannot fold steps.
pub fn host_calib_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..400_000_000u64 {
        x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn highest_supported_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: even p50 has fewer than ten beyond it; p50 is the floor.
        let t = highest_supported(&ramp(19));
        assert_eq!((t.pct, t.samples), (50.0, 19));
        // 100 samples: p90 leaves exactly ten beyond, p99 leaves one.
        let t = highest_supported(&ramp(100));
        assert_eq!((t.pct, t.value, t.samples), (90.0, 90.0, 100));
        // 999 samples: p99 leaves 9.99, not enough.
        assert_eq!(highest_supported(&ramp(999)).pct, 90.0);
        assert_eq!(highest_supported(&ramp(1000)).pct, 99.0);
        let t = highest_supported(&ramp(10_000));
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
        assert_eq!(highest_supported(&ramp(100_000)).pct, 99.99);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
