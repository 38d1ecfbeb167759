//! The Fig 1 / Fig 13 contention study: watch a GPU-accelerated user
//! application degrade under unmediated kernel contention, then watch the
//! adaptive policy fix it.
//!
//! Run with: `cargo run --release --example contention_policy`

use lake::sim::Duration;
use lake::workloads::contention::{run, summarize_fig1, ContentionConfig};

fn sparkline(points: &[(lake::sim::Instant, f64)], max: f64) -> String {
    const BARS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    points
        .iter()
        .map(|&(_, v)| {
            let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

pub fn main() {
    // --- Fig 1: no policy --------------------------------------------------
    let cfg = ContentionConfig::fig1();
    let result = run(&cfg);
    let summary = summarize_fig1(&cfg, &result);
    println!("Fig 1 — unmediated contention (user hashing app, pages/s):");
    println!("  solo (T0..T1):            {:>12.3e}", summary.solo);
    println!("  + page warmth (T1..T2):   {:>12.3e}", summary.one_contender);
    println!("  + I/O predictor (T2..):   {:>12.3e}", summary.two_contenders);
    println!("  max degradation:          {:>11.1}%", summary.max_degradation * 100.0);

    let buckets = result.user_throughput.bucket_mean(Duration::from_millis(250));
    println!("  timeline: {}", sparkline(&buckets, result.user_peak));

    // --- Fig 13: adaptive policy --------------------------------------------
    let cfg = ContentionConfig::fig13();
    let result = run(&cfg);
    println!("\nFig 13 — adaptive contention-averse policy (normalized):");
    let user = result.user_throughput.bucket_mean(Duration::from_millis(500));
    let normalized: Vec<(lake::sim::Instant, f64)> =
        user.iter().map(|&(t, v)| (t, v / result.user_peak)).collect();
    println!("  user (hashing):      {}", sparkline(&normalized, 1.0));
    let kernel = result.kernel_io.bucket_mean(Duration::from_millis(500));
    println!("  kernel (I/O pred.):  {}", sparkline(&kernel, 1.0));
    let target = result.kernel_target.bucket_mean(Duration::from_millis(500));
    println!("  kernel target (1=GPU): {}", sparkline(&target, 1.0));
    println!("  (user enters the GPU at 10s and leaves at 22s; the kernel");
    println!("   falls back to the CPU in between, then reclaims the GPU)");
}
