//! Readahead prediction — file system prefetching (§7.4, Fig 11).
//!
//! KML "uses a pre-trained neural network to classify applications
//! according to I/O patterns, where each pattern has an optimal readahead
//! configuration" (2.3× RocksDB throughput on SSD in the original work).
//! The paper ports the network to CUDA through LAKE; the GPU becomes
//! profitable above ~64 batched classifications (Table 3).
//!
//! Substrate: a stream generator producing file-access offset sequences
//! in three regimes — sequential, random, and strided — plus a
//! featurizer computing the statistics KML-style models consume
//! (sequentiality ratio, stride regularity, gap statistics, reuse).

use lake_core::{BatchThresholdPolicy, Lake, LakeError};
use lake_ml::{serialize, Activation, CpuCostModel, Matrix, Mlp, SgdConfig};
use lake_sim::SimRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::BatchTiming;

/// Feature width of one access-stream window.
pub const FEATURES: usize = 16;

/// The access regimes the classifier distinguishes, each mapping to a
/// readahead configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Pure sequential scan — aggressive readahead pays.
    Sequential,
    /// Uniform random — readahead wasted; disable it.
    Random,
    /// Fixed-stride scan — readahead should match the stride.
    Strided,
}

impl AccessPattern {
    /// All patterns (label order).
    pub const ALL: [AccessPattern; 3] =
        [AccessPattern::Sequential, AccessPattern::Random, AccessPattern::Strided];

    /// Class label.
    pub fn label(self) -> usize {
        match self {
            AccessPattern::Sequential => 0,
            AccessPattern::Random => 1,
            AccessPattern::Strided => 2,
        }
    }

    /// The readahead setting this class maps to, in 4 KiB pages
    /// (the "optimal readahead configuration" per pattern).
    pub fn readahead_pages(self) -> usize {
        match self {
            AccessPattern::Sequential => 64,
            AccessPattern::Random => 0,
            AccessPattern::Strided => 8,
        }
    }
}

/// Generates a block-offset access stream of the given pattern.
pub fn generate_stream(pattern: AccessPattern, len: usize, rng: &mut SimRng) -> Vec<u64> {
    let mut out = Vec::with_capacity(len);
    match pattern {
        AccessPattern::Sequential => {
            let start = rng.gen_range(0..1_000_000u64);
            for i in 0..len as u64 {
                // occasional small jitter, like real readers
                let jitter = if rng.gen_bool(0.05) { rng.gen_range(0..2) } else { 0 };
                out.push(start + i + jitter);
            }
        }
        AccessPattern::Random => {
            for _ in 0..len {
                out.push(rng.gen_range(0..10_000_000u64));
            }
        }
        AccessPattern::Strided => {
            let start = rng.gen_range(0..1_000_000u64);
            let stride = rng.gen_range(4..64u64);
            for i in 0..len as u64 {
                out.push(start + i * stride);
            }
        }
    }
    out
}

/// Computes the KML-style feature vector over an access window.
pub fn featurize(stream: &[u64]) -> Vec<f32> {
    assert!(stream.len() >= 2, "need at least two accesses");
    let n = (stream.len() - 1) as f32;
    let deltas: Vec<i64> = stream.windows(2).map(|w| w[1] as i64 - w[0] as i64).collect();

    let seq = deltas.iter().filter(|&&d| d == 1).count() as f32 / n;
    let small_fwd = deltas.iter().filter(|&&d| (1..=4).contains(&d)).count() as f32 / n;
    let backward = deltas.iter().filter(|&&d| d < 0).count() as f32 / n;
    let mean_delta = deltas.iter().map(|&d| d as f64).sum::<f64>() / n as f64;
    let var_delta = deltas.iter().map(|&d| (d as f64 - mean_delta).powi(2)).sum::<f64>() / n as f64;
    // dominant stride and its share
    let mut counts: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    for &d in &deltas {
        *counts.entry(d).or_insert(0) += 1;
    }
    let (&mode_delta, &mode_count) =
        counts.iter().max_by_key(|&(_, c)| *c).expect("non-empty deltas");
    let mode_share = mode_count as f32 / n;
    let distinct = counts.len() as f32 / n;

    let log_clamp = |x: f64| ((x.abs() + 1.0).log10() as f32).min(8.0) / 8.0;
    vec![
        seq,
        small_fwd,
        backward,
        mode_share,
        distinct,
        log_clamp(mean_delta),
        log_clamp(var_delta),
        log_clamp(mode_delta as f64),
        f32::from(u8::from(mode_delta == 1)),
        f32::from(u8::from(mode_delta > 1 && mode_share > 0.5)),
        seq * mode_share,
        (1.0 - seq) * distinct,
        log_clamp(*deltas.iter().max().expect("non-empty") as f64),
        log_clamp(*deltas.iter().min().expect("non-empty") as f64),
        n.log10() / 4.0,
        1.0, // bias-like constant feature
    ]
}

/// Builds the classifier (small net — crossover ~64, Table 3).
pub fn build_model(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&[FEATURES, 32, 3], Activation::Relu, &mut rng)
}

/// Trains the classifier; returns (model, holdout accuracy).
pub fn train(seed: u64, windows_per_class: usize, epochs: usize) -> (Mlp, f64) {
    let mut rng = SimRng::seed(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for pattern in AccessPattern::ALL {
        for _ in 0..windows_per_class {
            let stream = generate_stream(pattern, 64, &mut rng);
            rows.push(featurize(&stream));
            labels.push(pattern.label());
        }
    }
    // shuffle via index permutation
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    use rand::seq::SliceRandom;
    let mut srng = StdRng::seed_from_u64(seed ^ 0xabcd);
    idx.shuffle(&mut srng);
    let rows: Vec<Vec<f32>> = idx.iter().map(|&i| rows[i].clone()).collect();
    let labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();

    let split = rows.len() * 4 / 5;
    let train_x = Matrix::from_rows(&rows[..split]);
    let test_x = Matrix::from_rows(&rows[split..]);
    let cfg = SgdConfig { learning_rate: 0.08, weight_decay: 0.0 };
    let mut model = build_model(seed);
    for _ in 0..epochs {
        model.train_batch(&train_x, &labels[..split], &cfg);
    }
    (model.clone(), model.accuracy(&test_x, &labels[split..]))
}

/// Simulated throughput gain from pattern-aware readahead vs the fixed
/// kernel default, for a stream of the given pattern. Models the KML
/// claim ("improves RocksDB throughput by up to 2.3×") mechanically:
/// useful prefetches hide device latency, useless prefetches waste
/// bandwidth.
pub fn readahead_speedup(pattern: AccessPattern, chosen_pages: usize) -> f64 {
    let optimal = pattern.readahead_pages();
    // A fixed default of 32 pages (Linux's 128 KiB).
    match pattern {
        AccessPattern::Sequential => {
            // more readahead (up to optimal) hides more latency
            1.0 + 1.3 * (chosen_pages.min(optimal) as f64 / optimal as f64)
        }
        AccessPattern::Random => {
            // any readahead wastes bandwidth
            1.0 / (1.0 + 0.02 * chosen_pages as f64)
        }
        AccessPattern::Strided => {
            if chosen_pages == 0 {
                1.0
            } else if chosen_pages <= optimal {
                1.0 + 0.5 * (chosen_pages as f64 / optimal as f64)
            } else {
                1.5 / (1.0 + 0.01 * (chosen_pages - optimal) as f64)
            }
        }
    }
}

/// Fig 11: readahead-classification time per batch, CPU vs LAKE vs
/// LAKE (sync.).
pub fn inference_timings(lake: &Lake, batches: &[usize]) -> Result<crate::TimingTriple, LakeError> {
    let model = build_model(2);
    let flops = model.flops_per_input();
    let cpu_model = CpuCostModel::default();
    // The LAKE series measures the offload path at every batch size.
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let id = ml.load_model(&serialize::encode_mlp(&model))?;

    let mut cpu = Vec::new();
    let mut lake_async = Vec::new();
    let mut lake_sync = Vec::new();
    for &b in batches {
        cpu.push(BatchTiming { batch: b, micros: cpu_model.batch_time(flops, b).as_micros_f64() });
        let feats = vec![0.2f32; b * FEATURES];
        let t0 = lake.clock().now();
        ml.infer_mlp(id, b, FEATURES, &feats)?;
        let sync = (lake.clock().now() - t0).as_micros_f64();
        lake_sync.push(BatchTiming { batch: b, micros: sync });
        let transfer = lake.gpu().spec().transfer_time(b * FEATURES * 4).as_micros_f64();
        lake_async.push(BatchTiming { batch: b, micros: (sync - transfer).max(0.0) });
    }
    ml.unload_model(id)?;
    Ok((cpu, lake_async, lake_sync))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_have_expected_shapes() {
        let mut rng = SimRng::seed(1);
        let seq = generate_stream(AccessPattern::Sequential, 64, &mut rng);
        assert!(seq.windows(2).filter(|w| w[1] == w[0] + 1).count() > 50);
        let strided = generate_stream(AccessPattern::Strided, 64, &mut rng);
        let d0 = strided[1] - strided[0];
        assert!(d0 >= 4);
        assert!(strided.windows(2).all(|w| w[1] - w[0] == d0));
    }

    #[test]
    fn features_are_bounded_and_distinctive() {
        let mut rng = SimRng::seed(2);
        let f_seq = featurize(&generate_stream(AccessPattern::Sequential, 64, &mut rng));
        let f_rand = featurize(&generate_stream(AccessPattern::Random, 64, &mut rng));
        assert_eq!(f_seq.len(), FEATURES);
        assert!(f_seq.iter().all(|x| x.is_finite()));
        // sequentiality feature separates the classes
        assert!(f_seq[0] > 0.8);
        assert!(f_rand[0] < 0.2);
    }

    #[test]
    fn classifier_reaches_high_accuracy() {
        let (_, acc) = train(5, 60, 300);
        assert!(acc > 0.9, "pattern accuracy {acc}");
    }

    #[test]
    fn readahead_choices_follow_kml_claims() {
        // Correct classification yields speedups; the sequential gain
        // reaches the ~2.3x territory KML reports.
        let seq_gain = readahead_speedup(AccessPattern::Sequential, 64);
        assert!(seq_gain > 2.0, "sequential gain {seq_gain}");
        // Disabling readahead on random streams beats the fixed default.
        let fixed_default = readahead_speedup(AccessPattern::Random, 32);
        let tuned = readahead_speedup(AccessPattern::Random, 0);
        assert!(tuned > fixed_default);
    }

    #[test]
    fn fig11_crossover_in_paper_range() {
        let lake = Lake::builder().build();
        let batches = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
        let (cpu, lake_async, _) = inference_timings(&lake, &batches).unwrap();
        let crossover = crate::crossover_batch(&cpu, &lake_async).expect("gpu wins eventually");
        assert!(
            (16..=128).contains(&crossover),
            "prefetch crossover should be order-64, got {crossover}"
        );
    }
}
