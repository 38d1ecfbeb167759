//! I/O latency prediction — the paper's end-to-end case study (§7.1).
//!
//! LinnOS classifies each read as fast or slow from "the number of pending
//! I/Os and the completion latency of a fixed number of previous I/Os",
//! using a deliberately tiny network: two layers of 256 and 2 neurons over
//! 31 digitized inputs. Predicted-slow reads are reissued to another
//! device. The paper ports this model to a LAKE kernel module and also
//! evaluates `+1`/`+2` variants with extra 256-wide layers (Figs 7–8).
//!
//! This module provides:
//!
//! * LinnOS-style feature digitization (3 digits of queue depth + 4 × 7
//!   digits of recent latencies = 31 inputs);
//! * training from labeled replay samples (slow = above a latency
//!   percentile);
//! * [`LinnosPredictor`], pluggable into the replay engine, running
//!   either on the CPU cost model or through LAKE with dynamic batch
//!   formation (cost amortized over the batch the paper's policy forms);
//! * [`inference_timings`], the Fig 8 measurement (real remoted calls for
//!   the LAKE series).

use lake_block::replay::{IoFeatures, IoSample, SlowIoPredictor};
use lake_core::{BatchThresholdPolicy, Lake, LakeMl, ModelId};
use lake_ml::{serialize, Activation, CpuCostModel, Matrix, Mlp, SgdConfig};
use lake_sim::{Duration, Instant, SharedClock};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::BatchTiming;

/// Number of recent latencies in the feature vector.
pub const HISTORY: usize = 4;
/// Digitized input width: 3 (pending) + 4 × 7 (latencies).
pub const INPUT_WIDTH: usize = 31;

/// Digitizes one feature set the LinnOS way: decimal digits, most
/// significant first, each scaled to `[0, 0.9]`.
pub fn digitize(features: &IoFeatures) -> Vec<f32> {
    let mut out = Vec::with_capacity(INPUT_WIDTH);
    push_digits(&mut out, features.pending as u64, 3);
    for i in 0..HISTORY {
        let lat_us = features.recent_latencies_us.get(i).copied().unwrap_or(0.0);
        push_digits(&mut out, lat_us.clamp(0.0, 9_999_999.0) as u64, 7);
    }
    out
}

fn push_digits(out: &mut Vec<f32>, value: u64, digits: usize) {
    let clamped = value.min(10u64.pow(digits as u32) - 1);
    for d in (0..digits).rev() {
        let digit = (clamped / 10u64.pow(d as u32)) % 10;
        out.push(digit as f32 / 10.0);
    }
}

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinnosConfig {
    /// Extra 256-wide hidden layers: 0 = the paper's base model, 1 =
    /// `NN+1`, 2 = `NN+2`.
    pub extra_layers: usize,
    /// Latency percentile above which a read is labeled slow.
    pub slow_percentile: f64,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for LinnosConfig {
    fn default() -> Self {
        LinnosConfig {
            extra_layers: 0,
            slow_percentile: 85.0,
            epochs: 6,
            learning_rate: 0.05,
            seed: 42,
        }
    }
}

/// A trained LinnOS model plus the threshold that defined its labels.
#[derive(Debug, Clone)]
pub struct LinnosModel {
    /// The classifier (class 1 = slow).
    pub mlp: Mlp,
    /// The latency threshold used for labeling.
    pub slow_threshold: Duration,
    /// Training-set accuracy.
    pub train_accuracy: f64,
}

/// Trains a model from replay samples.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn train(samples: &[IoSample], config: &LinnosConfig) -> LinnosModel {
    assert!(!samples.is_empty(), "need training samples");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Label threshold from the latency distribution.
    let mut lats: Vec<u64> = samples.iter().map(|s| s.latency.as_nanos()).collect();
    lats.sort_unstable();
    let rank = ((config.slow_percentile / 100.0) * (lats.len() - 1) as f64) as usize;
    let slow_threshold = Duration::from_nanos(lats[rank]);

    let mut rows: Vec<(Vec<f32>, usize)> = samples
        .iter()
        .map(|s| {
            let label = usize::from(s.latency > slow_threshold);
            (digitize(&s.features), label)
        })
        .collect();

    // Balance classes by oversampling the minority (slow) class so the
    // network does not collapse to "always fast".
    let slow: Vec<(Vec<f32>, usize)> = rows.iter().filter(|(_, l)| *l == 1).cloned().collect();
    let fast_count = rows.len() - slow.len();
    if !slow.is_empty() && slow.len() < fast_count {
        let deficit = fast_count - slow.len();
        for i in 0..deficit {
            rows.push(slow[i % slow.len()].clone());
        }
    }

    let mut mlp =
        Mlp::widen(&[INPUT_WIDTH, 256, 2], config.extra_layers, Activation::Relu, &mut rng);
    let cfg = SgdConfig { learning_rate: config.learning_rate, weight_decay: 0.0 };
    let batch = 64;
    for _ in 0..config.epochs {
        rows.shuffle(&mut rng);
        for chunk in rows.chunks(batch) {
            let x = Matrix::from_rows(&chunk.iter().map(|(f, _)| f.clone()).collect::<Vec<_>>());
            let y: Vec<usize> = chunk.iter().map(|(_, l)| *l).collect();
            mlp.train_batch(&x, &y, &cfg);
        }
    }

    // Training accuracy on the (unbalanced) original samples.
    let x = Matrix::from_rows(&samples.iter().map(|s| digitize(&s.features)).collect::<Vec<_>>());
    let y: Vec<usize> = samples.iter().map(|s| usize::from(s.latency > slow_threshold)).collect();
    let train_accuracy = mlp.accuracy(&x, &y);

    LinnosModel { mlp, slow_threshold, train_accuracy }
}

/// Where the predictor's inference runs.
pub enum LinnosMode {
    /// Sequential inference on the CPU cost model (the "NN cpu" series).
    Cpu,
    /// Through LAKE with dynamic batch formation: the policy waits for a
    /// batch (bounded by `quantum`), runs one GPU inference for the whole
    /// batch, and each I/O pays the amortized cost (the "NN LAKE"
    /// series). Falls back to CPU when the formed batch is below
    /// `batch_threshold` (§4.2).
    Lake {
        /// High-level API handle into the daemon.
        ml: LakeMl,
        /// The LAKE instance's clock (for measuring remoted calls).
        clock: SharedClock,
        /// The loaded model.
        model_id: ModelId,
        /// Maximum batch-formation wait.
        quantum: Duration,
        /// Minimum profitable batch (Table 3: 8).
        batch_threshold: usize,
    },
}

impl std::fmt::Debug for LinnosMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinnosMode::Cpu => f.write_str("Cpu"),
            LinnosMode::Lake { quantum, batch_threshold, .. } => f
                .debug_struct("Lake")
                .field("quantum", quantum)
                .field("batch_threshold", batch_threshold)
                .finish(),
        }
    }
}

/// The replay-pluggable predictor.
pub struct LinnosPredictor {
    model: LinnosModel,
    mode: LinnosMode,
    cpu: CpuCostModel,
    /// EMA of observed inter-arrival time, for dynamic batch estimation.
    ema_interarrival_us: f64,
    last_arrival: Option<Instant>,
    /// Cache of measured LAKE batch-inference times by batch size.
    lake_costs: std::collections::HashMap<usize, Duration>,
    /// (cpu_decisions, gpu_decisions)
    decisions: (u64, u64),
}

impl std::fmt::Debug for LinnosPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinnosPredictor")
            .field("mode", &self.mode)
            .field("decisions", &self.decisions)
            .finish()
    }
}

impl LinnosPredictor {
    /// Creates a predictor. In [`LinnosMode::Lake`] the predictor makes
    /// the batching decision itself, so its handle offloads every batch
    /// it is given.
    pub fn new(model: LinnosModel, mode: LinnosMode) -> Self {
        let mode = match mode {
            LinnosMode::Lake { ml, clock, model_id, quantum, batch_threshold } => {
                LinnosMode::Lake {
                    ml: ml.with_policy(BatchThresholdPolicy { batch_threshold: 0 }),
                    clock,
                    model_id,
                    quantum,
                    batch_threshold,
                }
            }
            LinnosMode::Cpu => LinnosMode::Cpu,
        };
        LinnosPredictor {
            model,
            mode,
            cpu: CpuCostModel::default(),
            ema_interarrival_us: 1_000.0,
            last_arrival: None,
            lake_costs: std::collections::HashMap::new(),
            decisions: (0, 0),
        }
    }

    /// `(cpu, gpu)` decision counters.
    pub fn decisions(&self) -> (u64, u64) {
        self.decisions
    }

    fn classify_local(&self, features: &IoFeatures) -> bool {
        let x = Matrix::row_vector(&digitize(features));
        self.model.mlp.classify(&x)[0] == 1
    }

    /// Measured (and cached) LAKE time to infer a batch of `b` inputs —
    /// one real remoted call per distinct batch size.
    fn lake_batch_cost(&mut self, b: usize) -> Duration {
        if let Some(&d) = self.lake_costs.get(&b) {
            return d;
        }
        let LinnosMode::Lake { ml, clock, model_id, .. } = &self.mode else {
            unreachable!("lake_batch_cost only in Lake mode")
        };
        let zeros = vec![0.0f32; b * INPUT_WIDTH];
        let t0 = clock.now();
        let _ = ml.infer_mlp(*model_id, b, INPUT_WIDTH, &zeros);
        let cost = clock.now() - t0;
        self.lake_costs.insert(b, cost);
        cost
    }
}

impl SlowIoPredictor for LinnosPredictor {
    fn predict(&mut self, now: Instant, features: &IoFeatures) -> (bool, Duration) {
        // Track inter-arrival EMA for batch estimation.
        if let Some(last) = self.last_arrival {
            let dt = now.duration_since(last).as_micros_f64().max(0.1);
            self.ema_interarrival_us = 0.9 * self.ema_interarrival_us + 0.1 * dt;
        }
        self.last_arrival = Some(now);

        let slow = self.classify_local(features);
        let cost = match &self.mode {
            LinnosMode::Cpu => {
                self.decisions.0 += 1;
                self.cpu.time_for_flops(self.model.mlp.flops_per_input())
            }
            LinnosMode::Lake { quantum, batch_threshold, .. } => {
                let quantum = *quantum;
                let batch_threshold = *batch_threshold;
                // Expected batch formed within the quantum at the current
                // arrival rate.
                let batch =
                    ((quantum.as_micros_f64() / self.ema_interarrival_us) as usize).clamp(1, 1024);
                if batch >= batch_threshold {
                    self.decisions.1 += 1;
                    // Amortized: average wait for the batch to fill plus
                    // an equal share of the batched GPU inference.
                    let wait = quantum / 2;
                    let gpu = self.lake_batch_cost(batch);
                    wait + gpu / batch as u64
                } else {
                    self.decisions.0 += 1;
                    self.cpu.time_for_flops(self.model.mlp.flops_per_input())
                }
            }
        };
        (slow, cost)
    }

    fn name(&self) -> &str {
        match self.mode {
            LinnosMode::Cpu => "NN cpu",
            LinnosMode::Lake { .. } => "NN LAKE",
        }
    }
}

/// Fig 8: inference time per batch size, CPU vs LAKE, for a model with
/// `extra_layers` extra hidden layers. The LAKE series issues real
/// remoted calls on `lake` and measures its virtual clock.
pub fn inference_timings(
    lake: &Lake,
    extra_layers: usize,
    batches: &[usize],
) -> (Vec<BatchTiming>, Vec<BatchTiming>) {
    let mut rng = StdRng::seed_from_u64(7);
    let mlp = Mlp::widen(&[INPUT_WIDTH, 256, 2], extra_layers, Activation::Relu, &mut rng);
    let cpu_model = CpuCostModel::default();
    let flops = mlp.flops_per_input();

    // The LAKE series measures the offload path at every batch size.
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let model_id = ml.load_model(&serialize::encode_mlp(&mlp)).expect("model loads");

    let cpu: Vec<BatchTiming> = batches
        .iter()
        .map(|&b| BatchTiming { batch: b, micros: cpu_model.batch_time(flops, b).as_micros_f64() })
        .collect();
    let gpu: Vec<BatchTiming> = batches
        .iter()
        .map(|&b| {
            let feats = vec![0.25f32; b * INPUT_WIDTH];
            let t0 = lake.clock().now();
            ml.infer_mlp(model_id, b, INPUT_WIDTH, &feats).expect("inference succeeds");
            let dt = lake.clock().now() - t0;
            BatchTiming { batch: b, micros: dt.as_micros_f64() }
        })
        .collect();
    let _ = ml.unload_model(model_id);
    (cpu, gpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_block::{replay, NoPredictor, NvmeDevice, NvmeSpec, ReplayConfig, TraceSpec};
    use lake_sim::SimRng;

    fn collect_samples(seed: u64) -> Vec<IoSample> {
        let mut rng = SimRng::seed(seed);
        let mut devices = vec![NvmeDevice::new(NvmeSpec::samsung_980pro(), rng.fork())];
        let heavy = TraceSpec::cosmos().rerate(3.0).generate(Duration::from_millis(400), &mut rng);
        let report = replay(
            &mut devices,
            &[(0, heavy)],
            &mut NoPredictor,
            &ReplayConfig { collect_samples: true, ..ReplayConfig::default() },
        );
        report.samples
    }

    #[test]
    fn digitize_produces_31_bounded_inputs() {
        let f = IoFeatures {
            device: 0,
            pending: 42,
            recent_latencies_us: vec![1234.5, 0.0, 99999.0, 7.0],
        };
        let d = digitize(&f);
        assert_eq!(d.len(), INPUT_WIDTH);
        assert!(d.iter().all(|&x| (0.0..=0.9).contains(&x)));
        // pending=042 → digits 0,4,2
        assert_eq!(&d[..3], &[0.0, 0.4, 0.2]);
    }

    #[test]
    fn digitize_clamps_overflow() {
        let f = IoFeatures {
            device: 0,
            pending: 5000, // > 999
            recent_latencies_us: vec![1e12; 4],
        };
        let d = digitize(&f);
        assert_eq!(&d[..3], &[0.9, 0.9, 0.9]);
        assert!(d[3..10].iter().all(|&x| x == 0.9));
    }

    #[test]
    fn training_learns_queue_latency_correlation() {
        let samples = collect_samples(1);
        assert!(samples.len() > 200, "need a real workload, got {}", samples.len());
        let model = train(&samples, &LinnosConfig::default());
        assert!(
            model.train_accuracy > 0.8,
            "LinnOS-style accuracy should be high, got {}",
            model.train_accuracy
        );
        assert!(model.slow_threshold > Duration::ZERO);
    }

    #[test]
    fn int8_quantized_latency_prediction_within_gate() {
        // Accuracy-delta gate for the int8 format against the f32 oracle
        // on held-out replay samples: ≤ 0.5% top-1.
        let samples = collect_samples(1);
        let model = train(&samples, &LinnosConfig::default());
        let quant = lake_ml::QuantizedMlp::quantize(&model.mlp);
        let holdout = collect_samples(9);
        let rows: Vec<Vec<f32>> = holdout.iter().map(|s| digitize(&s.features)).collect();
        let labels: Vec<usize> =
            holdout.iter().map(|s| usize::from(s.latency > model.slow_threshold)).collect();
        let x = Matrix::from_rows(&rows);
        let f32_acc = model.mlp.accuracy(&x, &labels);
        let q_acc = quant.accuracy(&x, &labels);
        assert!(
            (f32_acc - q_acc).abs() <= 0.005,
            "LinnOS int8 accuracy delta too large: f32 {f32_acc} vs int8 {q_acc}"
        );
    }

    #[test]
    fn cpu_predictor_charges_about_15us() {
        let samples = collect_samples(2);
        let model = train(&samples, &LinnosConfig::default());
        let mut pred = LinnosPredictor::new(model, LinnosMode::Cpu);
        let f = IoFeatures { device: 0, pending: 3, recent_latencies_us: vec![100.0; 4] };
        let (_, cost) = pred.predict(Instant::EPOCH, &f);
        let us = cost.as_micros_f64();
        assert!((12.0..18.0).contains(&us), "inference cost {us}us");
    }

    #[test]
    fn fig8_shapes_crossover_near_8() {
        let lake = Lake::builder().build();
        let batches = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
        let (cpu, gpu) = inference_timings(&lake, 0, &batches);
        // CPU linear in batch; LAKE flat-ish.
        assert!(cpu.last().unwrap().micros > cpu[0].micros * 500.0);
        assert!(gpu.last().unwrap().micros < gpu[0].micros * 20.0);
        let crossover = crate::crossover_batch(&cpu, &gpu).expect("gpu must win eventually");
        assert!(
            (4..=16).contains(&crossover),
            "base-model crossover should be near 8, got {crossover}"
        );
    }

    #[test]
    fn fig8_deeper_models_cross_earlier() {
        let lake = Lake::builder().build();
        let batches = [1usize, 2, 4, 8, 16, 32];
        let (cpu0, gpu0) = inference_timings(&lake, 0, &batches);
        let x0 = crate::crossover_batch(&cpu0, &gpu0).unwrap();
        let lake = Lake::builder().build();
        let (cpu2, gpu2) = inference_timings(&lake, 2, &batches);
        let x2 = crate::crossover_batch(&cpu2, &gpu2).unwrap();
        assert!(x2 < x0, "NN+2 crossover {x2} should precede base {x0}");
    }
}
