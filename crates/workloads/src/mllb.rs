//! ML-driven load balancing (§7.3, Fig 10).
//!
//! MLLB replaces the kernel's `can_migrate_task` heuristic with a small
//! multi-layer perceptron over scheduling features. The paper ports the
//! model to CUDA through LAKE; Fig 10 shows inference time vs batch with
//! the GPU profitable only beyond ~256 tasks (Table 3) — plausible on
//! busy servers ("90% of Google servers loaded with up to 4500 threads").
//!
//! The substrate is a multi-core run-queue simulator: cores hold tasks
//! with load weights; at balance time, candidate `(task, src, dst)`
//! migrations are featurized and scored. Ground truth comes from a
//! CFS-like rule (imbalance reduction + cache/NUMA penalties), which the
//! MLP learns.

use lake_core::{BatchThresholdPolicy, Lake, LakeError};
use lake_ml::{serialize, Activation, CpuCostModel, Matrix, Mlp, SgdConfig};
use lake_sim::SimRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::BatchTiming;

/// Features per migration candidate — a compact version of MLLB's
/// `sched` features.
pub const FEATURES: usize = 10;

/// One task on a simulated run queue.
#[derive(Debug, Clone, Copy)]
pub struct Task {
    /// CFS-style load weight.
    pub load: f32,
    /// Fraction of its footprint still cache-hot on its current core.
    pub cache_hot: f32,
    /// Whether moving it would cross a NUMA boundary.
    pub crosses_numa: bool,
}

/// A snapshot of the scheduler state relevant to one balance pass.
#[derive(Debug, Clone)]
pub struct BalanceScenario {
    /// Load per core.
    pub core_loads: Vec<f32>,
    /// Candidate migrations: (task, src core, dst core).
    pub candidates: Vec<(Task, usize, usize)>,
}

/// Generates a random balance scenario with `cores` cores and about
/// `tasks_per_core` tasks each; candidates pull from the busiest core to
/// the idlest (the kernel's pull model).
pub fn generate_scenario(cores: usize, tasks_per_core: usize, rng: &mut SimRng) -> BalanceScenario {
    assert!(cores >= 2, "need at least two cores");
    let mut core_loads = Vec::with_capacity(cores);
    let mut all_tasks: Vec<Vec<Task>> = Vec::with_capacity(cores);
    for c in 0..cores {
        // Skew: some cores run hot.
        let n = if c % 4 == 0 { tasks_per_core * 2 } else { tasks_per_core };
        let tasks: Vec<Task> = (0..n)
            .map(|_| Task {
                load: rng.gen_range(0.1..2.0),
                cache_hot: rng.gen_range(0.0..1.0),
                crosses_numa: rng.gen_bool(0.3),
            })
            .collect();
        core_loads.push(tasks.iter().map(|t| t.load).sum());
        all_tasks.push(tasks);
    }
    let busiest = argmax(&core_loads);
    let idlest = argmin(&core_loads);
    let candidates = all_tasks[busiest].iter().map(|&t| (t, busiest, idlest)).collect();
    BalanceScenario { core_loads, candidates }
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

fn argmin(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x < v[best] {
            best = i;
        }
    }
    best
}

/// Featurizes one candidate migration.
pub fn featurize(scenario: &BalanceScenario, candidate: &(Task, usize, usize)) -> Vec<f32> {
    let (task, src, dst) = candidate;
    let total: f32 = scenario.core_loads.iter().sum();
    let mean = total / scenario.core_loads.len() as f32;
    let src_load = scenario.core_loads[*src];
    let dst_load = scenario.core_loads[*dst];
    vec![
        task.load / 2.0,
        task.cache_hot,
        f32::from(u8::from(task.crosses_numa)),
        src_load / (mean * 4.0),
        dst_load / (mean * 4.0),
        (src_load - dst_load) / (mean * 4.0),
        (src_load - mean) / (mean * 2.0),
        (dst_load - mean) / (mean * 2.0),
        task.load / src_load.max(0.01),
        (src_load - task.load - dst_load - task.load).abs() / (mean * 4.0),
    ]
}

/// The CFS-like ground-truth rule: migrate if it reduces imbalance and
/// the task is not too cache-hot / NUMA-expensive.
pub fn heuristic_should_migrate(
    scenario: &BalanceScenario,
    candidate: &(Task, usize, usize),
) -> bool {
    let (task, src, dst) = candidate;
    let src_load = scenario.core_loads[*src];
    let dst_load = scenario.core_loads[*dst];
    let before = (src_load - dst_load).abs();
    let after = ((src_load - task.load) - (dst_load + task.load)).abs();
    let improves = after + 1e-3 < before;
    let penalty = task.cache_hot * 0.7 + f32::from(u8::from(task.crosses_numa)) * 0.5;
    improves && task.load > penalty * 0.4
}

/// Builds the MLLB model: a small MLP (Table 3's crossover of 256 comes
/// from how cheap one CPU inference of this size is).
pub fn build_model(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&[FEATURES, 10, 2], Activation::Relu, &mut rng)
}

/// Trains on generated scenarios; returns (model, holdout accuracy).
pub fn train(seed: u64, scenarios: usize, epochs: usize) -> (Mlp, f64) {
    let mut rng = SimRng::seed(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..scenarios {
        let sc = generate_scenario(8, 16, &mut rng);
        for cand in &sc.candidates {
            rows.push(featurize(&sc, cand));
            labels.push(usize::from(heuristic_should_migrate(&sc, cand)));
        }
    }
    let split = rows.len() * 4 / 5;
    let train_x = Matrix::from_rows(&rows[..split]);
    let test_x = Matrix::from_rows(&rows[split..]);
    let cfg = SgdConfig { learning_rate: 0.1, weight_decay: 0.0 };

    let mut model = build_model(seed);
    for _ in 0..epochs {
        model.train_batch(&train_x, &labels[..split], &cfg);
    }
    let acc = model.accuracy(&test_x, &labels[split..]);
    (model, acc)
}

/// Fig 10: inference time per batch of migration candidates, CPU vs LAKE
/// (async pre-copied) vs LAKE (sync.). The sync series adds the input
/// transfer on the critical path; the async series assumes features were
/// staged ahead of execution ("data required ... can usually be copied to
/// the GPU asynchronously, before its execution").
pub fn inference_timings(lake: &Lake, batches: &[usize]) -> Result<crate::TimingTriple, LakeError> {
    let model = build_model(1);
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

        let feats = vec![0.1f32; b * FEATURES];
        let t0 = lake.clock().now();
        ml.infer_mlp(id, b, FEATURES, &feats)?;
        let sync = (lake.clock().now() - t0).as_micros_f64();
        lake_sync.push(BatchTiming { batch: b, micros: sync });
        // Async: subtract the input-transfer share (modeled as the PCIe
        // time for the feature bytes, which the paper overlaps).
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
    fn scenario_generation_shapes() {
        let mut rng = SimRng::seed(1);
        let sc = generate_scenario(8, 16, &mut rng);
        assert_eq!(sc.core_loads.len(), 8);
        assert!(!sc.candidates.is_empty());
        let (_, src, dst) = sc.candidates[0];
        assert!(sc.core_loads[src] >= sc.core_loads[dst]);
        for cand in &sc.candidates {
            assert_eq!(featurize(&sc, cand).len(), FEATURES);
        }
    }

    #[test]
    fn heuristic_prefers_imbalance_reduction() {
        let sc = BalanceScenario { core_loads: vec![10.0, 2.0], candidates: vec![] };
        let big_cold = (Task { load: 1.5, cache_hot: 0.0, crosses_numa: false }, 0, 1);
        assert!(heuristic_should_migrate(&sc, &big_cold));
        let tiny_hot = (Task { load: 0.05, cache_hot: 1.0, crosses_numa: true }, 0, 1);
        assert!(!heuristic_should_migrate(&sc, &tiny_hot));
    }

    #[test]
    fn mlp_learns_migration_rule() {
        let (_, acc) = train(3, 60, 400);
        assert!(acc > 0.85, "MLLB accuracy {acc}");
    }

    #[test]
    fn int8_quantized_migration_accuracy_within_gate() {
        // Accuracy-delta gate for the quantized format: ≤ 0.5% top-1
        // against the f32 oracle on a fresh holdout.
        let (model, _) = train(3, 60, 400);
        let quant = lake_ml::QuantizedMlp::quantize(&model);
        let mut rng = SimRng::seed(77);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..40 {
            let sc = generate_scenario(8, 16, &mut rng);
            for cand in &sc.candidates {
                rows.push(featurize(&sc, cand));
                labels.push(usize::from(heuristic_should_migrate(&sc, cand)));
            }
        }
        let x = Matrix::from_rows(&rows);
        let f32_acc = model.accuracy(&x, &labels);
        let q_acc = quant.accuracy(&x, &labels);
        assert!(
            (f32_acc - q_acc).abs() <= 0.005,
            "MLLB int8 accuracy delta too large: f32 {f32_acc} vs int8 {q_acc}"
        );
    }

    #[test]
    fn fig10_crossover_in_paper_range() {
        let lake = Lake::builder().build();
        let batches = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
        let (cpu, lake_async, lake_sync) = inference_timings(&lake, &batches).unwrap();
        // sync costs at least as much as async
        for (a, s) in lake_async.iter().zip(&lake_sync) {
            assert!(s.micros >= a.micros);
        }
        let crossover =
            crate::crossover_batch(&cpu, &lake_async).expect("gpu should win at large batches");
        assert!(
            (64..=512).contains(&crossover),
            "MLLB crossover should be order-256, got {crossover}"
        );
    }
}
