//! `simd_quant`: per-kernel f32 and int8 GEMM engine timings (PR 9).
//!
//! Runs the same MLP/LSTM workloads as `gemm_scaling` single-threaded
//! through both microkernel tiers the host supports (`scalar` and, where
//! detected, `avx2`) in both numeric formats, and records:
//!
//! * wall time and TSC cycles-per-element (one element = one MAC of the
//!   model's GEMMs), per kernel and format,
//! * speedup vs the scalar f32 kernel,
//! * int8-vs-f32 speedup on the same kernel, and the int8/f32 top-1
//!   prediction agreement on random inputs (the workload crates gate the
//!   real ≤0.5% accuracy deltas; this reports the drift on noise).
//!
//! Gates (SIMD-capable hosts only; scalar-only hosts report instead of
//! failing): the best SIMD f32 kernel must beat scalar f32 at batch 256,
//! and int8 must beat f32 on that same kernel by ≥ 1.5x — the whole
//! point of the 4x-smaller format is that `vpmaddwd` pairs buy real
//! throughput, not just smaller model pages.
//!
//! Emits the table into `BENCH_PR9.json`.

use std::time::Instant;

use criterion::Criterion;
use lake_bench::{banner, fmt_us, quick_criterion, upsert_bench_json};
use lake_ml::{
    Activation, InferenceEngine, Kernel, LstmClassifier, Mlp, QuantizedLstm, QuantizedMlp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH: usize = 256;
const REPS: usize = 7;

const MLP_IN: usize = 256;
const LSTM_FEAT: usize = 16;
const LSTM_HIDDEN: usize = 64;
const LSTM_STEPS: usize = 8;
const LSTM_COLS: usize = LSTM_FEAT * LSTM_STEPS;

fn features(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

#[cfg(target_arch = "x86_64")]
fn tsc() -> u64 {
    // SAFETY: rdtsc has no preconditions on x86_64.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn tsc() -> u64 {
    0
}

/// Best-of-`REPS` (wall micros, TSC cycles) plus the last result.
fn time_best<R>(mut f: impl FnMut() -> R) -> (f64, u64, R) {
    let mut best_us = f64::INFINITY;
    let mut best_cycles = u64::MAX;
    let mut out = None;
    for _ in 0..REPS {
        let c0 = tsc();
        let t = Instant::now();
        out = Some(f());
        let us = t.elapsed().as_secs_f64() * 1.0e6;
        let cycles = tsc().saturating_sub(c0);
        if us < best_us {
            best_us = us;
            best_cycles = cycles;
        }
    }
    (best_us, best_cycles, out.expect("at least one rep"))
}

struct Row {
    model: &'static str,
    format: &'static str,
    kernel: &'static str,
    us: f64,
    cycles_per_elem: f64,
    speedup_vs_scalar_f32: f64,
}

/// Kernels to measure: every tier the host can actually run.
fn kernels() -> Vec<Kernel> {
    [Kernel::Scalar, Kernel::Avx2].into_iter().filter(|k| k.available()).collect()
}

fn agreement(a: &[usize], b: &[usize]) -> f64 {
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

#[allow(clippy::too_many_lines)]
fn run() -> (Vec<Row>, f64, f64) {
    let mut rng = StdRng::seed_from_u64(9);
    let mlp = Mlp::new(&[MLP_IN, 512, 256, 10], Activation::Relu, &mut rng);
    let lstm = LstmClassifier::new(LSTM_FEAT, LSTM_HIDDEN, 1, 4, &mut rng);
    let qmlp = QuantizedMlp::quantize(&mlp);
    let qlstm = QuantizedLstm::quantize(&lstm);

    // One MAC of the model's GEMMs = one "element" for the cycle metric.
    let mlp_elems = BATCH as f64 * mlp.flops_per_input() / 2.0;
    let lstm_elems = BATCH as f64 * lstm.flops_per_sequence(LSTM_STEPS) / 2.0;

    let mlp_data = features(BATCH * MLP_IN, 41);
    let lstm_data = features(BATCH * LSTM_COLS, 82);

    let mut rows = Vec::new();
    let mut scalar_f32 = std::collections::HashMap::new();
    let mut f32_preds = std::collections::HashMap::new();
    let mut mlp_agree = 1.0;
    let mut lstm_agree = 1.0;
    for kernel in kernels() {
        let engine = InferenceEngine::new(1).with_kernel(kernel);
        // f32 paths.
        let (mlp_us, mlp_cy, mlp_got) =
            time_best(|| engine.classify_mlp(1, 1, &mlp, &mlp_data, BATCH, MLP_IN));
        let (lstm_us, lstm_cy, lstm_got) = time_best(|| {
            engine.classify_lstm(2, 1, &lstm, &lstm_data, BATCH, LSTM_COLS, LSTM_STEPS)
        });
        // int8 paths (same engine, same inputs, separate cache ids).
        let (qmlp_us, qmlp_cy, qmlp_got) =
            time_best(|| engine.classify_quant_mlp(3, 1, &qmlp, &mlp_data, BATCH, MLP_IN));
        let (qlstm_us, qlstm_cy, qlstm_got) = time_best(|| {
            engine.classify_quant_lstm(4, 1, &qlstm, &lstm_data, BATCH, LSTM_COLS, LSTM_STEPS)
        });
        if kernel == Kernel::Scalar {
            scalar_f32.insert("mlp", mlp_us);
            scalar_f32.insert("lstm", lstm_us);
            f32_preds.insert("mlp", mlp_got.clone());
            f32_preds.insert("lstm", lstm_got.clone());
        } else {
            // f32 kernels are bit-identical; int8 kernels are too (exact
            // i32 accumulation). Cross-kernel divergence is a bug, not
            // noise — assert it here so the bench doubles as a check.
            assert_eq!(&mlp_got, &f32_preds["mlp"], "f32 MLP kernels diverged");
            assert_eq!(&lstm_got, &f32_preds["lstm"], "f32 LSTM kernels diverged");
        }
        mlp_agree = agreement(&qmlp_got, &mlp_got);
        lstm_agree = agreement(&qlstm_got, &lstm_got);

        for (model, format, us, cy, elems) in [
            ("mlp", "f32", mlp_us, mlp_cy, mlp_elems),
            ("lstm", "f32", lstm_us, lstm_cy, lstm_elems),
            ("mlp", "int8", qmlp_us, qmlp_cy, mlp_elems),
            ("lstm", "int8", qlstm_us, qlstm_cy, lstm_elems),
        ] {
            rows.push(Row {
                model,
                format,
                kernel: kernel.name(),
                us,
                cycles_per_elem: cy as f64 / elems,
                speedup_vs_scalar_f32: scalar_f32[model] / us,
            });
        }
    }
    (rows, mlp_agree, lstm_agree)
}

fn print_simd_quant() {
    banner("simd_quant", "per-kernel f32 vs int8 engine timings (PR 9)");
    let (rows, mlp_agree, lstm_agree) = run();
    println!(
        "{:<6} {:<6} {:<8} {:>12} {:>14} {:>16}",
        "model", "fmt", "kernel", "time", "cycles/elem", "vs scalar f32"
    );
    for r in &rows {
        println!(
            "{:<6} {:<6} {:<8} {:>12} {:>14.3} {:>15.2}x",
            r.model,
            r.format,
            r.kernel,
            fmt_us(r.us),
            r.cycles_per_elem,
            r.speedup_vs_scalar_f32,
        );
    }
    println!(
        "int8 vs f32 top-1 agreement on noise: mlp {:.1}%, lstm {:.1}%",
        mlp_agree * 100.0,
        lstm_agree * 100.0
    );

    let best = Kernel::detect();
    let find = |model: &str, format: &str, kernel: &str| {
        rows.iter()
            .find(|r| r.model == model && r.format == format && r.kernel == kernel)
            .expect("measured row")
    };
    for model in ["mlp", "lstm"] {
        let f = find(model, "f32", best.name());
        let q = find(model, "int8", best.name());
        let int8_vs_f32 = f.us / q.us;
        println!(
            "{model}: {} f32 {:.2}x vs scalar, int8 {:.2}x vs f32",
            best.name(),
            f.speedup_vs_scalar_f32,
            int8_vs_f32
        );
        if best == Kernel::Scalar {
            println!("   [scalar-only host] SIMD and int8 gates reported, not enforced");
            continue;
        }
        assert!(
            f.speedup_vs_scalar_f32 >= 1.0,
            "{model}: {} f32 slower than scalar f32: {:.2}x",
            best.name(),
            f.speedup_vs_scalar_f32
        );
        assert!(
            int8_vs_f32 >= 1.5,
            "{model}: int8 below the 1.5x gate over {} f32: {int8_vs_f32:.2}x",
            best.name()
        );
    }
    // Quantization must stay accurate enough that random inputs rarely
    // flip the argmax (the workload crates hold the real ≤0.5% gates).
    assert!(mlp_agree >= 0.98, "int8 MLP agreement dropped: {mlp_agree}");
    assert!(lstm_agree >= 0.98, "int8 LSTM agreement dropped: {lstm_agree}");

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                r#"{{"model": "{}", "format": "{}", "kernel": "{}", "batch": {BATCH}, "us": {:.1}, "cycles_per_elem": {:.4}, "speedup_vs_scalar_f32": {:.2}}}"#,
                r.model, r.format, r.kernel, r.us, r.cycles_per_elem, r.speedup_vs_scalar_f32,
            )
        })
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR9.json");
    let value = format!(
        r#"{{"host_kernel": "{}", "mlp_int8_agreement": {:.4}, "lstm_int8_agreement": {:.4}, "rows": [{}]}}"#,
        best.name(),
        mlp_agree,
        lstm_agree,
        entries.join(", ")
    );
    upsert_bench_json(&path, "simd_quant", &value);
    println!("-> recorded simd_quant series in BENCH_PR9.json");
}

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mlp = Mlp::new(&[MLP_IN, 512, 256, 10], Activation::Relu, &mut rng);
    let qmlp = QuantizedMlp::quantize(&mlp);
    let engine = InferenceEngine::new(1);
    let data = features(64 * MLP_IN, 7);

    let mut group = c.benchmark_group("simd_quant");
    group.bench_function("f32_mlp_b64", |b| {
        b.iter(|| engine.classify_mlp(1, 1, &mlp, &data, 64, MLP_IN));
    });
    group.bench_function("int8_mlp_b64", |b| {
        b.iter(|| engine.classify_quant_mlp(3, 1, &qmlp, &data, 64, MLP_IN));
    });
    group.finish();
}

fn main() {
    print_simd_quant();
    let mut c = quick_criterion();
    bench(&mut c);
    c.final_summary();
}
