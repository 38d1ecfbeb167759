//! Fig 16 (extension): virtual makespan of high-level inference through
//! the `lake-sched` device pool — singleton synchronous launches vs
//! caller-batched launches on 1, 2, and 4 devices.
//!
//! The paper evaluates LAKE on a single GPU; this harness extends the
//! Fig 8 batching story to a device pool. Each subsystem batches its own
//! rows, so a leg issues `rows / 16` queued `submit_mlp` calls of 16 rows
//! and drains them. Placement judges every call against the devices'
//! recent utilization: back-to-back batches push a lone device past the
//! contention threshold and Fig 13's CPU fallback takes some of them,
//! while a larger pool spreads the calls and keeps them all on the GPU.

use lake_bench::{banner, fmt_us};
use lake_core::{BatchThresholdPolicy, Lake};
use lake_ml::{serialize, Activation, Matrix, Mlp};
use lake_sim::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 256;
/// Rows per caller batch (one `submit_mlp` call).
const BATCH: usize = 16;
const ROWS: &[usize] = &[32, 64, 128];
const DEVICES: &[usize] = &[1, 2, 4];

fn model() -> Mlp {
    let mut rng = StdRng::seed_from_u64(16);
    Mlp::new(&[COLS, 4096, 2], Activation::Relu, &mut rng)
}

fn feature_row(i: usize) -> Vec<f32> {
    (0..COLS).map(|j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5).collect()
}

/// Virtual time (µs) for `rows` one-row synchronous launches.
fn singleton_makespan(rows: usize) -> f64 {
    let lake = Lake::builder().build();
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let id = ml.load_model(&serialize::encode_mlp(&model())).expect("load");
    lake.clock().advance(Duration::from_millis(6));
    let t0 = lake.clock().now();
    for i in 0..rows {
        ml.infer_mlp(id, 1, COLS, &feature_row(i)).expect("infer");
    }
    (lake.clock().now() - t0).as_micros_f64()
}

/// Virtual time (µs) for `rows` rows issued as `BATCH`-row `submit_mlp`
/// calls on an `n`-device pool and drained, plus how many of those calls
/// fell back to the CPU. Every answer must equal `Mlp::classify`.
fn batched_makespan(devices: usize, rows: usize) -> (f64, u64) {
    let lake = Lake::builder().num_devices(devices).build();
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let mlp = model();
    let id = ml.load_model(&serialize::encode_mlp(&mlp)).expect("load");
    lake.clock().advance(Duration::from_millis(6));
    let t0 = lake.clock().now();
    let calls: Vec<_> = (0..rows / BATCH)
        .map(|c| {
            let x = Matrix::from_rows(
                &(c * BATCH..(c + 1) * BATCH).map(feature_row).collect::<Vec<_>>(),
            );
            (ml.submit_mlp(id, BATCH, COLS, x.data()).expect("submit"), x)
        })
        .collect();
    let done = ml.drain_completions();
    let span = (lake.clock().now() - t0).as_micros_f64();
    for (cmd, x) in &calls {
        let (_, got) = done.iter().find(|(c, _)| c == cmd).expect("call completed");
        let want: Vec<u32> = mlp.classify(x).into_iter().map(|c| c as u32).collect();
        assert_eq!(got.as_ref().expect("answered"), &want, "answers match Mlp::classify");
    }
    (span, lake.sched_metrics().cpu_fallback_batches)
}

fn print_fig16() {
    banner("Fig 16", "multi-GPU batched dispatch makespan (extension)");
    print!("{:>7} {:>12}", "rows", "singleton");
    for &n in DEVICES {
        print!("{:>12}", format!("{n}-GPU"));
    }
    println!("{:>10} {:>14}", "speedup", "1-GPU on CPU");
    for &rows in ROWS {
        let single = singleton_makespan(rows);
        print!("{rows:>7} {:>12}", fmt_us(single));
        let mut spans = Vec::new();
        let mut one_gpu_fallbacks = 0;
        for &n in DEVICES {
            let (span, fallbacks) = batched_makespan(n, rows);
            if n == 1 {
                one_gpu_fallbacks = fallbacks;
            }
            spans.push(span);
            print!("{:>12}", fmt_us(span));
        }
        let best = spans.iter().cloned().fold(f64::INFINITY, f64::min);
        let calls = rows / BATCH;
        println!("{:>9.1}x {:>14}", single / best, format!("{one_gpu_fallbacks} of {calls}"));
    }
    println!(
        "({BATCH}-row caller batches; speedup = singleton vs best pool configuration; \
         the last column counts 1-GPU calls placed on the CPU)"
    );
}

fn main() {
    print_fig16();
}
