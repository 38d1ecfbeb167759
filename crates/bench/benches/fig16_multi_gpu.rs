//! Fig 16 (extension): virtual makespan of high-level inference through
//! the `lake-sched` scheduler — singleton synchronous launches vs the
//! cross-subsystem batcher on 1, 2, and 4 devices.
//!
//! The paper evaluates LAKE on a single GPU; this harness extends the
//! Fig 8 batching story to a device pool: batched dispatch amortizes the
//! launch/occupancy overhead, and the pool overlaps batched launches
//! across devices, so the makespan drops until the (serial) command
//! channel becomes the floor.

use criterion::Criterion;
use lake_bench::{banner, fmt_us, quick_criterion};
use lake_core::{BatchPolicy, BatchThresholdPolicy, Lake};
use lake_ml::{serialize, Activation, Mlp};
use lake_sched::{BatchPolicy as Policy, Batcher};
use lake_sim::{Duration, Instant};
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 256;
const MAX_BATCH: usize = 16;
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

/// Virtual time (µs) for `rows` rows submitted through the batcher on an
/// `n`-device pool, flushed, and polled to completion.
fn batched_makespan(devices: usize, rows: usize) -> f64 {
    let lake = Lake::builder()
        .num_devices(devices)
        .batch_policy(BatchPolicy { max_batch: MAX_BATCH, max_wait: Duration::from_millis(50) })
        .build();
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let id = ml.load_model(&serialize::encode_mlp(&model())).expect("load");
    lake.clock().advance(Duration::from_millis(6));
    let t0 = lake.clock().now();
    let tickets: Vec<_> = (0..rows)
        .map(|i| ml.infer_submit(id, (i % 4) as u64, COLS, 0, &feature_row(i)).expect("submit"))
        .collect();
    ml.infer_flush().expect("flush");
    for t in tickets {
        ml.infer_poll(t).expect("poll").expect("flushed");
    }
    (lake.clock().now() - t0).as_micros_f64()
}

fn print_fig16() {
    banner("Fig 16", "multi-GPU batched dispatch makespan (extension)");
    print!("{:>7} {:>12}", "rows", "singleton");
    for &n in DEVICES {
        print!("{:>12}", format!("{n}-GPU"));
    }
    println!("{:>10}", "speedup");
    for &rows in ROWS {
        let single = singleton_makespan(rows);
        print!("{rows:>7} {:>12}", fmt_us(single));
        let mut spans = Vec::new();
        for &n in DEVICES {
            let span = batched_makespan(n, rows);
            spans.push(span);
            print!("{:>12}", fmt_us(span));
        }
        let best = spans.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("{:>9.1}x", single / best);
    }
    println!("(batch size {MAX_BATCH}; speedup = singleton vs best pool configuration)");
}

fn bench(c: &mut Criterion) {
    // Real (host) throughput of the batcher's submit/flush hot path.
    let mut group = c.benchmark_group("sched_batcher");
    group.bench_function("submit_flush_1k", |b| {
        b.iter(|| {
            let mut batcher =
                Batcher::new(Policy { max_batch: MAX_BATCH, max_wait: Duration::from_micros(100) });
            let mut dispatched = 0usize;
            for i in 0..1024u64 {
                let (_, full) = batcher.submit(i % 4, i % 3, 4, 0, &[0.5; 4], Instant::EPOCH);
                dispatched += full.map(|b| b.rows()).unwrap_or(0);
            }
            dispatched += batcher.flush_all().iter().map(|b| b.rows()).sum::<usize>();
            assert_eq!(dispatched, 1024);
            dispatched
        })
    });
    group.finish();
}

fn main() {
    print_fig16();
    let mut c = quick_criterion();
    bench(&mut c);
    c.final_summary();
}
