//! Integration: the `lake-sched` multi-GPU device pool driven through the
//! remoted high-level APIs.
//!
//! A 2-device pool demonstrably beats a single device on caller-batched
//! dispatch, batched launches beat singleton launches past the crossover,
//! and the per-device contention policy reproduces Fig 13's CPU fallback
//! and recovery.

use lake::core::{BatchThresholdPolicy, Lake, LakeMl, SchedMetrics};
use lake::ml::{serialize, Activation, Matrix, Mlp};
use lake::sim::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 256;
const ROWS: usize = 64;
/// Rows per caller batch (one `submit_mlp` call).
const BATCH: usize = 16;

/// A handle that offloads every inference: the daemon's scheduler is the
/// subject, and small batches would otherwise be answered kernel-side.
fn offloading(lake: &Lake) -> LakeMl {
    lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 })
}

/// Deterministic feature rows (no RNG in the hot path).
fn feature_row(i: usize) -> Vec<f32> {
    (0..COLS).map(|j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5).collect()
}

/// A wide MLP whose batched launch dominates RPC overhead, so device
/// parallelism is visible in the virtual makespan.
fn wide_model() -> Mlp {
    let mut rng = StdRng::seed_from_u64(42);
    Mlp::new(&[COLS, 4096, 2], Activation::Relu, &mut rng)
}

/// Issues `ROWS` rows as `BATCH`-row `submit_mlp` calls on an
/// `n`-device deployment, drains them, and reports the virtual makespan
/// plus scheduler counters and the classes in row order.
fn run_batched(num_devices: usize) -> (Duration, SchedMetrics, Vec<u32>) {
    let lake = Lake::builder().num_devices(num_devices).build();
    let ml = offloading(&lake);
    let id = ml.load_model(&serialize::encode_mlp(&wide_model())).expect("load model");
    // Let the weight-upload DMA traffic age out of the 5 ms NVML window
    // so placement starts from an idle utilization reading.
    lake.clock().advance(Duration::from_millis(6));

    let t0 = lake.clock().now();
    let calls: Vec<_> = (0..ROWS / BATCH)
        .map(|c| {
            let rows: Vec<f32> = (c * BATCH..(c + 1) * BATCH).flat_map(feature_row).collect();
            ml.submit_mlp(id, BATCH, COLS, &rows).expect("submit")
        })
        .collect();
    let done = ml.drain_completions();
    let makespan = lake.clock().now() - t0;
    let classes = calls
        .iter()
        .flat_map(|cmd| {
            let (_, result) = done.iter().find(|(c, _)| c == cmd).expect("call completed");
            result.clone().expect("answered")
        })
        .collect();
    (makespan, lake.sched_metrics(), classes)
}

#[test]
fn two_gpus_beat_one_on_batched_dispatch() {
    let (span1, m1, classes1) = run_batched(1);
    let (span2, m2, classes2) = run_batched(2);

    // Same work, same answers.
    assert_eq!(classes1, classes2);
    let rows: Vec<Vec<f32>> = (0..ROWS).map(feature_row).collect();
    let local = wide_model().classify(&Matrix::from_rows(&rows));
    assert_eq!(classes1, local.iter().map(|&c| c as u32).collect::<Vec<_>>());

    // Every row ran once, on a device or on the CPU. Back-to-back
    // batches contend a lone device, so placement sends some of them to
    // the CPU; two devices share the calls and need no fallback.
    for m in [&m1, &m2] {
        let on_devices: u64 = m.devices.iter().map(|d| d.dispatched_rows).sum();
        assert_eq!((on_devices + m.cpu_fallback_rows) as usize, ROWS, "{m:?}");
    }
    assert_eq!(m2.cpu_fallback_batches, 0, "two devices absorb the calls: {m2:?}");
    assert!(
        m2.devices.iter().all(|d| d.dispatched_batches as usize == ROWS / BATCH / 2),
        "least-loaded placement must spread the calls evenly over both devices: {m2:?}"
    );

    // The acceptance bar: two devices beat the single-device makespan.
    assert!(
        span2.as_nanos() * 10 <= span1.as_nanos() * 7,
        "2-GPU makespan {span2} should be well under 1-GPU {span1}"
    );
}

#[test]
fn batched_dispatch_beats_singleton_launches_past_crossover() {
    // Singleton baseline: one synchronous launch per row (rows = 1 never
    // amortizes the launch overhead or fills the occupancy ramp).
    let lake = Lake::builder().build();
    let ml = offloading(&lake);
    let id = ml.load_model(&serialize::encode_mlp(&wide_model())).expect("load model");
    lake.clock().advance(Duration::from_millis(6));
    let t0 = lake.clock().now();
    let singleton: Vec<u32> = (0..ROWS)
        .flat_map(|i| ml.infer_mlp(id, 1, COLS, &feature_row(i)).expect("infer"))
        .collect();
    let singleton_span = lake.clock().now() - t0;

    let (batched_span, _, batched) = run_batched(1);
    assert_eq!(singleton, batched, "batching must not change results");
    assert!(
        batched_span.as_nanos() * 2 < singleton_span.as_nanos(),
        "batched {batched_span} should beat {ROWS} singleton launches {singleton_span}"
    );
}

/// Saturates a pool device's recent history with compute launches.
fn burn(lake: &Lake, idx: usize, launches: usize) {
    for _ in 0..launches {
        lake.pool().device(idx).launch_kernel("burn", 2_000_000, &[]).expect("burn");
    }
}

/// Idles the clock past several NVML sampling intervals so the 8-deep
/// moving averages decay (the recovery half of Fig 13).
fn settle(lake: &Lake) {
    for _ in 0..12 {
        lake.clock().advance(Duration::from_millis(5));
        lake.pool().utilization_snapshot();
    }
}

fn small_model() -> Mlp {
    let mut rng = StdRng::seed_from_u64(7);
    Mlp::new(&[8, 16, 2], Activation::Relu, &mut rng)
}

#[test]
fn contention_on_all_devices_falls_back_to_cpu_and_recovers() {
    let lake = Lake::builder().num_devices(2).build();
    lake.register_kernel("burn", 1.0, |_, _| Ok(()));
    let ml = offloading(&lake);
    let id = ml.load_model(&serialize::encode_mlp(&small_model())).expect("load model");

    burn(&lake, 0, 60);
    burn(&lake, 1, 60);
    let feats: Vec<f32> = (0..8).map(|j| j as f32 / 8.0).collect();
    let classes = ml.infer_mlp(id, 1, 8, &feats).expect("infer");
    let m = lake.sched_metrics();
    assert_eq!(m.cpu_fallback_batches, 1, "both devices contended: {m:?}");
    assert!(m.devices.iter().all(|d| d.dispatched_batches == 0));

    // The CPU path runs the same model math.
    let local = small_model().classify(&Matrix::from_rows(std::slice::from_ref(&feats)));
    assert_eq!(classes, local.iter().map(|&c| c as u32).collect::<Vec<_>>());

    // Fig 13's right half: load drains, the moving average decays, and
    // the scheduler returns to the device.
    settle(&lake);
    ml.infer_mlp(id, 1, 8, &feats).expect("infer");
    let m = lake.sched_metrics();
    assert_eq!(m.cpu_fallback_batches, 1, "no new fallback after recovery");
    assert_eq!(m.devices.iter().map(|d| d.dispatched_batches).sum::<u64>(), 1);
}

#[test]
fn backpressure_is_per_device_not_global() {
    let lake = Lake::builder().num_devices(2).build();
    lake.register_kernel("burn", 1.0, |_, _| Ok(()));
    let ml = offloading(&lake);
    let id = ml.load_model(&serialize::encode_mlp(&small_model())).expect("load model");

    // Only device 0 is contended; the pool must steer to device 1
    // rather than falling back to the CPU.
    burn(&lake, 0, 60);
    let feats: Vec<f32> = (0..8).map(|j| j as f32 / 8.0).collect();
    ml.infer_mlp(id, 1, 8, &feats).expect("infer");
    let m = lake.sched_metrics();
    assert_eq!(m.cpu_fallback_batches, 0, "device 1 was idle: {m:?}");
    assert_eq!(m.devices[0].dispatched_batches, 0);
    assert_eq!(m.devices[1].dispatched_batches, 1);
}
