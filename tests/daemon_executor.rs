//! Daemon-executor integration: the worker pipeline
//! (`LakeBuilder::daemon_workers` > 1) must be observationally identical
//! to width 1, where the acceptor executes each frame inline — same
//! answers, same hot-swap semantics — while completing independent
//! commands out of order.
//!
//! The invariants:
//!
//! * **bit-identity** — an identical workload run at `daemon_workers(1)`
//!   and `daemon_workers(4)` produces byte-identical inference classes
//!   and exported weights;
//! * **ordering barriers** — `swap_model` mid-stream flushes in-flight
//!   inferences against the old weights and fences later ones onto the
//!   new weights, at any worker count;
//! * **pipelining** — queue-pair bursts drain completely (no lost or
//!   duplicated completions) through the out-of-order completion mux;
//! * **observability** — `perf_report().executor` counts frames and
//!   completions, and `perf_report().gemm` shows the GEMM pool spanning
//!   the host (`cores.min(4)` wide, the calling executor worker
//!   included) at every executor width, and running the batches at or
//!   above `DEFAULT_POOL_MIN_ROWS` that the workload mixes in.
//!
//! The `LAKE_DAEMON_WORKERS` env override (CI chaos matrices) takes
//! precedence over the builder knob; under it the bit-identity test
//! degenerates to comparing a worker count against itself, which is
//! harmless.

use lake::core::{BatchThresholdPolicy, Lake, LakeMl, LinkMode};
use lake::ml::{serialize, Activation, Mlp, DEFAULT_POOL_MIN_ROWS};
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 16;
const CALLS: usize = 120;

/// A handle that offloads every inference: the daemon's executor is the
/// subject, and small batches would otherwise be answered kernel-side.
fn offloading(lake: &Lake) -> LakeMl {
    lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 })
}

fn model(seed: u64) -> Mlp {
    Mlp::new(&[COLS, 12, 3], Activation::Relu, &mut StdRng::seed_from_u64(seed))
}

/// Deterministic synthetic batch for call `i`: mostly 1–8 rows, which the
/// GEMM engine runs inline, plus two sizes that reach its pool.
fn batch(i: usize) -> (usize, Vec<f32>) {
    let rows = match i % 10 {
        8 => DEFAULT_POOL_MIN_ROWS,
        9 => 4 * DEFAULT_POOL_MIN_ROWS,
        r => 1 + r,
    };
    let feats = (0..rows * COLS).map(|j| ((i * 97 + j * 13) % 199) as f32 / 199.0).collect();
    (rows, feats)
}

/// Mixed workload over the Channel link: two models inferred
/// alternately (independent keys the executor may run concurrently), a
/// mid-stream hot swap on model `a` (a per-model ordering barrier), and
/// a final export. Returns every answer plus the exported blob.
fn run_workload(workers: usize) -> (Vec<Vec<u32>>, Vec<u8>) {
    let lake = Lake::builder()
        .link_mode(LinkMode::Channel)
        .queue_depth(16)
        .daemon_workers(workers)
        .build();
    let ml = offloading(&lake);
    let a = ml.load_model(&serialize::encode_mlp(&model(1))).expect("load a");
    let b = ml.load_model(&serialize::encode_mlp(&model(2))).expect("load b");
    let mut answers = Vec::with_capacity(CALLS);
    for i in 0..CALLS {
        let (rows, feats) = batch(i);
        let id = if i % 2 == 0 { a } else { b };
        answers.push(ml.infer_mlp(id, rows, COLS, &feats).expect("infer"));
        if i == CALLS / 2 {
            ml.swap_model(a, &serialize::encode_mlp(&model(3))).expect("swap");
        }
    }
    let export = ml.export_model(a).expect("export");
    (answers, export)
}

#[test]
fn four_workers_bit_identical_to_serial() {
    let (serial, serial_export) = run_workload(1);
    let (parallel, parallel_export) = run_workload(4);
    assert_eq!(serial, parallel, "answers must not depend on executor width");
    assert_eq!(serial_export, parallel_export, "swapped weights must export identically");
}

#[test]
fn pipelined_bursts_drain_through_completion_mux() {
    let lake =
        Lake::builder().link_mode(LinkMode::Channel).queue_depth(16).daemon_workers(4).build();
    let ml = offloading(&lake);
    let a = ml.load_model(&serialize::encode_mlp(&model(1))).expect("load a");
    let b = ml.load_model(&serialize::encode_mlp(&model(2))).expect("load b");

    // Oracle answers via the sync path, then the same batches pipelined
    // 16-deep across both models: every ticket must complete exactly
    // once with the oracle's classes.
    for round in 0..4 {
        let batches: Vec<_> = (0..16).map(|i| batch(round * 16 + i)).collect();
        let oracle: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(i, (rows, feats))| {
                let id = if i % 2 == 0 { a } else { b };
                ml.infer_mlp(id, *rows, COLS, feats).expect("oracle infer")
            })
            .collect();
        let tickets: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(i, (rows, feats))| {
                let id = if i % 2 == 0 { a } else { b };
                ml.submit_mlp(id, *rows, COLS, feats).expect("submit")
            })
            .collect();
        let done = ml.drain_completions();
        assert_eq!(done.len(), 16, "no lost or duplicated completions");
        for (t, expected) in tickets.iter().zip(&oracle) {
            let (_, result) = done.iter().find(|(id, _)| id == t).expect("ticket completed");
            assert_eq!(result.as_ref().expect("completion ok"), expected);
        }
    }

    let report = lake.perf_report();
    assert_eq!(report.executor.workers, 4, "executor deployed at the requested width");
    assert!(report.executor.frames > 0, "acceptor counted frames");
    assert!(report.executor.completions > 0, "responder drained completions");
    assert_eq!(
        report.executor.executed, report.executor.completions,
        "every executed command completed exactly once"
    );
    assert!(report.gemm.workers >= 1, "GEMM pool keeps at least one thread");
}

#[test]
fn executor_stats_stay_zero_in_process() {
    let lake = Lake::builder().daemon_workers(4).build();
    let ml = offloading(&lake);
    let id = ml.load_model(&serialize::encode_mlp(&model(1))).expect("load");
    let (rows, feats) = batch(0);
    ml.infer_mlp(id, rows, COLS, &feats).expect("infer");
    let report = lake.perf_report();
    // In-process dispatch has no serve thread, so the executor never
    // sees a frame.
    assert_eq!(lake.daemon_workers(), 1);
    assert_eq!(report.executor.frames, 0);
}

/// The GEMM pool counts its calling executor worker, so it is sized to
/// the host at every executor width instead of sharing cores with it, and
/// a pool-sized batch runs on it.
#[test]
fn gemm_pool_spans_the_host_at_every_executor_width() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [1, 4] {
        let lake = Lake::builder().link_mode(LinkMode::Channel).daemon_workers(workers).build();
        let ml = offloading(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&model(1))).expect("load");
        let (rows, feats) = batch(9);
        assert_eq!(rows, 4 * DEFAULT_POOL_MIN_ROWS);
        ml.infer_mlp(id, rows, COLS, &feats).expect("infer");
        let gemm = lake.perf_report().gemm;
        assert_eq!(gemm.workers, cores.min(4), "GEMM width at {workers} executor workers");
        if cores > 1 {
            assert!(gemm.pool_runs > 0, "a {rows}-row batch pools at {workers} workers: {gemm:?}");
        }
    }
}
