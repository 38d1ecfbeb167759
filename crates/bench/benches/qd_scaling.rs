//! Queue-depth scaling (PR 7): single-client call throughput of the
//! async SQ/CQ queue-pair API as the submission queue deepens.
//!
//! The sync wire mode pays the doorbell/notification cost
//! ([`lake_transport::Mechanism::call_time`]) on every call, both ways.
//! The queue pair coalesces a whole SQ drain into one burst frame under
//! one doorbell, and the daemon answers each burst with one response
//! frame — so the per-call share of the fixed cost shrinks with depth,
//! the NVMe-style argument for deep queues.
//!
//! Two legs, recorded in `BENCH_PR7.json`:
//!
//! * **call layer** (gated) — a trivial adder API over a linked engine,
//!   isolating the wire cost the queue amortizes. Modeled (virtual-time)
//!   throughput at queue depth >= 32 must be at least **5x** sync.
//! * **end-to-end inference** (reported, ungated) — single-row MLP
//!   inference through a ring-linked [`Lake`]; daemon-side model
//!   execution is a per-command cost no queue can amortize, so this leg
//!   shows where the wire win saturates against compute.

use std::sync::Arc;

use bytes::Bytes;
use criterion::Criterion;
use lake_bench::{banner, fmt_us, quick_criterion, upsert_bench_json};
use lake_core::{BatchThresholdPolicy, Lake, LinkMode};
use lake_ml::{serialize, Activation, Mlp};
use lake_rpc::{serve, ApiHandler, ApiId, CallEngine, Decoder, Encoder, QueuePair, Status};
use lake_sim::{Duration, SharedClock};
use lake_transport::{Link, Mechanism};
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 16;
const HIDDEN: usize = 8;
/// Single-client calls per leg.
const CALLS: usize = 256;
/// Depth 1 is the sync wire mode (every submit flushes immediately).
const DEPTHS: &[usize] = &[1, 8, 32, 64];

const API_ADD: ApiId = ApiId(1);

fn adder() -> Arc<dyn ApiHandler> {
    Arc::new(|api: ApiId, payload: &[u8]| -> Result<Bytes, Status> {
        match api {
            API_ADD => {
                let mut d = Decoder::new(payload);
                let a = d.get_u64().map_err(|_| Status::Malformed)?;
                let b = d.get_u64().map_err(|_| Status::Malformed)?;
                let mut e = Encoder::new();
                e.put_u64(a.wrapping_add(b));
                Ok(e.finish())
            }
            _ => Err(Status::UnknownApi),
        }
    })
}

fn encode_pair(a: u64, b: u64) -> Bytes {
    let mut e = Encoder::new();
    e.put_u64(a).put_u64(b);
    e.finish()
}

/// Virtual makespan (µs) of `CALLS` adder calls at `depth` over a linked
/// engine (Mmap wire costs, same as the ring link), plus wall seconds.
fn call_layer_makespan_us(depth: usize) -> (f64, f64) {
    let clock = SharedClock::new();
    let (kernel, user) = Link::pair(Mechanism::Mmap, clock.clone());
    let daemon = std::thread::spawn(move || {
        let handler = adder();
        serve(&user, handler.as_ref());
    });
    let engine = Arc::new(CallEngine::linked(kernel));
    engine.register_api(API_ADD, true);

    let wall0 = std::time::Instant::now();
    let t0 = clock.now();
    if depth <= 1 {
        for i in 0..CALLS as u64 {
            let out = engine.call(API_ADD, encode_pair(i, 1)).expect("call");
            assert_eq!(Decoder::new(&out).get_u64().unwrap(), i + 1);
        }
    } else {
        let qp = QueuePair::new(Arc::clone(&engine), depth);
        let mut harvested = 0usize;
        for i in 0..CALLS as u64 {
            qp.submit(API_ADD, encode_pair(i, 1));
            // Blocking drain (not a non-blocking poll) every `depth`
            // submissions: a poll's hit/miss depends on how far the daemon
            // thread got in *wall* time, which changes how much virtual
            // wait-time the client is charged — drain pins the harvest
            // points so the modeled makespan is run-to-run deterministic.
            if (i + 1) % depth as u64 == 0 {
                for c in qp.drain() {
                    c.result.expect("queued call");
                    harvested += 1;
                }
            }
        }
        for c in qp.drain() {
            c.result.expect("queued call");
            harvested += 1;
        }
        assert_eq!(harvested, CALLS, "every submission must complete exactly once");
    }
    let span = (clock.now() - t0).as_micros_f64();
    let wall = wall0.elapsed().as_secs_f64();
    drop(engine);
    daemon.join().unwrap();
    (span, wall)
}

fn model_blob() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(7);
    serialize::encode_mlp(&Mlp::new(&[COLS, HIDDEN, 2], Activation::Relu, &mut rng))
}

fn feature_row(i: usize) -> Vec<f32> {
    (0..COLS).map(|j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5).collect()
}

/// Virtual makespan (µs) of `CALLS` single-row inferences through a
/// ring-linked [`Lake`] at `depth`. Deeper legs harvest every `depth`
/// submissions — the natural pacing, and it keeps the response ring
/// drained while the SQ fills.
fn e2e_makespan_us(depth: usize) -> f64 {
    let lake = Lake::builder().link_mode(LinkMode::Ring).queue_depth(depth).build();
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let id = ml.load_model(&model_blob()).expect("load");
    lake.clock().advance(Duration::from_millis(2));

    let t0 = lake.clock().now();
    if depth <= 1 {
        for i in 0..CALLS {
            let classes = ml.infer_mlp(id, 1, COLS, &feature_row(i)).expect("infer");
            assert_eq!(classes.len(), 1);
        }
    } else {
        let mut harvested = 0usize;
        for i in 0..CALLS {
            ml.submit_mlp(id, 1, COLS, &feature_row(i)).expect("submit");
            // Blocking drain at the pacing points, for the same
            // determinism reason as the call-layer leg above.
            if (i + 1) % depth == 0 {
                for (_, result) in ml.drain_completions() {
                    result.expect("queued inference");
                    harvested += 1;
                }
            }
        }
        for (_, result) in ml.drain_completions() {
            result.expect("queued inference");
            harvested += 1;
        }
        assert_eq!(harvested, CALLS, "every submission must complete exactly once");
    }
    (lake.clock().now() - t0).as_micros_f64()
}

fn run_and_gate() {
    banner("QD", "SQ/CQ queue-pair scaling: one doorbell per drain (PR 7)");

    // Wall-clock rates go to the JSON only: the printed table is the
    // determinism probe (byte-identical across runs, virtual clock).
    println!("call layer (adder API, Mmap wire):");
    println!("{:>7} {:>12} {:>12} {:>9}", "depth", "makespan", "calls/s", "speedup");
    let mut json_rows = Vec::new();
    let mut modeled = Vec::new();
    for &depth in DEPTHS {
        let (span_us, wall_s) = call_layer_makespan_us(depth);
        let calls_per_sec = CALLS as f64 / (span_us / 1.0e6);
        let speedup = modeled.first().map_or(1.0, |&(_, base)| calls_per_sec / base);
        let wall_rate = CALLS as f64 / wall_s;
        println!("{depth:>7} {:>12} {calls_per_sec:>12.0} {speedup:>8.2}x", fmt_us(span_us));
        json_rows.push(format!(
            "{{\"depth\": {depth}, \"calls\": {CALLS}, \"makespan_us\": {span_us:.1}, \
             \"calls_per_sec\": {calls_per_sec:.0}, \"speedup\": {speedup:.2}, \
             \"wall_calls_per_sec\": {wall_rate:.0}}}"
        ));
        modeled.push((depth, calls_per_sec));
    }

    println!("\nend-to-end single-row MLP inference (ring link, compute-bound):");
    println!("{:>7} {:>12} {:>12} {:>9}", "depth", "makespan", "infer/s", "speedup");
    let mut e2e_rows = Vec::new();
    let mut e2e = Vec::new();
    for &depth in DEPTHS {
        let span_us = e2e_makespan_us(depth);
        let rate = CALLS as f64 / (span_us / 1.0e6);
        let speedup = e2e.first().map_or(1.0, |&base| rate / base);
        println!("{depth:>7} {:>12} {rate:>12.0} {speedup:>8.2}x", fmt_us(span_us));
        e2e_rows.push(format!(
            "{{\"depth\": {depth}, \"calls\": {CALLS}, \"makespan_us\": {span_us:.1}, \
             \"infer_per_sec\": {rate:.0}, \"speedup\": {speedup:.2}}}"
        ));
        e2e.push(rate);
    }

    // Record results before gating so a failed gate still leaves the
    // numbers on disk for inspection.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR7.json");
    upsert_bench_json(&path, "qd_scaling", &format!("[{}]", json_rows.join(", ")));
    upsert_bench_json(&path, "qd_e2e_infer", &format!("[{}]", e2e_rows.join(", ")));

    // Gate (ISSUE.md PR 7): >= 5x sync call throughput at every depth
    // >= 32.
    let sync = modeled.iter().find(|&&(d, _)| d == 1).expect("sync leg").1;
    for &(depth, rate) in modeled.iter().filter(|&&(d, _)| d >= 32) {
        assert!(
            rate >= 5.0 * sync,
            "depth {depth} must model >= 5x sync call throughput: \
             {rate:.0} vs {sync:.0} calls/s"
        );
    }
    // The e2e leg still has to win, just not 5x — compute dominates.
    assert!(e2e[DEPTHS.len() - 1] > e2e[0], "deep queues must not slow end-to-end inference down");
}

fn bench(c: &mut Criterion) {
    // Real (host) cost of the queue pair's submit/harvest hot path,
    // transport excluded (in-process link).
    let mut group = c.benchmark_group("qd_hot_path");
    group.bench_function("submit_drain_64", |b| {
        let lake = Lake::builder().queue_depth(64).build();
        let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
        let id = ml.load_model(&model_blob()).expect("load");
        let row = feature_row(1);
        b.iter(|| {
            for _ in 0..64 {
                ml.submit_mlp(id, 1, COLS, &row).expect("submit");
            }
            ml.drain_completions().len()
        })
    });
    group.finish();
}

fn main() {
    run_and_gate();
    let mut c = quick_criterion();
    bench(&mut c);
    c.final_summary();
}
