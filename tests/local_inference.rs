//! Kernel-side inference below the offload crossover: the default
//! `BatchThresholdPolicy` answers smaller MLP batches in the caller's
//! thread from the supervisor's shadow copy of the model. The crossover
//! depends on the link: 8 rows in process (Table 3's LinnOS crossover on
//! the virtual clock), `DEFAULT_POOL_MIN_ROWS` (32) over a channel or the
//! ring, where the daemon runs a smaller batch on one thread with the same
//! packed kernel the caller would.
//!
//! The invariants:
//!
//! * **same answers** — a local answer is bit-identical to the offloaded
//!   one and to the scalar oracle (`Mlp::classify`, `QuantizedMlp::classify`),
//!   sync and queued;
//! * **nothing crosses** — a local read sends no frame; a batch at the
//!   crossover still does, exactly once;
//! * **coherent on ack** — after a `swap_model` ack local reads see the
//!   new version; after `unload_model` they fail like an offloaded read;
//! * **the daemon's errors stay the daemon's** — anything the local path
//!   cannot answer exactly falls through and fails as it always did;
//! * **no daemon, no problem** — local reads keep answering while the
//!   daemon is dead, without paying its restart.
//!
//! CI re-runs this file over the ring link under `LAKE_QUEUE_DEPTH={1,64}`
//! × `LAKE_DAEMON_WORKERS={1,4}`. `LAKE_LINK` overrides a builder's link,
//! so the ring tests below need it unset or naming a linked link.

use lake::core::error::code;
use lake::core::{BatchThresholdPolicy, CrashSchedule, Lake, LakeMl, LinkMode, ModelId};
use lake::fleet::{DaemonFleet, FleetPolicy};
use lake::ml::{serialize, Activation, Matrix, Mlp, QuantizedMlp, DEFAULT_POOL_MIN_ROWS};
use lake::sim::{Duration, Instant};
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 31; // LinnOS feature vector width

fn mlp(seed: u64) -> Mlp {
    Mlp::new(&[COLS, 64, 2], Activation::Relu, &mut StdRng::seed_from_u64(seed))
}

fn rows(n: usize, salt: usize) -> Vec<f32> {
    (0..n * COLS).map(|i| ((i * 37 + salt * 11) % 29) as f32 / 29.0 - 0.5).collect()
}

fn oracle(model: &Mlp, n: usize, x: &[f32]) -> Vec<u32> {
    model.classify(&Matrix::from_vec(n, COLS, x.to_vec())).into_iter().map(|c| c as u32).collect()
}

fn oracle_q(model: &QuantizedMlp, n: usize, x: &[f32]) -> Vec<u32> {
    model.classify(&Matrix::from_vec(n, COLS, x.to_vec())).into_iter().map(|c| c as u32).collect()
}

fn offloading(lake: &Lake) -> LakeMl {
    lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 })
}

/// Submits one queued MLP inference and harvests its answer.
fn submitted(ml: &LakeMl, id: ModelId, n: usize, x: &[f32]) -> Vec<u32> {
    let ticket = ml.submit_mlp(id, n, COLS, x).unwrap();
    let done = ml.drain_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].0, ticket);
    done[0].1.clone().unwrap()
}

#[test]
fn small_batches_answer_locally_like_the_daemon_and_the_oracle() {
    let lake = Lake::builder().build();
    let (ml, off) = (lake.ml(), offloading(&lake));
    let model = mlp(1);
    let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
    let qid = ml.quantize_model(id).unwrap();
    let quant = QuantizedMlp::quantize(&model);

    let calls = lake.call_stats().calls;
    let before = lake.perf_report().local;
    let mut offloaded = Vec::new();
    for n in 1..8 {
        let x = rows(n, n);
        let want = oracle(&model, n, &x);
        let want_q = oracle_q(&quant, n, &x);
        assert_eq!(ml.infer_mlp(id, n, COLS, &x).unwrap(), want, "f32 sync, {n} rows");
        assert_eq!(submitted(&ml, id, n, &x), want, "f32 queued, {n} rows");
        assert_eq!(ml.infer_mlp(qid, n, COLS, &x).unwrap(), want_q, "int8 sync, {n} rows");
        assert_eq!(submitted(&ml, qid, n, &x), want_q, "int8 queued, {n} rows");
        offloaded.push((
            off.infer_mlp(id, n, COLS, &x).unwrap(),
            off.infer_mlp(qid, n, COLS, &x).unwrap(),
            want,
            want_q,
        ));
    }
    for (f32_off, int8_off, want, want_q) in offloaded {
        assert_eq!(f32_off, want, "the daemon agrees");
        assert_eq!(int8_off, want_q, "the daemon agrees on int8");
    }

    let local = lake.perf_report().local;
    assert_eq!(local.inferences - before.inferences, 4 * 7);
    assert_eq!(local.rows - before.rows, 4 * (1..8).sum::<u64>());
    assert_eq!(local.packs, 2, "one packed copy per (model, version)");
    assert_eq!(lake.call_stats().calls - calls, 2 * 7, "only the offloading handle crossed");
}

#[test]
fn eight_rows_still_cross_the_boundary() {
    let lake = Lake::builder().build();
    // Pinned: on a linked link the default crossover is the pool floor.
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 8 });
    let model = mlp(2);
    let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();

    // One call is one frame on the wire (or one dispatch in process).
    let x = rows(8, 3);
    let (calls, local) = (lake.call_stats().calls, lake.perf_report().local);
    assert_eq!(ml.infer_mlp(id, 8, COLS, &x).unwrap(), oracle(&model, 8, &x));
    assert_eq!(lake.call_stats().calls - calls, 1, "8 rows is the crossover: offloaded");
    assert_eq!(submitted(&ml, id, 8, &x), oracle(&model, 8, &x));
    assert_eq!(lake.call_stats().calls - calls, 2);
    assert_eq!(lake.perf_report().local, local, "nothing answered locally");

    // One row below the crossover: no call, no frame.
    let (calls, frames) = (lake.call_stats().calls, ml.queue_stats().frames_sent);
    let x = rows(7, 4);
    assert_eq!(ml.infer_mlp(id, 7, COLS, &x).unwrap(), oracle(&model, 7, &x));
    assert_eq!(submitted(&ml, id, 7, &x), oracle(&model, 7, &x));
    assert_eq!(lake.call_stats().calls, calls);
    assert_eq!(ml.queue_stats().frames_sent, frames);
}

#[test]
fn in_process_keeps_table_3s_crossover_and_linked_links_the_pool_floor() {
    let lake = Lake::builder().link_mode(LinkMode::InProcess).build();
    // `LAKE_LINK` may have moved this lake onto a linked link.
    let crossover = match lake.link_mode() {
        LinkMode::InProcess => 8,
        LinkMode::Channel | LinkMode::Ring => DEFAULT_POOL_MIN_ROWS,
    };
    let ml = lake.ml();
    let model = mlp(9);
    let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();

    let (calls, local) = (lake.call_stats().calls, lake.perf_report().local);
    let x = rows(crossover - 1, 1);
    assert_eq!(
        ml.infer_mlp(id, crossover - 1, COLS, &x).unwrap(),
        oracle(&model, crossover - 1, &x)
    );
    assert_eq!(lake.call_stats().calls, calls, "one row under the crossover stays local");
    assert_eq!(lake.perf_report().local.inferences, local.inferences + 1);

    let x = rows(crossover, 2);
    assert_eq!(ml.infer_mlp(id, crossover, COLS, &x).unwrap(), oracle(&model, crossover, &x));
    assert_eq!(lake.call_stats().calls - calls, 1, "{crossover} rows is the crossover: offloaded");
    assert_eq!(lake.perf_report().local.inferences, local.inferences + 1);
}

#[test]
fn ring_link_answers_below_the_pool_floor_locally() {
    let lake = Lake::builder().link_mode(LinkMode::Ring).build();
    assert_ne!(lake.link_mode(), LinkMode::InProcess, "LAKE_LINK must name a linked link");
    let (ml, off) = (lake.ml(), offloading(&lake));
    let model = mlp(10);
    let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
    let qid = ml.quantize_model(id).unwrap();
    let quant = QuantizedMlp::quantize(&model);

    for n in [8, 16, DEFAULT_POOL_MIN_ROWS - 1] {
        let x = rows(n, n);
        let (want, want_q) = (oracle(&model, n, &x), oracle_q(&quant, n, &x));
        let (calls, frames) = (lake.call_stats().calls, ml.queue_stats().frames_sent);
        let local = lake.perf_report().local;
        assert_eq!(ml.infer_mlp(id, n, COLS, &x).unwrap(), want, "f32 sync, {n} rows");
        assert_eq!(submitted(&ml, id, n, &x), want, "f32 queued, {n} rows");
        assert_eq!(ml.infer_mlp(qid, n, COLS, &x).unwrap(), want_q, "int8 sync, {n} rows");
        assert_eq!(submitted(&ml, qid, n, &x), want_q, "int8 queued, {n} rows");
        assert_eq!(lake.call_stats().calls, calls, "{n} rows stay local");
        assert_eq!(ml.queue_stats().frames_sent, frames, "{n} rows send no frame");
        let now = lake.perf_report().local;
        assert_eq!(now.inferences - local.inferences, 4);
        assert_eq!(now.rows - local.rows, 4 * n as u64);

        assert_eq!(off.infer_mlp(id, n, COLS, &x).unwrap(), want, "the daemon agrees, {n} rows");
        assert_eq!(off.infer_mlp(qid, n, COLS, &x).unwrap(), want_q, "on int8 too, {n} rows");
    }

    // At the pool floor the call crosses, exactly once.
    let n = DEFAULT_POOL_MIN_ROWS;
    let x = rows(n, 1);
    let (calls, local) = (lake.call_stats().calls, lake.perf_report().local);
    assert_eq!(ml.infer_mlp(id, n, COLS, &x).unwrap(), oracle(&model, n, &x));
    assert_eq!(lake.call_stats().calls - calls, 1, "{n} rows offloaded");
    assert_eq!(lake.perf_report().local, local, "nothing answered locally");
}

#[test]
fn ring_fleet_shards_answer_below_the_pool_floor_locally() {
    let fleet = DaemonFleet::deploy(Lake::builder().shards(2).link_mode(LinkMode::Ring));
    let (ml, off) =
        (fleet.ml(), fleet.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 }));
    let model = mlp(11);
    let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
    let calls = || fleet.shards().iter().map(|s| s.call_stats().calls).sum::<u64>();
    let local = || fleet.shards().iter().map(|s| s.perf_report().local.inferences).sum::<u64>();

    for n in [8, 16, DEFAULT_POOL_MIN_ROWS - 1] {
        let x = rows(n, n);
        let want = oracle(&model, n, &x);
        let (calls_before, local_before) = (calls(), local());
        assert_eq!(ml.infer_mlp(0, id, n, COLS, &x).unwrap(), want, "sync, {n} rows");
        let ticket = ml.submit_mlp(0, id, n, COLS, &x).unwrap();
        let done = ml.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, ticket);
        assert_eq!(done[0].1.clone().unwrap(), want, "queued, {n} rows");
        assert_eq!(calls(), calls_before, "{n} rows stay local on every shard");
        assert_eq!(local(), local_before + 2);
        assert_eq!(off.infer_mlp(0, id, n, COLS, &x).unwrap(), want, "the daemon agrees");
    }

    let n = DEFAULT_POOL_MIN_ROWS;
    let x = rows(n, 1);
    let (calls_before, local_before) = (calls(), local());
    assert_eq!(ml.infer_mlp(0, id, n, COLS, &x).unwrap(), oracle(&model, n, &x));
    assert_eq!(calls() - calls_before, 1, "{n} rows offloaded once");
    assert_eq!(local(), local_before);
}

#[test]
fn local_reads_see_the_swapped_version_once_the_swap_is_acked() {
    let lake = Lake::builder().build();
    let ml = lake.ml();
    let (v1, v2) = (mlp(3), mlp(4));
    let id = ml.load_model(&serialize::encode_mlp(&v1)).unwrap();
    let x = rows(4, 5);
    assert_ne!(oracle(&v1, 4, &x), oracle(&v2, 4, &x), "the versions must be distinguishable");

    assert_eq!(ml.infer_mlp(id, 4, COLS, &x).unwrap(), oracle(&v1, 4, &x));
    assert_eq!(ml.swap_model(id, &serialize::encode_mlp(&v2)).unwrap(), 2);
    assert_eq!(ml.infer_mlp(id, 4, COLS, &x).unwrap(), oracle(&v2, 4, &x));
    assert_eq!(submitted(&ml, id, 4, &x), oracle(&v2, 4, &x));
    assert_eq!(lake.perf_report().local.packs, 2, "v2 packed once, on its first read");
}

#[test]
fn unloaded_model_fails_locally_with_the_offload_error() {
    let lake = Lake::builder().build();
    let (ml, off) = (lake.ml(), offloading(&lake));
    let id = ml.load_model(&serialize::encode_mlp(&mlp(5))).unwrap();
    let x = rows(1, 6);
    ml.infer_mlp(id, 1, COLS, &x).unwrap();
    ml.unload_model(id).unwrap();

    let err = ml.infer_mlp(id, 1, COLS, &x).unwrap_err();
    assert_eq!(err.vendor_code(), Some(code::ML_UNKNOWN_MODEL), "{err:?}");
    assert_eq!(off.infer_mlp(id, 1, COLS, &x).unwrap_err(), err);
    ml.submit_mlp(id, 1, COLS, &x).unwrap();
    assert_eq!(ml.drain_completions()[0].1.clone().unwrap_err(), err);
}

#[test]
fn cols_mismatch_fails_with_the_offload_error_without_panicking() {
    let lake = Lake::builder().build();
    let (ml, off) = (lake.ml(), offloading(&lake));
    let id = ml.load_model(&serialize::encode_mlp(&mlp(6))).unwrap();
    let x = vec![0.25f32; 2 * (COLS + 1)];

    let err = ml.infer_mlp(id, 2, COLS + 1, &x).unwrap_err();
    assert_eq!(err.vendor_code(), Some(code::ML_BAD_SHAPE), "{err:?}");
    assert_eq!(off.infer_mlp(id, 2, COLS + 1, &x).unwrap_err(), err);
    // The daemon is unharmed.
    let x = rows(2, 7);
    assert_eq!(off.infer_mlp(id, 2, COLS, &x).unwrap(), oracle(&mlp(6), 2, &x));
}

#[test]
fn local_reads_keep_answering_while_the_daemon_is_dead() {
    let crash = Instant::EPOCH + Duration::from_secs(1);
    let lake = Lake::builder().crash_schedule(CrashSchedule::at(vec![crash])).build();
    let ml = lake.ml();
    let model = mlp(7);
    let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
    assert!(lake.clock().now() < crash);

    lake.clock().advance_to(crash + Duration::from_micros(10));
    let calls = lake.call_stats().calls;
    for i in 0..64 {
        let n = 1 + i % 7;
        let x = rows(n, i);
        assert_eq!(ml.infer_mlp(id, n, COLS, &x).unwrap(), oracle(&model, n, &x));
        assert_eq!(submitted(&ml, id, n, &x), oracle(&model, n, &x));
    }
    assert_eq!(lake.call_stats().calls, calls, "no local read crossed to the dead daemon");
    assert_eq!(lake.call_stats().daemon_restarts, 0);
    assert_eq!(lake.supervisor().stats().restarts, 0, "nobody paid the restart");

    // The daemon really was down: the first offloaded read restarts it.
    let x = rows(8, 99);
    assert_eq!(offloading(&lake).infer_mlp(id, 8, COLS, &x).unwrap(), oracle(&model, 8, &x));
    assert_eq!(lake.supervisor().stats().restarts, 1);
}

#[test]
fn fleet_backup_serves_the_synced_version_locally() {
    let v1 = mlp(8);
    let blob = serialize::encode_mlp(&v1);
    // The ring is deterministic: key 0's shard pair on a probe fleet is
    // key 0's shard pair on the fleet under test.
    let probe = DaemonFleet::deploy(Lake::builder().shards(2));
    let (primary, backup) = probe.route_of(probe.ml().load_model(&blob).unwrap()).unwrap();
    assert_ne!(primary, backup);
    drop(probe);

    let crash = Instant::EPOCH + Duration::from_secs(1);
    let fleet =
        DaemonFleet::deploy_with(Lake::builder().shards(2), FleetPolicy::default(), |id, b| {
            if id == primary {
                b.crash_schedule(CrashSchedule::at(vec![crash]))
            } else {
                b
            }
        });
    let ml = fleet.ml();
    let id = ml.load_model(&blob).unwrap();
    assert_eq!(fleet.route_of(id), Some((primary, backup)));

    // Move the primary to version 2, then replicate it.
    let train: Vec<f32> = rows(64, 1);
    ml.train_mlp(0, id, 64, COLS, &train, &[1; 64], 40, 0.5).unwrap();
    let v2 = serialize::decode_mlp(&ml.export_model(id).unwrap()).unwrap();
    let x = rows(4, 2);
    assert_ne!(oracle(&v1, 4, &x), oracle(&v2, 4, &x), "training must change these answers");
    ml.sync_replica(id).unwrap();

    // Inside the primary's divert window the router reads the backup,
    // which answers from its shadow copy of version 2.
    assert!(fleet.clock().now() < crash);
    fleet.clock().advance_to(crash + Duration::from_micros(10));
    let before = fleet.shard(backup).perf_report().local;
    assert_eq!(ml.infer_mlp(0, id, 4, COLS, &x).unwrap(), oracle(&v2, 4, &x));
    assert_eq!(fleet.stats().diverted, 1);
    assert_eq!(fleet.shard(backup).perf_report().local.inferences, before.inferences + 1);
    assert_eq!(fleet.shard(primary).supervisor().stats().restarts, 0);
}
