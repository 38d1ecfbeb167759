//! Paged model-store integration: budgeted weight residency driven
//! through the full kernel↔daemon path.
//!
//! The invariants:
//!
//! * **budget is a hard ceiling** — resident weight bytes never exceed
//!   the configured budget, at any instant, even with the model set 10×
//!   oversubscribed;
//! * **bit-identical answers** — eviction and cold-miss refaulting never
//!   change what a model computes;
//! * **pins are inviolable** — weights referenced by an in-flight call
//!   (including a parked batched ticket) are never evicted; competing
//!   work gets a typed `ML_STORE_FULL` instead of corrupted answers;
//! * **epoch semantics on hot-swap** — in-flight work finishes on the
//!   version it started on while new requests see the next version;
//! * **crash-safe swaps** — a daemon crash inside the swap window
//!   replays exactly one winning version through the shadow table;
//! * **packed copies follow their page** — the engine keeps a packed
//!   model only while its version is resident, so packed bytes stay
//!   under the budget.

use lake::core::{BatchPolicy, BatchThresholdPolicy, CrashSchedule, Lake, LakeError, LakeMl};
use lake::ml::{serialize, Activation, LstmClassifier, Matrix, Mlp, PackedMlp};
use lake::rpc::RpcError;
use lake::sim::{BurstSchedule, Duration, Instant, PressurePlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COLS: usize = 16;

/// A handle that offloads every inference: the store under test lives in
/// the daemon, and small batches would otherwise be answered kernel-side.
fn offloading(lake: &Lake) -> LakeMl {
    lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 })
}

fn mlp(seed: u64) -> Mlp {
    Mlp::new(&[COLS, 32, 2], Activation::Relu, &mut StdRng::seed_from_u64(seed))
}

fn row(i: usize) -> Vec<f32> {
    (0..COLS).map(|j| ((i * 31 + j * 17) % 23) as f32 / 23.0 - 0.5).collect()
}

/// A model set ~10× the byte budget churns through eviction while every
/// answer stays bit-identical to an unbounded run and residency never
/// crosses the ceiling.
#[test]
fn oversubscribed_budget_evicts_faults_and_stays_bit_identical() {
    const MODELS: usize = 10;
    let blobs: Vec<Vec<u8>> = (0..MODELS).map(|i| serialize::encode_mlp(&mlp(i as u64))).collect();

    // Budget sized to one model's resident footprint: the working set is
    // ~10× oversubscribed, so round-robin traffic evicts on every switch.
    let one = blobs[0].len().div_ceil(4096) * 4096;
    let budget = one;

    let unbounded = Lake::builder().build();
    let bounded = Lake::builder().model_budget_bytes(budget).build();
    let uml = offloading(&unbounded);
    let bml = offloading(&bounded);
    let uids: Vec<_> = blobs.iter().map(|b| uml.load_model(b).unwrap()).collect();
    let bids: Vec<_> = blobs.iter().map(|b| bml.load_model(b).unwrap()).collect();

    for round in 0..6 {
        for m in 0..MODELS {
            // Two calls per visit so the second is a warm hit.
            for k in 0..2 {
                let x = row(round * MODELS + m + k);
                let want = uml.infer_mlp(uids[m], 1, COLS, &x).unwrap();
                let got = bml.infer_mlp(bids[m], 1, COLS, &x).unwrap();
                assert_eq!(got, want, "eviction churn changed model {m}'s answer");
                let s = bounded.model_store_stats();
                assert!(
                    s.resident_bytes <= budget,
                    "resident {} exceeds budget {budget}",
                    s.resident_bytes
                );
                assert!(s.peak_resident_bytes <= budget, "{s:?}");
            }
        }
    }

    let s = bounded.model_store_stats();
    assert_eq!(s.budget_bytes, budget);
    assert!(s.evictions >= (MODELS - 1) as u64, "churn must evict: {s:?}");
    assert!(s.misses > 0, "model switches refault weights: {s:?}");
    assert!(s.hits > 0, "second call per visit hits warm weights: {s:?}");
    assert_eq!(s.pinned_bytes, 0, "all pins released after sync calls: {s:?}");
    // Every cold miss charged simulated-NVMe reload latency to the
    // virtual clock.
    let faults = bounded.model_fault_latencies_us();
    assert_eq!(faults.len() as u64, s.misses);
    assert!(s.fault_ns_total > 0 && faults.iter().all(|&us| us > 0.0));
    // The unbounded twin never faulted or evicted.
    let u = unbounded.model_store_stats();
    assert_eq!((u.misses, u.evictions), (0, 0), "{u:?}");
}

/// 16 LinnOS+1 MLPs (`[31, 256, 256, 2]`, the shape the end-to-end
/// `zipf_tenants` workload serves) under a budget of 25 % of their bytes,
/// each read twice through the daemon: only resident versions keep a
/// packed copy, so the engine's packed bytes stay under the budget.
#[test]
fn packed_copies_stay_under_the_weight_budget() {
    const MODELS: usize = 16;
    const ROWS: usize = 8; // the offload crossover: every read crosses
    const WIDTH: usize = 31;
    let nets: Vec<Mlp> = (0..MODELS)
        .map(|i| {
            Mlp::new(&[WIDTH, 256, 256, 2], Activation::Relu, &mut StdRng::seed_from_u64(i as u64))
        })
        .collect();
    let blobs: Vec<Vec<u8>> = nets.iter().map(serialize::encode_mlp).collect();
    let budget = blobs.iter().map(Vec::len).sum::<usize>() / 4;
    let page = blobs[0].len().div_ceil(4096) * 4096;
    let pack = PackedMlp::pack(&nets[0]).bytes();

    let lake = Lake::builder().model_budget_bytes(budget).build();
    let ml = lake.ml();
    let ids: Vec<_> = blobs.iter().map(|b| ml.load_model(b).unwrap()).collect();
    let x: Vec<f32> = (0..ROWS * WIDTH).map(|i| (i % 13) as f32 / 13.0 - 0.5).collect();
    let calls = lake.call_stats().calls;
    for round in 0..2 {
        for (m, net) in nets.iter().enumerate() {
            let want: Vec<u32> = net
                .classify(&Matrix::from_vec(ROWS, WIDTH, x.clone()))
                .into_iter()
                .map(|c| c as u32)
                .collect();
            assert_eq!(ml.infer_mlp(ids[m], ROWS, WIDTH, &x).unwrap(), want, "round {round}");
        }
    }
    assert_eq!(lake.call_stats().calls - calls, 2 * MODELS as u64, "every read offloaded");

    let report = lake.perf_report();
    let (gemm, store) = (report.gemm, report.store);
    assert!(store.evictions > 0, "the budget forces eviction: {store:?}");
    assert!(gemm.cache_misses >= 2 * MODELS as u64 - 4, "refaults repack: {gemm:?}");
    let resident_models = store.resident_bytes / page;
    assert_eq!(gemm.packed_bytes, resident_models * pack, "one pack per resident: {store:?}");
    assert!(
        gemm.packed_bytes <= store.budget_bytes + store.pinned_bytes,
        "packed {} over budget {} + pinned {}",
        gemm.packed_bytes,
        store.budget_bytes,
        store.pinned_bytes
    );
}

/// A memory-pressure storm halves the effective budget mid-run: the
/// store trims residency to the tightened ceiling and answers stay
/// correct through the storm.
#[test]
fn pressure_storm_trims_residency_without_changing_answers() {
    let blobs: Vec<Vec<u8>> = (0..2).map(|i| serialize::encode_mlp(&mlp(100 + i))).collect();
    let one = blobs[0].len().div_ceil(4096) * 4096;
    let budget = 2 * one; // both models fit — until the storm halves it

    let lake = Lake::builder().model_budget_bytes(budget).build();
    let ml = offloading(&lake);
    let ids: Vec<_> = blobs.iter().map(|b| ml.load_model(b).unwrap()).collect();
    let reference: Vec<Vec<u32>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| ml.infer_mlp(id, 1, COLS, &row(i)).unwrap())
        .collect();
    assert_eq!(lake.model_store_stats().resident_bytes, budget, "both resident before the storm");

    // Storm covering the next stretch of virtual time.
    let now = lake.clock().now() - Instant::EPOCH;
    lake.set_model_pressure(Some(PressurePlan::new(
        BurstSchedule::new(now, Duration::from_millis(100), Duration::from_millis(100)),
        2,
    )));
    for round in 0..4 {
        for (i, &id) in ids.iter().enumerate() {
            let got = ml.infer_mlp(id, 1, COLS, &row(i)).unwrap();
            assert_eq!(got, reference[i], "storm round {round} changed an answer");
            let s = lake.model_store_stats();
            assert!(s.resident_bytes <= budget / 2, "storm ceiling violated: {s:?}");
        }
    }
    let s = lake.model_store_stats();
    assert!(s.evictions > 0, "halved budget must evict: {s:?}");

    // Storm over: both models page back in and coexist again.
    lake.set_model_pressure(None);
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(ml.infer_mlp(id, 1, COLS, &row(i)).unwrap(), reference[i]);
    }
    assert_eq!(lake.model_store_stats().resident_bytes, budget);
}

/// Weights pinned by a parked batched ticket can never be evicted: a
/// competing model that needs the space gets `ML_STORE_FULL`, and flows
/// once the ticket completes and drops its pin.
#[test]
fn pinned_weights_survive_budget_pressure_from_competing_models() {
    let blob_a = serialize::encode_mlp(&mlp(200));
    let blob_b = serialize::encode_mlp(&mlp(201));
    let one = blob_a.len().div_ceil(4096) * 4096;

    let lake = Lake::builder()
        .model_budget_bytes(one) // exactly one resident model
        .batch_policy(BatchPolicy { max_batch: 64, max_wait: Duration::from_millis(50) })
        .build();
    let ml = offloading(&lake);
    let a = ml.load_model(&blob_a).unwrap();
    assert!(lake.daemon().model_resident(a.0), "first load is eager-resident");

    // Park a row against A: the ticket holds A's weights pinned.
    let ticket = ml.infer_submit(a, 1, COLS, 0, &row(0)).unwrap();
    assert!(lake.model_store_stats().pinned_bytes > 0, "parked ticket pins weights");

    // B's install cannot evict pinned A, so it lands lazy (non-resident).
    let b = ml.load_model(&blob_b).unwrap();
    assert!(lake.daemon().model_resident(a.0), "pinned A immune to B's install");
    assert!(!lake.daemon().model_resident(b.0), "no room for the second");

    // B cannot fault in — A is pinned, so there is nothing to evict.
    let err = ml.infer_mlp(b, 1, COLS, &row(1)).unwrap_err();
    assert_eq!(err.vendor_code(), Some(lake::core::error::code::ML_STORE_FULL), "{err:?}");
    assert!(lake.daemon().model_resident(a.0), "pinned weights were not sacrificed");

    // Drain the ticket; its pin drops, and B faults in by evicting A.
    ml.infer_flush().unwrap();
    assert!(ml.infer_poll(ticket).unwrap().is_some());
    assert_eq!(lake.model_store_stats().pinned_bytes, 0);
    assert_eq!(ml.infer_mlp(b, 1, COLS, &row(1)).unwrap().len(), 1);
    assert!(!lake.daemon().model_resident(a.0), "A paged out once unpinned");
    assert!(lake.daemon().model_resident(b.0));
}

/// A daemon crash landing inside the hot-swap window: the swap surfaces
/// `DaemonRestarted` (non-idempotent, never silently retried), shadow
/// replay restores exactly one winning version — the pre-swap one, since
/// the install never committed to the shadow — and the caller-driven
/// retry lands the new version cleanly.
#[test]
fn crash_inside_swap_window_replays_one_winning_version() {
    let v1 = mlp(300);
    let v2 = mlp(301);
    let x = row(7);
    let on_v1 = vec![v1.classify(&lake::ml::Matrix::from_vec(1, COLS, x.clone()))[0] as u32];
    let on_v2 = vec![v2.classify(&lake::ml::Matrix::from_vec(1, COLS, x.clone()))[0] as u32];

    let lake = Lake::builder()
        .crash_schedule(CrashSchedule::at(vec![Instant::EPOCH + Duration::from_micros(500)]))
        .build();
    let ml = offloading(&lake);
    let id = ml.load_model(&serialize::encode_mlp(&v1)).unwrap();
    assert_eq!(ml.infer_mlp(id, 1, COLS, &x).unwrap(), on_v1);

    // Park the clock so the swap's in-flight window spans the crash.
    lake.clock().advance_to(Instant::from_nanos(500 * 1_000 - 100));
    let err = ml.swap_model(id, &serialize::encode_mlp(&v2)).unwrap_err();
    assert!(
        matches!(err, LakeError::Rpc(RpcError::DaemonRestarted { epoch: 0 })),
        "expected DaemonRestarted, got {err:?}"
    );

    // The next request pays the supervised restart, which replays the
    // shadow table: exactly the pre-swap version, at version 1,
    // answering bit-identically.
    assert_eq!(ml.infer_mlp(id, 1, COLS, &x).unwrap(), on_v1);
    let sup = lake.supervisor().stats();
    assert_eq!((sup.crashes_detected, sup.restarts, sup.models_replayed), (1, 1, 1));
    assert_eq!(lake.daemon().model_version(id.0), Some(1), "old version won the crashed swap");

    // Caller-driven retry: the swap commits at version 2 and new
    // requests see the new weights.
    assert_eq!(ml.swap_model(id, &serialize::encode_mlp(&v2)).unwrap(), 2);
    assert_eq!(lake.daemon().model_version(id.0), Some(2));
    assert_eq!(ml.infer_mlp(id, 1, COLS, &x).unwrap(), on_v2);

    let store = lake.model_store_stats();
    assert_eq!(store.resets, 1, "one crash reset so far: {store:?}");
    assert!(store.swaps_retired >= 1, "the retried swap retired v1: {store:?}");
}

const LSTM_FEATS: usize = 2;
const LSTM_STEPS: usize = 3;

fn lstm_rows(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    (0..4)
        .map(|_| (0..LSTM_FEATS * LSTM_STEPS).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn lstm_classify(model: &LstmClassifier, flat: &[f32]) -> u32 {
    let seq: Vec<Vec<f32>> = flat.chunks(LSTM_FEATS).map(<[f32]>::to_vec).collect();
    model.classify(&seq) as u32
}

proptest! {
    /// Epoch semantics under hot-swap, property-checked across random
    /// weight pairs and feature batches: rows parked against version 1
    /// finish bit-identical to a v1-only run even though version 2 swaps
    /// in underneath them, and the first post-swap request sees v2.
    #[test]
    fn in_flight_lstm_batch_finishes_on_its_version_across_hot_swap(seed in 0u64..1000) {
        let v1 = LstmClassifier::new(LSTM_FEATS, 6, 1, 3, &mut StdRng::seed_from_u64(seed));
        let v2 = LstmClassifier::new(LSTM_FEATS, 6, 1, 3, &mut StdRng::seed_from_u64(seed + 7919));
        let rows = lstm_rows(seed);

        let lake = Lake::builder()
            // Rows park until the swap's barrier flush drains them.
            .batch_policy(BatchPolicy { max_batch: 64, max_wait: Duration::from_millis(50) })
            .build();
        let ml = offloading(&lake);
        let id = ml.load_model(&serialize::encode_lstm(&v1)).unwrap();

        let tickets: Vec<_> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                ml.infer_submit(id, i as u64, LSTM_FEATS * LSTM_STEPS, LSTM_STEPS, r).unwrap()
            })
            .collect();

        // Hot-swap while the batch is in flight. The daemon drains the
        // parked rows against v1 *before* installing v2.
        let version = ml.swap_model(id, &serialize::encode_lstm(&v2)).unwrap();
        prop_assert_eq!(version, 2);

        for (ticket, r) in tickets.iter().zip(&rows) {
            let class = ml.infer_poll(*ticket).unwrap();
            prop_assert_eq!(class, Some(lstm_classify(&v1, r)), "in-flight row left v1");
        }

        // New requests land on v2 immediately.
        for r in &rows {
            let got = ml.infer_lstm(id, 1, LSTM_STEPS, LSTM_FEATS, r).unwrap();
            prop_assert_eq!(got[0], lstm_classify(&v2, r), "post-swap row must see v2");
        }
        prop_assert_eq!(lake.daemon().model_version(id.0), Some(2));
        let s = lake.model_store_stats();
        prop_assert!(s.swaps_retired >= 1, "v1 retired: {:?}", s);
        prop_assert_eq!(s.pinned_bytes, 0);
    }
}
