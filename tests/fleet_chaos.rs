//! Fleet chaos integration: the LinnOS-style synchronous inference
//! workload driven through a sharded [`DaemonFleet`] while one shard
//! dies repeatedly on a seeded schedule.
//!
//! The invariants:
//!
//! * **zero lost requests** — every idempotent inference answers, even
//!   when its model's primary shard is mid-crash;
//! * **bit-identical answers** — diverted and failed-over calls return
//!   exactly what a crash-free fleet returns;
//! * **fault isolation** — only the crashing shard restarts; sibling
//!   shards' supervisors stay at epoch 0;
//! * **observable routing** — the router's divert counter shows the
//!   failover path actually ran, and each shard's own fault report, read
//!   through `fleet.shards()` by shard index, shows where the crashes
//!   landed.
//!
//! `LAKE_SHARDS` (default 3) sizes the fleet and `LAKE_LINK` picks the
//! transport, so CI can run the same test over the channel and ring
//! links; `CRASH_SEED` selects the crash plan.

use lake::core::{BatchThresholdPolicy, Lake, LakeError};
use lake::fleet::{DaemonFleet, FleetModelId, FleetPolicy};
use lake::ml::{serialize, Activation, Mlp};
use lake::rpc::RpcError;
use lake::sim::{CrashSchedule, Duration};
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 31; // LinnOS feature vector width
const CALLS: usize = 600;
const MODELS: usize = 6;

fn crash_seed() -> u64 {
    std::env::var("CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

fn model(m: usize) -> Mlp {
    Mlp::new(&[COLS, 16, 2], Activation::Relu, &mut StdRng::seed_from_u64(4242 + m as u64))
}

fn batch(i: usize) -> (usize, Vec<f32>) {
    let rows = 1 + (i % 32);
    let feats = (0..rows * COLS).map(|j| ((i * 131 + j * 31) % 251) as f32 / 251.0).collect();
    (rows, feats)
}

/// Builds a fleet from the common template; `crashes` arms shard 0 only.
fn deploy(crashes: Option<CrashSchedule>) -> DaemonFleet {
    let template = Lake::builder().shards(3);
    // Virtual time only advances while calls execute, so by the time a
    // router observes a sibling's crash a few calls have already run;
    // widen the divert window to a couple of round-trips so diversion
    // (not just engine-internal failover) gets exercised.
    let policy = FleetPolicy { divert_window: Duration::from_micros(500), ..Default::default() };
    let fleet = DaemonFleet::deploy_with(template, policy, |id, b| match &crashes {
        Some(plan) if id == 0 => b.crash_schedule(plan.clone()),
        _ => b,
    });
    fleet.governor().set_weight(0, 2);
    fleet.governor().set_weight(1, 2);
    fleet
}

/// Loads the model set and runs the workload; returns every call's
/// classes plus the count of typed `DaemonRestarted` training errors.
/// Panics on any lost inference — the zero-lost-requests assertion.
fn run_workload(fleet: &DaemonFleet) -> (Vec<Vec<u32>>, u64) {
    // Every inference offloads: the crashing shard's daemon is the
    // subject, and small batches would otherwise be answered kernel-side.
    let ml = fleet.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    // Model load is not idempotent, so a load that rides through shard
    // 0's crash surfaces a typed error; init-time code owns the retry
    // loop, as a kernel module's probe path would.
    let ids: Vec<FleetModelId> = (0..MODELS)
        .map(|m| {
            let blob = serialize::encode_mlp(&model(m));
            loop {
                if let Ok(id) = ml.load_model(&blob) {
                    break id;
                }
            }
        })
        .collect();
    let mut results = Vec::with_capacity(CALLS);
    let mut typed_restart_errors = 0u64;
    for i in 0..CALLS {
        let (rows, feats) = batch(i);
        let id = ids[i % MODELS];
        let tenant = (i % 2) as u32;
        if i % 40 == 0 {
            // Zero-learning-rate training: non-idempotent (may surface a
            // typed crash error on the dying shard) but weight-preserving,
            // so every answer stays comparable to the clean run.
            match ml.train_mlp(tenant, id, rows, COLS, &feats, &vec![0u32; rows], 1, 0.0) {
                Ok(_) => {}
                Err(LakeError::Rpc(RpcError::DaemonRestarted { .. })) => typed_restart_errors += 1,
                Err(e) => panic!("train {i} failed with a non-crash error: {e}"),
            }
            ml.sync_replica(id).expect("replica resync");
        }
        let classes = ml
            .infer_mlp(tenant, id, rows, COLS, &feats)
            .unwrap_or_else(|e| panic!("request {i} lost while shard 0 crashed: {e}"));
        results.push(classes);
    }
    (results, typed_restart_errors)
}

#[test]
fn fleet_survives_one_shard_crashing_with_identical_answers() {
    let seed = crash_seed();

    // Crash-free reference fleet.
    let clean = deploy(None);
    let (clean_results, clean_typed) = run_workload(&clean);
    assert_eq!(clean_typed, 0, "no crashes scheduled, no DaemonRestarted errors");

    // Shard 0 dies repeatedly on a seeded jittered plan; its supervisor
    // restarts it while the router diverts around the hole. Crashes are
    // spaced well past the restart churn so most land while a sibling
    // shard is serving — the case the router (not the engine's internal
    // failover) must catch.
    let plan = CrashSchedule::jittered(
        Duration::from_micros(400),
        Duration::from_micros(1200),
        Duration::from_micros(400),
        8,
        seed,
    );
    let crashy = deploy(Some(plan));
    let (crash_results, typed) = run_workload(&crashy);

    // Zero lost requests is asserted inside run_workload; the answers
    // must also be bit-identical to the crash-free fleet's.
    assert_eq!(crash_results, clean_results, "shard death must not change any answer");

    let stats = crashy.stats();
    let reports: Vec<_> = crashy.shards().iter().map(Lake::fault_report).collect();
    let shard0 = &reports[0].supervisor;
    let restarts: u64 = reports.iter().map(|r| r.supervisor.restarts).sum();
    let orphans: u64 = reports.iter().map(|r| r.supervisor.orphans_reclaimed).sum();
    eprintln!(
        "fleet crash seed {seed} ({} shards): {} crashes detected, {} restarts \
         on shard 0 (epoch {}); router: {} primary, {} diverted, {} failover \
         retries; {} typed restart errors; totals: {} restarts, {} orphans \
         reclaimed",
        reports.len(),
        shard0.crashes_detected,
        shard0.restarts,
        shard0.epoch,
        stats.routed_primary,
        stats.diverted,
        stats.failover_retries,
        typed,
        restarts,
        orphans,
    );

    // The crash plan really fired, and only on shard 0.
    assert!(shard0.restarts >= 1, "shard 0 never restarted: {shard0:?}");
    for (id, r) in reports.iter().enumerate() {
        if id != 0 {
            assert_eq!(r.supervisor.restarts, 0, "healthy shard {id} restarted: {r:?}");
            assert_eq!(r.supervisor.epoch, 0, "healthy shard {id} bumped its epoch");
        }
    }
    assert_eq!(restarts, shard0.restarts, "fleet totals must equal shard 0's");

    // The router visibly routed around the dying shard at least once.
    assert!(stats.diverted >= 1, "no calls diverted to a backup: {stats:?}");
    assert!(stats.routed_primary > stats.diverted, "diversion must be the exception");

    // Tenant QoS gated the data plane in both runs without losing anyone.
    assert!(stats.qos.admitted >= CALLS as u64, "admissions missing: {:?}", stats.qos);
    assert_eq!(stats.qos.expired, 0, "no tenant request may expire at this load");

    // The clean fleet saw none of it.
    let clean_stats = clean.stats();
    assert_eq!(clean_stats.diverted, 0);
    assert_eq!(clean_stats.failover_retries, 0);
    assert!(clean.shards().iter().all(|s| s.fault_report().supervisor.restarts == 0));
}
