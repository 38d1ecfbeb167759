//! Chaos integration: the LinnOS-style batched-inference workload driven
//! through the full kernel↔daemon path while the transport drops,
//! corrupts, delays, and duplicates frames, both GPUs fault in bursts,
//! and the daemon periodically stalls.
//!
//! The invariants under fault injection:
//!
//! * **zero lost requests** — every idempotent call eventually answers,
//!   and answers *correctly* (bit-identical to the fault-free run);
//! * **no daemon panic** — faults surface as errors/retries, never
//!   unwinding;
//! * **bounded latency inflation** — p99 under chaos stays within 5× of
//!   the fault-free p99;
//! * **observable recovery** — device evictions, probe reinstatements,
//!   CPU-recovered batches, and engine retries all show up in counters.
//!
//! `CHAOS_SEED` selects the fault plan's seed (CI runs a small matrix);
//! any seed must satisfy the same invariants.

use std::collections::HashMap;

use lake::core::{BatchThresholdPolicy, Lake, LakeError, LakeMl, LinkMode, PoolPolicy};
use lake::gpu::GpuFaultConfig;
use lake::ml::{serialize, Activation, Kernel, Matrix, Mlp};
use lake::rpc::{CallPolicy, RpcError};
use lake::sim::{BurstSchedule, CrashSchedule, Duration, FaultSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 31; // LinnOS feature vector width
const CALLS: usize = 600;

/// A handle that offloads every inference: the daemon and the path to it
/// are what the faults target, and small batches would otherwise be
/// answered kernel-side.
fn offloading(lake: &Lake) -> LakeMl {
    lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 })
}

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

fn crash_seed() -> u64 {
    std::env::var("CRASH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

fn model() -> Mlp {
    Mlp::new(&[COLS, 16, 2], Activation::Relu, &mut StdRng::seed_from_u64(4242))
}

/// Deterministic synthetic feature batch for call `i` (`rows` varies so
/// batches cross the scheduler's placement thresholds).
fn batch(i: usize) -> (usize, Vec<f32>) {
    let rows = 1 + (i % 32);
    let feats = (0..rows * COLS).map(|j| ((i * 131 + j * 31) % 251) as f32 / 251.0).collect();
    (rows, feats)
}

/// Runs the workload against a deployed instance; returns per-call virtual
/// latencies (ns) and every call's classes. Panics if any call fails —
/// that is the "zero lost requests" assertion.
fn run_workload(lake: &Lake) -> (Vec<u64>, Vec<Vec<u32>>) {
    let ml = offloading(lake);
    let blob = serialize::encode_mlp(&model());
    // Model load is not idempotent, so under frame loss the engine
    // surfaces an error instead of silently retrying; init-time code owns
    // that retry loop, as a real kernel module's probe path would.
    let id = loop {
        if let Ok(id) = ml.load_model(&blob) {
            break id;
        }
    };
    let mut latencies = Vec::with_capacity(CALLS);
    let mut results = Vec::with_capacity(CALLS);
    for i in 0..CALLS {
        let (rows, feats) = batch(i);
        let t0 = lake.clock().now();
        let classes = ml
            .infer_mlp(id, rows, COLS, &feats)
            .unwrap_or_else(|e| panic!("request {i} lost under chaos: {e}"));
        latencies.push((lake.clock().now() - t0).as_nanos());
        results.push(classes);
    }
    (latencies, results)
}

fn p99(latencies: &[u64]) -> u64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() * 99 / 100]
}

fn chaos_policy() -> CallPolicy {
    CallPolicy {
        deadline: Duration::from_micros(30),
        backoff: Duration::from_micros(5),
        max_attempts: 10,
        ..Default::default()
    }
}

#[test]
fn linnos_workload_survives_chaos_with_bounded_inflation() {
    let seed = chaos_seed();

    // Fault-free reference run (same topology, same policy).
    let clean = Lake::builder().num_devices(2).call_policy(chaos_policy()).build();
    let (clean_lat, clean_results) = run_workload(&clean);

    // Chaos run: lossy transport + staggered GPU fault bursts + stalls.
    let spec = FaultSpec {
        drop_prob: 0.06,
        corrupt_prob: 0.03,
        delay_prob: 0.02,
        duplicate_prob: 0.01,
        max_delay: Duration::from_micros(30),
    };
    let gpu0 = BurstSchedule::new(
        Duration::from_micros(500),
        Duration::from_millis(3),
        Duration::from_millis(1),
    );
    let gpu1 = BurstSchedule::new(
        Duration::from_micros(2000),
        Duration::from_millis(3),
        Duration::from_millis(1),
    );
    let stall = BurstSchedule::new(
        Duration::from_millis(1),
        Duration::from_millis(2),
        Duration::from_micros(50),
    );
    let faulty = Lake::builder()
        .num_devices(2)
        .call_policy(chaos_policy())
        .pool_policy(PoolPolicy::default())
        .transport_faults(spec, seed)
        .device_faults(0, GpuFaultConfig { kernel_faults: Some(gpu0), oom: None })
        .device_faults(1, GpuFaultConfig { kernel_faults: Some(gpu1), oom: None })
        .stall_schedule(stall)
        .build();
    let (faulty_lat, faulty_results) = run_workload(&faulty);

    // Zero lost requests is asserted inside run_workload; results must
    // also be bit-identical to the fault-free run.
    assert_eq!(faulty_results, clean_results, "chaos must not change any answer");

    let (p99_clean, p99_faulty) = (p99(&clean_lat), p99(&faulty_lat));
    let counters = faulty.fault_counters().expect("fault plan installed");
    let stats = faulty.call_stats();
    let m = faulty.sched_metrics();
    eprintln!(
        "chaos seed {seed}: p99 {p99_clean}ns clean vs {p99_faulty}ns chaos \
         ({:.2}x); {} frames, {} drops, {} corruptions, {} delays, {} dups; \
         {} retries, {} timeouts; {} evictions, {} reinstatements, \
         {} batches CPU-recovered, {} stalls",
        p99_faulty as f64 / p99_clean as f64,
        counters.frames,
        counters.drops,
        counters.corruptions,
        counters.delays,
        counters.duplicates,
        stats.retries,
        stats.timeouts,
        m.device_evictions,
        m.device_reinstatements,
        m.recovered_batches,
        faulty.daemon().stall_events(),
    );

    // Bounded latency inflation.
    assert!(
        p99_faulty <= 5 * p99_clean,
        "p99 inflation too high: clean {p99_clean}ns, chaos {p99_faulty}ns (seed {seed})"
    );

    // The fault plan really fired.
    assert!(counters.drops > 0, "no drops injected: {counters:?}");
    assert!(counters.corruptions > 0, "no corruption injected: {counters:?}");

    // The engine visibly retried through it.
    assert!(stats.retries > 0, "chaos should force retries: {stats:?}");

    // Pending-table leak regression (PR 7): late and duplicated responses
    // are stashed only while a caller is actually waiting on that seq, so
    // the table's high-water mark is bounded by the concurrent-caller
    // count (one workload thread here — in queue mode a whole burst rides
    // one seq) no matter how many frames chaos replays.
    assert!(
        stats.pending_high_water <= 2,
        "pending table grew past the caller count under chaos: {stats:?}"
    );

    // Device health tracking saw the bursts: faults evicted a device,
    // probes brought one back, and faulted work recovered on the CPU.
    assert!(m.device_evictions >= 1, "no evictions recorded: {m:?}");
    assert!(m.device_reinstatements >= 1, "no reinstatements recorded: {m:?}");
    assert!(m.recovered_batches >= 1, "no CPU recoveries recorded: {m:?}");
    assert!(faulty.daemon().stall_events() > 0, "no stall windows hit");

    // And the clean run saw none of it.
    let clean_m = clean.sched_metrics();
    assert_eq!(clean_m.device_evictions, 0);
    assert_eq!(clean_m.recovered_batches, 0);
    assert_eq!(clean.call_stats().retries, 0);
}

/// Like [`run_workload`], but interleaves a zero-learning-rate `tfTrain`
/// every 40 calls. Training is non-idempotent, so when the daemon dies
/// mid-call it must surface the typed `DaemonRestarted` error (and its
/// staging buffer is deliberately stranded for the orphan sweep); a zero
/// learning rate keeps the weights — and therefore every inference
/// answer — bit-identical to a run with no crashes at all.
fn run_crashy_workload(lake: &Lake) -> (Vec<u64>, Vec<Vec<u32>>, u64) {
    let ml = offloading(lake);
    let blob = serialize::encode_mlp(&model());
    let id = loop {
        if let Ok(id) = ml.load_model(&blob) {
            break id;
        }
    };
    let mut latencies = Vec::with_capacity(CALLS);
    let mut results = Vec::with_capacity(CALLS);
    let mut typed_restart_errors = 0u64;
    for i in 0..CALLS {
        let (rows, feats) = batch(i);
        if i % 40 == 0 {
            match ml.train_mlp(id, rows, COLS, &feats, &vec![0u32; rows], 1, 0.0) {
                Ok(_) => {}
                Err(LakeError::Rpc(RpcError::DaemonRestarted { .. })) => {
                    typed_restart_errors += 1;
                }
                Err(e) => panic!("train {i} failed with a non-crash error: {e}"),
            }
        }
        let t0 = lake.clock().now();
        let classes = ml
            .infer_mlp(id, rows, COLS, &feats)
            .unwrap_or_else(|e| panic!("request {i} lost across daemon death: {e}"));
        latencies.push((lake.clock().now() - t0).as_nanos());
        results.push(classes);
    }
    (latencies, results, typed_restart_errors)
}

#[test]
fn linnos_workload_survives_daemon_crashes_mid_batch() {
    let seed = crash_seed();

    // Reference run: same workload, a daemon that never dies.
    let clean = Lake::builder().num_devices(2).call_policy(chaos_policy()).build();
    let (clean_lat, clean_results, clean_typed) = run_crashy_workload(&clean);
    assert_eq!(clean_typed, 0, "no crashes scheduled, no DaemonRestarted errors");

    // Crash run: lakeD dies repeatedly mid-batch on a seeded jittered
    // schedule; the supervisor restarts it under fresh epochs.
    let crashes = CrashSchedule::jittered(
        Duration::from_micros(300),
        Duration::from_micros(700),
        Duration::from_micros(150),
        12,
        seed,
    );
    let crashy =
        Lake::builder().num_devices(2).call_policy(chaos_policy()).crash_schedule(crashes).build();
    let (crash_lat, crash_results, typed) = run_crashy_workload(&crashy);

    // Zero lost requests: panics inside run_crashy_workload cover loss;
    // bit-identical answers cover stale or wrong-incarnation responses.
    assert_eq!(crash_results, clean_results, "daemon death must not change any answer");

    let sup = crashy.supervisor().stats();
    let stats = crashy.call_stats();
    let worst = *crash_lat.iter().max().unwrap();
    eprintln!(
        "crash seed {seed}: {} crashes detected, {} restarts (epoch {}), \
         {} models replayed, {} breaker trips; {} failovers, {} typed \
         restart errors, {} stale responses fenced; worst latency {}ns \
         (clean p99 {}ns)",
        sup.crashes_detected,
        sup.restarts,
        sup.epoch,
        sup.models_replayed,
        sup.breaker_trips,
        stats.failed_over,
        typed,
        stats.stale_epochs,
        worst,
        p99(&clean_lat),
    );

    // The schedule really fired and the supervisor really restarted.
    assert!(sup.restarts >= 1, "no supervised restarts happened: {sup:?}");
    assert_eq!(sup.epoch, sup.restarts, "one epoch bump per restart");
    assert_eq!(sup.models_replayed, sup.restarts, "shadow table replayed each time");

    // Every response fenced as stale was accounted for: either failed
    // over (idempotent inference) or surfaced as a typed error
    // (non-idempotent training). Nothing was silently dropped and no
    // stale-epoch answer was delivered.
    assert!(stats.failed_over >= 1, "no failovers recorded: {stats:?}");
    assert_eq!(
        stats.stale_epochs,
        stats.failed_over + stats.daemon_restarts,
        "unaccounted stale responses: {stats:?}"
    );
    assert_eq!(stats.daemon_restarts, typed, "typed errors match the engine's count");

    // Pending-table leak regression (PR 7): epoch fencing and restarts
    // must not strand stale-epoch responses in the table either.
    assert!(
        stats.pending_high_water <= 2,
        "pending table grew past the caller count across restarts: {stats:?}"
    );

    // Bounded recovery: no request hangs, even the ones that rode
    // through a restart (lease + backoff + restart cost).
    assert!(worst < Duration::from_millis(10).as_nanos(), "a request stalled: {worst}ns");

    // Orphan reclamation: every stranded training buffer was disowned
    // and swept — by a later supervised restart, or by the final
    // quiesced sweep — and the region converges to one coalesced block.
    let report = crashy.reclaim_shm_orphans();
    let after = crashy.shm().stats();
    assert_eq!(
        sup.orphans_reclaimed + report.reclaimed_allocs,
        typed,
        "one orphan per typed restart error: {sup:?} + {report:?}"
    );
    assert_eq!(after.in_use, 0, "shm not back to baseline: {after:?}");
    assert_eq!(after.orphaned_bytes, 0);
    assert_eq!(after.free_blocks, 1, "region did not coalesce: {after:?}");
    assert_eq!(after.largest_free, crashy.shm().capacity());

    // The clean run saw none of it.
    assert_eq!(clean.supervisor().stats().restarts, 0);
    assert_eq!(clean.call_stats().stale_epochs, 0);
}

/// `LAKE_SIMD` has one parse, `Kernel::from_env`, and the deployed daemon's
/// engine runs the kernel it returns. CI runs this suite under
/// `LAKE_SIMD=auto` and `LAKE_SIMD=scalar`, so the scalar leg proves the
/// chaos invariants above were checked against the scalar oracle.
#[test]
fn deployed_daemon_runs_the_lake_simd_kernel() {
    let lake = Lake::builder().build();
    assert_eq!(lake.daemon().simd_kernel(), Kernel::from_env());
    assert_eq!(lake.sched_metrics().simd_kernel, Kernel::from_env().name());
}

/// A full production-depth queue of 8 KiB feature batches — 512 KiB
/// staged before the first harvest — completes: staging allocates
/// straight from the 128 MiB lakeShm region, with no smaller cap in
/// front of it, and every buffer is back on the free list afterwards.
#[test]
fn queued_staging_beyond_256_kib_completes() {
    const SUBMITS: usize = 64;
    const ROWS: usize = 64;
    const WIDTH: usize = 32;
    let net = Mlp::new(&[WIDTH, 16, 2], Activation::Relu, &mut StdRng::seed_from_u64(45));
    for mode in [LinkMode::InProcess, LinkMode::Ring] {
        let lake = Lake::builder().link_mode(mode).queue_depth(64).build();
        let ml = offloading(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&net)).unwrap();
        let mut want = HashMap::new();
        for i in 0..SUBMITS {
            let x: Vec<f32> =
                (0..ROWS * WIDTH).map(|j| ((i * 37 + j * 13) % 101) as f32 / 101.0).collect();
            let ticket = ml
                .submit_mlp(id, ROWS, WIDTH, &x)
                .unwrap_or_else(|e| panic!("{mode:?}: submit {i} failed: {e}"));
            let classes: Vec<u32> = net
                .classify(&Matrix::from_vec(ROWS, WIDTH, x))
                .into_iter()
                .map(|c| c as u32)
                .collect();
            want.insert(ticket, classes);
        }
        let done = ml.drain_completions();
        assert_eq!(done.len(), SUBMITS, "{mode:?}: every submission completes");
        for (ticket, result) in done {
            assert_eq!(result.unwrap(), want[&ticket], "{mode:?}: ticket {ticket:?}");
        }
        assert_eq!(lake.shm().stats().in_use, 0, "{mode:?}: every staging buffer freed");
    }
}
