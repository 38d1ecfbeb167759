//! Model writes (`load_model`, `swap_model`, `unload_model`) through the
//! production wire mode: ring link, queue depth 64, 64 KiB staging.
//!
//! The invariants:
//!
//! * **blobs travel as descriptors** — a write's bytes cross the boundary
//!   once, through the staging region, at every queue depth; only a
//!   16-byte descriptor rides the ring, so a blob's size is not bounded by
//!   a ring frame;
//! * **the ring has a hard limit, not a livelock** — a command that
//!   cannot be staged and does not fit a ring frame fails typed;
//! * **device memory follows the installed version** — replaced and
//!   unloaded weights are freed, across supervised restarts too;
//! * **a staged buffer is never freed under a reader** — when the daemon
//!   dies mid-write the buffer is orphaned, and reclaimed by the restart.
//!
//! CI re-runs this file under `LAKE_QUEUE_DEPTH={1,64}` ×
//! `LAKE_DAEMON_WORKERS={1,4}`: depth 1 takes `CallEngine::call`, depth 64
//! the queue pair, and both must stage.

use lake::core::{
    BatchThresholdPolicy, CrashSchedule, Lake, LakeBuilder, LakeError, LakeMl, LinkMode,
};
use lake::gpu::GpuError;
use lake::ml::{serialize, Activation, Matrix, Mlp};
use lake::rpc::RpcError;
use lake::sim::{Duration, Instant};
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 64;
const STAGING_THRESHOLD: usize = 64 << 10;

fn production() -> LakeBuilder {
    Lake::builder()
        .link_mode(LinkMode::Ring)
        .queue_depth(64)
        .daemon_workers(2)
        .staging_threshold(STAGING_THRESHOLD)
}

/// A handle whose reads all cross to the daemon: the reads here move the
/// ring and pay restarts, which below the ring's 32-row crossover they
/// would not.
fn offloading(lake: &Lake) -> LakeMl {
    lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 })
}

fn mlp(hidden: &[usize], seed: u64) -> Mlp {
    let mut sizes = vec![COLS];
    sizes.extend_from_slice(hidden);
    sizes.push(2);
    Mlp::new(&sizes, Activation::Relu, &mut StdRng::seed_from_u64(seed))
}

fn rows(n: usize, salt: usize) -> Matrix {
    let data = (0..n * COLS).map(|i| ((i * 31 + salt * 17) % 23) as f32 / 23.0 - 0.5).collect();
    Matrix::from_vec(n, COLS, data)
}

fn classify(model: &Mlp, x: &Matrix) -> Vec<u32> {
    model.classify(x).into_iter().map(|c| c as u32).collect()
}

/// Blobs larger than any ring frame — one over the whole 1 MiB ring, one
/// over half of it once traffic has moved the tail — load and answer
/// exactly like the local model.
#[test]
fn blobs_larger_than_a_ring_frame_load_and_classify_like_the_local_model() {
    let lake = production().build();
    let ml = offloading(&lake);

    let huge = mlp(&[512, 512], 1);
    let huge_blob = serialize::encode_mlp(&huge);
    assert!(huge_blob.len() > 1 << 20, "{} bytes", huge_blob.len());
    let huge_id = ml.load_model(&huge_blob).unwrap();
    let x = rows(8, 1);
    assert_eq!(ml.infer_mlp(huge_id, 8, COLS, x.data()).unwrap(), classify(&huge, &x));

    // A few thousand reads leave the ring's tail anywhere but at 0.
    let small = mlp(&[16], 2);
    let small_id = ml.load_model(&serialize::encode_mlp(&small)).unwrap();
    for i in 0..3000 {
        let x = rows(1, i);
        assert_eq!(ml.infer_mlp(small_id, 1, COLS, x.data()).unwrap(), classify(&small, &x));
    }

    let big = mlp(&[384, 448], 3);
    let big_blob = serialize::encode_mlp(&big);
    assert!((700 << 10..1 << 20).contains(&big_blob.len()), "{} bytes", big_blob.len());
    let big_id = ml.load_model(&big_blob).unwrap();
    let x = rows(8, 2);
    assert_eq!(ml.infer_mlp(big_id, 8, COLS, x.data()).unwrap(), classify(&big, &x));

    // And a swap of the same size lands the new weights.
    let big2 = mlp(&[384, 448], 4);
    assert_eq!(ml.swap_model(big_id, &serialize::encode_mlp(&big2)).unwrap(), 2);
    assert_eq!(ml.infer_mlp(big_id, 8, COLS, x.data()).unwrap(), classify(&big2, &x));

    assert_eq!(lake.perf_report().staged_calls, 3, "three bulk writes, all staged");
    let staging = lake.fault_report().staging.expect("staging attached");
    assert_eq!(staging.in_use, 0, "every staged blob released: {staging:?}");
}

/// Without a staging region the same blob cannot cross the ring at all:
/// the write fails typed, immediately, and the link keeps working.
#[test]
fn unstageable_blob_over_the_ring_limit_fails_typed_instead_of_hanging() {
    let lake = Lake::builder().link_mode(LinkMode::Ring).queue_depth(64).build();
    if lake.link_mode() != LinkMode::Ring {
        return; // LAKE_LINK override: no frame limit to hit
    }
    let ml = offloading(&lake);
    let small = mlp(&[16], 5);
    let small_id = ml.load_model(&serialize::encode_mlp(&small)).unwrap();
    let x = rows(1, 9);
    assert_eq!(ml.infer_mlp(small_id, 1, COLS, x.data()).unwrap(), classify(&small, &x));

    let err = ml.load_model(&serialize::encode_mlp(&mlp(&[384, 448], 6))).unwrap_err();
    assert!(
        matches!(err, LakeError::Rpc(RpcError::FrameTooLarge { len, max }) if len > max),
        "{err:?}"
    );
    assert_eq!(ml.infer_mlp(small_id, 1, COLS, x.data()).unwrap(), classify(&small, &x));
}

/// A thousand swaps hold exactly one version's weights on the device,
/// a supervised restart replays exactly one, and unload gives it all back
/// — together with the model's kernel.
#[test]
fn device_memory_tracks_the_installed_version_across_swaps_restart_and_unload() {
    let crash = Instant::EPOCH + Duration::from_secs(3600);
    let lake = Lake::builder().crash_schedule(CrashSchedule::at(vec![crash])).build();
    let ml = offloading(&lake);
    let gpu = lake.gpu();
    let before = gpu.memory_used();

    let variants = [mlp(&[24], 10), mlp(&[24], 11)];
    let blobs = [serialize::encode_mlp(&variants[0]), serialize::encode_mlp(&variants[1])];
    let footprint = variants[0].num_params() * 4;
    let id = ml.load_model(&blobs[0]).unwrap();
    assert_eq!(gpu.memory_used(), before + footprint);

    let x = rows(2, 3);
    for i in 1..=1000usize {
        assert_eq!(ml.swap_model(id, &blobs[i % 2]).unwrap(), i as u64 + 1);
        if i % 100 == 0 {
            assert_eq!(
                ml.infer_mlp(id, 2, COLS, x.data()).unwrap(),
                classify(&variants[i % 2], &x)
            );
            assert_eq!(gpu.memory_used(), before + footprint, "after {i} swaps");
        }
    }

    // Run the clock into the crash: the next call restarts the daemon,
    // whose replay uploads the shadowed version once more — and only it.
    assert!(lake.clock().now() < crash);
    lake.clock().advance_to(crash);
    assert_eq!(ml.infer_mlp(id, 2, COLS, x.data()).unwrap(), classify(&variants[0], &x));
    assert_eq!(lake.supervisor().stats().models_replayed, 1);
    assert_eq!(gpu.memory_used(), before + footprint, "after the restart");

    ml.unload_model(id).unwrap();
    assert_eq!(gpu.memory_used(), before);
    let kernel = format!("hl_mlp_{}", id.0);
    assert!(
        matches!(gpu.launch_kernel(&kernel, 1, &[]), Err(GpuError::UnknownKernel(_))),
        "{kernel} still registered after unload"
    );
}

/// The integer ledger of one staged `load_model`: a descriptor frame, one
/// copy of the blob into shm, one decode.
#[test]
fn staged_load_ledger_one_descriptor_frame_one_copy_one_decode() {
    let lake = production().build();
    let ml = lake.ml();
    let blob = serialize::encode_mlp(&mlp(&[512, 64], 20));
    assert!(blob.len() > 4 * STAGING_THRESHOLD);

    let (calls, perf) = (lake.call_stats(), lake.perf_report());
    let id = ml.load_model(&blob).unwrap();
    let (calls_after, perf_after) = (lake.call_stats(), lake.perf_report());

    assert_eq!(calls_after.calls - calls.calls, 1);
    assert_eq!(perf_after.staged_calls - perf.staged_calls, 1);
    let frame_bytes = calls_after.bytes_sent - calls.bytes_sent;
    assert!(frame_bytes <= 128, "{frame_bytes} bytes on the wire for a {} byte blob", blob.len());
    let rpc = perf_after.rpc.since(&perf.rpc);
    assert!(rpc.bytes_copied >= blob.len() as u64, "the staging write is a counted copy");
    assert!(rpc.bytes_copied <= 2 * blob.len() as u64, "{rpc:?} for a {} byte blob", blob.len());
    assert!(rpc.bytes_zero_copied >= blob.len() as u64, "the daemon read the blob in place");
    assert_eq!(perf_after.store.decodes - perf.store.decodes, 1, "one decode per write");

    let next = serialize::encode_mlp(&mlp(&[512, 64], 21));
    ml.swap_model(id, &next).unwrap();
    assert_eq!(lake.perf_report().store.decodes - perf_after.store.decodes, 1);
}

/// The daemon dies while a staged swap is in flight: the caller gets the
/// typed restart error, the blob's buffer stays live (orphaned) while the
/// dead incarnation could still read it, and the supervised restart that
/// the next call pays for reclaims it.
#[test]
fn staged_write_orphans_its_buffer_when_the_daemon_dies_and_restart_reclaims_it() {
    let v1 = mlp(&[512, 64], 30);
    let v2 = mlp(&[512, 64], 31);
    let blob2 = serialize::encode_mlp(&v2);
    let x = rows(4, 5);

    let crash = Instant::EPOCH + Duration::from_millis(50);
    let lake = production().crash_schedule(CrashSchedule::at(vec![crash])).build();
    let ml = offloading(&lake);
    let id = ml.load_model(&serialize::encode_mlp(&v1)).unwrap();
    assert_eq!(ml.infer_mlp(id, 4, COLS, x.data()).unwrap(), classify(&v1, &x));
    assert!(lake.clock().now() < crash);

    // Park the clock so the swap's in-flight window spans the crash.
    lake.clock().advance_to(Instant::from_nanos(crash.as_nanos() - 100));
    let err = ml.swap_model(id, &blob2).unwrap_err();
    assert!(matches!(err, LakeError::Rpc(RpcError::DaemonRestarted { epoch: 0 })), "{err:?}");
    let staging = lake.fault_report().staging.expect("staging attached");
    assert_eq!(staging.live_allocs, 1, "not freed under a possible reader: {staging:?}");
    assert!(staging.orphaned_bytes >= blob2.len(), "{staging:?}");
    assert_eq!(staging.reclaimed_allocs, 0);

    // The next request pays the restart, which sweeps the orphan and
    // replays the pre-swap version.
    assert_eq!(ml.infer_mlp(id, 4, COLS, x.data()).unwrap(), classify(&v1, &x));
    let report = lake.fault_report();
    let staging = report.staging.expect("staging attached");
    assert_eq!((staging.in_use, staging.orphaned_bytes), (0, 0), "{staging:?}");
    assert_eq!(staging.reclaimed_allocs, 1);
    assert!(staging.reclaimed_bytes >= blob2.len() as u64);
    assert!(report.supervisor.orphans_reclaimed >= 1);

    // Caller-driven retry lands the new version.
    assert_eq!(ml.swap_model(id, &blob2).unwrap(), 2);
    assert_eq!(ml.infer_mlp(id, 4, COLS, x.data()).unwrap(), classify(&v2, &x));
}
