//! Scheduler observability: a point-in-time snapshot combining pool and
//! batcher counters, built from `lake_sim::metrics` primitives.

use crate::admission::AdmissionCounters;
use crate::batcher::Batcher;
use crate::pool::DevicePool;

/// Per-device scheduler counters.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMetrics {
    /// Pool index.
    pub index: usize,
    /// Batches dispatched to this device.
    pub dispatched_batches: u64,
    /// Rows inside those batches.
    pub dispatched_rows: u64,
    /// Moving-average NVML utilization, percent.
    pub utilization_percent: f64,
    /// Kernel launches observed by the device itself (includes work that
    /// bypassed the scheduler, e.g. the low-level CUDA path).
    pub launches: u64,
    /// When the device's compute engine frees up, ns of virtual time.
    pub engine_free_ns: u64,
    /// Whether the device is currently in placement rotation.
    pub healthy: bool,
    /// Consecutive faults currently charged against the device.
    pub consecutive_faults: u64,
    /// Times the device was evicted after a fault streak.
    pub evictions: u64,
    /// Times a probe brought the device back into rotation.
    pub reinstatements: u64,
}

/// A snapshot of every scheduler counter the daemon exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedMetrics {
    /// One entry per pool device.
    pub devices: Vec<DeviceMetrics>,
    /// Batches that ran on the CPU because of backpressure.
    pub cpu_fallback_batches: u64,
    /// Rows inside those batches.
    pub cpu_fallback_rows: u64,
    /// Device evictions across the pool.
    pub device_evictions: u64,
    /// Device reinstatements across the pool.
    pub device_reinstatements: u64,
    /// Batches that hit a device fault and were recovered on the CPU.
    pub recovered_batches: u64,
    /// Rows inside those recovered batches.
    pub recovered_rows: u64,
    /// Requests currently waiting in the batcher.
    pub queue_depth: usize,
    /// Requests ever accepted by the batcher.
    pub submitted: u64,
    /// Batches the batcher has handed out.
    pub dispatched_batches: u64,
    /// Batches dispatched because a queue filled to `max_batch`.
    pub full_flushes: u64,
    /// Batches dispatched because `max_wait` elapsed.
    pub timeout_flushes: u64,
    /// Batches dispatched by an explicit flush.
    pub forced_flushes: u64,
    /// Mean dispatched batch size, if any batch was dispatched.
    pub mean_batch_size: Option<f64>,
    /// Largest dispatched batch size, if any batch was dispatched.
    pub max_batch_size: Option<f64>,
    /// Mean batcher queue depth sampled at submit time.
    pub mean_queue_depth: Option<f64>,
    /// Whether the restart-storm breaker has latched the pool into
    /// forced CPU fallback.
    pub forced_fallback: bool,
    /// Times the forced-fallback breaker has latched.
    pub forced_fallback_trips: u64,
    /// Admission-control activity (quota waits, rejections, expiries).
    /// Zero unless the owner wires an `AdmissionController` in via
    /// [`SchedMetrics::with_admission`].
    pub admission: AdmissionCounters,
    /// Daemon restarts observed by the supervisor. Populated by the
    /// stack owner; zero when collected below the lifecycle layer.
    pub daemon_restarts: u64,
    /// Shm bytes still owned by dead daemon incarnations. Populated by
    /// the stack owner from `AllocStats::orphaned_bytes`.
    pub shm_orphaned_bytes: usize,
    /// Orphaned shm allocations reclaimed so far (`AllocStats::reclaimed_allocs`).
    pub shm_reclaimed_allocs: u64,
    /// Orphaned shm bytes reclaimed so far (`AllocStats::reclaimed_bytes`).
    pub shm_reclaimed_bytes: u64,
    /// Bytes memcpy'd on the RPC data path (frame assembly, owned
    /// decodes, staging writes). Populated by the stack owner from
    /// `lake_rpc::perf`; zero when collected below that layer.
    pub bytes_copied: u64,
    /// Payload hand-offs that avoided a memcpy (borrowed decodes, shm
    /// handle-passing). Populated by the stack owner.
    pub zero_copy_hits: u64,
    /// Fraction of GEMM inference runs that went through the worker
    /// pool rather than the single-threaded path. Populated by the
    /// stack owner from the daemon's `InferenceEngine` stats.
    pub gemm_pool_utilization: f64,
    /// Name of the GEMM microkernel family the daemon's inference engine
    /// dispatches to (`"scalar"` or `"avx2"`). Populated by the
    /// stack owner; empty when collected below that layer.
    pub simd_kernel: &'static str,
}

impl SchedMetrics {
    /// Collects a snapshot from a pool and its batcher. Utilization reads
    /// go through the pool's rate-limited samplers, so collecting metrics
    /// is as cheap as the Fig 3 policy's own NVML queries.
    pub fn collect(pool: &DevicePool, batcher: &Batcher) -> Self {
        let utils = pool.utilization_snapshot();
        let frees = pool.engine_free_snapshot();
        let devices = (0..pool.len())
            .map(|idx| {
                let (batches, rows) = pool.dispatch_counts(idx);
                let (launches, _, _) = pool.device(idx).transfer_stats();
                let (evictions, reinstatements) = pool.health_counts(idx);
                DeviceMetrics {
                    index: idx,
                    dispatched_batches: batches,
                    dispatched_rows: rows,
                    utilization_percent: utils[idx],
                    launches,
                    engine_free_ns: frees[idx].as_nanos(),
                    healthy: pool.device_health(idx),
                    consecutive_faults: pool.device_fault_streak(idx),
                    evictions,
                    reinstatements,
                }
            })
            .collect();
        let (cpu_batches, cpu_rows) = pool.fallback_counts();
        let (recovered_batches, recovered_rows) = pool.recovered_counts();
        let (device_evictions, device_reinstatements) = (0..pool.len())
            .map(|idx| pool.health_counts(idx))
            .fold((0, 0), |(e, r), (de, dr)| (e + de, r + dr));
        let c = batcher.counters();
        SchedMetrics {
            devices,
            cpu_fallback_batches: cpu_batches,
            cpu_fallback_rows: cpu_rows,
            device_evictions,
            device_reinstatements,
            recovered_batches,
            recovered_rows,
            queue_depth: batcher.queue_depth(),
            submitted: c.submitted,
            dispatched_batches: c.dispatched_batches,
            full_flushes: c.full_flushes,
            timeout_flushes: c.timeout_flushes,
            forced_flushes: c.forced_flushes,
            mean_batch_size: c.batch_sizes.mean(),
            max_batch_size: c.batch_sizes.max(),
            mean_queue_depth: c.queue_depths.mean(),
            forced_fallback: pool.forced_fallback(),
            forced_fallback_trips: pool.forced_fallback_trips(),
            admission: AdmissionCounters::default(),
            daemon_restarts: 0,
            shm_orphaned_bytes: 0,
            shm_reclaimed_allocs: 0,
            shm_reclaimed_bytes: 0,
            bytes_copied: 0,
            zero_copy_hits: 0,
            gemm_pool_utilization: 0.0,
            simd_kernel: "",
        }
    }

    /// Folds admission-controller counters into the snapshot.
    pub fn with_admission(mut self, counters: AdmissionCounters) -> Self {
        self.admission = counters;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::pool::PoolPolicy;
    use lake_gpu::GpuSpec;
    use lake_sim::{Instant, SharedClock};

    #[test]
    fn snapshot_reflects_pool_and_batcher_state() {
        let pool = DevicePool::new(2, GpuSpec::tiny(), SharedClock::new(), PoolPolicy::default());
        let mut batcher = Batcher::new(BatchPolicy { max_batch: 2, ..Default::default() });
        let (_, none) = batcher.submit(1, 7, 1, 0, &[1.0], Instant::EPOCH);
        assert!(none.is_none());
        let (_, batch) = batcher.submit(2, 7, 1, 0, &[2.0], Instant::EPOCH);
        assert!(batch.is_some());
        pool.note_dispatch(1, 2);
        pool.note_fallback(1);

        let m = SchedMetrics::collect(&pool, &batcher);
        assert_eq!(m.devices.len(), 2);
        assert_eq!(m.devices[1].dispatched_batches, 1);
        assert_eq!(m.devices[1].dispatched_rows, 2);
        assert_eq!(m.cpu_fallback_batches, 1);
        assert!(m.devices.iter().all(|d| d.healthy));
        assert_eq!((m.device_evictions, m.device_reinstatements), (0, 0));
        assert_eq!(m.submitted, 2);
        assert_eq!(m.dispatched_batches, 1);
        assert_eq!(m.full_flushes, 1);
        assert_eq!(m.mean_batch_size, Some(2.0));
        assert_eq!(m.queue_depth, 0);
    }

    #[test]
    fn snapshot_surfaces_health_transitions() {
        let pool = DevicePool::new(2, GpuSpec::tiny(), SharedClock::new(), PoolPolicy::default());
        let batcher = Batcher::new(BatchPolicy::default());
        for _ in 0..pool.policy().fault_threshold {
            pool.note_device_fault(0);
        }
        pool.note_recovered(8);
        let m = SchedMetrics::collect(&pool, &batcher);
        assert!(!m.devices[0].healthy);
        assert!(m.devices[1].healthy);
        assert_eq!(m.devices[0].evictions, 1);
        assert_eq!(m.device_evictions, 1);
        assert_eq!((m.recovered_batches, m.recovered_rows), (1, 8));
    }
}
