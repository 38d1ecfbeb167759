//! Scheduler observability: a point-in-time snapshot of the pool's
//! counters.

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
    /// Whether the restart-storm breaker has latched the pool into
    /// forced CPU fallback.
    pub forced_fallback: bool,
    /// Times the forced-fallback breaker has latched.
    pub forced_fallback_trips: u64,
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
    /// Collects a snapshot from a pool. Utilization reads go through the
    /// pool's rate-limited samplers, so collecting metrics is as cheap as
    /// the Fig 3 policy's own NVML queries.
    pub fn collect(pool: &DevicePool) -> Self {
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
        SchedMetrics {
            devices,
            cpu_fallback_batches: cpu_batches,
            cpu_fallback_rows: cpu_rows,
            device_evictions,
            device_reinstatements,
            recovered_batches,
            recovered_rows,
            forced_fallback: pool.forced_fallback(),
            forced_fallback_trips: pool.forced_fallback_trips(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolPolicy;
    use lake_gpu::GpuSpec;
    use lake_sim::SharedClock;

    #[test]
    fn snapshot_reflects_pool_state() {
        let pool = DevicePool::new(2, GpuSpec::tiny(), SharedClock::new(), PoolPolicy::default());
        pool.note_dispatch(1, 2);
        pool.note_fallback(1);

        let m = SchedMetrics::collect(&pool);
        assert_eq!(m.devices.len(), 2);
        assert_eq!(m.devices[1].dispatched_batches, 1);
        assert_eq!(m.devices[1].dispatched_rows, 2);
        assert_eq!(m.cpu_fallback_batches, 1);
        assert!(m.devices.iter().all(|d| d.healthy));
        assert_eq!((m.device_evictions, m.device_reinstatements), (0, 0));
    }

    #[test]
    fn snapshot_surfaces_health_transitions() {
        let pool = DevicePool::new(2, GpuSpec::tiny(), SharedClock::new(), PoolPolicy::default());
        for _ in 0..pool.policy().fault_threshold {
            pool.note_device_fault(0);
        }
        pool.note_recovered(8);
        let m = SchedMetrics::collect(&pool);
        assert!(!m.devices[0].healthy);
        assert!(m.devices[1].healthy);
        assert_eq!(m.devices[0].evictions, 1);
        assert_eq!(m.device_evictions, 1);
        assert_eq!((m.recovered_batches, m.recovered_rows), (1, 8));
    }
}
