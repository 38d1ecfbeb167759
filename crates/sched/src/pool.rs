//! A pool of simulated GPUs with utilization-aware placement.
//!
//! Placement follows the paper's contention policy (Fig 3) generalized
//! per device: each device is watched through a rate-limited NVML
//! sampler feeding a moving average, work goes to the least-loaded
//! device, and when *every* device sits above the execution threshold
//! the pool reports [`Placement::CpuFallback`] so the caller runs the
//! model host-side instead (Fig 13's adaptive behavior).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use lake_gpu::{GpuDevice, GpuError, GpuSpec, KernelArg, KernelCtx, NvmlSampler};
use lake_sim::{Duration, Instant, SharedClock};

/// Where a batch should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Dispatch to pool device `idx`.
    Device(usize),
    /// All devices are contended (or the batch is too small to amortize a
    /// launch) — run on the CPU.
    CpuFallback,
}

/// Placement thresholds, mirroring the Fig 3 `cu_policy` constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolPolicy {
    /// Moving-average utilization (percent) above which a device is
    /// considered contended. When every device exceeds it, placement
    /// falls back to the CPU.
    pub exec_threshold: f64,
    /// Batches smaller than this prefer the CPU (a GPU launch would not
    /// amortize). `0` disables batch-size steering, which keeps the
    /// daemon's synchronous inference path on the device like the seed.
    pub batch_threshold: usize,
    /// Consecutive faults after which a device is evicted from placement
    /// (marked unhealthy) until a probe reinstates it.
    pub fault_threshold: u32,
    /// Virtual time an evicted device sits out before placement probes it
    /// again. One more fault after reinstatement re-evicts immediately.
    pub probe_interval: Duration,
}

impl Default for PoolPolicy {
    fn default() -> Self {
        PoolPolicy {
            exec_threshold: 40.0,
            batch_threshold: 0,
            fault_threshold: 3,
            probe_interval: Duration::from_millis(5),
        }
    }
}

struct PooledDevice {
    device: Arc<GpuDevice>,
    sampler: Mutex<NvmlSampler>,
    dispatches: AtomicU64,
    rows: AtomicU64,
    /// False once `fault_threshold` consecutive faults evict the device.
    healthy: AtomicBool,
    consecutive_faults: AtomicU64,
    /// When the device was evicted (valid while unhealthy); probes fire
    /// `probe_interval` after this.
    evicted_at: Mutex<Instant>,
    evictions: AtomicU64,
    reinstatements: AtomicU64,
}

/// N simulated GPUs sharing one virtual clock, each with its own NVML
/// sampler.
pub struct DevicePool {
    devices: Vec<PooledDevice>,
    policy: PoolPolicy,
    clock: SharedClock,
    cpu_fallback_batches: AtomicU64,
    cpu_fallback_rows: AtomicU64,
    /// Batches that hit a device fault mid-dispatch and were recovered on
    /// the CPU instead of being lost.
    recovered_batches: AtomicU64,
    recovered_rows: AtomicU64,
    /// Latched by the daemon supervisor's restart-storm circuit breaker:
    /// while set, every placement is a CPU fallback regardless of device
    /// health, so a crash-looping daemon stops bouncing work off the GPUs.
    forced_fallback: AtomicBool,
    /// Times the breaker latched the pool into forced fallback.
    forced_fallback_trips: AtomicU64,
}

impl std::fmt::Debug for DevicePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevicePool")
            .field("devices", &self.devices.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl DevicePool {
    /// Creates a pool of `n` identical devices on a shared clock.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, spec: GpuSpec, clock: SharedClock, policy: PoolPolicy) -> Arc<Self> {
        assert!(n > 0, "a device pool needs at least one device");
        let devices = (0..n).map(|_| GpuDevice::new(spec.clone(), clock.clone())).collect();
        Self::from_devices(devices, clock, policy)
    }

    /// Wraps existing devices (they must share `clock`).
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn from_devices(
        devices: Vec<Arc<GpuDevice>>,
        clock: SharedClock,
        policy: PoolPolicy,
    ) -> Arc<Self> {
        assert!(!devices.is_empty(), "a device pool needs at least one device");
        let devices = devices
            .into_iter()
            .map(|device| PooledDevice {
                sampler: Mutex::new(NvmlSampler::new(Arc::clone(&device))),
                device,
                dispatches: AtomicU64::new(0),
                rows: AtomicU64::new(0),
                healthy: AtomicBool::new(true),
                consecutive_faults: AtomicU64::new(0),
                evicted_at: Mutex::new(Instant::EPOCH),
                evictions: AtomicU64::new(0),
                reinstatements: AtomicU64::new(0),
            })
            .collect();
        Arc::new(DevicePool {
            devices,
            policy,
            clock,
            cpu_fallback_batches: AtomicU64::new(0),
            cpu_fallback_rows: AtomicU64::new(0),
            recovered_batches: AtomicU64::new(0),
            recovered_rows: AtomicU64::new(0),
            forced_fallback: AtomicBool::new(false),
            forced_fallback_trips: AtomicU64::new(0),
        })
    }

    /// Number of devices in the pool.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false — pools hold at least one device.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The pool's placement thresholds.
    pub fn policy(&self) -> PoolPolicy {
        self.policy
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Device `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn device(&self, idx: usize) -> &Arc<GpuDevice> {
        &self.devices[idx].device
    }

    /// Device 0 — the device the low-level remoted CUDA API drives (a
    /// kernel module holding raw device pointers is pinned to one
    /// device; only the stateless high-level path spreads).
    pub fn primary(&self) -> &Arc<GpuDevice> {
        &self.devices[0].device
    }

    /// Registers a kernel on every device (the multi-GPU analog of
    /// `cuModuleLoad` at daemon start).
    pub fn register_kernel<F>(&self, name: &str, flops_per_item: f64, body: F)
    where
        F: Fn(&mut KernelCtx<'_>, &[KernelArg]) -> Result<(), GpuError> + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        for d in &self.devices {
            let b = Arc::clone(&body);
            d.device.register_kernel(name, flops_per_item, move |ctx, args| b(ctx, args));
        }
    }

    /// Drops a kernel from every device (the model or module it belonged
    /// to was unloaded).
    pub fn unregister_kernel(&self, name: &str) {
        for d in &self.devices {
            d.device.unregister_kernel(name);
        }
    }

    /// Moving-average utilization of each device, in percent. Samples are
    /// rate-limited per device (Fig 3's "at most every 5 ms").
    pub fn utilization_snapshot(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.sampler.lock().utilization_percent()).collect()
    }

    /// When each device's engine frees up.
    pub fn engine_free_snapshot(&self) -> Vec<Instant> {
        self.devices.iter().map(|d| d.device.engine_free_at()).collect()
    }

    /// Decides where a `batch`-row launch should run: the least-loaded
    /// healthy, uncontended device; the CPU when every device is evicted
    /// or above the execution threshold (or the batch is below the batch
    /// threshold). No request is ever refused — the worst case is a CPU
    /// placement (Fig 13's degraded mode).
    pub fn place(&self, batch: usize) -> Placement {
        if self.forced_fallback.load(Ordering::Acquire) {
            return Placement::CpuFallback;
        }
        self.probe_evicted();
        if batch < self.policy.batch_threshold {
            return Placement::CpuFallback;
        }
        let utils = self.utilization_snapshot();
        let mut best: Option<(usize, Instant)> = None;
        for (idx, d) in self.devices.iter().enumerate() {
            if !d.healthy.load(Ordering::Acquire) {
                continue;
            }
            if utils[idx] > self.policy.exec_threshold {
                continue;
            }
            let free_at = d.device.engine_free_at();
            match best {
                Some((_, t)) if t <= free_at => {}
                _ => best = Some((idx, free_at)),
            }
        }
        match best {
            Some((idx, _)) => Placement::Device(idx),
            None => Placement::CpuFallback,
        }
    }

    /// Reinstates evicted devices whose probe interval has elapsed. A
    /// reinstated device re-enters placement one fault away from
    /// re-eviction, so a still-broken device is benched again immediately.
    fn probe_evicted(&self) {
        let now = self.clock.now();
        for d in &self.devices {
            if d.healthy.load(Ordering::Acquire) {
                continue;
            }
            let evicted_at = *d.evicted_at.lock();
            if now.duration_since(evicted_at) >= self.policy.probe_interval {
                d.consecutive_faults.store(
                    u64::from(self.policy.fault_threshold.saturating_sub(1)),
                    Ordering::Release,
                );
                d.healthy.store(true, Ordering::Release);
                d.reinstatements.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records a batch dispatched to device `idx`. A successful dispatch
    /// clears the device's consecutive-fault streak.
    pub fn note_dispatch(&self, idx: usize, rows: usize) {
        self.devices[idx].dispatches.fetch_add(1, Ordering::Relaxed);
        self.devices[idx].rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.devices[idx].consecutive_faults.store(0, Ordering::Release);
    }

    /// Records a fault on device `idx` (kernel fault, OOM, ...). After
    /// `fault_threshold` consecutive faults the device is evicted from
    /// placement until [`DevicePool::place`] probes it back in.
    pub fn note_device_fault(&self, idx: usize) {
        let d = &self.devices[idx];
        let streak = d.consecutive_faults.fetch_add(1, Ordering::AcqRel) + 1;
        if streak >= u64::from(self.policy.fault_threshold.max(1))
            && d.healthy.swap(false, Ordering::AcqRel)
        {
            *d.evicted_at.lock() = self.clock.now();
            d.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a batch that hit a device fault and was recovered on the
    /// CPU instead of being lost.
    pub fn note_recovered(&self, rows: usize) {
        self.recovered_batches.fetch_add(1, Ordering::Relaxed);
        self.recovered_rows.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Whether device `idx` is currently in placement rotation.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn device_health(&self, idx: usize) -> bool {
        self.devices[idx].healthy.load(Ordering::Acquire)
    }

    /// Consecutive faults currently charged to device `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn device_fault_streak(&self, idx: usize) -> u64 {
        self.devices[idx].consecutive_faults.load(Ordering::Acquire)
    }

    /// (evictions, reinstatements) of device `idx` so far.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn health_counts(&self, idx: usize) -> (u64, u64) {
        (
            self.devices[idx].evictions.load(Ordering::Relaxed),
            self.devices[idx].reinstatements.load(Ordering::Relaxed),
        )
    }

    /// (batches, rows) recovered on the CPU after device faults.
    pub fn recovered_counts(&self) -> (u64, u64) {
        (
            self.recovered_batches.load(Ordering::Relaxed),
            self.recovered_rows.load(Ordering::Relaxed),
        )
    }

    /// Latches (or releases) forced CPU fallback. While latched,
    /// [`DevicePool::place`] never offers a device — the restart-storm
    /// circuit breaker uses this to park the stack on the PR 2 CPU path
    /// while the daemon is crash-looping.
    pub fn set_forced_fallback(&self, forced: bool) {
        let was = self.forced_fallback.swap(forced, Ordering::AcqRel);
        if forced && !was {
            self.forced_fallback_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether forced CPU fallback is currently latched.
    pub fn forced_fallback(&self) -> bool {
        self.forced_fallback.load(Ordering::Acquire)
    }

    /// Times the forced-fallback breaker has latched so far.
    pub fn forced_fallback_trips(&self) -> u64 {
        self.forced_fallback_trips.load(Ordering::Relaxed)
    }

    /// Records a batch that fell back to the CPU.
    pub fn note_fallback(&self, rows: usize) {
        self.cpu_fallback_batches.fetch_add(1, Ordering::Relaxed);
        self.cpu_fallback_rows.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// (batches, rows) dispatched to device `idx` so far.
    pub fn dispatch_counts(&self, idx: usize) -> (u64, u64) {
        (
            self.devices[idx].dispatches.load(Ordering::Relaxed),
            self.devices[idx].rows.load(Ordering::Relaxed),
        )
    }

    /// (batches, rows) that fell back to the CPU so far.
    pub fn fallback_counts(&self) -> (u64, u64) {
        (
            self.cpu_fallback_batches.load(Ordering::Relaxed),
            self.cpu_fallback_rows.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_sim::Duration;

    fn burn(pool: &DevicePool, idx: usize, launches: usize) {
        // Saturate a device's recent history with compute.
        for _ in 0..launches {
            pool.device(idx).launch_kernel("burn", 2_000_000, &[]).expect("burn launch");
        }
    }

    fn settle(pool: &DevicePool, steps: usize) {
        // Let samplers observe an idle window (rate limit is 5 ms).
        for _ in 0..steps {
            pool.clock().advance(Duration::from_millis(5));
            pool.utilization_snapshot();
        }
    }

    fn test_pool(n: usize) -> Arc<DevicePool> {
        let pool = DevicePool::new(n, GpuSpec::a100(), SharedClock::new(), PoolPolicy::default());
        pool.register_kernel("burn", 1.0, |_, _| Ok(()));
        pool
    }

    #[test]
    fn idle_pool_places_on_device_zero() {
        let pool = test_pool(2);
        assert_eq!(pool.place(16), Placement::Device(0));
    }

    #[test]
    fn forced_fallback_latch_overrides_placement() {
        let pool = test_pool(2);
        assert_eq!(pool.place(16), Placement::Device(0));
        pool.set_forced_fallback(true);
        assert_eq!(pool.place(16), Placement::CpuFallback, "breaker latched");
        assert!(pool.forced_fallback());
        // Re-latching while already latched is not a second trip.
        pool.set_forced_fallback(true);
        assert_eq!(pool.forced_fallback_trips(), 1);
        pool.set_forced_fallback(false);
        assert_eq!(pool.place(16), Placement::Device(0), "breaker released");
    }

    #[test]
    fn placement_prefers_least_loaded_device() {
        let pool = test_pool(2);
        burn(&pool, 0, 5);
        // Device 0's engine is booked into the future; device 1 is free.
        assert_eq!(pool.place(16), Placement::Device(1));
    }

    #[test]
    fn contention_on_all_devices_falls_back_to_cpu_and_recovers() {
        let pool = test_pool(2);
        burn(&pool, 0, 50);
        burn(&pool, 1, 50);
        assert_eq!(pool.place(16), Placement::CpuFallback, "both devices saturated");
        // After an idle period the moving averages decay and the pool
        // offers a device again (Fig 13's recovery).
        settle(&pool, 12);
        assert_eq!(pool.place(16), Placement::Device(0));
    }

    #[test]
    fn batch_threshold_steers_small_batches_to_cpu() {
        let clock = SharedClock::new();
        let pool = DevicePool::new(
            1,
            GpuSpec::a100(),
            clock,
            PoolPolicy { exec_threshold: 40.0, batch_threshold: 8, ..Default::default() },
        );
        assert_eq!(pool.place(4), Placement::CpuFallback);
        assert_eq!(pool.place(8), Placement::Device(0));
    }

    #[test]
    fn consecutive_faults_evict_and_probe_reinstates() {
        let pool = test_pool(2);
        let threshold = pool.policy().fault_threshold;
        // Below the threshold: the device stays in rotation.
        for _ in 0..threshold - 1 {
            pool.note_device_fault(0);
        }
        assert!(pool.device_health(0));
        // A success clears the streak.
        pool.note_dispatch(0, 1);
        assert_eq!(pool.device_fault_streak(0), 0);
        // A full streak evicts.
        for _ in 0..threshold {
            pool.note_device_fault(0);
        }
        assert!(!pool.device_health(0));
        assert_eq!(pool.health_counts(0), (1, 0));
        assert_eq!(pool.place(16), Placement::Device(1), "evicted device skipped");
        // After the probe interval, placement reinstates it...
        pool.clock().advance(pool.policy().probe_interval);
        let _ = pool.place(16);
        assert!(pool.device_health(0));
        assert_eq!(pool.health_counts(0), (1, 1));
        // ...one fault away from re-eviction.
        pool.note_device_fault(0);
        assert!(!pool.device_health(0));
        assert_eq!(pool.health_counts(0), (2, 1));
    }

    #[test]
    fn all_devices_evicted_degrades_to_cpu_fallback() {
        let pool = test_pool(2);
        for idx in 0..2 {
            for _ in 0..pool.policy().fault_threshold {
                pool.note_device_fault(idx);
            }
        }
        assert_eq!(pool.place(16), Placement::CpuFallback, "no healthy device left");
        pool.note_recovered(16);
        assert_eq!(pool.recovered_counts(), (1, 16));
        // Probes eventually bring devices back.
        pool.clock().advance(pool.policy().probe_interval);
        assert!(matches!(pool.place(16), Placement::Device(_)));
    }

    #[test]
    fn kernel_registration_broadcasts() {
        let pool = test_pool(3);
        pool.register_kernel("noop", 1.0, |_, _| Ok(()));
        for idx in 0..3 {
            pool.device(idx).launch_kernel("noop", 1, &[]).expect("registered everywhere");
        }
    }

    #[test]
    fn dispatch_counters_accumulate() {
        let pool = test_pool(2);
        pool.note_dispatch(1, 32);
        pool.note_dispatch(1, 16);
        pool.note_fallback(4);
        assert_eq!(pool.dispatch_counts(1), (2, 48));
        assert_eq!(pool.dispatch_counts(0), (0, 0));
        assert_eq!(pool.fallback_counts(), (1, 4));
    }
}
