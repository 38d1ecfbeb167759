//! Execution policies: modulating accelerator use (§4.2) and managing
//! contention (§4.3).
//!
//! The paper lets developers install eBPF policies deciding, per call,
//! whether to run the accelerated (`dev_func`) or fallback (`cpu_func`)
//! implementation. Fig 3's `cu_policy` is the canonical example:
//!
//! ```text
//! if ...5 ms elapsed since last check...
//!     nvmlGetUtilization(dev, &util)          // LAKE-remoted nvml API
//! int exec_rate = mov_avg(util.gpu);
//! int batch_sz = get_batch_size(def_args)
//! if (exec_rate < exec_threshold && batch_sz >= batch_threshold)
//!     return dev_func(dev_args);
//! else
//!     return cpu_func(dev_args);
//! ```
//!
//! [`CuPolicy`] reproduces exactly that; [`Policy`] is the installable
//! interface (our stand-in for the eBPF hook).

use lake_sim::{Duration, Instant, MovingAverage, SharedClock};

use crate::lakelib::LakeCuda;

/// Where a call should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Run the accelerated `dev_func`.
    Gpu,
    /// Run the fallback `cpu_func`.
    Cpu,
}

/// An installable execution policy — the framework's eBPF-callback
/// stand-in. Called once per offloadable invocation with the dynamic batch
/// size.
pub trait Policy: Send {
    /// Decides where this call runs.
    fn decide(&mut self, batch_size: usize) -> Target;

    /// Policy name for logs/tables.
    fn name(&self) -> &str {
        "policy"
    }
}

/// Unconditional GPU execution (ablation baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct AlwaysGpu;

impl Policy for AlwaysGpu {
    fn decide(&mut self, _batch_size: usize) -> Target {
        Target::Gpu
    }

    fn name(&self) -> &str {
        "always-gpu"
    }
}

/// Unconditional CPU execution (ablation baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct AlwaysCpu;

impl Policy for AlwaysCpu {
    fn decide(&mut self, _batch_size: usize) -> Target {
        Target::Cpu
    }

    fn name(&self) -> &str {
        "always-cpu"
    }
}

/// Pure profitability policy: GPU only for batches at or above the
/// crossover threshold (§4.2). The default threshold is Table 3's LinnOS
/// crossover, 8 rows; `batch_threshold: 0` offloads every call.
/// [`Lake::ml`](crate::Lake::ml) installs the default in process and
/// `batch_threshold: lake_ml::DEFAULT_POOL_MIN_ROWS` on a linked link,
/// where the "GPU" is the daemon's CPU GEMM.
#[derive(Debug, Clone, Copy)]
pub struct BatchThresholdPolicy {
    /// Minimum batch size for the GPU to be profitable (Table 3).
    pub batch_threshold: usize,
}

impl Default for BatchThresholdPolicy {
    fn default() -> Self {
        BatchThresholdPolicy { batch_threshold: 8 }
    }
}

impl Policy for BatchThresholdPolicy {
    fn decide(&mut self, batch_size: usize) -> Target {
        if batch_size >= self.batch_threshold {
            Target::Gpu
        } else {
            Target::Cpu
        }
    }

    fn name(&self) -> &str {
        "batch-threshold"
    }
}

/// Configuration for [`CuPolicy`], mirroring Fig 3's constants.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Minimum interval between NVML queries ("5 ms elapsed since last
    /// check").
    pub query_interval: Duration,
    /// Window the utilization query integrates over.
    pub query_window: Duration,
    /// Samples in the moving average.
    pub mov_avg_window: usize,
    /// GPU-utilization ceiling (percent): above this, fall back to CPU.
    pub exec_threshold: f64,
    /// Batch-size floor: below this, the GPU is not profitable.
    pub batch_threshold: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            query_interval: Duration::from_millis(5),
            query_window: Duration::from_millis(5),
            mov_avg_window: 8,
            exec_threshold: 40.0,
            batch_threshold: 8,
        }
    }
}

/// Fig 3's `cu_policy`: contention management via moving-average NVML
/// utilization plus a batch-size profitability threshold.
pub struct CuPolicy {
    cuda: LakeCuda,
    clock: SharedClock,
    config: PolicyConfig,
    avg: MovingAverage,
    last_query: Option<Instant>,
    last_value: f64,
    decisions_gpu: u64,
    decisions_cpu: u64,
}

impl std::fmt::Debug for CuPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CuPolicy")
            .field("config", &self.config)
            .field("gpu_decisions", &self.decisions_gpu)
            .field("cpu_decisions", &self.decisions_cpu)
            .finish()
    }
}

impl CuPolicy {
    /// Creates the policy over a remoted CUDA handle (NVML queries go
    /// through LAKE like any other API).
    pub fn new(cuda: LakeCuda, clock: SharedClock, config: PolicyConfig) -> Self {
        CuPolicy {
            cuda,
            clock,
            avg: MovingAverage::new(config.mov_avg_window),
            config,
            last_query: None,
            last_value: 0.0,
            decisions_gpu: 0,
            decisions_cpu: 0,
        }
    }

    /// Current moving-average utilization (percent), refreshing at most
    /// once per `query_interval`.
    pub fn exec_rate(&mut self) -> f64 {
        let now = self.clock.now();
        let due = match self.last_query {
            None => true,
            Some(t) => now.duration_since(t) >= self.config.query_interval,
        };
        if due {
            match self.cuda.nvml_utilization_percent(self.config.query_window.as_micros()) {
                Ok(raw) => {
                    self.avg.push(raw);
                    self.last_query = Some(now);
                    self.last_value = self.avg.value().unwrap_or(0.0);
                }
                Err(_) => {
                    // Daemon unreachable: be conservative, treat as
                    // contended so kernel work falls back to CPU.
                    self.last_value = 100.0;
                }
            }
        }
        self.last_value
    }

    /// `(gpu, cpu)` decision counters, for the Fig 13 timeline.
    pub fn decision_counts(&self) -> (u64, u64) {
        (self.decisions_gpu, self.decisions_cpu)
    }
}

impl Policy for CuPolicy {
    fn decide(&mut self, batch_size: usize) -> Target {
        let exec_rate = self.exec_rate();
        if exec_rate < self.config.exec_threshold && batch_size >= self.config.batch_threshold {
            self.decisions_gpu += 1;
            Target::Gpu
        } else {
            self.decisions_cpu += 1;
            Target::Cpu
        }
    }

    fn name(&self) -> &str {
        "cu_policy"
    }
}

/// Runs an offloadable call under a policy: the framework invokes
/// `dev_func` or `cpu_func` the way §4.3 describes.
pub fn offload<T>(
    policy: &mut dyn Policy,
    batch_size: usize,
    dev_func: impl FnOnce() -> T,
    cpu_func: impl FnOnce() -> T,
) -> (Target, T) {
    match policy.decide(batch_size) {
        Target::Gpu => (Target::Gpu, dev_func()),
        Target::Cpu => (Target::Cpu, cpu_func()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lake::Lake;

    #[test]
    fn static_policies() {
        assert_eq!(AlwaysGpu.decide(0), Target::Gpu);
        assert_eq!(AlwaysCpu.decide(10_000), Target::Cpu);
        let mut p = BatchThresholdPolicy { batch_threshold: 8 };
        assert_eq!(p.decide(7), Target::Cpu);
        assert_eq!(p.decide(8), Target::Gpu);
    }

    #[test]
    fn offload_helper_runs_selected_side() {
        let mut p = BatchThresholdPolicy { batch_threshold: 4 };
        let (t, v) = offload(&mut p, 10, || "gpu", || "cpu");
        assert_eq!((t, v), (Target::Gpu, "gpu"));
        let (t, v) = offload(&mut p, 2, || "gpu", || "cpu");
        assert_eq!((t, v), (Target::Cpu, "cpu"));
    }

    #[test]
    fn cu_policy_prefers_gpu_when_idle_and_batched() {
        let lake = Lake::builder().build();
        let mut policy = CuPolicy::new(lake.cuda(), lake.clock().clone(), PolicyConfig::default());
        assert_eq!(policy.decide(64), Target::Gpu);
        assert_eq!(policy.decide(2), Target::Cpu); // under batch threshold
        assert_eq!(policy.decision_counts(), (1, 1));
    }

    #[test]
    fn cu_policy_falls_back_under_contention() {
        let lake = Lake::builder().build();
        lake.register_kernel("user_hasher", 1.0e6, |_, _| Ok(()));
        let mut policy = CuPolicy::new(
            lake.cuda(),
            lake.clock().clone(),
            PolicyConfig { mov_avg_window: 1, ..PolicyConfig::default() },
        );
        // Idle: GPU chosen.
        assert_eq!(policy.decide(64), Target::Gpu);

        // A "user-space" app hammers the device; the launch advances time
        // well past the 5 ms rate limit, so the next decision re-queries
        // and observes saturation.
        for _ in 0..10 {
            lake.gpu().launch_kernel("user_hasher", 200_000, &[]).unwrap();
        }
        assert_eq!(policy.decide(64), Target::Cpu);

        // After the contender stops, utilization decays and the policy
        // reclaims the GPU (Fig 13's T3).
        lake.clock().advance(Duration::from_millis(50));
        assert_eq!(policy.decide(64), Target::Gpu);
    }

    #[test]
    fn exec_rate_is_rate_limited() {
        let lake = Lake::builder().build();
        let mut policy = CuPolicy::new(lake.cuda(), lake.clock().clone(), PolicyConfig::default());
        let first = policy.exec_rate();
        // Immediately after, the cached value is returned without a new
        // NVML query (no time has advanced past the interval).
        let calls_before = lake.call_stats().calls;
        let second = policy.exec_rate();
        assert_eq!(first, second);
        assert_eq!(lake.call_stats().calls, calls_before);
    }
}
