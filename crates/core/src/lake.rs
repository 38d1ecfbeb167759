//! Assembling a deployed LAKE instance.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use lake_gpu::{GpuDevice, GpuError, GpuFaultConfig, GpuSpec, KernelArg, KernelCtx};
use lake_rpc::{CallEngine, CallPolicy, CallStats};
use lake_sched::{
    AdmissionController, AdmissionPolicy, BatchPolicy, DevicePool, PoolPolicy, SchedMetrics,
};
use lake_shm::{AllocStats, ReclaimReport, ShmRegion};
use lake_sim::{BurstSchedule, CrashSchedule, FaultCounters, FaultPlan, FaultSpec, SharedClock};
use lake_transport::{Channel, Link, Mechanism, RingEndpoint, RingLink, RingStats, WaitStrategy};

use crate::daemon::LakeDaemon;
use crate::highlevel::LakeMl;
use crate::lakelib::LakeCuda;
use crate::supervisor::{DaemonSupervisor, LocalStats, SupervisorPolicy, SupervisorStats};

/// How kernel-side stubs reach the daemon.
///
/// The default mirrors the seed repo's behaviour: the daemon's dispatch
/// runs inline on the caller ([`LinkMode::InProcess`]), with transport
/// costs charged to the virtual clock. The two linked modes run `lakeD`
/// on its own OS thread — commands really cross a channel, as in the
/// paper's deployment — and differ only in the transport underneath.
///
/// Overridable at deploy time via the `LAKE_LINK` environment variable
/// (`inproc` | `channel` | `ring`), so the whole test suite can be swept
/// across transports without touching a single call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LinkMode {
    /// Dispatch inline on the calling thread (the seed default).
    #[default]
    InProcess,
    /// A daemon thread served over a crossbeam-channel [`Link`].
    Channel,
    /// A daemon thread served over the lock-free shm [`RingLink`]
    /// (forces [`Mechanism::Mmap`] — the ring *is* the mmap transport).
    Ring,
}

fn parse_link_mode(s: &str) -> Result<LinkMode, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "inproc" | "in-process" | "inprocess" => Ok(LinkMode::InProcess),
        "channel" => Ok(LinkMode::Channel),
        "ring" => Ok(LinkMode::Ring),
        other => Err(format!("unknown link mode {other:?} (inproc|channel|ring)")),
    }
}

/// Default wall-clock loss-detection patience for linked modes. The
/// simulated daemon answers in microseconds of real time, so two orders
/// of magnitude of slack never misfires — but a frame genuinely dropped
/// by fault injection must not hang the caller forever, which is what
/// [`CallPolicy`]'s `recv_patience: None` default would mean across a
/// real channel.
const LINKED_RECV_PATIENCE: std::time::Duration = std::time::Duration::from_millis(50);

/// Runs the daemon's serve loop on a detached thread until the kernel
/// side hangs up. Deliberately owns only the endpoint, the daemon, and
/// the epoch counter — never the supervisor, whose restart hook may hold
/// the kernel-side ring endpoint (a cycle that would keep this thread's
/// `recv` from ever observing the close).
fn spawn_daemon_thread<C>(
    endpoint: C,
    daemon: Arc<LakeDaemon>,
    epoch: Arc<AtomicU64>,
    staging: Option<ShmRegion>,
    perf: Arc<lake_rpc::PerfCounters>,
    workers: usize,
    exec_stats: Arc<lake_rpc::ExecutorStats>,
) where
    C: Channel + 'static,
{
    std::thread::spawn(move || {
        lake_rpc::serve_executor(
            &endpoint,
            daemon.as_ref(),
            &epoch,
            staging.as_ref(),
            &perf,
            workers,
            &exec_stats,
        )
    });
}

/// Configures and builds a [`Lake`] instance.
///
/// Defaults match the paper's deployment: Netlink command channel, a
/// 128 MiB `cma=` shared region, and a single A100-class device.
///
/// The builder is `Clone` so it can serve as a *template*: a multi-shard
/// deployment (`lake-fleet`) clones one configuration per shard via
/// [`LakeBuilder::build_shards`], sharing a single virtual clock.
#[derive(Debug, Clone)]
pub struct LakeBuilder {
    mechanism: Mechanism,
    shm_capacity: usize,
    spec: GpuSpec,
    clock: Option<SharedClock>,
    num_devices: usize,
    pool_policy: PoolPolicy,
    batch_policy: BatchPolicy,
    call_policy: Option<CallPolicy>,
    transport_faults: Option<(FaultSpec, u64)>,
    gpu_faults: Vec<(usize, GpuFaultConfig)>,
    stall_schedule: Option<BurstSchedule>,
    crash_schedule: Option<CrashSchedule>,
    supervisor_policy: SupervisorPolicy,
    admission_policy: AdmissionPolicy,
    staging_threshold: Option<usize>,
    link_mode: LinkMode,
    wait_strategy: WaitStrategy,
    queue_depth: usize,
    shards: usize,
    shard_id: usize,
    model_budget: Option<usize>,
    daemon_workers: usize,
}

impl Default for LakeBuilder {
    fn default() -> Self {
        LakeBuilder {
            mechanism: Mechanism::Netlink,
            shm_capacity: 128 << 20, // cma=128M
            spec: GpuSpec::a100(),
            clock: None,
            num_devices: 1,
            pool_policy: PoolPolicy::default(),
            batch_policy: BatchPolicy::default(),
            call_policy: None,
            transport_faults: None,
            gpu_faults: Vec::new(),
            stall_schedule: None,
            crash_schedule: None,
            supervisor_policy: SupervisorPolicy::default(),
            admission_policy: AdmissionPolicy::default(),
            staging_threshold: None,
            link_mode: LinkMode::default(),
            wait_strategy: WaitStrategy::default(),
            queue_depth: lake_rpc::DEFAULT_QUEUE_DEPTH,
            shards: 1,
            shard_id: 0,
            model_budget: None,
            daemon_workers: 1,
        }
    }
}

impl LakeBuilder {
    /// Selects the kernel↔user channel mechanism (Table 2).
    pub fn mechanism(mut self, mechanism: Mechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Sizes the `lakeShm` contiguous region.
    pub fn shm_capacity(mut self, bytes: usize) -> Self {
        self.shm_capacity = bytes;
        self
    }

    /// Selects the simulated accelerator.
    pub fn gpu_spec(mut self, spec: GpuSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Shares an existing virtual clock (so a LAKE instance participates
    /// in a larger simulation).
    pub fn clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Deploys `n` identical devices; the scheduler spreads high-level
    /// inference over them (the low-level CUDA path stays on device 0).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn num_devices(mut self, n: usize) -> Self {
        assert!(n > 0, "a deployment needs at least one device");
        self.num_devices = n;
        self
    }

    /// Overrides the scheduler's placement thresholds.
    pub fn pool_policy(mut self, policy: PoolPolicy) -> Self {
        self.pool_policy = policy;
        self
    }

    /// Overrides the cross-subsystem batcher's dispatch policy.
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch_policy = policy;
        self
    }

    /// Overrides the call engine's deadline/retry policy.
    pub fn call_policy(mut self, policy: CallPolicy) -> Self {
        self.call_policy = Some(policy);
        self
    }

    /// Injects seeded transport faults (frame drop/corrupt/delay/dup) on
    /// the kernel↔daemon channel.
    pub fn transport_faults(mut self, spec: FaultSpec, seed: u64) -> Self {
        self.transport_faults = Some((spec, seed));
        self
    }

    /// Injects GPU fault bursts (kernel faults, OOM windows) on pool
    /// device `idx`. May be called once per device.
    pub fn device_faults(mut self, idx: usize, config: GpuFaultConfig) -> Self {
        self.gpu_faults.push((idx, config));
        self
    }

    /// Injects daemon stall windows: requests arriving inside a burst
    /// park until it closes.
    pub fn stall_schedule(mut self, schedule: BurstSchedule) -> Self {
        self.stall_schedule = Some(schedule);
        self
    }

    /// Injects seeded daemon crashes: at each scheduled instant `lakeD`
    /// dies (possibly mid-request) and the supervisor restarts it under
    /// a new incarnation epoch.
    pub fn crash_schedule(mut self, schedule: CrashSchedule) -> Self {
        self.crash_schedule = Some(schedule);
        self
    }

    /// Overrides the supervisor's lease/backoff/breaker tunables.
    pub fn supervisor_policy(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor_policy = policy;
        self
    }

    /// Overrides the staging-buffer admission-control tunables.
    pub fn admission_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.admission_policy = policy;
        self
    }

    /// Enables automatic shm handle-passing on the call engine: any
    /// inline payload at or above `threshold` bytes is written into a
    /// **private** staging region and only a 16-byte descriptor crosses
    /// the channel (Fig 6's crossover sits near 4 KB —
    /// [`lake_rpc::DEFAULT_INLINE_THRESHOLD`]). The rule holds at every
    /// queue depth: sync calls and queue-pair submissions stage alike.
    /// Off by default: callers that manage `lakeShm` buffers themselves
    /// already pass handles, and their accounting assumes the main region
    /// is theirs alone.
    pub fn staging_threshold(mut self, threshold: usize) -> Self {
        self.staging_threshold = Some(threshold);
        self
    }

    /// Selects how kernel stubs reach the daemon (see [`LinkMode`]).
    /// The `LAKE_LINK` environment variable overrides this at build time.
    pub fn link_mode(mut self, mode: LinkMode) -> Self {
        self.link_mode = mode;
        self
    }

    /// Selects the ring consumer's wait strategy ([`LinkMode::Ring`]
    /// only). The `WAIT_STRATEGY` environment variable overrides this at
    /// build time.
    pub fn wait_strategy(mut self, strategy: WaitStrategy) -> Self {
        self.wait_strategy = strategy;
        self
    }

    /// Sets the SQ/CQ queue-pair depth of every kernel-side handle this
    /// deployment vends (see [`lake_rpc::QueuePair`]). At the default
    /// depth 1 the sync wire mode is used: every call is its own frame and
    /// doorbell, exactly the pre-queue behaviour. Depths above 1 route
    /// calls through a per-handle queue pair — submissions coalesce into
    /// burst frames, the whole submission-queue drain ships under a single
    /// doorbell, and the async `submit`/`poll` API becomes worthwhile. The
    /// `LAKE_QUEUE_DEPTH` environment variable overrides this at build
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be at least 1");
        self.queue_depth = depth;
        self
    }

    /// Sizes the daemon executor's worker pool. At the default of 1 the
    /// acceptor executes each admitted frame inline — decode, dispatch,
    /// respond, one frame at a time. Above 1 the linked modes
    /// ([`LinkMode::Channel`], [`LinkMode::Ring`]) admit frames on the
    /// acceptor thread, dispatch independent commands to `workers` fixed
    /// worker threads, and return completions out of order through a
    /// completion mux (one responder per link keeps the SPSC ring
    /// invariant). Non-idempotent commands (`ml.swap_model`, `train`,
    /// load) take a per-model ordering barrier. Each worker computes its
    /// own batches inside the GEMM pool, which keeps its full width at
    /// every executor width. [`LinkMode::InProcess`] has
    /// no serve thread and ignores this. The `LAKE_DAEMON_WORKERS`
    /// environment variable overrides this at build time.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn daemon_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "daemon_workers must be at least 1");
        self.daemon_workers = workers;
        self
    }

    /// Caps the daemon's paged model store at `bytes` of resident weight
    /// pages. Models past the budget are evicted second-chance (never
    /// while pinned by an in-flight inference) and fault back in through
    /// the simulated NVMe on next use, charging reload latency to the
    /// virtual clock. Unbounded by default. The `LAKE_MODEL_BUDGET`
    /// environment variable overrides this at build time (a byte count;
    /// the empty string means unbounded).
    pub fn model_budget_bytes(mut self, bytes: usize) -> Self {
        self.model_budget = Some(bytes);
        self
    }

    /// Deploys `n` lakeD shards when built through
    /// [`LakeBuilder::build_shards`] (or `lake-fleet`'s `DaemonFleet`).
    /// Each shard gets its own transport link, supervisor, incarnation
    /// epoch, and shm staging region; [`LakeBuilder::build`] itself
    /// always produces a single instance. The `LAKE_SHARDS` environment
    /// variable overrides this at build time.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one shard");
        self.shards = n;
        self
    }

    /// Stamps this instance with a shard id (purely informational: it
    /// tags `fault_report()` so multi-shard aggregations stay
    /// attributable). [`LakeBuilder::build_shards`] sets it per shard.
    pub fn shard_id(mut self, id: usize) -> Self {
        self.shard_id = id;
        self
    }

    /// The shard count this builder would deploy, after the `LAKE_SHARDS`
    /// environment override.
    pub fn shard_count(&self) -> usize {
        match std::env::var("LAKE_SHARDS") {
            Ok(s) => {
                let n: usize = s.trim().parse().expect("LAKE_SHARDS");
                assert!(n > 0, "LAKE_SHARDS must be at least 1");
                n
            }
            Err(_) => self.shards,
        }
    }

    /// Builds one [`Lake`] per shard ([`LakeBuilder::shard_count`] of
    /// them) from this template, all sharing one virtual clock. Every
    /// other resource — transport link, daemon, supervisor, epoch
    /// counter, shm and staging regions, device pool — is per shard, so
    /// one shard's restarts never fence another's calls.
    pub fn build_shards(self) -> Vec<Lake> {
        self.build_shards_with(|_, b| b)
    }

    /// [`LakeBuilder::build_shards`] with a per-shard customization hook:
    /// `customize(shard_id, builder)` may rewrite each shard's template
    /// before it builds — e.g. arm a [`CrashSchedule`] on one shard only,
    /// or stagger one seeded plan across shards with
    /// [`CrashSchedule::shifted`].
    pub fn build_shards_with(
        self,
        mut customize: impl FnMut(usize, LakeBuilder) -> LakeBuilder,
    ) -> Vec<Lake> {
        let n = self.shard_count();
        let clock = self.clock.clone().unwrap_or_default();
        (0..n)
            .map(|id| {
                let mut b = self.clone();
                b.clock = Some(clock.clone());
                b.shard_id = id;
                customize(id, b).build()
            })
            .collect()
    }

    /// Builds the instance: shared region, device pool, daemon, call
    /// engine, and — in the linked modes — the daemon serve thread.
    pub fn build(self) -> Lake {
        let link_mode = match std::env::var("LAKE_LINK") {
            Ok(s) => parse_link_mode(&s).expect("LAKE_LINK"),
            Err(_) => self.link_mode,
        };
        let wait_strategy = match std::env::var("WAIT_STRATEGY") {
            Ok(s) => s.parse().expect("WAIT_STRATEGY"),
            Err(_) => self.wait_strategy,
        };
        let queue_depth = match std::env::var("LAKE_QUEUE_DEPTH") {
            Ok(s) => {
                let n: usize = s.trim().parse().expect("LAKE_QUEUE_DEPTH");
                assert!(n > 0, "LAKE_QUEUE_DEPTH must be at least 1");
                n
            }
            Err(_) => self.queue_depth,
        };
        let model_budget = match std::env::var("LAKE_MODEL_BUDGET") {
            Ok(s) if s.trim().is_empty() => None,
            Ok(s) => Some(s.trim().parse::<usize>().expect("LAKE_MODEL_BUDGET")),
            Err(_) => self.model_budget,
        };
        let daemon_workers = match std::env::var("LAKE_DAEMON_WORKERS") {
            Ok(s) => {
                let n: usize = s.trim().parse().expect("LAKE_DAEMON_WORKERS");
                assert!(n > 0, "LAKE_DAEMON_WORKERS must be at least 1");
                n
            }
            Err(_) => self.daemon_workers,
        };
        // The ring *is* the mmap transport: its costs are Table 2's mmap
        // row no matter what the builder asked for.
        let mechanism = if link_mode == LinkMode::Ring { Mechanism::Mmap } else { self.mechanism };
        let clock = self.clock.unwrap_or_default();
        let shm = ShmRegion::with_capacity(self.shm_capacity);
        let devices = (0..self.num_devices)
            .map(|_| GpuDevice::new(self.spec.clone(), clock.clone()))
            .collect();
        let pool = DevicePool::from_devices(devices, clock.clone(), self.pool_policy);
        for (idx, config) in self.gpu_faults {
            assert!(idx < pool.len(), "device_faults index {idx} out of range");
            pool.device(idx).set_fault_config(config);
        }
        let gpu = Arc::clone(pool.primary());
        // The model store pages live in their own dedicated region — the
        // kernel-visible lakeShm's accounting (orphan sweeps, `in_use ==
        // 0` invariants) belongs to callers staging buffers explicitly.
        // A bounded budget sizes the region to 2x the budget (eviction
        // headroom during swaps); unbounded deployments get 8 MiB.
        let page_capacity = match model_budget {
            Some(b) => (b.max(4096) * 2).max(1 << 20),
            None => 8 << 20,
        };
        let model_pages = ShmRegion::with_capacity(page_capacity);
        let daemon = LakeDaemon::with_model_store(
            Arc::clone(&pool),
            shm.clone(),
            self.batch_policy,
            model_pages,
            model_budget,
        );
        daemon.set_stall_schedule(self.stall_schedule);
        // A private region, not the kernel-visible lakeShm: staged frames
        // are engine bookkeeping, and the main region's accounting
        // (orphan sweeps, `in_use == 0` invariants) belongs to callers
        // that stage buffers explicitly. In the linked modes the serve
        // thread maps the same region so staged descriptors resolve.
        let staging = self
            .staging_threshold
            .map(|threshold| (ShmRegion::with_capacity(self.shm_capacity), threshold));
        // The supervisor is always wired (an empty crash schedule is a
        // no-op lease), so the engine's per-call lifecycle hook and the
        // epoch plumbing behave identically with and without chaos.
        let supervisor = DaemonSupervisor::new(
            clock.clone(),
            self.crash_schedule.unwrap_or_else(CrashSchedule::none),
            self.supervisor_policy,
            Arc::clone(&daemon),
            shm.clone(),
            staging.as_ref().map(|(region, _)| region.clone()),
            Arc::clone(&pool),
        );
        let fault_plan =
            self.transport_faults.map(|(spec, seed)| Arc::new(FaultPlan::new(spec, seed)));
        // One counter set per deployment, shared between the stub-side
        // engine and the daemon serve thread: multi-shard processes must
        // attribute copies to the shard that performed them (the
        // process-wide rollup would double-count across shards).
        let perf = Arc::new(lake_rpc::PerfCounters::new());
        let exec_stats = Arc::new(lake_rpc::ExecutorStats::default());
        let (mut engine, ring) = match link_mode {
            LinkMode::InProcess => {
                let mut engine = CallEngine::in_process(
                    mechanism,
                    clock.clone(),
                    daemon.clone() as Arc<dyn lake_rpc::ApiHandler>,
                );
                if let Some(plan) = &fault_plan {
                    engine = engine.with_faults(Arc::clone(plan));
                }
                (engine, None)
            }
            LinkMode::Channel => {
                let (kernel, user) = match &fault_plan {
                    Some(plan) => {
                        Link::pair_with_faults(mechanism, clock.clone(), Arc::clone(plan))
                    }
                    None => Link::pair(mechanism, clock.clone()),
                };
                spawn_daemon_thread(
                    user,
                    Arc::clone(&daemon),
                    supervisor.epoch_counter(),
                    staging.as_ref().map(|(region, _)| region.clone()),
                    Arc::clone(&perf),
                    daemon_workers,
                    Arc::clone(&exec_stats),
                );
                (CallEngine::linked(kernel), None)
            }
            LinkMode::Ring => {
                // The rings live in their own dedicated region — never
                // the kernel-visible lakeShm, whose `in_use == 0`
                // invariants belong to its callers.
                let (kernel, user) = match &fault_plan {
                    Some(plan) => RingLink::pair_with_faults(
                        mechanism,
                        clock.clone(),
                        wait_strategy,
                        Arc::clone(plan),
                    ),
                    None => RingLink::pair(mechanism, clock.clone(), wait_strategy),
                };
                // Ring teardown rides the supervised restart: the dead
                // incarnation may have left half-consumed frames in
                // either direction; drain both under the new epoch.
                let hook_endpoint = kernel.clone();
                supervisor.set_on_restart(move || hook_endpoint.reset());
                spawn_daemon_thread(
                    user,
                    Arc::clone(&daemon),
                    supervisor.epoch_counter(),
                    staging.as_ref().map(|(region, _)| region.clone()),
                    Arc::clone(&perf),
                    daemon_workers,
                    Arc::clone(&exec_stats),
                );
                (CallEngine::linked(kernel.clone()), Some(kernel))
            }
        };
        engine = engine.with_perf(Arc::clone(&perf));
        engine =
            engine.with_lifecycle(Arc::clone(&supervisor) as Arc<dyn lake_rpc::DaemonLifecycle>);
        let mut call_policy = self.call_policy.unwrap_or_default();
        if link_mode != LinkMode::InProcess && call_policy.recv_patience.is_none() {
            call_policy.recv_patience = Some(LINKED_RECV_PATIENCE);
        }
        engine = engine.with_policy(call_policy);
        if let Some((region, threshold)) = staging {
            engine = engine.with_staging(region, threshold);
        }
        let engine = Arc::new(engine);
        // Retry-with-backoff only ever fires for APIs registered as
        // idempotent; classify the whole surface up front.
        crate::api::register_idempotency(&engine);
        let admission = Arc::new(AdmissionController::new(clock.clone(), self.admission_policy));
        Lake {
            clock,
            shm,
            gpu,
            pool,
            daemon,
            engine,
            fault_plan,
            supervisor,
            admission,
            link_mode,
            ring,
            queue_depth,
            // In-process calls dispatch on the caller's thread: no executor.
            daemon_workers: if link_mode == LinkMode::InProcess { 1 } else { daemon_workers },
            exec_stats,
            shard_id: self.shard_id,
        }
    }
}

/// A deployed LAKE instance: shared memory + channel + daemon + device
/// pool.
pub struct Lake {
    clock: SharedClock,
    shm: ShmRegion,
    gpu: Arc<GpuDevice>,
    pool: Arc<DevicePool>,
    daemon: Arc<LakeDaemon>,
    engine: Arc<CallEngine>,
    fault_plan: Option<Arc<FaultPlan>>,
    supervisor: Arc<DaemonSupervisor>,
    admission: Arc<AdmissionController>,
    link_mode: LinkMode,
    ring: Option<RingEndpoint>,
    queue_depth: usize,
    daemon_workers: usize,
    exec_stats: Arc<lake_rpc::ExecutorStats>,
    shard_id: usize,
}

/// Everything that can go wrong, in one snapshot: transport faults,
/// shm health (orphans, reclamation), and the supervisor's lifecycle
/// counters.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Which shard this report describes ([`LakeBuilder::shard_id`]; 0
    /// for single-instance deployments), so fleet aggregations stay
    /// attributable.
    pub shard: usize,
    /// Injected transport-fault counters, if a plan was configured.
    pub transport: Option<FaultCounters>,
    /// `lakeShm` allocator stats, including `orphaned_bytes` and the
    /// reclamation counters.
    pub shm: AllocStats,
    /// The same for the call engine's private staging region, when
    /// [`LakeBuilder::staging_threshold`] attached one.
    pub staging: Option<AllocStats>,
    /// Daemon lifecycle counters (crashes, restarts, replay, breaker,
    /// orphan reclamation).
    pub supervisor: SupervisorStats,
    /// Polls that surfaced `SCHED_TICKET_LOST` on this shard's daemon —
    /// batched rows that died with a crashed incarnation.
    pub tickets_lost: u64,
}

/// The fast path in one snapshot: RPC copy accounting, engine staging
/// activity, and the packed GEMM engine's counters — the perf-side
/// sibling of [`FaultReport`].
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// RPC copy counters (bytes memcpy'd, zero-copy hand-offs) for *this
    /// instance's* engine and serve thread only — safe to sum across
    /// shards. Difference two reports with
    /// [`lake_rpc::PerfSnapshot::since`] to scope them to a workload.
    pub rpc: lake_rpc::PerfSnapshot,
    /// The process-wide rollup (every engine plus engine-less codec
    /// sites), kept for backward compatibility. In a multi-shard process
    /// this counts all shards together — do not sum it across reports.
    pub rpc_process: lake_rpc::PerfSnapshot,
    /// Calls whose payloads travelled as shm handles instead of inline
    /// frames (requires [`LakeBuilder::staging_threshold`]).
    pub staged_calls: u64,
    /// Packed GEMM engine counters: pool width (`workers`, caller
    /// included), worker-pool runs vs direct runs and packed-weight cache
    /// hits/misses.
    pub gemm: lake_ml::EngineStats,
    /// Paged model-store counters: budget/resident/pinned bytes, weight
    /// hits vs cold-miss faults, evictions, installs, and retired swaps.
    pub store: lake_ml::StoreStats,
    /// Daemon-executor counters: frames accepted, commands executed vs
    /// replayed, dedup evictions, out-of-order completions, ordering
    /// barriers taken, and the in-flight/deferred high-water marks. All
    /// zero in [`LinkMode::InProcess`] deployments (no serve thread); at
    /// width 1, where frames run inline on the acceptor, the worker- and
    /// mux-specific fields stay zero.
    pub executor: lake_rpc::ExecutorSnapshot,
    /// MLP inferences (and their rows) answered kernel-side below the
    /// offload crossover, plus the packed copies built for them. The
    /// local share is `local.rows` over all rows inferred.
    pub local: LocalStats,
}

impl std::fmt::Debug for Lake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lake")
            .field("mechanism", &self.engine.mechanism())
            .field("link_mode", &self.link_mode)
            .field("gpu", &self.gpu.spec().name)
            .field("shm_capacity", &self.shm.capacity())
            .finish()
    }
}

impl Lake {
    /// Starts configuring an instance.
    pub fn builder() -> LakeBuilder {
        LakeBuilder::default()
    }

    /// The virtual clock shared by both spaces and the device.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The shared-memory region (`lakeShm`).
    pub fn shm(&self) -> &ShmRegion {
        &self.shm
    }

    /// The primary simulated accelerator (daemon-side handle).
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.gpu
    }

    /// The device pool the scheduler dispatches over.
    pub fn pool(&self) -> &Arc<DevicePool> {
        &self.pool
    }

    /// A snapshot of the scheduler's counters (queue depth, batch sizes,
    /// per-device utilization and dispatches, CPU fallbacks), with
    /// admission-control, shm-orphan, and daemon-lifecycle counters
    /// folded in.
    pub fn sched_metrics(&self) -> SchedMetrics {
        let mut m = self.daemon.sched_metrics().with_admission(self.admission.counters());
        let shm = self.shm.stats();
        m.shm_orphaned_bytes = shm.orphaned_bytes;
        m.shm_reclaimed_allocs = shm.reclaimed_allocs;
        m.shm_reclaimed_bytes = shm.reclaimed_bytes;
        m.daemon_restarts = self.supervisor.stats().restarts;
        let perf = self.engine.perf_counters().snapshot();
        m.bytes_copied = perf.bytes_copied;
        m.zero_copy_hits = perf.zero_copy_hits;
        m
    }

    /// The daemon supervisor (heartbeat lease, restart protocol, shadow
    /// replay table).
    pub fn supervisor(&self) -> &Arc<DaemonSupervisor> {
        &self.supervisor
    }

    /// The staging-buffer admission controller.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// Quiesced orphan sweep: frees every shm allocation still owned by
    /// a dead daemon incarnation, including the most recent one. Call
    /// with no requests in flight — the supervisor's automatic restart
    /// sweep leaves the just-dead epoch alone precisely because
    /// failover retries may still reference it.
    pub fn reclaim_shm_orphans(&self) -> ReclaimReport {
        self.shm.reclaim_before(self.shm.epoch())
    }

    /// The daemon (for tests and direct wiring).
    pub fn daemon(&self) -> &Arc<LakeDaemon> {
        &self.daemon
    }

    /// A kernel-space CUDA handle (what a LAKE-powered module links
    /// against).
    pub fn cuda(&self) -> LakeCuda {
        LakeCuda::new(Arc::clone(&self.engine), self.shm.clone())
    }

    /// A kernel-space high-level-ML handle (§4.4), with staging-buffer
    /// admission control and crash-replay shadow registration wired in.
    /// MLP calls below the default policy's 8-row crossover are answered
    /// kernel-side from the shadow table ([`LakeMl::with_policy`]).
    pub fn ml(&self) -> LakeMl {
        LakeMl::new(
            Arc::clone(&self.engine),
            self.shm.clone(),
            Some(Arc::clone(&self.admission)),
            Some(Arc::clone(&self.supervisor)),
            self.queue_depth,
        )
    }

    /// Registers a device kernel — the equivalent of shipping a compiled
    /// `.cubin` with a kernel module and `cuModuleLoad`-ing it at init.
    /// The kernel is registered on every pool device.
    pub fn register_kernel<F>(&self, name: &str, flops_per_item: f64, body: F)
    where
        F: Fn(&mut KernelCtx<'_>, &[KernelArg]) -> Result<(), GpuError> + Send + Sync + 'static,
    {
        self.pool.register_kernel(name, flops_per_item, body);
    }

    /// Remoting statistics (calls, bytes, failures).
    pub fn call_stats(&self) -> CallStats {
        self.engine.stats()
    }

    /// How kernel stubs reach the daemon in this deployment (after any
    /// `LAKE_LINK` override).
    pub fn link_mode(&self) -> LinkMode {
        self.link_mode
    }

    /// The SQ/CQ depth every [`Lake::ml`] handle gets (after any
    /// `LAKE_QUEUE_DEPTH` override); 1 means the sync wire mode.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Ring-transport counters (doorbells, spin/park activity, restart
    /// recreations) when deployed with [`LinkMode::Ring`]; `None`
    /// otherwise.
    pub fn ring_stats(&self) -> Option<RingStats> {
        self.ring.as_ref().map(|r| r.stats())
    }

    /// Counters from the injected transport fault plan, if one was
    /// configured via [`LakeBuilder::transport_faults`].
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.fault_plan.as_ref().map(|p| p.counters())
    }

    /// One combined fault snapshot: transport counters plus shm orphan/
    /// reclamation stats plus supervisor lifecycle counters.
    pub fn fault_report(&self) -> FaultReport {
        FaultReport {
            shard: self.shard_id,
            transport: self.fault_counters(),
            shm: self.shm.stats(),
            staging: self.engine.staging_stats(),
            supervisor: self.supervisor.stats(),
            tickets_lost: self.daemon.tickets_lost(),
        }
    }

    /// One combined fast-path snapshot: RPC copy counters (per-engine
    /// plus the process rollup), staged-call count, and the GEMM engine's
    /// pool/cache counters.
    pub fn perf_report(&self) -> PerfReport {
        PerfReport {
            rpc: self.engine.perf_counters().snapshot(),
            rpc_process: lake_rpc::perf::snapshot(),
            staged_calls: self.engine.stats().staged_calls,
            gemm: self.daemon.gemm_stats(),
            store: self.daemon.store_stats(),
            executor: self.exec_stats.snapshot(),
            local: self.supervisor.local_stats(),
        }
    }

    /// The executor worker-pool width this deployment serves with (1 =
    /// each frame runs inline on the acceptor; [`LinkMode::InProcess`]
    /// always reports 1 since it has no serve thread).
    pub fn daemon_workers(&self) -> usize {
        self.daemon_workers
    }

    /// Daemon-executor counters alone (also folded into
    /// [`Lake::perf_report`]).
    pub fn executor_stats(&self) -> lake_rpc::ExecutorSnapshot {
        self.exec_stats.snapshot()
    }

    /// Paged model-store counters (budget, residency, hit/miss/eviction,
    /// pinned bytes) for this instance's daemon.
    pub fn model_store_stats(&self) -> lake_ml::StoreStats {
        self.daemon.store_stats()
    }

    /// Arms (or clears) a memory-pressure plan on the model store: while
    /// a burst is active the effective byte budget shrinks by the plan's
    /// divisor, forcing eviction storms (`lake-sim` chaos harnesses).
    pub fn set_model_pressure(&self, plan: Option<lake_sim::PressurePlan>) {
        self.daemon.set_store_pressure(plan);
    }

    /// Per-fault cold-miss reload latencies (µs of virtual time) the
    /// model store has charged so far, in fault order.
    pub fn model_fault_latencies_us(&self) -> Vec<f64> {
        self.daemon.store_fault_latencies_us()
    }

    /// This instance's shard id (0 unless deployed as part of a
    /// multi-shard fleet).
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// The call engine (for fleet routing layers that need per-shard
    /// perf counters or idempotency queries).
    pub fn engine(&self) -> &Arc<CallEngine> {
        &self.engine
    }
}

/// A handle that offloads every inference, for tests whose subject is the
/// daemon or the path to it.
#[cfg(test)]
fn offloading_ml(lake: &Lake) -> LakeMl {
    lake.ml().with_policy(crate::policy::BatchThresholdPolicy { batch_threshold: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::code;
    use lake_gpu::DevicePtr;

    #[test]
    fn end_to_end_cuda_roundtrip() {
        let lake = Lake::builder().build();
        lake.register_kernel("negate", 1.0, |ctx, args| {
            let p = args[0].as_ptr().expect("ptr");
            let mut v = ctx.read_f32(p)?;
            v.iter_mut().for_each(|x| *x = -*x);
            ctx.write_f32(p, &v)
        });
        let cuda = lake.cuda();
        let buf = cuda.cu_mem_alloc(8).unwrap();
        cuda.cu_memcpy_htod(buf, &[2.5f32.to_le_bytes(), (-4.0f32).to_le_bytes()].concat())
            .unwrap();
        cuda.cu_launch_kernel("negate", 2, &[KernelArg::Ptr(buf)]).unwrap();
        let out = cuda.cu_memcpy_dtoh(buf, 8).unwrap();
        let vals: Vec<f32> =
            out.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(vals, vec![-2.5, 4.0]);
        cuda.cu_mem_free(buf).unwrap();
        assert!(lake.call_stats().calls >= 5);
        assert!(lake.clock().now().as_micros() > 0);
    }

    #[test]
    fn shm_transfer_path_is_zero_copy_and_cheaper() {
        // Compare the virtual time of an inline 32 KiB copy vs the shm
        // path (Fig 6's motivation).
        let payload = vec![0xA5u8; 32 * 1024];

        let inline_lake = Lake::builder().build();
        let cuda = inline_lake.cuda();
        let buf = cuda.cu_mem_alloc(payload.len()).unwrap();
        let t0 = inline_lake.clock().now();
        cuda.cu_memcpy_htod(buf, &payload).unwrap();
        let inline_cost = inline_lake.clock().now() - t0;

        let shm_lake = Lake::builder().build();
        let cuda = shm_lake.cuda();
        let dev = cuda.cu_mem_alloc(payload.len()).unwrap();
        let staged = shm_lake.shm().alloc(payload.len()).unwrap();
        shm_lake.shm().write(&staged, 0, &payload).unwrap();
        let t0 = shm_lake.clock().now();
        cuda.cu_memcpy_htod_shm(dev, &staged, payload.len()).unwrap();
        let shm_cost = shm_lake.clock().now() - t0;

        assert!(
            shm_cost.as_nanos() * 3 < inline_cost.as_nanos(),
            "shm {shm_cost} should be much cheaper than inline {inline_cost}"
        );
        // Data integrity through the shm path:
        let out = cuda.cu_memcpy_dtoh(dev, payload.len()).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn vendor_errors_propagate_with_codes() {
        let lake = Lake::builder().build();
        let cuda = lake.cuda();
        let err = cuda.cu_mem_free(DevicePtr(0xbad)).unwrap_err();
        assert_eq!(err.vendor_code(), Some(code::GPU_INVALID_PTR));
        let err = cuda.cu_launch_kernel("missing", 1, &[]).unwrap_err();
        assert_eq!(err.vendor_code(), Some(code::GPU_UNKNOWN_KERNEL));
    }

    #[test]
    fn nvml_query_reflects_device_load() {
        let lake = Lake::builder().build();
        lake.register_kernel("burn", 1.0e6, |_, _| Ok(()));
        let cuda = lake.cuda();
        let idle = cuda.nvml_utilization_percent(5_000).unwrap();
        for _ in 0..20 {
            cuda.cu_launch_kernel("burn", 100_000, &[]).unwrap();
        }
        let busy = cuda.nvml_utilization_percent(5_000).unwrap();
        assert!(busy > idle, "busy {busy} should exceed idle {idle}");
    }

    #[test]
    fn high_level_mlp_inference_matches_local_model() {
        use lake_ml::{serialize, Activation, Matrix, Mlp, SgdConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(11);
        let mut model = Mlp::new(&[4, 16, 2], Activation::Relu, &mut rng);
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0],
        ]);
        let y = vec![0, 1, 0];
        for _ in 0..300 {
            model.train_batch(&x, &y, &SgdConfig { learning_rate: 0.1, weight_decay: 0.0 });
        }
        let local = model.classify(&x);

        let lake = Lake::builder().build();
        let ml = lake.ml();
        let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
        let remote = ml.infer_mlp(id, 3, 4, x.data()).unwrap();
        assert_eq!(remote, local.iter().map(|&c| c as u32).collect::<Vec<_>>());
        ml.unload_model(id).unwrap();
        assert!(ml.unload_model(id).is_err(), "double unload must fail");
    }

    #[test]
    fn async_submit_poll_matches_sync_and_releases_staging() {
        use lake_ml::{serialize, Activation, Matrix, Mlp};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(17);
        let model = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let rows: Vec<Vec<f32>> =
            (0..6).map(|i| (0..4).map(|j| ((i * 4 + j) as f32).sin()).collect()).collect();
        let x = Matrix::from_rows(&rows);

        let lake = Lake::builder().queue_depth(4).build();
        assert_eq!(lake.queue_depth(), 4);
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
        let sync = ml.infer_mlp(id, 6, 4, x.data()).unwrap();

        // Two queued batches at depth 4: nothing flushes, nothing
        // completes until we drain.
        let t0 = ml.submit_mlp(id, 6, 4, x.data()).unwrap();
        let t1 = ml.submit_mlp(id, 1, 4, &x.data()[..4]).unwrap();
        assert_eq!(ml.outstanding(), 2);
        assert!(ml.poll_completions().is_empty(), "SQ must not auto-flush below depth");

        let mut done = ml.drain_completions();
        done.sort_by_key(|c| c.0);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, t0);
        assert_eq!(done[0].1.as_ref().unwrap(), &sync);
        assert_eq!(done[1].0, t1);
        assert_eq!(done[1].1.as_ref().unwrap(), &sync[..1]);
        assert_eq!(ml.outstanding(), 0);

        // load_model and the sync infer also rode the queue (depth > 1),
        // so four submissions total — and every staging buffer came back.
        let qs = ml.queue_stats();
        assert_eq!(qs.submitted, 4);
        assert_eq!(qs.completed, 4);
        let shm = lake.shm().stats();
        assert_eq!(shm.free_blocks, 1, "staging buffers leaked: {shm:?}");
    }

    #[test]
    fn default_depth_keeps_sync_calls_on_the_plain_wire() {
        use lake_ml::{serialize, Activation, Matrix, Mlp};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(3);
        let model = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        let lake = Lake::builder().build();
        assert_eq!(lake.queue_depth(), lake_rpc::DEFAULT_QUEUE_DEPTH);
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
        let x = Matrix::from_rows(&[vec![0.5, -0.5, 1.0, 0.0]]);
        ml.infer_mlp(id, 1, 4, x.data()).unwrap();
        // At depth 1 the sync path bypasses the queue pair entirely.
        assert_eq!(ml.queue_stats().submitted, 0);
        // The async surface still works — a lone submission is a plain
        // frame that flushes immediately at depth 1.
        let t = ml.submit_mlp(id, 1, 4, x.data()).unwrap();
        let done = ml.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, t);
        assert!(done[0].1.is_ok());
    }

    #[test]
    fn linked_queue_drain_coalesces_submissions_into_burst_frames() {
        use lake_ml::{serialize, Activation, Matrix, Mlp};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(29);
        let model = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let lake = Lake::builder().link_mode(LinkMode::Channel).queue_depth(8).build();
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();

        let x = Matrix::from_rows(&[vec![1.0, 0.0, -1.0, 0.5]]);
        let sync = ml.infer_mlp(id, 1, 4, x.data()).unwrap();
        let before = lake.call_stats();

        // Eight submissions hit the depth and auto-flush as one burst
        // frame under a single doorbell.
        let tickets: Vec<_> = (0..8).map(|_| ml.submit_mlp(id, 1, 4, x.data()).unwrap()).collect();
        let done = ml.drain_completions();
        assert_eq!(done.len(), 8);
        for t in &tickets {
            let (_, result) = done.iter().find(|(id, _)| id == t).expect("ticket completed");
            assert_eq!(result.as_ref().unwrap(), &sync);
        }

        let stats = lake.call_stats();
        assert_eq!(stats.calls - before.calls, 1, "one burst frame, one call");
        assert_eq!(stats.burst_frames - before.burst_frames, 1);
        assert_eq!(stats.coalesced_commands - before.coalesced_commands, 8);
        // load_model and the sync infer each flushed as a lone plain
        // frame; the eight submissions shared one burst frame.
        assert_eq!(ml.queue_stats().frames_sent, 3);
        assert_eq!(lake.shm().stats().free_blocks, 1);
    }

    #[test]
    fn high_level_knn_inference() {
        use lake_ml::{serialize, Knn, Matrix};

        let refs = Matrix::from_rows(&[vec![0.0, 0.0], vec![9.0, 9.0], vec![9.1, 9.1]]);
        let knn = Knn::new(refs, vec![0, 1, 1], 1);
        let lake = Lake::builder().build();
        let ml = lake.ml();
        let id = ml.load_model(&serialize::encode_knn(&knn)).unwrap();
        let classes = ml.infer_knn(id, 2, 2, &[0.5, 0.5, 8.0, 9.5]).unwrap();
        assert_eq!(classes, vec![0, 1]);
    }

    #[test]
    fn high_level_lstm_inference_matches_local() {
        use lake_ml::{serialize, LstmClassifier};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(5);
        let model = LstmClassifier::new(2, 8, 2, 3, &mut rng);
        let seq1 = vec![vec![0.1, 0.9], vec![0.3, 0.7], vec![0.5, 0.5]];
        let seq2 = vec![vec![0.9, 0.1], vec![0.8, 0.0], vec![0.0, 0.2]];
        let local = vec![model.classify(&seq1) as u32, model.classify(&seq2) as u32];

        let lake = Lake::builder().build();
        let ml = lake.ml();
        let id = ml.load_model(&serialize::encode_lstm(&model)).unwrap();
        let flat: Vec<f32> =
            seq1.iter().chain(seq2.iter()).flat_map(|v| v.iter().copied()).collect();
        let remote = ml.infer_lstm(id, 2, 3, 2, &flat).unwrap();
        assert_eq!(remote, local);
    }

    /// An LSTM inference whose per-step width disagrees with the model is
    /// a shape error, not a daemon panic: in-process the caller gets
    /// `ML_BAD_SHAPE`, and over a link the width-1 serve thread survives
    /// to answer the next call on the same deployment.
    #[test]
    fn lstm_feature_width_mismatch_is_a_shape_error() {
        use lake_ml::{serialize, LstmClassifier};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let model = LstmClassifier::new(2, 8, 2, 3, &mut StdRng::seed_from_u64(5));
        let seq = vec![vec![0.1, 0.9], vec![0.3, 0.7], vec![0.5, 0.5]];
        let good: Vec<f32> = seq.iter().flatten().copied().collect();
        let wrong = vec![0.5f32; 3 * 4];
        let mut answers = Vec::new();
        for link in [LinkMode::InProcess, LinkMode::Channel] {
            let lake = Lake::builder().link_mode(link).daemon_workers(1).build();
            let ml = lake.ml();
            let f32_id = ml.load_model(&serialize::encode_lstm(&model)).unwrap();
            let int8_id = ml.quantize_model(f32_id).unwrap();
            let mut per_link = Vec::new();
            for id in [f32_id, int8_id] {
                let err = ml.infer_lstm(id, 1, 3, 4, &wrong).unwrap_err();
                assert_eq!(err.vendor_code(), Some(code::ML_BAD_SHAPE), "{link:?}: {err:?}");
                per_link.push(ml.infer_lstm(id, 1, 3, 2, &good).unwrap());
            }
            answers.push(per_link);
        }
        assert_eq!(answers[0][0], vec![model.classify(&seq) as u32]);
        assert_eq!(answers[0], answers[1]);
    }

    #[test]
    fn bad_model_blob_rejected() {
        let lake = Lake::builder().build();
        let ml = lake.ml();
        let err = ml.load_model(b"garbage").unwrap_err();
        assert_eq!(err.vendor_code(), Some(code::ML_BAD_MODEL));
    }

    #[test]
    fn infer_on_unknown_model_rejected() {
        let lake = Lake::builder().build();
        let ml = lake.ml();
        let err = ml.infer_mlp(crate::ModelId(777), 1, 4, &[0.0; 4]).unwrap_err();
        assert_eq!(err.vendor_code(), Some(code::ML_UNKNOWN_MODEL));
    }

    #[test]
    fn builder_staging_passes_large_payloads_as_handles() {
        use lake_ml::{serialize, Activation, Mlp};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(9);
        // ~17 KB serialized — far above the Fig 6 crossover.
        let model = Mlp::new(&[64, 64, 4], Activation::Relu, &mut rng);
        let blob = serialize::encode_mlp(&model);
        assert!(blob.len() > lake_rpc::DEFAULT_INLINE_THRESHOLD);

        let lake = Lake::builder().staging_threshold(lake_rpc::DEFAULT_INLINE_THRESHOLD).build();
        let ml = lake.ml();
        let before = lake.perf_report();
        let id = ml.load_model(&blob).unwrap();
        let report = lake.perf_report();
        assert!(report.staged_calls >= 1, "the model blob should ride shm: {report:?}");
        // Staging is engine-private: the kernel-visible region stays
        // untouched for callers that manage it explicitly.
        assert_eq!(lake.shm().stats().in_use, 0);
        // The daemon consumed the blob through the shared mapping.
        let d = report.rpc.since(&before.rpc);
        assert!(d.zero_copy_hits >= 1, "{d:?}");
        // And correctness is unaffected.
        assert_eq!(ml.infer_mlp(id, 1, 64, &[0.1; 64]).unwrap().len(), 1);
    }

    #[test]
    fn perf_report_counts_gemm_cache_and_staged_copies() {
        use lake_ml::{serialize, Activation, Matrix, Mlp};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let lake = Lake::builder().build();
        let ml = lake.ml();
        let mut rng = StdRng::seed_from_u64(21);
        let model = Mlp::new(&[8, 16, 3], Activation::Relu, &mut rng);
        let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
        let before = lake.perf_report();

        let x: Vec<f32> = (0..64 * 8).map(|i| (i % 7) as f32 * 0.25).collect();
        let remote = ml.infer_mlp(id, 64, 8, &x).unwrap();
        let local = model.classify(&Matrix::from_vec(64, 8, x.clone()));
        assert_eq!(remote, local.iter().map(|&c| c as u32).collect::<Vec<_>>());

        let report = lake.perf_report();
        assert!(
            report.gemm.cache_misses > before.gemm.cache_misses,
            "first use packs the model: {report:?}"
        );
        let again = ml.infer_mlp(id, 64, 8, &x).unwrap();
        assert_eq!(again, remote, "packed path must be deterministic");
        assert!(lake.perf_report().gemm.cache_hits > report.gemm.cache_hits);

        // stage_f32 wrote the features straight into shm: each inference
        // records the avoided intermediate copy.
        let d = lake.perf_report().rpc.since(&before.rpc);
        assert!(d.zero_copy_hits >= 2, "{d:?}");
        assert!(d.bytes_zero_copied >= 2 * (64 * 8 * 4) as u64, "{d:?}");
        let m = lake.sched_metrics();
        assert!(m.bytes_copied > 0 && m.zero_copy_hits > 0);
    }

    #[test]
    fn builder_options_apply() {
        let clock = SharedClock::new();
        clock.advance(lake_sim::Duration::from_micros(3));
        let lake = Lake::builder()
            .mechanism(Mechanism::Mmap)
            .shm_capacity(1 << 16)
            .gpu_spec(GpuSpec::tiny())
            .clock(clock.clone())
            .build();
        assert_eq!(lake.shm().capacity(), 1 << 16);
        assert_eq!(lake.gpu().spec().name, "tiny test device");
        assert_eq!(lake.clock().now(), clock.now());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use lake_ml::{serialize, Activation, Matrix, Mlp};
    use lake_sim::Duration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp() -> Mlp {
        Mlp::new(&[4, 8, 2], Activation::Relu, &mut StdRng::seed_from_u64(3))
    }

    #[test]
    fn daemon_stalls_park_requests_until_the_window_closes() {
        let lake = Lake::builder()
            .stall_schedule(BurstSchedule::new(
                Duration::ZERO,
                Duration::from_millis(100),
                Duration::from_micros(300),
            ))
            .build();
        let ml = offloading_ml(&lake);
        // The very first request lands at t=0, inside a stall window: it
        // must park until the window closes rather than fail.
        let id = ml.load_model(&serialize::encode_mlp(&tiny_mlp())).unwrap();
        assert!(lake.daemon().stall_events() >= 1);
        assert!(lake.clock().now().as_micros() >= 300);
        let classes = ml.infer_mlp(id, 1, 4, &[0.5; 4]).unwrap();
        assert_eq!(classes.len(), 1);
    }

    #[test]
    fn gpu_fault_bursts_are_recovered_on_the_cpu() {
        // Device 0 faults every kernel launch for its first 10 virtual
        // seconds — effectively a dead device.
        let dead = BurstSchedule::new(
            Duration::ZERO,
            Duration::from_millis(10_000),
            Duration::from_millis(10_000),
        );
        let lake = Lake::builder()
            .pool_policy(PoolPolicy {
                probe_interval: Duration::from_millis(10_000),
                ..Default::default()
            })
            .device_faults(0, lake_gpu::GpuFaultConfig { kernel_faults: Some(dead), oom: None })
            .build();
        let ml = offloading_ml(&lake);
        let model = tiny_mlp();
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0, 1.0],
            vec![0.5, 0.5, 0.5, 0.5],
        ]);
        let local: Vec<u32> = model.classify(&x).into_iter().map(|c| c as u32).collect();
        let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();

        // Every inference still answers — recovered host-side — and the
        // fault streak evicts the device from rotation.
        let threshold = lake.pool().policy().fault_threshold;
        for _ in 0..threshold + 2 {
            assert_eq!(ml.infer_mlp(id, 3, 4, x.data()).unwrap(), local);
        }
        let m = lake.sched_metrics();
        assert_eq!(m.device_evictions, 1, "fault streak should evict the only device");
        assert!(!m.devices[0].healthy);
        assert_eq!(m.recovered_batches, u64::from(threshold));
        assert!(
            m.cpu_fallback_batches >= 2,
            "post-eviction requests should go straight to the CPU"
        );
    }

    #[test]
    fn transport_faults_are_retried_transparently() {
        let spec = FaultSpec { drop_prob: 0.15, corrupt_prob: 0.05, ..Default::default() };
        let lake = Lake::builder()
            .transport_faults(spec, 42)
            .call_policy(CallPolicy { max_attempts: 10, ..Default::default() })
            .build();
        let ml = offloading_ml(&lake);
        let model = tiny_mlp();
        let blob = serialize::encode_mlp(&model);
        // Loading isn't idempotent, so a dropped frame surfaces as an
        // error here; the kernel module's own init loop retries it.
        let id = loop {
            if let Ok(id) = ml.load_model(&blob) {
                break id;
            }
        };
        let x = Matrix::from_rows(&[vec![0.25, 0.5, 0.75, 1.0]]);
        let local = model.classify(&x)[0] as u32;
        // Inference is idempotent: the engine retries through drops and
        // corruption without any caller involvement.
        for _ in 0..100 {
            assert_eq!(ml.infer_mlp(id, 1, 4, x.data()).unwrap(), vec![local]);
        }
        let stats = lake.call_stats();
        assert!(stats.retries > 0, "faults should have forced retries");
        let counters = lake.fault_counters().expect("plan installed");
        assert!(counters.drops > 0 && counters.corruptions > 0, "{counters:?}");
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use crate::error::{code, LakeError};
    use lake_ml::{serialize, Activation, Mlp};
    use lake_rpc::RpcError;
    use lake_sched::AdmissionError;
    use lake_sim::{Duration, Instant};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp() -> Mlp {
        Mlp::new(&[4, 8, 2], Activation::Relu, &mut StdRng::seed_from_u64(3))
    }

    /// A lake whose daemon dies at each of the given microsecond marks.
    fn crash_lake(crash_us: &[u64]) -> Lake {
        let crashes =
            crash_us.iter().map(|&us| Instant::EPOCH + Duration::from_micros(us)).collect();
        Lake::builder().crash_schedule(CrashSchedule::at(crashes)).build()
    }

    /// Park the clock just shy of `crash_us`, so the *next* request's
    /// in-flight window spans the crash instant.
    fn arm_crash(lake: &Lake, crash_us: u64) {
        lake.clock().advance_to(Instant::from_nanos(crash_us * 1_000 - 100));
    }

    #[test]
    fn idempotent_inference_fails_over_across_crashes() {
        let lake = crash_lake(&[500]);
        let ml = offloading_ml(&lake);
        let model = tiny_mlp();
        let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
        let x = [0.25f32, 0.5, 0.75, 1.0];
        let before = ml.infer_mlp(id, 1, 4, &x).unwrap();

        // The daemon dies while this inference is in flight. Inference is
        // idempotent, so the engine fences the stale response and replays
        // the command against the new incarnation — the caller never sees
        // the crash.
        arm_crash(&lake, 500);
        let after = ml.infer_mlp(id, 1, 4, &x).unwrap();
        assert_eq!(after, before, "failover must reproduce the pre-crash answer");

        let sup = lake.supervisor().stats();
        assert_eq!(sup.crashes_detected, 1);
        assert_eq!(sup.restarts, 1);
        assert_eq!(sup.epoch, 1);
        assert_eq!(sup.models_replayed, 1, "shadow table replays the model");

        let calls = lake.call_stats();
        assert!(calls.failed_over >= 1, "{calls:?}");
        assert_eq!(
            calls.stale_epochs,
            calls.failed_over + calls.daemon_restarts,
            "every fenced response is accounted as failover or typed error"
        );
    }

    #[test]
    fn non_idempotent_call_surfaces_daemon_restarted_and_model_survives() {
        let lake = crash_lake(&[500]);
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&tiny_mlp())).unwrap();
        // A kernel subsystem that registered a feature-registry schema
        // shadows it with the supervisor so each new incarnation hears
        // the announcement again (see FeatureRegistryService::catalog).
        lake.supervisor().record_schema("bio_latency", "block");
        let x = vec![0.5f32; 8];
        let y = vec![0u32, 1];

        // Training is not idempotent: the daemon may have applied the
        // gradient step before dying, so the engine must not silently
        // re-run it. The caller gets a typed error carrying the epoch the
        // attempt was sent under.
        arm_crash(&lake, 500);
        let err = ml.train_mlp(id, 2, 4, &x, &y, 1, 0.1).unwrap_err();
        assert!(
            matches!(err, LakeError::Rpc(RpcError::DaemonRestarted { epoch: 0 })),
            "expected DaemonRestarted under epoch 0, got {err:?}"
        );

        // The caller-driven retry lands on the new incarnation, where the
        // shadow registration table already replayed the model id.
        ml.train_mlp(id, 2, 4, &x, &y, 1, 0.1).unwrap();
        assert_eq!(ml.infer_mlp(id, 1, 4, &[0.5; 4]).unwrap().len(), 1);

        let sup = lake.supervisor().stats();
        assert_eq!(sup.epoch, 1);
        assert_eq!(sup.models_replayed, 1);
        assert_eq!(sup.schemas_replayed, 1);
        assert_eq!(lake.call_stats().daemon_restarts, 1);
    }

    #[test]
    fn restart_storm_trips_breaker_into_forced_cpu_fallback() {
        // Each supervised restart costs >= lease + backoff + restart_cost
        // (~145us), so crashes 100us apart mean every restart runs the
        // clock into the next crash: a restart storm.
        let lake = crash_lake(&[500, 600, 700]);
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&tiny_mlp())).unwrap();

        arm_crash(&lake, 500);
        // Idempotent, so the request survives the whole storm via failover.
        ml.infer_mlp(id, 1, 4, &[0.25; 4]).unwrap();

        let sup = lake.supervisor().stats();
        assert_eq!(sup.restarts, 3);
        assert_eq!(sup.breaker_trips, 1, "three restarts in the window trip the breaker");
        assert!(lake.pool().forced_fallback(), "breaker latches the CPU path");
        let m = lake.sched_metrics();
        assert!(m.forced_fallback);
        assert_eq!(m.forced_fallback_trips, 1);

        // Requests keep completing on the host while the breaker holds.
        ml.infer_mlp(id, 1, 4, &[0.75; 4]).unwrap();
        assert!(lake.sched_metrics().cpu_fallback_batches >= 1);

        // Once the cooldown passes the supervisor releases the latch and
        // placement returns to the device pool.
        lake.clock().advance(lake.supervisor().policy().breaker_cooldown * 2);
        ml.infer_mlp(id, 1, 4, &[0.75; 4]).unwrap();
        assert!(!lake.pool().forced_fallback(), "cooldown releases the breaker");
        assert_eq!(lake.supervisor().stats().epoch, 3, "no further restarts after the storm");
    }

    #[test]
    fn orphaned_staging_buffers_are_swept_back_to_one_free_block() {
        let lake = crash_lake(&[500]);
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&tiny_mlp())).unwrap();
        let base = lake.shm().stats();
        assert_eq!(base.in_use, 0, "model blobs travel inline, not via lakeShm");

        // The crash strands this call's staging buffer: the kernel side
        // must not free a buffer the dead daemon may still have mapped,
        // so it disowns it instead.
        arm_crash(&lake, 500);
        let x = vec![0.5f32; 8];
        ml.train_mlp(id, 2, 4, &x, &[0, 1], 1, 0.1).unwrap_err();
        let stats = lake.shm().stats();
        assert!(stats.in_use > 0, "the orphan is still allocated");
        assert!(stats.orphaned_bytes > 0, "and accounted as orphaned: {stats:?}");

        // The next request triggers the supervised restart, whose
        // automatic sweep reclaims the disowned buffer — the region
        // converges back to one coalesced free block.
        ml.infer_mlp(id, 1, 4, &[0.5; 4]).unwrap();
        let sup = lake.supervisor().stats();
        assert_eq!(sup.orphans_reclaimed, 1);
        assert!(sup.orphan_bytes_reclaimed >= 32);

        let stats = lake.shm().stats();
        assert_eq!(stats.orphaned_bytes, 0);
        assert_eq!(stats.in_use, 0);
        assert_eq!(stats.free_blocks, 1, "region converges to one coalesced free block");
        assert_eq!(stats.largest_free, lake.shm().capacity());

        // Nothing left for the quiesced sweep.
        assert_eq!(lake.reclaim_shm_orphans().reclaimed_allocs, 0);
    }

    #[test]
    fn lost_batched_tickets_fail_typed_after_a_crash() {
        let crashes = vec![Instant::EPOCH + Duration::from_micros(500)];
        let lake = Lake::builder()
            .crash_schedule(CrashSchedule::at(crashes))
            // Keep the queue parked so the row is still queued at crash
            // time.
            .batch_policy(BatchPolicy { max_batch: 64, max_wait: Duration::from_millis(50) })
            .build();
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&tiny_mlp())).unwrap();
        let ticket = ml.infer_submit(id, 7, 4, 0, &[0.5; 4]).unwrap();

        // The daemon dies with the row queued; the restarted incarnation
        // has no memory of it. Polling must say so explicitly rather than
        // hang or claim the ticket never existed.
        lake.clock().advance_to(Instant::EPOCH + Duration::from_micros(501));
        let err = ml.infer_poll(ticket).unwrap_err();
        assert_eq!(err.vendor_code(), Some(code::SCHED_TICKET_LOST));
        // The loss is reported once; afterwards the ticket is consumed.
        let err = ml.infer_poll(ticket).unwrap_err();
        assert_eq!(err.vendor_code(), Some(code::SCHED_BAD_TICKET));

        // Resubmitting against the new incarnation completes normally.
        let ticket = ml.infer_submit(id, 7, 4, 0, &[0.5; 4]).unwrap();
        ml.infer_flush().unwrap();
        assert!(ml.infer_poll(ticket).unwrap().is_some());
        assert_eq!(lake.supervisor().stats().epoch, 1);
    }

    #[test]
    fn admission_control_bounds_shm_exhaustion() {
        // A 256-byte region cannot ever stage a 512-byte batch: admission
        // must bound the wait and surface a typed error instead of
        // spinning forever (or panicking on the allocator).
        let lake = Lake::builder().shm_capacity(256).build();
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&tiny_mlp())).unwrap();

        let t0 = lake.clock().now();
        let err = ml.infer_mlp(id, 32, 4, &vec![0.25f32; 128]).unwrap_err();
        let waited = lake.clock().now() - t0;
        assert!(
            matches!(err, LakeError::Admission(AdmissionError::DeadlineExpired { .. })),
            "expected a typed admission deadline, got {err:?}"
        );
        let deadline = lake.admission().policy().queue_deadline;
        assert!(waited >= deadline, "backpressure held for the full deadline");
        assert!(waited < deadline * 3, "and is bounded: waited {waited}");

        let counters = lake.sched_metrics().admission;
        assert_eq!(counters.expired_deadline, 1);
        assert_eq!(counters.queued_waits, 1);

        // Right-sized requests still flow afterwards: the failed admit
        // released its claim.
        assert_eq!(ml.infer_mlp(id, 1, 4, &[0.25; 4]).unwrap().len(), 1);
    }
}

#[cfg(test)]
mod link_tests {
    use super::*;
    use lake_ml::{serialize, Activation, Matrix, Mlp};
    use lake_sim::{Duration, Instant};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp() -> Mlp {
        Mlp::new(&[4, 8, 2], Activation::Relu, &mut StdRng::seed_from_u64(3))
    }

    #[test]
    fn link_mode_strings_parse() {
        assert_eq!(parse_link_mode("inproc"), Ok(LinkMode::InProcess));
        assert_eq!(parse_link_mode("In-Process"), Ok(LinkMode::InProcess));
        assert_eq!(parse_link_mode("channel"), Ok(LinkMode::Channel));
        assert_eq!(parse_link_mode(" RING "), Ok(LinkMode::Ring));
        assert!(parse_link_mode("netlink").is_err());
    }

    /// Classifies the same batch under `mode` and returns the answers.
    fn classify_under(mode: LinkMode) -> Vec<u32> {
        let lake = Lake::builder().link_mode(mode).build();
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&tiny_mlp())).unwrap();
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0, 1.0],
            vec![0.5, 0.5, 0.5, 0.5],
        ]);
        ml.infer_mlp(id, 3, 4, x.data()).unwrap()
    }

    #[test]
    fn channel_link_answers_match_in_process() {
        assert_eq!(classify_under(LinkMode::Channel), classify_under(LinkMode::InProcess));
    }

    #[test]
    fn ring_link_answers_match_in_process() {
        assert_eq!(classify_under(LinkMode::Ring), classify_under(LinkMode::InProcess));
    }

    #[test]
    fn ring_mode_forces_mmap_and_exposes_stats() {
        let lake = Lake::builder().mechanism(Mechanism::Netlink).link_mode(LinkMode::Ring).build();
        assert_eq!(lake.link_mode(), LinkMode::Ring);
        let ml = offloading_ml(&lake);
        let id = ml.load_model(&serialize::encode_mlp(&tiny_mlp())).unwrap();
        assert_eq!(ml.infer_mlp(id, 1, 4, &[0.5; 4]).unwrap().len(), 1);
        let stats = lake.ring_stats().expect("ring deployment exposes ring counters");
        assert!(
            stats.spins + stats.yields + stats.parks > 0,
            "consumers should have waited for frames: {stats:?}"
        );
        assert_eq!(stats.recreations, 0, "no restarts, no recreations");
        // The main lakeShm region is untouched by the rings.
        assert_eq!(lake.shm().stats().in_use, 0);
        // Non-ring deployments expose nothing.
        assert!(Lake::builder().build().ring_stats().is_none());
    }

    #[test]
    fn ring_is_recreated_once_per_supervised_restart() {
        let crashes = vec![
            Instant::EPOCH + Duration::from_micros(500),
            Instant::EPOCH + Duration::from_micros(5_000),
        ];
        let lake = Lake::builder()
            .link_mode(LinkMode::Ring)
            .crash_schedule(CrashSchedule::at(crashes))
            .build();
        let ml = offloading_ml(&lake);
        let model = tiny_mlp();
        let id = ml.load_model(&serialize::encode_mlp(&model)).unwrap();
        let x = [0.25f32, 0.5, 0.75, 1.0];
        let before = ml.infer_mlp(id, 1, 4, &x).unwrap();

        // Ride a request across each crash; inference is idempotent, so
        // failover hides the restart from the caller.
        for crash_us in [500u64, 5_000] {
            lake.clock().advance_to(Instant::from_nanos(crash_us * 1_000 - 100));
            assert_eq!(ml.infer_mlp(id, 1, 4, &x).unwrap(), before);
        }

        let sup = lake.supervisor().stats();
        assert_eq!(sup.restarts, 2);
        let stats = lake.ring_stats().unwrap();
        assert_eq!(
            stats.recreations, sup.restarts,
            "each supervised restart drains and recreates the ring: {stats:?}"
        );
        assert_eq!(
            lake.call_stats().stale_epochs,
            lake.call_stats().failed_over + lake.call_stats().daemon_restarts,
        );
    }

    #[test]
    fn ring_link_retries_through_transport_faults() {
        let spec = FaultSpec { drop_prob: 0.1, corrupt_prob: 0.05, ..Default::default() };
        let lake = Lake::builder()
            .link_mode(LinkMode::Ring)
            .transport_faults(spec, 17)
            .call_policy(CallPolicy {
                max_attempts: 10,
                // Faults are detected by wall-clock silence in linked
                // mode; keep the test snappy.
                recv_patience: Some(std::time::Duration::from_millis(5)),
                ..Default::default()
            })
            .build();
        let ml = offloading_ml(&lake);
        let model = tiny_mlp();
        let blob = serialize::encode_mlp(&model);
        let id = loop {
            if let Ok(id) = ml.load_model(&blob) {
                break id;
            }
        };
        let x = Matrix::from_rows(&[vec![0.25, 0.5, 0.75, 1.0]]);
        let local = model.classify(&x)[0] as u32;
        for _ in 0..40 {
            assert_eq!(ml.infer_mlp(id, 1, 4, x.data()).unwrap(), vec![local]);
        }
        let stats = lake.call_stats();
        assert!(stats.retries > 0, "faults should have forced retries: {stats:?}");
        let counters = lake.fault_counters().expect("plan installed");
        assert!(counters.drops > 0, "{counters:?}");
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use lake_gpu::KernelArg;

    #[test]
    fn remoted_streams_overlap_and_compute_correctly() {
        let lake = Lake::builder().build();
        lake.register_kernel("double", 25_000.0, |ctx, args| {
            let p = args[0].as_ptr().expect("ptr");
            let mut v = ctx.read_f32(p)?;
            v.iter_mut().for_each(|x| *x *= 2.0);
            ctx.write_f32(p, &v)
        });
        let cuda = lake.cuda();
        let n = 4 << 20; // 4 MiB per buffer
        let items = 100_000u64;

        // Synchronous pipeline over two buffers.
        let payload = vec![0x3Fu8; n];
        let staged = lake.shm().alloc(n).expect("shm");
        lake.shm().write(&staged, 0, &payload).expect("stage");
        let a = cuda.cu_mem_alloc(n).expect("alloc");
        let b = cuda.cu_mem_alloc(n).expect("alloc");
        let t0 = lake.clock().now();
        cuda.cu_memcpy_htod_shm(a, &staged, n).expect("copy");
        cuda.cu_launch_kernel("double", items, &[KernelArg::Ptr(a)]).expect("launch");
        cuda.cu_memcpy_htod_shm(b, &staged, n).expect("copy");
        cuda.cu_launch_kernel("double", items, &[KernelArg::Ptr(b)]).expect("launch");
        let sync_time = lake.clock().now() - t0;

        // Asynchronous double buffering on two remoted streams.
        let lake = Lake::builder().build();
        lake.register_kernel("double", 25_000.0, |ctx, args| {
            let p = args[0].as_ptr().expect("ptr");
            let mut v = ctx.read_f32(p)?;
            v.iter_mut().for_each(|x| *x *= 2.0);
            ctx.write_f32(p, &v)
        });
        let cuda = lake.cuda();
        let staged = lake.shm().alloc(n).expect("shm");
        lake.shm().write(&staged, 0, &payload).expect("stage");
        let out = lake.shm().alloc(n).expect("shm out");
        let a = cuda.cu_mem_alloc(n).expect("alloc");
        let b = cuda.cu_mem_alloc(n).expect("alloc");
        let s1 = cuda.cu_stream_create().expect("stream");
        let s2 = cuda.cu_stream_create().expect("stream");
        let t0 = lake.clock().now();
        cuda.cu_memcpy_htod_async_shm(s1, a, &staged, n).expect("copy");
        cuda.cu_launch_kernel_async(s1, "double", items, &[KernelArg::Ptr(a)]).expect("launch");
        cuda.cu_memcpy_htod_async_shm(s2, b, &staged, n).expect("copy");
        cuda.cu_launch_kernel_async(s2, "double", items, &[KernelArg::Ptr(b)]).expect("launch");
        cuda.cu_memcpy_dtoh_async_shm(s1, a, &out, n).expect("dtoh");
        cuda.cu_stream_synchronize(s1).expect("sync");
        cuda.cu_stream_synchronize(s2).expect("sync");
        let async_time = lake.clock().now() - t0;

        // Results are real: 0x3f3f3f3f as f32, doubled.
        let bytes = lake.shm().read(&out, 0, 4).expect("read");
        let expected = 2.0 * f32::from_le_bytes([0x3F; 4]);
        assert_eq!(f32::from_le_bytes(bytes.try_into().expect("4 bytes")), expected);

        // And the async pipeline is faster despite doing an extra D2H.
        assert!(async_time < sync_time, "async {async_time} should beat sync {sync_time}");

        cuda.cu_stream_destroy(s1).expect("destroy");
        assert!(cuda.cu_stream_synchronize(s1).is_err(), "destroyed stream rejected");
    }
}
