//! `lakeD`: the user-space daemon that realizes remoted APIs.
//!
//! "lakeD is a user space daemon that listens for commands coming from
//! lakeLib, deserializes them and executes the requested APIs. This daemon
//! must have access to the vendor's library (e.g. cudart.so)" (§4). Here
//! the vendor library is the simulated [`GpuDevice`]; the high-level ML
//! APIs (§4.4) are realized with `lake-ml` models whose weights live on
//! the device and whose forward passes run inside device kernels, so both
//! correctness and timing flow through the accelerator.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use lake_gpu::{DevicePtr, GpuDevice, GpuError, KernelArg};
use lake_ml::{
    serialize, CpuCostModel, EngineStats, InferenceEngine, Kernel, Knn, LstmClassifier, Matrix,
    Mlp, ModelKind, ModelPin, ModelStore, QuantizedLstm, QuantizedMlp, StoreError, StoreStats,
};
use lake_rpc::{ApiHandler, ApiId, Decoder, Encoder, Status};
use lake_sched::{Batch, BatchPolicy, Batcher, DevicePool, Placement, PoolPolicy, SchedMetrics};
use lake_shm::{ShmBuffer, ShmRegion};
use lake_sim::{BurstSchedule, PressurePlan};

use crate::api;
use crate::error::code;

/// Default capacity of the dedicated model-page region backing an
/// unbounded store (every model resident, the paper's behaviour).
const DEFAULT_MODEL_PAGE_CAPACITY: usize = 8 << 20;

fn gpu_status(e: GpuError) -> Status {
    Status::VendorError(match e {
        GpuError::OutOfMemory { .. } => code::GPU_OOM,
        GpuError::InvalidPtr(_) => code::GPU_INVALID_PTR,
        GpuError::OutOfBounds { .. } => code::GPU_OOB,
        GpuError::UnknownKernel(_) => code::GPU_UNKNOWN_KERNEL,
        GpuError::KernelFault(_) => code::GPU_KERNEL_FAULT,
    })
}

fn store_status(e: StoreError) -> Status {
    Status::VendorError(match e {
        StoreError::UnknownModel { .. } => code::ML_UNKNOWN_MODEL,
        StoreError::Decode { .. } => code::ML_BAD_MODEL,
        StoreError::BudgetExhausted { .. } => code::ML_STORE_FULL,
        StoreError::StaleVersion { .. } => code::ML_STALE_VERSION,
    })
}

/// A model loaded through the high-level API, resident in the daemon with
/// weights uploaded to every pool device.
enum LoadedModel {
    Mlp(Arc<Mlp>),
    Lstm(Arc<LstmClassifier>),
    Knn(Arc<Knn>),
    /// Int8 MLP — a separate model family; the f32 original (if loaded)
    /// stays resident as the correctness oracle.
    QuantMlp(Arc<QuantizedMlp>),
    /// Int8 LSTM (f32 head).
    QuantLstm(Arc<QuantizedLstm>),
}

impl LoadedModel {
    /// Decodes a serialized model blob into its daemon-resident form — the
    /// model store's decoder.
    fn decode(blob: &[u8]) -> Option<LoadedModel> {
        Some(match ModelKind::detect(blob).ok()? {
            ModelKind::Mlp => LoadedModel::Mlp(Arc::new(serialize::decode_mlp(blob).ok()?)),
            ModelKind::Lstm => LoadedModel::Lstm(Arc::new(serialize::decode_lstm(blob).ok()?)),
            ModelKind::Knn => LoadedModel::Knn(Arc::new(serialize::decode_knn(blob).ok()?)),
            ModelKind::QuantMlp => {
                LoadedModel::QuantMlp(Arc::new(serialize::decode_quant_mlp(blob).ok()?))
            }
            ModelKind::QuantLstm => {
                LoadedModel::QuantLstm(Arc::new(serialize::decode_quant_lstm(blob).ok()?))
            }
        })
    }

    /// The model's device footprint: weight bytes to upload, kernel name
    /// base, and FLOPs per launch work item. `blob_len` is the length of
    /// the blob the model was decoded from.
    fn device_footprint(&self, blob_len: usize) -> (usize, &'static str, f64) {
        match self {
            LoadedModel::Mlp(m) => (m.num_params() * 4, "hl_mlp", m.flops_per_input()),
            // per work item = one timestep of the full stack
            LoadedModel::Lstm(m) => {
                (blob_len, "hl_lstm", m.cells().iter().map(|c| c.flops_per_step()).sum())
            }
            // per work item = one (query, reference) pair
            LoadedModel::Knn(m) => (m.num_refs() * m.dims() * 4, "hl_knn", 3.0 * m.dims() as f64),
            // i8 weights: the device footprint is ≈ 4× smaller than the
            // f32 form's — the ModelStore page win.
            LoadedModel::QuantMlp(m) => (m.weight_bytes(), "hl_qmlp", m.flops_per_input()),
            LoadedModel::QuantLstm(m) => (m.weight_bytes(), "hl_qlstm", m.flops_per_step()),
        }
    }

    /// Kernel name base, launch work items, and per-item FLOPs for a
    /// `rows` × `cols` batch, validating the shape against the model.
    fn launch_shape(
        &self,
        rows: usize,
        cols: usize,
        steps: usize,
    ) -> Result<(&'static str, u64, f64), Status> {
        match self {
            LoadedModel::Mlp(m) => {
                if m.input_size() != cols {
                    return Err(Status::VendorError(code::ML_BAD_SHAPE));
                }
                Ok(("hl_mlp", rows as u64, m.flops_per_input()))
            }
            LoadedModel::Lstm(m) => {
                let width = m.cells()[0].input_size();
                if steps == 0 || !cols.is_multiple_of(steps) || cols / steps != width {
                    return Err(Status::VendorError(code::ML_BAD_SHAPE));
                }
                let flops: f64 = m.cells().iter().map(|c| c.flops_per_step()).sum();
                Ok(("hl_lstm", (rows * steps) as u64, flops))
            }
            LoadedModel::Knn(m) => {
                if m.dims() != cols {
                    return Err(Status::VendorError(code::ML_BAD_SHAPE));
                }
                Ok(("hl_knn", (rows * m.num_refs()) as u64, 3.0 * m.dims() as f64))
            }
            LoadedModel::QuantMlp(m) => {
                if m.input_size() != cols {
                    return Err(Status::VendorError(code::ML_BAD_SHAPE));
                }
                Ok(("hl_qmlp", rows as u64, m.flops_per_input()))
            }
            LoadedModel::QuantLstm(m) => {
                if steps == 0 || !cols.is_multiple_of(steps) || cols / steps != m.input_size() {
                    return Err(Status::VendorError(code::ML_BAD_SHAPE));
                }
                Ok(("hl_qlstm", (rows * steps) as u64, m.flops_per_step()))
            }
        }
    }

    /// Runs the model math over a flattened `rows` × `cols` feature
    /// buffer — the shared body of both the device kernels and the CPU
    /// fallback path, so results are bit-identical wherever a batch is
    /// placed. MLP and LSTM batches go through the packed parallel GEMM
    /// engine (cached under the daemon-side model `(id, version)` so a
    /// hot-swap can never serve stale packed weights), which is
    /// bit-identical to the naive per-row path; k-NN stays on the naive
    /// path (distance scans don't benefit from weight packing).
    #[allow(clippy::too_many_arguments)] // mirrors the wire command shape
    fn classify_host(
        &self,
        engine: &InferenceEngine,
        id: u64,
        version: u64,
        rows: usize,
        cols: usize,
        steps: usize,
        data: &[f32],
    ) -> Result<Vec<f32>, GpuError> {
        if data.len() < rows * cols || rows == 0 || cols == 0 {
            return Err(GpuError::KernelFault("input shape mismatch".to_owned()));
        }
        match self {
            LoadedModel::Mlp(m) => Ok(engine
                .classify_mlp(id, version, m, &data[..rows * cols], rows, cols)
                .into_iter()
                .map(|c| c as f32)
                .collect()),
            LoadedModel::Lstm(m) => {
                // rows sequences; each sequence is steps × features,
                // flattened.
                if steps == 0 || !cols.is_multiple_of(steps) {
                    return Err(GpuError::KernelFault("bad sequence shape".to_owned()));
                }
                Ok(engine
                    .classify_lstm(id, version, m, &data[..rows * cols], rows, cols, steps)
                    .into_iter()
                    .map(|c| c as f32)
                    .collect())
            }
            LoadedModel::Knn(m) => {
                let x = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
                Ok(m.classify_batch(&x).into_iter().map(|c| c as f32).collect())
            }
            LoadedModel::QuantMlp(m) => Ok(engine
                .classify_quant_mlp(id, version, m, &data[..rows * cols], rows, cols)
                .into_iter()
                .map(|c| c as f32)
                .collect()),
            LoadedModel::QuantLstm(m) => {
                if steps == 0 || !cols.is_multiple_of(steps) {
                    return Err(GpuError::KernelFault("bad sequence shape".to_owned()));
                }
                Ok(engine
                    .classify_quant_lstm(id, version, m, &data[..rows * cols], rows, cols, steps)
                    .into_iter()
                    .map(|c| c as f32)
                    .collect())
            }
        }
    }
}

/// One completed batched-inference row awaiting pickup.
struct ReadyEntry {
    class: u64,
    /// The (device, stream) the batch ran on; polling synchronizes the
    /// stream so the caller's clock reflects the batch's completion.
    /// `None` for CPU-fallback batches (cost already charged).
    sync: Option<(usize, u32)>,
}

/// The daemon side of the cross-subsystem batching scheduler.
struct SchedState {
    batcher: Batcher,
    ready: HashMap<u64, ReadyEntry>,
    consumed: HashSet<u64>,
    issued: u64,
    /// Tickets whose queued rows (or unpicked results) died with a
    /// daemon incarnation; polling them fails typed instead of hanging.
    lost: HashSet<u64>,
    /// Store pins held per queued ticket from submit until its batch is
    /// filed ready: a queued row's weights can never be evicted out from
    /// under it, no matter how oversubscribed the store is.
    pins: HashMap<u64, ModelPin<LoadedModel>>,
}

/// What one installed model holds on the pool devices.
struct DeviceModel {
    /// The current version's weight allocation on each pool device, in
    /// device order.
    weights: Vec<DevicePtr>,
    /// The per-model inference kernel registered on every device.
    kernel: String,
}

/// The daemon: implements [`ApiHandler`] over the simulated CUDA library.
pub struct LakeDaemon {
    /// The primary device — the low-level remoted CUDA API is pinned to
    /// it (kernel modules hold raw device pointers).
    gpu: Arc<GpuDevice>,
    pool: Arc<DevicePool>,
    shm: ShmRegion,
    /// The paged model store: weight blobs live in page-granular shm
    /// allocations under a hard byte budget with clock eviction, pinned
    /// for the duration of every call that uses them.
    store: ModelStore<LoadedModel>,
    /// Device-side state per installed model id, released when the
    /// version is replaced, the model unloaded, or the incarnation dies.
    on_device: Mutex<HashMap<u64, DeviceModel>>,
    next_model_id: AtomicU64,
    sched: Mutex<SchedState>,
    cpu: CpuCostModel,
    /// Packed parallel GEMM engine backing every host-side MLP/LSTM
    /// forward pass (device kernels and CPU fallback alike). Its packed
    /// copy of a version is dropped by the store's release hook when that
    /// version's page is freed.
    engine: Arc<InferenceEngine>,
    /// Injectable stall schedule: while a window is active, every request
    /// parks until it closes (a wedged daemon — GC pause, page-in storm).
    stall: Mutex<Option<BurstSchedule>>,
    stall_events: AtomicU64,
    /// Batched-inference tickets whose rows died with a daemon incarnation
    /// and were then polled — each one a `SCHED_TICKET_LOST` surfaced to a
    /// caller. Per-daemon so a multi-shard node can attribute losses.
    tickets_lost: AtomicU64,
}

/// Why a device-side inference attempt failed. `Device` failures are
/// recoverable host-side (the daemon re-runs the batch on the CPU);
/// `Fatal` ones are the caller's fault (bad shm handle, bad shape) and
/// are returned as-is.
enum InferFailure {
    Device,
    Fatal(Status),
}

impl LakeDaemon {
    /// Creates a daemon bound to a single device and the shared region.
    pub fn new(gpu: Arc<GpuDevice>, shm: ShmRegion) -> Arc<Self> {
        let clock = gpu.clock().clone();
        let pool = DevicePool::from_devices(vec![gpu], clock, PoolPolicy::default());
        Self::with_pool(pool, shm, BatchPolicy::default())
    }

    /// Creates a daemon that schedules high-level inference across a
    /// device pool, batching requests under `batch_policy`. The model
    /// store is unbounded (every model stays resident, the paper's
    /// behaviour) over a default-sized page region.
    pub fn with_pool(
        pool: Arc<DevicePool>,
        shm: ShmRegion,
        batch_policy: BatchPolicy,
    ) -> Arc<Self> {
        let pages = ShmRegion::with_capacity(DEFAULT_MODEL_PAGE_CAPACITY);
        Self::with_model_store(pool, shm, batch_policy, pages, None)
    }

    /// Creates a daemon whose model weights live in `model_pages` under
    /// `model_budget` bytes (`None` = unbounded): the paged-model-store
    /// entry point [`LakeBuilder::model_budget_bytes`] plumbs through.
    ///
    /// [`LakeBuilder::model_budget_bytes`]: crate::LakeBuilder::model_budget_bytes
    pub fn with_model_store(
        pool: Arc<DevicePool>,
        shm: ShmRegion,
        batch_policy: BatchPolicy,
        model_pages: ShmRegion,
        model_budget: Option<usize>,
    ) -> Arc<Self> {
        let store =
            ModelStore::new(pool.clock().clone(), model_pages, model_budget, LoadedModel::decode);
        let sched = Mutex::new(SchedState {
            batcher: Batcher::new(batch_policy),
            ready: HashMap::new(),
            consumed: HashSet::new(),
            issued: 0,
            lost: HashSet::new(),
            pins: HashMap::new(),
        });
        // Size the GEMM pool to the host, capped: inference batches are
        // latency-sensitive and small enough that more workers only add
        // hand-off overhead. The pool counts its caller, so an executor
        // worker computes its own batch alongside whichever helpers are
        // idle; no split against the executor width is needed.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let engine = Arc::new(InferenceEngine::new(cores.min(4)));
        // A packed copy leaves with its page: eviction, retirement and
        // unload all free a page through this hook (store lock, then the
        // cache lock; the engine never takes the store lock).
        let packs = Arc::clone(&engine);
        store.set_release_hook(move |id, version| packs.release(id, version));
        Arc::new(LakeDaemon {
            gpu: Arc::clone(pool.primary()),
            pool,
            shm,
            store,
            on_device: Mutex::new(HashMap::new()),
            next_model_id: AtomicU64::new(1),
            sched,
            cpu: CpuCostModel::default(),
            engine,
            stall: Mutex::new(None),
            stall_events: AtomicU64::new(0),
            tickets_lost: AtomicU64::new(0),
        })
    }

    /// Installs (or clears) an injectable stall schedule. While a window
    /// is active, every incoming request parks until the window closes.
    pub fn set_stall_schedule(&self, schedule: Option<BurstSchedule>) {
        *self.stall.lock() = schedule;
    }

    /// How many requests arrived during a stall window and had to wait.
    pub fn stall_events(&self) -> u64 {
        self.stall_events.load(Ordering::Relaxed)
    }

    /// How many polls surfaced `SCHED_TICKET_LOST` — batched rows that
    /// died with a crashed incarnation of *this* daemon.
    pub fn tickets_lost(&self) -> u64 {
        self.tickets_lost.load(Ordering::Relaxed)
    }

    /// Parks the current request until any active stall window closes.
    fn maybe_stall(&self) {
        let Some(burst) = *self.stall.lock() else { return };
        let now = self.pool.clock().now();
        if burst.active_at(now) {
            self.pool.clock().advance(burst.remaining_at(now));
            self.stall_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The primary device this daemon drives.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.gpu
    }

    /// The device pool behind the high-level inference APIs.
    pub fn pool(&self) -> &Arc<DevicePool> {
        &self.pool
    }

    /// A snapshot of the scheduler's counters: queue depth, batch sizes,
    /// per-device utilization and dispatch counts, CPU fallbacks.
    pub fn sched_metrics(&self) -> SchedMetrics {
        let sched = self.sched.lock();
        let mut m = SchedMetrics::collect(&self.pool, &sched.batcher);
        m.gemm_pool_utilization = self.engine.stats().pool_utilization();
        m.simd_kernel = self.engine.kernel().name();
        m
    }

    /// Counters from the packed GEMM inference engine (worker pool usage,
    /// packed-weight cache hits).
    pub fn gemm_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The GEMM microkernel this daemon's engine dispatches to.
    pub fn simd_kernel(&self) -> Kernel {
        self.engine.kernel()
    }

    /// Pins the current version of model `id` for the duration of a call;
    /// a cold miss faults the weights back in through the store's NVMe,
    /// charging the reload to the virtual clock.
    fn model(&self, id: u64) -> Result<ModelPin<LoadedModel>, Status> {
        self.store.acquire(id).map_err(store_status)
    }

    /// The installed version of `id`, if the model exists.
    pub fn model_version(&self, id: u64) -> Option<u64> {
        self.store.version_of(id)
    }

    /// Whether `id`'s weights are resident in the page cache right now —
    /// the residency hint replica sync ships alongside versions.
    pub fn model_resident(&self, id: u64) -> bool {
        self.store.is_resident(id)
    }

    /// Counter snapshot of the paged model store (hits, misses,
    /// evictions, resident/pinned bytes, fault time).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Installs (or clears) an eviction-storm plan on the model store:
    /// inside storm windows the effective budget tightens.
    pub fn set_store_pressure(&self, plan: Option<PressurePlan>) {
        self.store.set_pressure(plan);
    }

    /// The blob the store holds for exactly `version` of `id`, shared
    /// rather than copied; `None` once a newer version is installed.
    pub(crate) fn model_blob(&self, id: u64, version: u64) -> Option<Arc<Vec<u8>>> {
        self.store.blob_at(id, version)
    }

    /// Cold-miss fault latencies observed by the store, microseconds.
    pub fn store_fault_latencies_us(&self) -> Vec<f64> {
        self.store.fault_latencies_us()
    }

    fn cu_mem_alloc(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let bytes = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let ptr = self.gpu.mem_alloc(bytes).map_err(gpu_status)?;
        let mut e = Encoder::new();
        e.put_u64(ptr.0);
        Ok(e.finish())
    }

    fn cu_mem_free(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let ptr = DevicePtr(d.get_u64().map_err(|_| Status::Malformed)?);
        self.gpu.mem_free(ptr).map_err(gpu_status)?;
        Ok(Bytes::new())
    }

    fn cu_memcpy_htod(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let ptr = DevicePtr(d.get_u64().map_err(|_| Status::Malformed)?);
        let data = d.get_bytes().map_err(|_| Status::Malformed)?;
        self.gpu.memcpy_htod(ptr, data).map_err(gpu_status)?;
        Ok(Bytes::new())
    }

    fn cu_memcpy_htod_shm(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let ptr = DevicePtr(d.get_u64().map_err(|_| Status::Malformed)?);
        let offset = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let len = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let buf =
            self.shm.resolve(offset).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        // Zero-copy read out of the shared mapping straight into the
        // device transfer.
        let result = self
            .shm
            .with_bytes(&buf, |bytes| {
                let len = len.min(bytes.len());
                self.gpu.memcpy_htod(ptr, &bytes[..len])
            })
            .map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        result.map_err(gpu_status)?;
        Ok(Bytes::new())
    }

    fn cu_memcpy_dtoh(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let ptr = DevicePtr(d.get_u64().map_err(|_| Status::Malformed)?);
        let len = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let data = self.gpu.memcpy_dtoh(ptr, len).map_err(gpu_status)?;
        let mut e = Encoder::new();
        e.put_bytes(&data);
        Ok(e.finish())
    }

    fn cu_memcpy_dtoh_shm(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let ptr = DevicePtr(d.get_u64().map_err(|_| Status::Malformed)?);
        let offset = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let len = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let data = self.gpu.memcpy_dtoh(ptr, len).map_err(gpu_status)?;
        let buf =
            self.shm.resolve(offset).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        self.shm.write(&buf, 0, &data).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        Ok(Bytes::new())
    }

    fn decode_args(d: &mut Decoder<'_>) -> Result<Vec<KernelArg>, Status> {
        let n_args = d.get_u32().map_err(|_| Status::Malformed)? as usize;
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            let tag = d.get_u8().map_err(|_| Status::Malformed)?;
            let arg = match tag {
                0 => KernelArg::Ptr(DevicePtr(d.get_u64().map_err(|_| Status::Malformed)?)),
                1 => KernelArg::U64(d.get_u64().map_err(|_| Status::Malformed)?),
                2 => KernelArg::F32(d.get_f32().map_err(|_| Status::Malformed)?),
                _ => return Err(Status::Malformed),
            };
            args.push(arg);
        }
        Ok(args)
    }

    fn cu_stream_create(&self, _payload: &[u8]) -> Result<Bytes, Status> {
        let stream = self.gpu.stream_create();
        let mut e = Encoder::new();
        e.put_u32(stream);
        Ok(e.finish())
    }

    fn cu_stream_destroy(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let stream = d.get_u32().map_err(|_| Status::Malformed)?;
        self.gpu.stream_destroy(stream).map_err(gpu_status)?;
        Ok(Bytes::new())
    }

    fn cu_memcpy_htod_async_shm(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let stream = d.get_u32().map_err(|_| Status::Malformed)?;
        let ptr = DevicePtr(d.get_u64().map_err(|_| Status::Malformed)?);
        let offset = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let len = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let buf =
            self.shm.resolve(offset).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        let result = self
            .shm
            .with_bytes(&buf, |bytes| {
                let len = len.min(bytes.len());
                self.gpu.memcpy_htod_async(stream, ptr, &bytes[..len])
            })
            .map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        result.map_err(gpu_status)?;
        Ok(Bytes::new())
    }

    fn cu_launch_kernel_async(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let stream = d.get_u32().map_err(|_| Status::Malformed)?;
        let name = d.get_str().map_err(|_| Status::Malformed)?.to_owned();
        let items = d.get_u64().map_err(|_| Status::Malformed)?;
        let args = Self::decode_args(&mut d)?;
        self.gpu.launch_kernel_async(stream, &name, items, &args).map_err(gpu_status)?;
        Ok(Bytes::new())
    }

    fn cu_memcpy_dtoh_async_shm(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let stream = d.get_u32().map_err(|_| Status::Malformed)?;
        let ptr = DevicePtr(d.get_u64().map_err(|_| Status::Malformed)?);
        let offset = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let len = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let data = self.gpu.memcpy_dtoh_async(stream, ptr, len).map_err(gpu_status)?;
        let buf =
            self.shm.resolve(offset).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        self.shm.write(&buf, 0, &data).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        Ok(Bytes::new())
    }

    fn cu_stream_synchronize(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let stream = d.get_u32().map_err(|_| Status::Malformed)?;
        self.gpu.stream_synchronize(stream).map_err(gpu_status)?;
        Ok(Bytes::new())
    }

    fn cu_launch_kernel(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let name = d.get_str().map_err(|_| Status::Malformed)?;
        let items = d.get_u64().map_err(|_| Status::Malformed)?;
        let args = Self::decode_args(&mut d)?;
        self.gpu.launch_kernel(name, items, &args).map_err(gpu_status)?;
        Ok(Bytes::new())
    }

    fn nvml_get_utilization(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let window_us = d.get_u64().map_err(|_| Status::Malformed)?;
        let util = self.gpu.utilization_over(lake_sim::Duration::from_micros(window_us));
        let mut e = Encoder::new();
        e.put_f64(util * 100.0);
        Ok(e.finish())
    }

    // -- high-level APIs (§4.4) -------------------------------------------

    /// Decodes a model blob, once: the result is validated here and then
    /// handed to the store, which neither re-validates nor re-decodes it.
    fn decode_model(&self, blob: &[u8]) -> Result<LoadedModel, Status> {
        self.store.decode(blob).ok_or(Status::VendorError(code::ML_BAD_MODEL))
    }

    /// Puts a freshly installed version of model `id` on the devices:
    /// `weight_bytes` of weights uploaded once per pool device — the
    /// recurring inference calls then only move features/results, the way
    /// the paper keeps models "in memory ... critical to performance"
    /// (§5.1); replication is what lets the scheduler place a batch on any
    /// device — plus the per-model kernel. The version it replaces gives
    /// its device memory back. Returns the primary device's weight
    /// pointer.
    fn place_on_devices(
        &self,
        id: u64,
        weight_bytes: usize,
        kernel_base: &str,
        flops_per_item: f64,
    ) -> Result<DevicePtr, Status> {
        let bytes = weight_bytes.max(4);
        let mut weights = Vec::with_capacity(self.pool.len());
        for idx in 0..self.pool.len() {
            let dev = self.pool.device(idx);
            // Inference reads weights through the store pin, never from
            // the device buffer, so the upload is charged, not copied.
            let uploaded = dev.mem_alloc(bytes).and_then(|ptr| {
                weights.push(ptr);
                dev.charge_htod(ptr, bytes)
            });
            if let Err(e) = uploaded {
                self.free_weights(&weights);
                return Err(gpu_status(e));
            }
        }
        let primary = weights[0];
        let kernel = self.register_model_kernel(id, kernel_base, flops_per_item);
        let replaced = self.on_device.lock().insert(id, DeviceModel { weights, kernel });
        if let Some(old) = replaced {
            self.free_weights(&old.weights);
        }
        Ok(primary)
    }

    fn free_weights(&self, weights: &[DevicePtr]) {
        for (idx, &ptr) in weights.iter().enumerate() {
            let _ = self.pool.device(idx).mem_free(ptr);
        }
    }

    /// Takes model `id` off the devices: weights freed, kernels dropped.
    fn evict_from_devices(&self, id: u64, model: DeviceModel) {
        self.free_weights(&model.weights);
        self.pool.unregister_kernel(&model.kernel);
        self.gpu.unregister_kernel(&format!("hl_train_{id}"));
    }

    fn ml_load_model(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let blob = d.get_bytes().map_err(|_| Status::Malformed)?;
        let model = self.decode_model(blob)?;
        let (weight_bytes, kernel_base, flops_per_item) = model.device_footprint(blob.len());

        let id = self.next_model_id.fetch_add(1, Ordering::Relaxed);
        // A fresh load is version 1; trains and hot-swaps move it forward.
        self.store.install_decoded(id, 1, Arc::new(blob.to_vec()), model).map_err(store_status)?;
        let primary_weights =
            self.place_on_devices(id, weight_bytes, kernel_base, flops_per_item)?;

        let mut e = Encoder::new();
        e.put_u64(id);
        e.put_u64(primary_weights.0);
        Ok(e.finish())
    }

    /// Registers the per-model device kernel that actually executes the
    /// model math over a device input buffer, on every pool device.
    /// Returns the kernel's name.
    fn register_model_kernel(&self, id: u64, base: &str, flops_per_item: f64) -> String {
        let store = self.store.clone();
        let engine = Arc::clone(&self.engine);
        let name = format!("{base}_{id}");
        self.pool.register_kernel(&name, flops_per_item, move |ctx, args| {
            let input = args[0]
                .as_ptr()
                .ok_or_else(|| GpuError::KernelFault("arg0 must be the input buffer".to_owned()))?;
            let output = args[1].as_ptr().ok_or_else(|| {
                GpuError::KernelFault("arg1 must be the output buffer".to_owned())
            })?;
            let rows = args[2]
                .as_u64()
                .ok_or_else(|| GpuError::KernelFault("arg2 must be the row count".to_owned()))?
                as usize;
            let cols = args[3]
                .as_u64()
                .ok_or_else(|| GpuError::KernelFault("arg3 must be the column count".to_owned()))?
                as usize;

            // LSTM sequence shape rides in arg4; other models ignore it.
            let steps = args[4]
                .as_u64()
                .ok_or_else(|| GpuError::KernelFault("arg4 must be the step count".to_owned()))?
                as usize;

            let data = ctx.read_f32(input)?;
            // The pin keeps this version's page alive for the kernel's
            // duration; a cold acquire faults the weights in, charging
            // the NVMe reload before the launch computes.
            let pin = store
                .acquire(id)
                .map_err(|_| GpuError::KernelFault("model unloaded".to_owned()))?;
            let classes =
                pin.classify_host(&engine, id, pin.version(), rows, cols, steps, &data)?;
            ctx.write_f32(output, &classes)
        });
        name
    }

    fn ml_unload_model(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().map_err(|_| Status::Malformed)?;
        if self.store.version_of(id).is_none() {
            return Err(Status::VendorError(code::ML_UNKNOWN_MODEL));
        }
        // A pinned resident is retired (page freed on the last unpin);
        // an unpinned one is freed immediately. Either way the release
        // hook drops its packed copy with the page.
        self.store.remove(id);
        let on_device = self.on_device.lock().remove(&id);
        if let Some(model) = on_device {
            self.evict_from_devices(id, model);
        }
        Ok(Bytes::new())
    }

    /// Common body for the three high-level inference calls.
    fn ml_infer(&self, payload: &[u8], kind: ModelKind) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().map_err(|_| Status::Malformed)?;
        let rows = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let cols = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let steps = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let shm_offset = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        if rows == 0 || cols == 0 {
            return Err(Status::VendorError(code::ML_BAD_SHAPE));
        }

        // Pin the model for the whole call: the weights cannot be evicted
        // mid-inference no matter what the budget does.
        let model = self.model(id)?;
        // Quantized models answer the same infer APIs as their f32
        // family: tfInfer against a QuantMlp id runs the int8 path.
        let kind_matches = matches!(
            (&*model, kind),
            (LoadedModel::Mlp(_), ModelKind::Mlp)
                | (LoadedModel::Lstm(_), ModelKind::Lstm)
                | (LoadedModel::Knn(_), ModelKind::Knn)
                | (LoadedModel::QuantMlp(_), ModelKind::Mlp)
                | (LoadedModel::QuantLstm(_), ModelKind::Lstm)
        );
        if !kind_matches {
            return Err(Status::VendorError(code::ML_BAD_SHAPE));
        }
        let (kernel_base, items, flops_per_item) = model.launch_shape(rows, cols, steps)?;

        // Features arrive through lakeShm (zero-copy into the transfer).
        let shm_buf =
            self.shm.resolve(shm_offset).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        let in_bytes = rows * cols * 4;

        // Utilization-aware placement across the pool: least-loaded
        // device, or CPU when everything is contended (Fig 13).
        let flops = flops_per_item * items as f64;
        let classes: Vec<u64> = match self.pool.place(rows) {
            Placement::Device(device_idx) => {
                match self.infer_on_device(
                    device_idx,
                    id,
                    kernel_base,
                    items,
                    (rows, cols, steps),
                    &shm_buf,
                    in_bytes,
                ) {
                    Ok(classes) => classes,
                    Err(InferFailure::Fatal(status)) => return Err(status),
                    Err(InferFailure::Device) => {
                        // Device-failure recovery: charge the fault to the
                        // device (a streak evicts it from rotation) and
                        // re-run host-side so the request is never lost.
                        self.pool.note_device_fault(device_idx);
                        let classes = self.classify_on_cpu(
                            &model,
                            id,
                            (rows, cols, steps),
                            &shm_buf,
                            in_bytes,
                            flops,
                        )?;
                        self.pool.note_recovered(rows);
                        classes
                    }
                }
            }
            Placement::CpuFallback => {
                let classes = self.classify_on_cpu(
                    &model,
                    id,
                    (rows, cols, steps),
                    &shm_buf,
                    in_bytes,
                    flops,
                )?;
                self.pool.note_fallback(rows);
                classes
            }
        };

        let mut e = Encoder::new();
        e.put_u64_slice(&classes);
        Ok(e.finish())
    }

    /// One attempt at running a synchronous inference on `device_idx`.
    /// GPU-op failures come back as [`InferFailure::Device`] so the caller
    /// can recover host-side; caller errors (bad handle, bad shape) are
    /// [`InferFailure::Fatal`].
    #[allow(clippy::too_many_arguments)]
    fn infer_on_device(
        &self,
        device_idx: usize,
        id: u64,
        kernel_base: &str,
        items: u64,
        (rows, cols, steps): (usize, usize, usize),
        shm_buf: &ShmBuffer,
        in_bytes: usize,
    ) -> Result<Vec<u64>, InferFailure> {
        let gpu = self.pool.device(device_idx);
        let input = gpu.mem_alloc(in_bytes).map_err(|_| InferFailure::Device)?;
        let upload = self
            .shm
            .with_bytes(shm_buf, |bytes| {
                if bytes.len() < in_bytes {
                    return Err(InferFailure::Fatal(Status::VendorError(code::ML_BAD_SHAPE)));
                }
                gpu.memcpy_htod(input, &bytes[..in_bytes]).map_err(|_| InferFailure::Device)
            })
            .unwrap_or(Err(InferFailure::Fatal(Status::VendorError(code::SHM_BAD_HANDLE))));
        if let Err(failure) = upload {
            let _ = gpu.mem_free(input);
            return Err(failure);
        }

        let output = match gpu.mem_alloc(rows * 4) {
            Ok(p) => p,
            Err(_) => {
                let _ = gpu.mem_free(input);
                return Err(InferFailure::Device);
            }
        };
        let kernel = format!("{kernel_base}_{id}");
        let launch = gpu.launch_kernel(
            &kernel,
            items,
            &[
                KernelArg::Ptr(input),
                KernelArg::Ptr(output),
                KernelArg::U64(rows as u64),
                KernelArg::U64(cols as u64),
                KernelArg::U64(steps as u64),
            ],
        );
        let result = launch.and_then(|()| gpu.memcpy_dtoh(output, rows * 4));
        let _ = gpu.mem_free(input);
        let _ = gpu.mem_free(output);
        let raw = result.map_err(|_| InferFailure::Device)?;
        self.pool.note_dispatch(device_idx, rows);

        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")) as u64)
            .collect())
    }

    /// Runs the same inference host-side — the shared body behind both the
    /// deliberate CPU fallback (backpressure) and device-failure recovery —
    /// charging the CPU cost model for the sequential pass.
    fn classify_on_cpu(
        &self,
        model: &ModelPin<LoadedModel>,
        id: u64,
        (rows, cols, steps): (usize, usize, usize),
        shm_buf: &ShmBuffer,
        in_bytes: usize,
        flops: f64,
    ) -> Result<Vec<u64>, Status> {
        let feats: Vec<f32> = self
            .shm
            .with_bytes(shm_buf, |bytes| {
                if bytes.len() < in_bytes {
                    return Err(Status::VendorError(code::ML_BAD_SHAPE));
                }
                Ok(bytes[..in_bytes]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect())
            })
            .map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))??;
        let classes = model
            .classify_host(&self.engine, id, model.version(), rows, cols, steps, &feats)
            .map_err(gpu_status)?;
        self.pool.clock().advance(self.cpu.time_for_flops(flops));
        Ok(classes.into_iter().map(|c| c as u64).collect())
    }

    // -- cross-subsystem batched inference (the lake-sched path) ----------

    /// Executes one dispatched batch: places it on the least-loaded
    /// device (riding that device's dedicated stream, so batches on
    /// different devices overlap in virtual time) or runs it host-side
    /// under backpressure, then files one result per ticket.
    fn execute_batch(&self, sched: &mut SchedState, batch: Batch) -> Result<(), Status> {
        let rows = batch.rows();
        let model = self.model(batch.model)?;
        let version = model.version();
        let (kernel_base, items, flops_per_item) =
            model.launch_shape(rows, batch.cols, batch.steps)?;
        let feats = batch.features();

        let (classes, sync) = match self.pool.place(rows) {
            Placement::Device(device_idx) => {
                match self.batch_on_device(device_idx, &batch, kernel_base, items, feats) {
                    Ok(classes) => (classes, Some((device_idx, self.pool.stream(device_idx)))),
                    Err(_) => {
                        // Device-failure recovery: the batch's features are
                        // already host-side, so re-run there — every ticket
                        // still gets its result.
                        self.pool.note_device_fault(device_idx);
                        let classes = model
                            .classify_host(
                                &self.engine,
                                batch.model,
                                version,
                                rows,
                                batch.cols,
                                batch.steps,
                                feats,
                            )
                            .map_err(gpu_status)?;
                        self.pool
                            .clock()
                            .advance(self.cpu.time_for_flops(flops_per_item * items as f64));
                        self.pool.note_recovered(rows);
                        (classes.into_iter().map(|c| c as u64).collect(), None)
                    }
                }
            }
            Placement::CpuFallback => {
                let classes = model
                    .classify_host(
                        &self.engine,
                        batch.model,
                        version,
                        rows,
                        batch.cols,
                        batch.steps,
                        feats,
                    )
                    .map_err(gpu_status)?;
                self.pool.clock().advance(self.cpu.time_for_flops(flops_per_item * items as f64));
                self.pool.note_fallback(rows);
                (classes.into_iter().map(|c| c as u64).collect(), None)
            }
        };

        for (req, class) in batch.requests.iter().zip(classes) {
            sched.ready.insert(req.ticket, ReadyEntry { class, sync });
            // The submit-time pin has done its job: the row executed, so
            // the weights may be evicted again.
            sched.pins.remove(&req.ticket);
        }
        Ok(())
    }

    /// One attempt at running a dispatched batch on `device_idx`'s
    /// dedicated stream. Any GPU-op failure comes back whole so the caller
    /// can recover on the CPU.
    fn batch_on_device(
        &self,
        device_idx: usize,
        batch: &Batch,
        kernel_base: &str,
        items: u64,
        feats: &[f32],
    ) -> Result<Vec<u64>, GpuError> {
        let rows = batch.rows();
        let gpu = self.pool.device(device_idx);
        let stream = self.pool.stream(device_idx);
        let in_bytes = rows * batch.cols * 4;
        let mut raw_in = Vec::with_capacity(in_bytes);
        for &x in feats {
            raw_in.extend_from_slice(&x.to_le_bytes());
        }
        let input = gpu.mem_alloc(in_bytes)?;
        let output = match gpu.mem_alloc(rows * 4) {
            Ok(p) => p,
            Err(e) => {
                let _ = gpu.mem_free(input);
                return Err(e);
            }
        };
        let kernel = format!("{kernel_base}_{}", batch.model);
        let run = gpu
            .memcpy_htod_async(stream, input, &raw_in)
            .and_then(|()| {
                gpu.launch_kernel_async(
                    stream,
                    &kernel,
                    items,
                    &[
                        KernelArg::Ptr(input),
                        KernelArg::Ptr(output),
                        KernelArg::U64(rows as u64),
                        KernelArg::U64(batch.cols as u64),
                        KernelArg::U64(batch.steps as u64),
                    ],
                )
            })
            .and_then(|()| gpu.memcpy_dtoh_async(stream, output, rows * 4));
        let _ = gpu.mem_free(input);
        let _ = gpu.mem_free(output);
        let raw = run?;
        self.pool.note_dispatch(device_idx, rows);
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")) as u64)
            .collect())
    }

    /// `tfInferSubmit`: enqueue one row with the batcher; dispatches the
    /// queue if this submission filled it (or another queue came due).
    fn ml_infer_submit(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().map_err(|_| Status::Malformed)?;
        let client = d.get_u64().map_err(|_| Status::Malformed)?;
        let cols = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let steps = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let shm_offset = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        if cols == 0 {
            return Err(Status::VendorError(code::ML_BAD_SHAPE));
        }
        // Validate the model id and row shape up front, so a bad submit
        // fails here instead of poisoning a whole batch later.
        let model = self.model(id)?;
        model.launch_shape(1, cols, steps)?;

        let shm_buf =
            self.shm.resolve(shm_offset).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        let in_bytes = cols * 4;
        let feats: Vec<f32> = self
            .shm
            .with_bytes(&shm_buf, |bytes| {
                if bytes.len() < in_bytes {
                    return Err(Status::VendorError(code::ML_BAD_SHAPE));
                }
                Ok(bytes[..in_bytes]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect())
            })
            .map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))??;

        let now = self.pool.clock().now();
        let mut sched = self.sched.lock();
        let (ticket, full) = sched.batcher.submit(client, id, cols, steps, &feats, now);
        sched.issued = ticket;
        // Hold the submit-time pin until the ticket's batch executes: a
        // queued row can never have its weights evicted out from under it.
        sched.pins.insert(ticket, model);
        if let Some(batch) = full {
            self.execute_batch(&mut sched, batch)?;
        }
        let due = sched.batcher.poll_due(now);
        for batch in due {
            self.execute_batch(&mut sched, batch)?;
        }

        let mut e = Encoder::new();
        e.put_u64(ticket);
        Ok(e.finish())
    }

    /// `tfInferPoll`: retrieve a batched result. Dispatches overdue
    /// queues first, and synchronizes the batch's stream on pickup so
    /// the caller's clock includes the batch latency.
    fn ml_infer_poll(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let ticket = d.get_u64().map_err(|_| Status::Malformed)?;

        let now = self.pool.clock().now();
        let mut sched = self.sched.lock();
        let due = sched.batcher.poll_due(now);
        for batch in due {
            self.execute_batch(&mut sched, batch)?;
        }

        let mut e = Encoder::new();
        if let Some(entry) = sched.ready.remove(&ticket) {
            sched.consumed.insert(ticket);
            if let Some((device_idx, stream)) = entry.sync {
                self.pool.device(device_idx).stream_synchronize(stream).map_err(gpu_status)?;
            }
            e.put_u8(1).put_u64(entry.class);
        } else if sched.lost.remove(&ticket) {
            sched.consumed.insert(ticket);
            self.tickets_lost.fetch_add(1, Ordering::Relaxed);
            return Err(Status::VendorError(code::SCHED_TICKET_LOST));
        } else if ticket == 0 || ticket > sched.issued || sched.consumed.contains(&ticket) {
            return Err(Status::VendorError(code::SCHED_BAD_TICKET));
        } else {
            e.put_u8(0);
        }
        Ok(e.finish())
    }

    // -- supervised lifecycle (crash recovery) -----------------------------

    /// Models the death of the daemon process: every in-memory model and
    /// every queued/unpicked batched-inference row dies with the old
    /// incarnation. Ticket bookkeeping (`issued`/`consumed`) is kept —
    /// conceptually it lives kernel-side — so polling a lost ticket fails
    /// typed ([`code::SCHED_TICKET_LOST`]) instead of hanging, and fresh
    /// tickets stay monotonic across incarnations.
    pub fn crash_reset(&self, _new_epoch: u64) {
        // Wipe the model store first: the serial bump turns every
        // outstanding pin of the dead incarnation into a no-op, so
        // dropping the queued tickets' pins below cannot double-free
        // pages the reset already swept.
        self.store.crash_reset();
        // The packed weight caches died with the incarnation's models,
        // and the driver released the dead process's device memory.
        self.engine.clear_cache();
        let on_device: Vec<_> = self.on_device.lock().drain().collect();
        for (id, model) in on_device {
            self.evict_from_devices(id, model);
        }
        let mut sched = self.sched.lock();
        for batch in sched.batcher.flush_all() {
            for req in &batch.requests {
                sched.lost.insert(req.ticket);
            }
        }
        let unpicked: Vec<u64> = sched.ready.keys().copied().collect();
        sched.lost.extend(unpicked);
        sched.ready.clear();
        sched.pins.clear();
    }

    /// Replays one shadow-table model into a fresh incarnation **under
    /// its original id and version**, re-uploading weights to every pool
    /// device and re-registering the per-model kernel. In-flight retries
    /// that reference the id stay valid across the restart, and a
    /// crash-interrupted hot-swap replays exactly the version the shadow
    /// table last recorded — never half of each.
    ///
    /// The store keeps `blob` itself, so the caller's copy (the kernel
    /// shadow's) and the daemon's are one allocation.
    ///
    /// # Errors
    ///
    /// Returns the same statuses as `ml_load_model` for undecodable
    /// blobs, version regressions, or device upload failures.
    pub fn restore_model(&self, id: u64, version: u64, blob: Arc<Vec<u8>>) -> Result<(), Status> {
        let model = self.decode_model(&blob)?;
        let (weight_bytes, kernel_base, flops_per_item) = model.device_footprint(blob.len());
        self.store.install_decoded(id, version, blob, model).map_err(store_status)?;
        self.next_model_id.fetch_max(id + 1, Ordering::Relaxed);
        self.place_on_devices(id, weight_bytes, kernel_base, flops_per_item)?;
        Ok(())
    }

    /// `tfSwapModel`: versioned hot-swap. Pending batches are drained
    /// onto the old weights first (no queued ticket straddles the version
    /// boundary), then the blob installs as `v+1`: new requests see the
    /// new version immediately while in-flight pins finish on the old
    /// page. The daemon assigns the version, so a client retrying a swap
    /// whose response died with a crash lands a fresh `v+1` instead of
    /// double-installing.
    fn ml_swap_model(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().map_err(|_| Status::Malformed)?;
        let blob = d.get_bytes().map_err(|_| Status::Malformed)?;
        // Validate the blob before touching any queue or store state.
        let model = self.decode_model(blob)?;
        let (weight_bytes, kernel_base, flops_per_item) = model.device_footprint(blob.len());
        let current =
            self.store.version_of(id).ok_or(Status::VendorError(code::ML_UNKNOWN_MODEL))?;

        // Barrier-flush under the sched lock: every queued row executes
        // on the version it was submitted against.
        let mut sched = self.sched.lock();
        let batches = sched.batcher.flush_all();
        for batch in batches {
            self.execute_batch(&mut sched, batch)?;
        }
        let version = current + 1;
        let blob = Arc::new(blob.to_vec());
        self.store.install_decoded(id, version, blob, model).map_err(store_status)?;
        drop(sched);

        self.place_on_devices(id, weight_bytes, kernel_base, flops_per_item)?;

        let mut e = Encoder::new();
        e.put_u64(version);
        Ok(e.finish())
    }

    /// `tfInferFlush`: force-dispatch every pending queue.
    fn ml_infer_flush(&self, _payload: &[u8]) -> Result<Bytes, Status> {
        let mut sched = self.sched.lock();
        let batches = sched.batcher.flush_all();
        let n = batches.len() as u64;
        for batch in batches {
            self.execute_batch(&mut sched, batch)?;
        }
        let mut e = Encoder::new();
        e.put_u64(n);
        Ok(e.finish())
    }
}

impl LakeDaemon {
    /// `tfTrain`: daemon-side SGD over an uploaded labeled batch. Weights
    /// are updated in place (subsequent inference uses them); time is
    /// charged to the device as a training launch (forward + backward ≈
    /// 3× the inference FLOPs per sample per epoch).
    fn ml_train_mlp(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().map_err(|_| Status::Malformed)?;
        let rows = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let cols = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let epochs = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        let lr = d.get_f32().map_err(|_| Status::Malformed)?;
        let labels: Vec<usize> = d
            .get_u64_slice()
            .map_err(|_| Status::Malformed)?
            .into_iter()
            .map(|l| l as usize)
            .collect();
        let shm_offset = d.get_u64().map_err(|_| Status::Malformed)? as usize;
        if rows == 0 || cols == 0 || epochs == 0 || labels.len() != rows {
            return Err(Status::VendorError(code::ML_BAD_SHAPE));
        }

        let (model, old_version) = {
            let pin = self.model(id)?;
            match &*pin {
                LoadedModel::Mlp(m) => (Mlp::clone(m), pin.version()),
                _ => return Err(Status::VendorError(code::ML_BAD_SHAPE)),
            }
        };
        if model.layer_sizes()[0] != cols {
            return Err(Status::VendorError(code::ML_BAD_SHAPE));
        }
        if labels.iter().any(|&l| l >= *model.layer_sizes().last().expect("output layer")) {
            return Err(Status::VendorError(code::ML_BAD_SHAPE));
        }

        // Features arrive through lakeShm.
        let shm_buf =
            self.shm.resolve(shm_offset).map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))?;
        let in_bytes = rows * cols * 4;
        let feats: Vec<f32> = self
            .shm
            .with_bytes(&shm_buf, |bytes| {
                if bytes.len() < in_bytes {
                    return Err(Status::VendorError(code::ML_BAD_SHAPE));
                }
                Ok(bytes[..in_bytes]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect())
            })
            .map_err(|_| Status::VendorError(code::SHM_BAD_HANDLE))??;

        // Real SGD daemon-side.
        let mut model = model;
        let x = Matrix::from_vec(rows, cols, feats);
        let cfg = lake_ml::SgdConfig { learning_rate: lr, weight_decay: 0.0 };
        let mut loss = 0.0;
        for _ in 0..epochs {
            loss = model.train_batch(&x, &labels, &cfg);
        }

        // Charge the training launch to the device: fwd+bwd ≈ 3× the
        // inference FLOPs per sample, per epoch.
        let train_flops = 3.0 * model.flops_per_input() * (rows * epochs) as f64;
        let kernel = format!("hl_train_{id}");
        self.gpu.register_kernel(&kernel, 1.0, |_, _| Ok(()));
        self.gpu.launch_kernel(&kernel, train_flops as u64, &[]).map_err(gpu_status)?;

        let flops = model.flops_per_input();
        // The updated weights install as the next version — a hot-swap in
        // place, so any still-pinned old-version page finishes its
        // in-flight work before being freed.
        let new_version = old_version + 1;
        let new_blob = Arc::new(serialize::encode_mlp(&model));
        let decoded = self.decode_model(&new_blob)?;
        self.store
            .install_decoded(id, new_version, Arc::clone(&new_blob), decoded)
            .map_err(store_status)?;
        // Refresh the inference kernel so its FLOPs stay accurate.
        self.register_model_kernel(id, "hl_mlp", flops);

        // Loss first (older decoders stop there), then the version and
        // blob so the kernel side can refresh its shadow table — the
        // supervisor must replay *these* weights after a crash.
        let mut e = Encoder::new();
        e.put_f32(loss);
        e.put_u64(new_version);
        e.put_bytes(&new_blob);
        Ok(e.finish())
    }

    /// `tfExportModel`: serialize the (possibly retrained) model back to
    /// a blob the kernel can persist via the feature registry.
    fn ml_export_model(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().map_err(|_| Status::Malformed)?;
        // The store keeps the canonical blob of the current version —
        // exports are byte-exact without re-encoding, and never fault a
        // non-resident model's page in.
        let blob = self.store.blob_of(id).ok_or(Status::VendorError(code::ML_UNKNOWN_MODEL))?;
        let mut e = Encoder::new();
        e.put_bytes(&blob);
        Ok(e.finish())
    }

    /// `tfQuantizeModel`: quantize a resident f32 MLP/LSTM to int8 and
    /// install the result under a **fresh model id** in the quantized
    /// format family. The f32 original stays loaded untouched — it is the
    /// correctness oracle the quantized model's accuracy delta is gated
    /// against. Responds with the new id, its version (1), and the
    /// encoded blob so the client can shadow-register it for crash
    /// replay.
    fn ml_quantize_model(&self, payload: &[u8]) -> Result<Bytes, Status> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().map_err(|_| Status::Malformed)?;
        let qblob = {
            let pin = self.model(id)?;
            match &*pin {
                LoadedModel::Mlp(m) => serialize::encode_quant_mlp(&QuantizedMlp::quantize(m)),
                LoadedModel::Lstm(m) => serialize::encode_quant_lstm(&QuantizedLstm::quantize(m)),
                // Already-quantized and k-NN models have nothing to
                // quantize.
                _ => return Err(Status::VendorError(code::ML_BAD_SHAPE)),
            }
        };
        let model = self.decode_model(&qblob)?;
        let (weight_bytes, kernel_base, flops_per_item) = model.device_footprint(qblob.len());

        let new_id = self.next_model_id.fetch_add(1, Ordering::Relaxed);
        let qblob = Arc::new(qblob);
        self.store.install_decoded(new_id, 1, Arc::clone(&qblob), model).map_err(store_status)?;
        self.place_on_devices(new_id, weight_bytes, kernel_base, flops_per_item)?;

        let mut e = Encoder::new();
        e.put_u64(new_id);
        e.put_u64(1);
        e.put_bytes(&qblob);
        Ok(e.finish())
    }
}

impl ApiHandler for LakeDaemon {
    fn handle(&self, api: ApiId, payload: &[u8]) -> Result<Bytes, Status> {
        self.maybe_stall();
        match api {
            api::CU_MEM_ALLOC => self.cu_mem_alloc(payload),
            api::CU_MEM_FREE => self.cu_mem_free(payload),
            api::CU_MEMCPY_HTOD => self.cu_memcpy_htod(payload),
            api::CU_MEMCPY_HTOD_SHM => self.cu_memcpy_htod_shm(payload),
            api::CU_MEMCPY_DTOH => self.cu_memcpy_dtoh(payload),
            api::CU_MEMCPY_DTOH_SHM => self.cu_memcpy_dtoh_shm(payload),
            api::CU_LAUNCH_KERNEL => self.cu_launch_kernel(payload),
            api::CU_STREAM_CREATE => self.cu_stream_create(payload),
            api::CU_STREAM_DESTROY => self.cu_stream_destroy(payload),
            api::CU_MEMCPY_HTOD_ASYNC_SHM => self.cu_memcpy_htod_async_shm(payload),
            api::CU_LAUNCH_KERNEL_ASYNC => self.cu_launch_kernel_async(payload),
            api::CU_MEMCPY_DTOH_ASYNC_SHM => self.cu_memcpy_dtoh_async_shm(payload),
            api::CU_STREAM_SYNCHRONIZE => self.cu_stream_synchronize(payload),
            api::NVML_GET_UTILIZATION => self.nvml_get_utilization(payload),
            api::ML_LOAD_MODEL => self.ml_load_model(payload),
            api::ML_UNLOAD_MODEL => self.ml_unload_model(payload),
            api::ML_INFER_MLP => self.ml_infer(payload, ModelKind::Mlp),
            api::ML_INFER_LSTM => self.ml_infer(payload, ModelKind::Lstm),
            api::ML_INFER_KNN => self.ml_infer(payload, ModelKind::Knn),
            api::ML_TRAIN_MLP => self.ml_train_mlp(payload),
            api::ML_EXPORT_MODEL => self.ml_export_model(payload),
            api::ML_INFER_SUBMIT => self.ml_infer_submit(payload),
            api::ML_INFER_POLL => self.ml_infer_poll(payload),
            api::ML_INFER_FLUSH => self.ml_infer_flush(payload),
            api::ML_SWAP_MODEL => self.ml_swap_model(payload),
            api::ML_QUANTIZE_MODEL => self.ml_quantize_model(payload),
            _ => Err(Status::UnknownApi),
        }
    }

    fn classify(&self, api: ApiId, payload: &[u8]) -> lake_rpc::CommandClass {
        api::command_class(api, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_gpu::GpuSpec;
    use lake_ml::{Activation, PackedMlp};
    use lake_sim::SharedClock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn call(daemon: &LakeDaemon, api: ApiId, payload: Bytes) -> Vec<u8> {
        daemon.handle(api, &payload).expect("daemon call").to_vec()
    }

    /// A read pinned to v1 that packs after the swap to v2 must not leave
    /// its pack behind: the last unpin frees v1's page, and the store's
    /// release hook drops `(id, 1)` with it.
    #[test]
    fn a_retired_versions_pack_leaves_with_its_last_pin() {
        let gpu = GpuDevice::new(GpuSpec::a100(), SharedClock::new());
        let daemon = LakeDaemon::new(gpu, ShmRegion::with_capacity(1 << 20));
        let v1 = Mlp::new(&[6, 32, 3], Activation::Relu, &mut StdRng::seed_from_u64(1));
        let v2 = Mlp::new(&[6, 32, 3], Activation::Relu, &mut StdRng::seed_from_u64(2));
        let x = Matrix::from_vec(8, 6, (0..48).map(|i| (i % 7) as f32 / 7.0 - 0.4).collect());
        let classify = |pin: &ModelPin<LoadedModel>| -> Vec<f32> {
            pin.classify_host(&daemon.engine, pin.id(), pin.version(), 8, 6, 0, x.data()).unwrap()
        };
        let want = |m: &Mlp| -> Vec<f32> { m.classify(&x).into_iter().map(|c| c as f32).collect() };

        let mut e = Encoder::new();
        e.put_bytes(&serialize::encode_mlp(&v1));
        let id = Decoder::new(&call(&daemon, api::ML_LOAD_MODEL, e.finish())).get_u64().unwrap();

        // The read starts: pinned to v1, not yet packed.
        let read = daemon.model(id).unwrap();
        assert_eq!(read.version(), 1);

        let mut e = Encoder::new();
        e.put_u64(id).put_bytes(&serialize::encode_mlp(&v2));
        let swapped = Decoder::new(&call(&daemon, api::ML_SWAP_MODEL, e.finish())).get_u64();
        assert_eq!(swapped.unwrap(), 2);
        let on_v2 = daemon.model(id).unwrap();
        assert_eq!(classify(&on_v2), want(&v2));
        drop(on_v2);

        // The read finishes on v1 and packs it after the swap.
        assert_eq!(classify(&read), want(&v1));
        let both = PackedMlp::pack(&v1).bytes() + PackedMlp::pack(&v2).bytes();
        assert_eq!(daemon.gemm_stats().packed_bytes, both, "v1 packed while pinned");
        drop(read);
        assert_eq!(
            daemon.gemm_stats().packed_bytes,
            PackedMlp::pack(&v2).bytes(),
            "the last unpin of v1 dropped its pack"
        );

        // Unloading drops the current version's pack too.
        let mut e = Encoder::new();
        e.put_u64(id);
        call(&daemon, api::ML_UNLOAD_MODEL, e.finish());
        assert_eq!(daemon.gemm_stats().packed_bytes, 0);
    }
}
