//! The simulated device: memory, kernel registry, launches, and the busy
//! timeline that contention and utilization sampling are built on.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use lake_sim::{BurstSchedule, Duration, Instant, SharedClock};

use crate::spec::GpuSpec;

/// Injectable device-level fault schedules, used by the chaos tests to
/// model a GPU that intermittently fails (driver resets, ECC storms,
/// fragmentation-induced allocation failures).
///
/// Each schedule is evaluated against the virtual clock: while a burst
/// window is active, the corresponding operation class fails
/// deterministically. `None` (the default) injects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuFaultConfig {
    /// While active, every kernel launch fails with
    /// [`GpuError::KernelFault`].
    pub kernel_faults: Option<BurstSchedule>,
    /// While active, every allocation fails with
    /// [`GpuError::OutOfMemory`].
    pub oom: Option<BurstSchedule>,
}

/// A device memory address, as returned by `cuMemAlloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevicePtr(pub u64);

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// Errors from device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Device memory exhausted.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes free.
        free: usize,
    },
    /// The pointer does not name a live allocation.
    InvalidPtr(DevicePtr),
    /// Access past the end of an allocation.
    OutOfBounds {
        /// The allocation accessed.
        ptr: DevicePtr,
        /// Requested end offset.
        end: usize,
        /// Allocation size.
        size: usize,
    },
    /// No kernel registered under this name.
    UnknownKernel(String),
    /// The kernel body itself reported a failure.
    KernelFault(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory { requested, free } => {
                write!(f, "device out of memory: requested {requested}, free {free}")
            }
            GpuError::InvalidPtr(p) => write!(f, "invalid device pointer {p}"),
            GpuError::OutOfBounds { ptr, end, size } => {
                write!(f, "device access out of bounds: {ptr} end {end} > size {size}")
            }
            GpuError::UnknownKernel(name) => write!(f, "no kernel named {name:?}"),
            GpuError::KernelFault(msg) => write!(f, "kernel fault: {msg}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// An argument passed to a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// A device buffer.
    Ptr(DevicePtr),
    /// A scalar integer.
    U64(u64),
    /// A scalar float.
    F32(f32),
}

impl KernelArg {
    /// The pointer, if this argument is one.
    pub fn as_ptr(&self) -> Option<DevicePtr> {
        match self {
            KernelArg::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// The integer, if this argument is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            KernelArg::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The float, if this argument is one.
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            KernelArg::F32(v) => Some(*v),
            _ => None,
        }
    }
}

/// Whether launches actually execute kernel bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Run kernel bodies; results are real. The default.
    #[default]
    Full,
    /// Charge time only; bodies are skipped. Used by large parameter
    /// sweeps whose outputs are not consumed (documented per-experiment
    /// in EXPERIMENTS.md).
    TimingOnly,
}

/// View of device memory handed to an executing kernel body.
pub struct KernelCtx<'a> {
    mem: &'a mut Memory,
}

impl<'a> KernelCtx<'a> {
    /// Reads an entire allocation as raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPtr`] for stale pointers.
    pub fn read_bytes(&self, ptr: DevicePtr) -> Result<Vec<u8>, GpuError> {
        self.mem.read(ptr, 0, usize::MAX)
    }

    /// Reads an allocation as little-endian `f32`s.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPtr`] for stale pointers.
    pub fn read_f32(&self, ptr: DevicePtr) -> Result<Vec<f32>, GpuError> {
        let raw = self.read_bytes(ptr)?;
        Ok(raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Overwrites an allocation's prefix with raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if `data` exceeds the allocation.
    pub fn write_bytes(&mut self, ptr: DevicePtr, data: &[u8]) -> Result<(), GpuError> {
        self.mem.write(ptr, 0, data)
    }

    /// Overwrites an allocation's prefix with `f32`s.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if the values exceed the
    /// allocation.
    pub fn write_f32(&mut self, ptr: DevicePtr, data: &[f32]) -> Result<(), GpuError> {
        let mut raw = Vec::with_capacity(data.len() * 4);
        for &x in data {
            raw.extend_from_slice(&x.to_le_bytes());
        }
        self.write_bytes(ptr, &raw)
    }

    /// Size in bytes of an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPtr`] for stale pointers.
    pub fn size_of(&self, ptr: DevicePtr) -> Result<usize, GpuError> {
        self.mem.size_of(ptr)
    }
}

type KernelBody = dyn Fn(&mut KernelCtx<'_>, &[KernelArg]) -> Result<(), GpuError> + Send + Sync;

struct Kernel {
    /// FLOPs performed per work item, for the timing model.
    flops_per_item: f64,
    body: Arc<KernelBody>,
}

/// One device allocation. Its bytes exist only from the first write on,
/// and only up to the furthest byte written: an upload that is charged but
/// never copied (model weights, see [`GpuDevice::charge_htod`]) costs the
/// host nothing. Bytes never written read as zeros, as fresh device memory
/// does here.
struct Buffer {
    size: usize,
    bytes: Vec<u8>,
}

#[derive(Default)]
struct Memory {
    buffers: HashMap<u64, Buffer>,
    next_ptr: u64,
    used: usize,
}

impl Memory {
    fn read(&self, ptr: DevicePtr, offset: usize, len: usize) -> Result<Vec<u8>, GpuError> {
        let buf = self.buffers.get(&ptr.0).ok_or(GpuError::InvalidPtr(ptr))?;
        let len = len.min(buf.size.saturating_sub(offset));
        let end = offset + len;
        if end > buf.size {
            return Err(GpuError::OutOfBounds { ptr, end, size: buf.size });
        }
        let mut out = vec![0u8; len];
        if let Some(written) = buf.bytes.get(offset..end.min(buf.bytes.len())) {
            out[..written.len()].copy_from_slice(written);
        }
        Ok(out)
    }

    fn write(&mut self, ptr: DevicePtr, offset: usize, data: &[u8]) -> Result<(), GpuError> {
        let buf = self.buffers.get_mut(&ptr.0).ok_or(GpuError::InvalidPtr(ptr))?;
        let end = offset + data.len();
        if end > buf.size {
            return Err(GpuError::OutOfBounds { ptr, end, size: buf.size });
        }
        if buf.bytes.len() < end {
            buf.bytes.resize(end, 0);
        }
        buf.bytes[offset..end].copy_from_slice(data);
        Ok(())
    }

    fn size_of(&self, ptr: DevicePtr) -> Result<usize, GpuError> {
        self.buffers.get(&ptr.0).map(|b| b.size).ok_or(GpuError::InvalidPtr(ptr))
    }
}

/// Recent busy intervals of both engines, for NVML-style utilization
/// sampling.
///
/// Each engine's intervals are sorted and disjoint: an op starts no
/// earlier than the previous op on that engine ended. So the intervals a
/// trim drops (those ending before the horizon) are always a prefix of
/// their engine's deque, and a push costs amortised O(1).
#[derive(Default)]
struct BusyLog {
    compute: VecDeque<(Instant, Instant)>,
    dma: VecDeque<(Instant, Instant)>,
}

impl BusyLog {
    /// Total intervals past which a push trims the log.
    const TRIM_LEN: usize = 4096;
    /// A trim keeps intervals ending within this span of the newest end:
    /// a generous 4 s (policies sample over milliseconds).
    const HORIZON_NS: u64 = 4_000_000_000;

    fn push(&mut self, dma: bool, start: Instant, end: Instant) {
        let engine = if dma { &mut self.dma } else { &mut self.compute };
        engine.push_back((start, end));
        if self.compute.len() + self.dma.len() > Self::TRIM_LEN {
            let horizon = end.as_nanos().saturating_sub(Self::HORIZON_NS);
            for engine in [&mut self.compute, &mut self.dma] {
                while engine.front().is_some_and(|&(_, e)| e.as_nanos() < horizon) {
                    engine.pop_front();
                }
            }
        }
    }

    /// Busy fraction of `[now - window, now]`, capped at 1. Work queued
    /// beyond `now` is clipped, so it counts only up to `now`.
    fn utilization(&self, now: Instant, window: Duration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        let win_start = Instant::from_nanos(now.as_nanos().saturating_sub(window.as_nanos()));
        let busy: u64 = self
            .compute
            .iter()
            .chain(&self.dma)
            .map(|&(s, e)| {
                let (s, e) = (s.max(win_start), e.min(now));
                if e > s {
                    (e - s).as_nanos()
                } else {
                    0
                }
            })
            .sum();
        (busy as f64 / window.as_nanos().min(now.as_nanos()).max(1) as f64).min(1.0)
    }
}

struct State {
    mem: Memory,
    kernels: HashMap<String, Kernel>,
    /// Device timeline: when the single execution engine frees up.
    engine_free: Instant,
    /// Copy (DMA) engine timeline — transfers overlap with compute, the
    /// mechanism behind asynchronous data movement.
    dma_free: Instant,
    /// Per-stream completion cursors (stream 0 is the default stream).
    streams: HashMap<u32, Instant>,
    next_stream: u32,
    /// Recent busy intervals per engine; on each engine they are sorted
    /// and disjoint, which is what makes the trim a prefix pop.
    busy: BusyLog,
    /// When set, the single-`Vec` log `busy` replaced, fed the same
    /// intervals: the oracle the equivalence test compares `busy` against.
    #[cfg(test)]
    reference: Option<tests::ReferenceLog>,
    exec_mode: ExecMode,
    launches: u64,
    bytes_h2d: u64,
    bytes_d2h: u64,
    faults: GpuFaultConfig,
    injected_kernel_faults: u64,
    injected_oom: u64,
}

/// The simulated accelerator.
///
/// Thread-safe; clones of the wrapping [`Arc`] can be held by the daemon,
/// policies, and samplers simultaneously, the way a real driver context is
/// shared.
pub struct GpuDevice {
    spec: GpuSpec,
    clock: SharedClock,
    state: Mutex<State>,
}

impl fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("GpuDevice")
            .field("spec", &self.spec.name)
            .field("mem_used", &st.mem.used)
            .field("launches", &st.launches)
            .finish()
    }
}

impl GpuDevice {
    /// Creates a device with the given spec, charging time to `clock`.
    pub fn new(spec: GpuSpec, clock: SharedClock) -> Arc<Self> {
        Arc::new(GpuDevice {
            spec,
            clock,
            state: Mutex::new(State {
                mem: Memory::default(),
                kernels: HashMap::new(),
                engine_free: Instant::EPOCH,
                dma_free: Instant::EPOCH,
                streams: HashMap::new(),
                next_stream: 1,
                busy: BusyLog::default(),
                #[cfg(test)]
                reference: None,
                exec_mode: ExecMode::Full,
                launches: 0,
                bytes_h2d: 0,
                bytes_d2h: 0,
                faults: GpuFaultConfig::default(),
                injected_kernel_faults: 0,
                injected_oom: 0,
            }),
        })
    }

    /// Installs (or clears, with the default config) injectable fault
    /// schedules. Takes effect for subsequent operations.
    pub fn set_fault_config(&self, config: GpuFaultConfig) {
        self.state.lock().faults = config;
    }

    /// Counters: (injected kernel faults, injected allocation failures).
    pub fn injected_fault_stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.injected_kernel_faults, st.injected_oom)
    }

    /// The device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The clock this device charges.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Switches between full execution and timing-only sweeps.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        self.state.lock().exec_mode = mode;
    }

    /// Registers a named kernel with its per-item FLOPs cost.
    ///
    /// Replaces any previous kernel of the same name (mirrors reloading a
    /// module).
    pub fn register_kernel<F>(&self, name: &str, flops_per_item: f64, body: F)
    where
        F: Fn(&mut KernelCtx<'_>, &[KernelArg]) -> Result<(), GpuError> + Send + Sync + 'static,
    {
        self.state
            .lock()
            .kernels
            .insert(name.to_owned(), Kernel { flops_per_item, body: Arc::new(body) });
    }

    /// Drops a registered kernel (unloading its module); returns whether
    /// it was registered.
    pub fn unregister_kernel(&self, name: &str) -> bool {
        self.state.lock().kernels.remove(name).is_some()
    }

    /// `cuMemAlloc`: allocates `bytes` of device memory. The full size
    /// counts against the device's capacity at once; the host bytes that
    /// back it appear only as the allocation is written.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfMemory`] when capacity is exceeded.
    pub fn mem_alloc(&self, bytes: usize) -> Result<DevicePtr, GpuError> {
        let mut st = self.state.lock();
        if let Some(burst) = st.faults.oom {
            if burst.active_at(self.clock.now()) {
                st.injected_oom += 1;
                return Err(GpuError::OutOfMemory { requested: bytes, free: 0 });
            }
        }
        if st.mem.used + bytes > self.spec.memory_bytes {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                free: self.spec.memory_bytes - st.mem.used,
            });
        }
        st.mem.next_ptr += 1;
        let ptr = st.mem.next_ptr << 20; // sparse addresses, debug-friendly
        st.mem.buffers.insert(ptr, Buffer { size: bytes, bytes: Vec::new() });
        st.mem.used += bytes;
        Ok(DevicePtr(ptr))
    }

    /// `cuMemFree`: releases an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPtr`] for stale pointers.
    pub fn mem_free(&self, ptr: DevicePtr) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        let buf = st.mem.buffers.remove(&ptr.0).ok_or(GpuError::InvalidPtr(ptr))?;
        st.mem.used -= buf.size;
        Ok(())
    }

    /// Occupies the device engine for `service` starting no earlier than
    /// now, advances the caller's clock to completion, and logs the busy
    /// interval. Returns (start, end).
    fn occupy(&self, st: &mut State, service: Duration) -> (Instant, Instant) {
        let (start, end) = Self::occupy_engine(st, self.clock.now(), service, false);
        self.clock.advance_to(end);
        (start, end)
    }

    /// Places `service` on the compute (`dma = false`) or copy
    /// (`dma = true`) engine, starting no earlier than `floor`. Does not
    /// touch the caller's clock — async stream ops use this directly.
    fn occupy_engine(
        st: &mut State,
        floor: Instant,
        service: Duration,
        dma: bool,
    ) -> (Instant, Instant) {
        let free = if dma { st.dma_free } else { st.engine_free };
        let start = floor.max(free);
        let end = start + service;
        if dma {
            st.dma_free = end;
        } else {
            st.engine_free = end;
        }
        st.busy.push(dma, start, end);
        #[cfg(test)]
        if let Some(reference) = &mut st.reference {
            reference.push(start, end);
        }
        (start, end)
    }

    /// `cuMemcpyHtoD`: synchronous host→device copy.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if `data` exceeds the allocation,
    /// [`GpuError::InvalidPtr`] for stale pointers.
    pub fn memcpy_htod(&self, ptr: DevicePtr, data: &[u8]) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        st.mem.write(ptr, 0, data)?;
        st.bytes_h2d += data.len() as u64;
        let t = self.spec.transfer_time(data.len());
        self.occupy(&mut st, t);
        Ok(())
    }

    /// The timing half of [`GpuDevice::memcpy_htod`]: occupies the engine
    /// and counts the traffic for a `len`-byte host→device copy into `ptr`
    /// without moving any bytes — for uploads whose content the simulation
    /// never reads back (model weights are served host-side; the device
    /// copy is their footprint and transfer cost).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfBounds`] if `len` exceeds the allocation,
    /// [`GpuError::InvalidPtr`] for stale pointers.
    pub fn charge_htod(&self, ptr: DevicePtr, len: usize) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        let size = st.mem.size_of(ptr)?;
        if len > size {
            return Err(GpuError::OutOfBounds { ptr, end: len, size });
        }
        st.bytes_h2d += len as u64;
        let t = self.spec.transfer_time(len);
        self.occupy(&mut st, t);
        Ok(())
    }

    /// `cuMemcpyDtoH`: synchronous device→host copy of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPtr`] for stale pointers,
    /// [`GpuError::OutOfBounds`] if `len` exceeds the allocation.
    pub fn memcpy_dtoh(&self, ptr: DevicePtr, len: usize) -> Result<Vec<u8>, GpuError> {
        let mut st = self.state.lock();
        let size = st.mem.size_of(ptr)?;
        if len > size {
            return Err(GpuError::OutOfBounds { ptr, end: len, size });
        }
        let data = st.mem.read(ptr, 0, len)?;
        st.bytes_d2h += len as u64;
        let t = self.spec.transfer_time(len);
        self.occupy(&mut st, t);
        Ok(data)
    }

    /// `cuLaunchKernel` + `cuCtxSynchronize`: runs `name` over `items`
    /// work items and waits for completion.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownKernel`] if `name` is unregistered, or
    /// any error raised by the kernel body.
    pub fn launch_kernel(
        &self,
        name: &str,
        items: u64,
        args: &[KernelArg],
    ) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        self.check_kernel_fault(&mut st)?;
        let kernel =
            st.kernels.get(name).ok_or_else(|| GpuError::UnknownKernel(name.to_owned()))?;
        let flops = kernel.flops_per_item * items as f64;
        let body = Arc::clone(&kernel.body);
        let mode = st.exec_mode;
        st.launches += 1;
        if mode == ExecMode::Full {
            let mut ctx = KernelCtx { mem: &mut st.mem };
            body(&mut ctx, args)?;
        }
        let t = self.spec.launch_time(flops, items);
        self.occupy(&mut st, t);
        Ok(())
    }

    /// Fails the launch if an injected kernel-fault burst is active.
    fn check_kernel_fault(&self, st: &mut State) -> Result<(), GpuError> {
        if let Some(burst) = st.faults.kernel_faults {
            if burst.active_at(self.clock.now()) {
                st.injected_kernel_faults += 1;
                return Err(GpuError::KernelFault("injected fault burst".to_owned()));
            }
        }
        Ok(())
    }

    /// Fraction of `[now - window, now]` during which the device engine
    /// was busy — the measurement NVML's utilization query reports, used
    /// by the Fig 3 contention policy.
    pub fn utilization_over(&self, window: Duration) -> f64 {
        let now = self.clock.now();
        self.state.lock().busy.utilization(now, window)
    }

    // -- streams (asynchronous data movement, §7's "LAKE" series) --------

    /// `cuStreamCreate`: returns a new stream handle. Work queued on a
    /// stream executes in order; copies use the DMA engine and kernels
    /// the compute engine, so copies on one stream overlap with compute
    /// on another (or with host progress).
    pub fn stream_create(&self) -> u32 {
        let mut st = self.state.lock();
        let id = st.next_stream;
        st.next_stream += 1;
        st.streams.insert(id, self.clock.now());
        id
    }

    /// `cuStreamDestroy`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPtr`] (reused for handles) if the
    /// stream is unknown.
    pub fn stream_destroy(&self, stream: u32) -> Result<(), GpuError> {
        self.state
            .lock()
            .streams
            .remove(&stream)
            .map(|_| ())
            .ok_or(GpuError::InvalidPtr(DevicePtr(stream as u64)))
    }

    fn stream_cursor(st: &State, stream: u32) -> Result<Instant, GpuError> {
        st.streams.get(&stream).copied().ok_or(GpuError::InvalidPtr(DevicePtr(stream as u64)))
    }

    /// `cuMemcpyHtoDAsync`: enqueues a host→device copy on `stream`. The
    /// data lands immediately (functional effect) but the caller's clock
    /// does not wait; time is charged to the stream/DMA timelines.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError`] for bad pointers, bounds, or streams.
    pub fn memcpy_htod_async(
        &self,
        stream: u32,
        ptr: DevicePtr,
        data: &[u8],
    ) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        let cursor = Self::stream_cursor(&st, stream)?;
        st.mem.write(ptr, 0, data)?;
        st.bytes_h2d += data.len() as u64;
        let t = self.spec.transfer_time(data.len());
        let floor = cursor.max(self.clock.now());
        let (_, end) = Self::occupy_engine(&mut st, floor, t, true);
        st.streams.insert(stream, end);
        Ok(())
    }

    /// `cuLaunchKernel` on a stream: enqueues without waiting.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError`] for unknown kernels/streams or kernel faults.
    pub fn launch_kernel_async(
        &self,
        stream: u32,
        name: &str,
        items: u64,
        args: &[KernelArg],
    ) -> Result<(), GpuError> {
        let mut st = self.state.lock();
        self.check_kernel_fault(&mut st)?;
        let cursor = Self::stream_cursor(&st, stream)?;
        let kernel =
            st.kernels.get(name).ok_or_else(|| GpuError::UnknownKernel(name.to_owned()))?;
        let flops = kernel.flops_per_item * items as f64;
        let body = Arc::clone(&kernel.body);
        let mode = st.exec_mode;
        st.launches += 1;
        if mode == ExecMode::Full {
            let mut ctx = KernelCtx { mem: &mut st.mem };
            body(&mut ctx, args)?;
        }
        let t = self.spec.launch_time(flops, items);
        let floor = cursor.max(self.clock.now());
        let (_, end) = Self::occupy_engine(&mut st, floor, t, false);
        st.streams.insert(stream, end);
        Ok(())
    }

    /// `cuMemcpyDtoHAsync`: enqueues a device→host copy; the bytes are
    /// returned immediately (functional effect), the wait happens at
    /// [`GpuDevice::stream_synchronize`].
    ///
    /// # Errors
    ///
    /// Returns [`GpuError`] for bad pointers, bounds, or streams.
    pub fn memcpy_dtoh_async(
        &self,
        stream: u32,
        ptr: DevicePtr,
        len: usize,
    ) -> Result<Vec<u8>, GpuError> {
        let mut st = self.state.lock();
        let cursor = Self::stream_cursor(&st, stream)?;
        let size = st.mem.size_of(ptr)?;
        if len > size {
            return Err(GpuError::OutOfBounds { ptr, end: len, size });
        }
        let data = st.mem.read(ptr, 0, len)?;
        st.bytes_d2h += len as u64;
        let t = self.spec.transfer_time(len);
        let floor = cursor.max(self.clock.now());
        let (_, end) = Self::occupy_engine(&mut st, floor, t, true);
        st.streams.insert(stream, end);
        Ok(data)
    }

    /// `cuStreamSynchronize`: advances the caller's clock to the stream's
    /// completion cursor.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidPtr`] for unknown streams.
    pub fn stream_synchronize(&self, stream: u32) -> Result<(), GpuError> {
        let cursor = {
            let st = self.state.lock();
            Self::stream_cursor(&st, stream)?
        };
        self.clock.advance_to(cursor);
        Ok(())
    }

    /// When the device engine next becomes idle.
    pub fn engine_free_at(&self) -> Instant {
        self.state.lock().engine_free
    }

    /// Counters: (launches, bytes host→device, bytes device→host).
    pub fn transfer_stats(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.launches, st.bytes_h2d, st.bytes_d2h)
    }

    /// Bytes of device memory currently allocated.
    pub fn memory_used(&self) -> usize {
        self.state.lock().mem.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Arc<GpuDevice> {
        GpuDevice::new(GpuSpec::a100(), SharedClock::new())
    }

    #[test]
    fn alloc_copy_roundtrip() {
        let gpu = device();
        let ptr = gpu.mem_alloc(16).unwrap();
        gpu.memcpy_htod(ptr, &[9u8; 16]).unwrap();
        assert_eq!(gpu.memcpy_dtoh(ptr, 16).unwrap(), vec![9u8; 16]);
        assert_eq!(gpu.memory_used(), 16);
        gpu.mem_free(ptr).unwrap();
        assert_eq!(gpu.memory_used(), 0);
    }

    #[test]
    fn charge_htod_costs_exactly_what_the_copy_would() {
        let (copied, charged) = (device(), device());
        let a = copied.mem_alloc(4096).unwrap();
        let b = charged.mem_alloc(4096).unwrap();
        copied.memcpy_htod(a, &[0u8; 4096]).unwrap();
        charged.charge_htod(b, 4096).unwrap();
        assert_eq!(copied.clock().now(), charged.clock().now());
        assert_eq!(copied.transfer_stats(), charged.transfer_stats());
        assert_eq!(copied.engine_free_at(), charged.engine_free_at());
        assert!(matches!(charged.charge_htod(b, 4097), Err(GpuError::OutOfBounds { .. })));
        assert!(matches!(charged.charge_htod(DevicePtr(1), 1), Err(GpuError::InvalidPtr(_))));
    }

    #[test]
    fn unwritten_allocation_reads_back_as_zeros() {
        let gpu = device();
        let ptr = gpu.mem_alloc(64).unwrap();
        assert_eq!(gpu.memcpy_dtoh(ptr, 64).unwrap(), vec![0u8; 64]);
        assert_eq!(gpu.memcpy_dtoh(ptr, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn partial_write_reads_back_exactly_with_zeros_after_it() {
        let gpu = device();
        let ptr = gpu.mem_alloc(32).unwrap();
        gpu.memcpy_htod(ptr, &[7u8; 10]).unwrap();
        let mut want = vec![7u8; 10];
        want.resize(32, 0);
        assert_eq!(gpu.memcpy_dtoh(ptr, 32).unwrap(), want);
        assert_eq!(gpu.memcpy_dtoh(ptr, 5).unwrap(), vec![7u8; 5]);
        // A kernel sees the same bytes, and its whole-buffer read is the
        // allocation's full size.
        gpu.register_kernel("probe", 1.0, |ctx, args| {
            let ptr = args[0].as_ptr().expect("ptr arg");
            let mut want = vec![7u8; 10];
            want.resize(32, 0);
            assert_eq!(ctx.read_bytes(ptr)?, want);
            assert_eq!(ctx.size_of(ptr)?, 32);
            Ok(())
        });
        gpu.launch_kernel("probe", 1, &[KernelArg::Ptr(ptr)]).unwrap();
    }

    #[test]
    fn lazy_allocations_still_fail_typed() {
        let gpu = device();
        let ptr = gpu.mem_alloc(8).unwrap();
        let oob = gpu.memcpy_htod(ptr, &[1u8; 9]).unwrap_err();
        assert_eq!(oob, GpuError::OutOfBounds { ptr, end: 9, size: 8 });
        assert!(matches!(gpu.memcpy_dtoh(ptr, 9), Err(GpuError::OutOfBounds { .. })));
        assert!(matches!(gpu.charge_htod(ptr, 9), Err(GpuError::OutOfBounds { .. })));
        // The failed write left nothing behind.
        assert_eq!(gpu.memcpy_dtoh(ptr, 8).unwrap(), vec![0u8; 8]);
        gpu.mem_free(ptr).unwrap();
        assert_eq!(gpu.memcpy_htod(ptr, &[1u8]), Err(GpuError::InvalidPtr(ptr)));
        assert_eq!(gpu.memcpy_dtoh(ptr, 1), Err(GpuError::InvalidPtr(ptr)));
        assert_eq!(gpu.charge_htod(ptr, 1), Err(GpuError::InvalidPtr(ptr)));
        assert_eq!(gpu.mem_free(ptr), Err(GpuError::InvalidPtr(ptr)));
    }

    #[test]
    fn mem_free_returns_the_full_size_written_or_not() {
        let gpu = GpuDevice::new(GpuSpec::tiny(), SharedClock::new());
        let capacity = gpu.spec().memory_bytes;
        let unwritten = gpu.mem_alloc(capacity / 2).unwrap();
        let written = gpu.mem_alloc(capacity / 2).unwrap();
        gpu.memcpy_htod(written, &[3u8; 100]).unwrap();
        assert_eq!(gpu.memory_used(), capacity);
        assert!(matches!(gpu.mem_alloc(1), Err(GpuError::OutOfMemory { free: 0, .. })));
        gpu.mem_free(unwritten).unwrap();
        assert_eq!(gpu.memory_used(), capacity - capacity / 2);
        gpu.mem_free(written).unwrap();
        assert_eq!(gpu.memory_used(), 0);
        let whole = gpu.mem_alloc(capacity).unwrap();
        assert_eq!(gpu.memcpy_dtoh(whole, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn unregistered_kernels_no_longer_launch() {
        let gpu = device();
        gpu.register_kernel("noop", 1.0, |_, _| Ok(()));
        gpu.launch_kernel("noop", 1, &[]).unwrap();
        assert!(gpu.unregister_kernel("noop"));
        assert!(!gpu.unregister_kernel("noop"));
        assert!(matches!(gpu.launch_kernel("noop", 1, &[]), Err(GpuError::UnknownKernel(_))));
    }

    #[test]
    fn kernel_executes_real_math() {
        let gpu = device();
        gpu.register_kernel("add_scalar", 1.0, |ctx, args| {
            let ptr = args[0].as_ptr().expect("ptr arg");
            let k = args[1].as_f32().expect("f32 arg");
            let mut v = ctx.read_f32(ptr)?;
            for x in &mut v {
                *x += k;
            }
            ctx.write_f32(ptr, &v)
        });
        let ptr = gpu.mem_alloc(8).unwrap();
        gpu.memcpy_htod(ptr, &[1.0f32.to_le_bytes(), 2.0f32.to_le_bytes()].concat()).unwrap();
        gpu.launch_kernel("add_scalar", 2, &[KernelArg::Ptr(ptr), KernelArg::F32(10.0)]).unwrap();
        let out = gpu.memcpy_dtoh(ptr, 8).unwrap();
        let vals: Vec<f32> =
            out.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(vals, vec![11.0, 12.0]);
    }

    #[test]
    fn timing_only_skips_bodies_but_charges_time() {
        let gpu = device();
        gpu.register_kernel("boom", 1000.0, |_, _| panic!("body must not run in TimingOnly mode"));
        gpu.set_exec_mode(ExecMode::TimingOnly);
        let before = gpu.clock().now();
        gpu.launch_kernel("boom", 1_000_000, &[]).unwrap();
        assert!(gpu.clock().now() > before);
    }

    #[test]
    fn launches_queue_on_the_engine() {
        let gpu = device();
        gpu.register_kernel("noop", 1.0e6, |_, _| Ok(()));
        let t0 = gpu.clock().now();
        gpu.launch_kernel("noop", 1, &[]).unwrap();
        let t1 = gpu.clock().now();
        gpu.launch_kernel("noop", 1, &[]).unwrap();
        let t2 = gpu.clock().now();
        // second launch takes about as long again (serialized engine)
        let d1 = t1 - t0;
        let d2 = t2 - t1;
        assert!(d2.as_nanos() > d1.as_nanos() / 2);
    }

    #[test]
    fn oom_and_invalid_ptr_errors() {
        let gpu = GpuDevice::new(GpuSpec::tiny(), SharedClock::new());
        let err = gpu.mem_alloc(usize::MAX).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        let err = gpu.mem_free(DevicePtr(0x999)).unwrap_err();
        assert_eq!(err, GpuError::InvalidPtr(DevicePtr(0x999)));
        let err = gpu.memcpy_dtoh(DevicePtr(0x999), 4).unwrap_err();
        assert!(matches!(err, GpuError::InvalidPtr(_)));
    }

    #[test]
    fn copy_larger_than_alloc_rejected() {
        let gpu = device();
        let ptr = gpu.mem_alloc(4).unwrap();
        let err = gpu.memcpy_htod(ptr, &[0u8; 8]).unwrap_err();
        assert!(matches!(err, GpuError::OutOfBounds { .. }));
        let err = gpu.memcpy_dtoh(ptr, 8).unwrap_err();
        assert!(matches!(err, GpuError::OutOfBounds { .. }));
    }

    #[test]
    fn unknown_kernel_rejected() {
        let gpu = device();
        let err = gpu.launch_kernel("nope", 1, &[]).unwrap_err();
        assert_eq!(err, GpuError::UnknownKernel("nope".to_owned()));
    }

    #[test]
    fn utilization_reflects_busy_window() {
        let gpu = device();
        gpu.register_kernel("busy", 2.0e6, |_, _| Ok(()));
        // Saturate for a while.
        for _ in 0..50 {
            gpu.launch_kernel("busy", 100_000, &[]).unwrap();
        }
        let util = gpu.utilization_over(Duration::from_millis(1));
        assert!(util > 0.9, "device should look busy, got {util}");
        // Let virtual time pass idle.
        gpu.clock().advance(Duration::from_millis(100));
        let util = gpu.utilization_over(Duration::from_millis(1));
        assert!(util < 0.05, "device should look idle, got {util}");
    }

    #[test]
    fn streams_overlap_copy_and_compute() {
        // Copy time (16 MiB ≈ 1.3 ms) comparable to kernel time so the
        // overlap is visible.
        let gpu = device();
        gpu.register_kernel("crunch", 2.5e4, |_, _| Ok(()));
        let a = gpu.mem_alloc(16 << 20).unwrap();
        let b = gpu.mem_alloc(16 << 20).unwrap();
        let payload = vec![7u8; 16 << 20];

        // Synchronous: copy then compute then copy, serialized on the
        // caller's clock.
        let t0 = gpu.clock().now();
        gpu.memcpy_htod(a, &payload).unwrap();
        gpu.launch_kernel("crunch", 100_000, &[KernelArg::Ptr(a)]).unwrap();
        gpu.memcpy_htod(b, &payload).unwrap();
        gpu.launch_kernel("crunch", 100_000, &[KernelArg::Ptr(b)]).unwrap();
        let sync_time = gpu.clock().now() - t0;

        // Async double buffering: the second buffer's copy overlaps the
        // first kernel.
        let gpu = device();
        gpu.register_kernel("crunch", 2.5e4, |_, _| Ok(()));
        let a = gpu.mem_alloc(16 << 20).unwrap();
        let b = gpu.mem_alloc(16 << 20).unwrap();
        let s1 = gpu.stream_create();
        let s2 = gpu.stream_create();
        let t0 = gpu.clock().now();
        gpu.memcpy_htod_async(s1, a, &payload).unwrap();
        gpu.launch_kernel_async(s1, "crunch", 100_000, &[KernelArg::Ptr(a)]).unwrap();
        gpu.memcpy_htod_async(s2, b, &payload).unwrap();
        gpu.launch_kernel_async(s2, "crunch", 100_000, &[KernelArg::Ptr(b)]).unwrap();
        gpu.stream_synchronize(s1).unwrap();
        gpu.stream_synchronize(s2).unwrap();
        let async_time = gpu.clock().now() - t0;

        assert!(
            async_time.as_nanos() < sync_time.as_nanos() * 9 / 10,
            "async {async_time} should overlap vs sync {sync_time}"
        );
    }

    #[test]
    fn stream_ops_preserve_data_and_order() {
        let gpu = device();
        gpu.register_kernel("inc", 1.0, |ctx, args| {
            let p = args[0].as_ptr().unwrap();
            let mut v = ctx.read_f32(p)?;
            v.iter_mut().for_each(|x| *x += 1.0);
            ctx.write_f32(p, &v)
        });
        let buf = gpu.mem_alloc(8).unwrap();
        let s = gpu.stream_create();
        gpu.memcpy_htod_async(s, buf, &[1.0f32.to_le_bytes(), 2.0f32.to_le_bytes()].concat())
            .unwrap();
        gpu.launch_kernel_async(s, "inc", 2, &[KernelArg::Ptr(buf)]).unwrap();
        let out = gpu.memcpy_dtoh_async(s, buf, 8).unwrap();
        gpu.stream_synchronize(s).unwrap();
        let vals: Vec<f32> =
            out.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(vals, vec![2.0, 3.0]);
        gpu.stream_destroy(s).unwrap();
        assert!(gpu.stream_synchronize(s).is_err());
    }

    #[test]
    fn unknown_stream_rejected() {
        let gpu = device();
        assert!(gpu.memcpy_htod_async(99, DevicePtr(1), &[0]).is_err());
        assert!(gpu.stream_synchronize(99).is_err());
        assert!(gpu.stream_destroy(99).is_err());
    }

    #[test]
    fn injected_fault_bursts_follow_the_clock() {
        let gpu = device();
        gpu.register_kernel("work", 1.0, |_, _| Ok(()));
        gpu.set_fault_config(GpuFaultConfig {
            kernel_faults: Some(BurstSchedule::new(
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_micros(500),
            )),
            oom: Some(BurstSchedule::new(
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_micros(500),
            )),
        });
        // Before the first burst: healthy.
        gpu.launch_kernel("work", 1, &[]).unwrap();
        let p = gpu.mem_alloc(8).unwrap();
        gpu.mem_free(p).unwrap();
        // Inside the burst window: both classes fail.
        gpu.clock().advance_to(Instant::from_nanos(1_000_000 + 100_000));
        let err = gpu.launch_kernel("work", 1, &[]).unwrap_err();
        assert!(matches!(err, GpuError::KernelFault(_)));
        let err = gpu.mem_alloc(8).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        // After the burst: healthy again.
        gpu.clock().advance_to(Instant::from_nanos(1_000_000 + 600_000));
        gpu.launch_kernel("work", 1, &[]).unwrap();
        gpu.mem_alloc(8).unwrap();
        assert_eq!(gpu.injected_fault_stats(), (1, 1));
        // Clearing the config stops injection even inside a window.
        gpu.clock().advance_to(Instant::from_nanos(3_000_000 + 100_000));
        gpu.set_fault_config(GpuFaultConfig::default());
        gpu.launch_kernel("work", 1, &[]).unwrap();
    }

    #[test]
    fn bigger_batches_amortize_launch_cost() {
        let gpu = device();
        gpu.register_kernel("nn", 17_000.0, |_, _| Ok(())); // LinnOS-sized
        let t0 = gpu.clock().now();
        gpu.launch_kernel("nn", 1, &[]).unwrap();
        let per_item_small = (gpu.clock().now() - t0).as_micros_f64();
        let t0 = gpu.clock().now();
        gpu.launch_kernel("nn", 1024, &[]).unwrap();
        let per_item_large = (gpu.clock().now() - t0).as_micros_f64() / 1024.0;
        assert!(per_item_small > per_item_large * 20.0);
    }

    /// The busy log before per-engine deques, kept verbatim as the oracle:
    /// one `Vec` across both engines, `retain`-trimmed on every push past
    /// 4096 entries.
    #[derive(Default)]
    pub(super) struct ReferenceLog(Vec<(Instant, Instant)>);

    impl ReferenceLog {
        pub(super) fn push(&mut self, start: Instant, end: Instant) {
            self.0.push((start, end));
            if self.0.len() > 4096 {
                let horizon = end.as_nanos().saturating_sub(4_000_000_000);
                self.0.retain(|&(_, e)| e.as_nanos() >= horizon);
            }
        }

        fn utilization(&self, now: Instant, window: Duration) -> f64 {
            let win_start = Instant::from_nanos(now.as_nanos().saturating_sub(window.as_nanos()));
            let mut busy = 0u64;
            for &(s, e) in &self.0 {
                let s = s.max(win_start);
                let e = e.min(now);
                if e > s {
                    busy += (e - s).as_nanos();
                }
            }
            if window.is_zero() {
                return 0.0;
            }
            (busy as f64 / window.as_nanos().min(now.as_nanos()).max(1) as f64).min(1.0)
        }
    }

    #[test]
    fn trim_keeps_exactly_the_intervals_ending_within_the_horizon() {
        // One op ends every 100 us, so 4 s holds 40k intervals, every push
        // past the first 4096 trims, and one interval ends exactly on the
        // final horizon (10 s - 4 s) and must be kept.
        let gpu = device();
        let ptr = gpu.mem_alloc(1024).unwrap();
        let idle = Duration::from_micros(100).saturating_sub(gpu.spec().transfer_time(1024));
        let mut ends = Vec::new();
        for _ in 0..100_000 {
            gpu.clock().advance(idle);
            gpu.charge_htod(ptr, 1024).unwrap();
            ends.push(gpu.clock().now());
        }
        assert_eq!(*ends.last().unwrap(), Instant::from_nanos(10_000_000_000));
        let expected: Vec<Instant> =
            ends.into_iter().filter(|e| e.as_nanos() >= 6_000_000_000).collect();
        assert_eq!(expected.len(), 40_001);
        let st = gpu.state.lock();
        assert!(st.busy.dma.is_empty());
        let retained: Vec<Instant> = st.busy.compute.iter().map(|&(_, e)| e).collect();
        assert_eq!(retained, expected);
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        const BUF: usize = 64 << 10;

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Htod(usize),
            ChargeHtod(usize),
            Launch(u64),
            Dtoh(usize),
            HtodAsync(usize, usize),
            LaunchAsync(usize, u64),
            DtohAsync(usize, usize),
            StreamSync(usize),
            Advance(u64),
            Query(u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0..BUF).prop_map(Op::Htod),
                (0..BUF).prop_map(Op::ChargeHtod),
                (1u64..100_000).prop_map(Op::Launch),
                (0..BUF).prop_map(Op::Dtoh),
                (0usize..2, 0..BUF).prop_map(|(s, len)| Op::HtodAsync(s, len)),
                (0usize..2, 1u64..100_000).prop_map(|(s, items)| Op::LaunchAsync(s, items)),
                (0usize..2, 0..BUF).prop_map(|(s, len)| Op::DtohAsync(s, len)),
                (0usize..2).prop_map(Op::StreamSync),
                // Mostly up to 20 ms, so ~4096 ops span the 4 s horizon
                // and trims drop part of the log; rarely a jump past it
                // that empties the log on the next trim.
                (0u32..200, 0u64..20_000_000).prop_map(|(jump, ns)| {
                    Op::Advance(if jump == 0 { 4_000_000_000 + ns * 100 } else { ns })
                }),
                // Window 0, a sampling-sized window, or one longer than
                // the horizon.
                (0u8..3, 1u64..50_000_000, 1u64..16_000_000_000).prop_map(|(k, short, long)| {
                    Op::Query(match k {
                        0 => 0,
                        1 => short,
                        _ => 4_000_000_000 + long,
                    })
                }),
            ]
        }

        proptest! {
            /// Random interleavings of sync, stream and clock ops keep the
            /// per-engine deques holding exactly the intervals the
            /// single-`Vec` log holds, and every utilization reading is
            /// bit-identical to the reference's.
            #[test]
            fn deques_match_the_single_vec_log(ops in proptest::collection::vec(op(), 8_000..14_000)) {
                let gpu = device();
                gpu.state.lock().reference = Some(ReferenceLog::default());
                gpu.register_kernel("work", 1.0e3, |_, _| Ok(()));
                let ptr = gpu.mem_alloc(BUF).unwrap();
                let payload = vec![0u8; BUF];
                let streams = [gpu.stream_create(), gpu.stream_create()];
                let (mut trims, mut last_len) = (0u32, 0usize);
                for op in ops {
                    match op {
                        Op::Htod(len) => gpu.memcpy_htod(ptr, &payload[..len]).unwrap(),
                        Op::ChargeHtod(len) => gpu.charge_htod(ptr, len).unwrap(),
                        Op::Launch(items) => gpu.launch_kernel("work", items, &[]).unwrap(),
                        Op::Dtoh(len) => drop(gpu.memcpy_dtoh(ptr, len).unwrap()),
                        Op::HtodAsync(s, len) => {
                            gpu.memcpy_htod_async(streams[s], ptr, &payload[..len]).unwrap()
                        }
                        Op::LaunchAsync(s, items) => {
                            gpu.launch_kernel_async(streams[s], "work", items, &[]).unwrap()
                        }
                        Op::DtohAsync(s, len) => {
                            drop(gpu.memcpy_dtoh_async(streams[s], ptr, len).unwrap())
                        }
                        Op::StreamSync(s) => gpu.stream_synchronize(streams[s]).unwrap(),
                        Op::Advance(ns) => {
                            gpu.clock().advance(Duration::from_nanos(ns));
                        }
                        Op::Query(ns) => {
                            let window = Duration::from_nanos(ns);
                            let got = gpu.utilization_over(window);
                            let st = gpu.state.lock();
                            let want = st.reference.as_ref().unwrap().utilization(gpu.clock().now(), window);
                            prop_assert_eq!(got.to_bits(), want.to_bits(), "window {} ns", ns);
                        }
                    }
                    let st = gpu.state.lock();
                    let len = st.busy.compute.len() + st.busy.dma.len();
                    prop_assert_eq!(len, st.reference.as_ref().unwrap().0.len());
                    trims += u32::from(len < last_len);
                    last_len = len;
                }
                let st = gpu.state.lock();
                let mut deques: Vec<_> = st.busy.compute.iter().chain(&st.busy.dma).copied().collect();
                let mut reference = st.reference.as_ref().unwrap().0.clone();
                deques.sort_unstable();
                reference.sort_unstable();
                prop_assert!(deques == reference, "retained intervals differ");
                prop_assert!(trims > 0, "the log never grew past the trim threshold");
            }
        }
    }
}
