//! LAKE: the Learning-assisted, Accelerated KErnel framework.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * [`Lake`] — the deployed system: a shared-memory region (`lakeShm`), a
//!   command channel (Netlink by default), the user-space daemon
//!   ([`daemon::LakeDaemon`], the paper's `lakeD`), and a simulated GPU.
//! * [`LakeCuda`] — `lakeLib`'s kernel-facing CUDA driver API stubs
//!   (`cuMemAlloc`, `cuMemcpyHtoD`, `cuLaunchKernel`, ...) plus the
//!   remoted NVML utilization query.
//! * [`LakeMl`] — the high-level remoted ML APIs (§4.4): TensorFlow-style
//!   model loading and batched MLP / LSTM / k-NN inference realized inside
//!   the daemon, so kernel modules never carry an ML runtime.
//! * [`policy`] — the execution-policy framework of §4.2/§4.3 (Fig 3):
//!   batch-size profitability thresholds and contention-aware CPU
//!   fallback driven by moving-average GPU utilization.
//!
//! # Example
//!
//! ```
//! use lake_core::{Lake, KernelArg};
//!
//! # fn main() -> Result<(), lake_core::LakeError> {
//! let lake = Lake::builder().build();
//! // Load a "CUDA module" (register a kernel device-side).
//! lake.register_kernel("double", 1.0, |ctx, args| {
//!     let ptr = args[0].as_ptr().expect("ptr");
//!     let mut v = ctx.read_f32(ptr)?;
//!     v.iter_mut().for_each(|x| *x *= 2.0);
//!     ctx.write_f32(ptr, &v)
//! });
//!
//! // Kernel-space application code:
//! let cuda = lake.cuda();
//! let buf = cuda.cu_mem_alloc(8)?;
//! cuda.cu_memcpy_htod(buf, &[1.0f32.to_le_bytes(), 3.0f32.to_le_bytes()].concat())?;
//! cuda.cu_launch_kernel("double", 2, &[KernelArg::Ptr(buf)])?;
//! let out = cuda.cu_memcpy_dtoh(buf, 8)?;
//! assert_eq!(f32::from_le_bytes(out[4..8].try_into().unwrap()), 6.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod daemon;
pub mod ebpf;
pub mod error;
pub mod highlevel;
pub mod lake;
pub mod lakelib;
pub mod policy;
pub mod supervisor;

pub use error::{AdmissionError, LakeError};
pub use highlevel::{InferCompletion, LakeMl, ModelId};
pub use lake::{FaultReport, Lake, LakeBuilder, LinkMode, PerfReport};
pub use lakelib::LakeCuda;
pub use policy::{BatchThresholdPolicy, CuPolicy, Policy, PolicyConfig, Target};
pub use supervisor::{DaemonSupervisor, LocalStats, SupervisorPolicy, SupervisorStats};

// Re-export the types that appear in this crate's public API.
pub use lake_gpu::{DevicePtr, ExecMode, GpuDevice, GpuError, GpuSpec, KernelArg, KernelCtx};
pub use lake_sched::{DevicePool, Placement, PoolPolicy, SchedMetrics};
pub use lake_shm::{AllocStats, ReclaimReport, ShmBuffer, ShmRegion};
pub use lake_sim::CrashSchedule;
pub use lake_transport::{Mechanism, RingStats, WaitStrategy};
