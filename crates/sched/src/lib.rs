//! `lake-sched`: multi-GPU dispatch.
//!
//! The paper deploys LAKE on a single GPU, but its design calls for the
//! daemon to arbitrate "concurrent accelerator access from multiple
//! subsystems" (§4.5): several kernel subsystems (LinnOS, Kleio, MLLB,
//! prefetching, malware detection) push inference work at the same device
//! and the contention policy (Fig 3, Fig 13) decides when work should
//! fall back to the CPU instead. This crate generalizes that arbitration
//! layer to a *pool* of devices:
//!
//! * [`DevicePool`] — N simulated GPUs sharing one virtual clock, each
//!   with its own dispatch stream and rate-limited NVML sampler.
//! * Utilization-aware placement ([`DevicePool::place`]): work goes to
//!   the least-loaded device; when every device sits above the
//!   contention threshold the pool signals [`Placement::CpuFallback`],
//!   reproducing Fig 13's adaptive behavior per device.
//! * [`SchedMetrics`] — per-device dispatch, utilization and health
//!   counters, plus CPU fallbacks.
//!
//! Batching is the caller's: each subsystem hands the daemon a batch of
//! rows per call, the batch size the paper's Fig 8 / Table 3 GPU
//! break-even points are measured over.
//!
//! `lake-core`'s daemon owns a pool and routes the high-level remoted ML
//! APIs (§4.4) through it; this crate itself stays below the RPC layer
//! and only speaks `lake-gpu` + `lake-sim` vocabulary.

#![warn(missing_docs)]

pub mod metrics;
pub mod pool;

pub use metrics::{DeviceMetrics, SchedMetrics};
pub use pool::{DevicePool, Placement, PoolPolicy};
