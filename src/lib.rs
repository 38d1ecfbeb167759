//! # LAKE — a Learning-assisted, Accelerated KErnel (Rust reproduction)
//!
//! This workspace reproduces ["Towards a Machine Learning-Assisted Kernel
//! with LAKE"](https://doi.org/10.1145/3575693.3575697) (Fingler et al.,
//! ASPLOS 2023) as a self-contained Rust system: the LAKE framework (API
//! remoting, shared memory, execution policies, in-kernel feature
//! registry), a simulated kernel/user/GPU substrate, from-scratch ML and
//! AES-GCM, and the paper's five ML-assisted kernel subsystems.
//!
//! This crate is the facade: it re-exports every workspace crate under
//! one name and hosts the runnable examples and cross-crate integration
//! tests. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for paper-vs-measured results.
//!
//! ## Quick start
//!
//! ```
//! use lake::core::{Lake, KernelArg};
//!
//! # fn main() -> Result<(), lake::core::LakeError> {
//! // Deploy LAKE: shared memory + Netlink channel + daemon + GPU.
//! let lake = Lake::builder().build();
//!
//! // "Load a CUDA module": register a device kernel.
//! lake.register_kernel("saxpy", 2.0, |ctx, args| {
//!     let ptr = args[0].as_ptr().expect("buffer");
//!     let a = args[1].as_f32().expect("scalar");
//!     let mut v = ctx.read_f32(ptr)?;
//!     v.iter_mut().for_each(|x| *x = a * *x + 1.0);
//!     ctx.write_f32(ptr, &v)
//! });
//!
//! // Kernel-space code calls the remoted CUDA driver API.
//! let cuda = lake.cuda();
//! let buf = cuda.cu_mem_alloc(8)?;
//! cuda.cu_memcpy_htod(buf, &[2.0f32.to_le_bytes(), 4.0f32.to_le_bytes()].concat())?;
//! cuda.cu_launch_kernel("saxpy", 2, &[KernelArg::Ptr(buf), KernelArg::F32(3.0)])?;
//! let out = cuda.cu_memcpy_dtoh(buf, 8)?;
//! assert_eq!(f32::from_le_bytes(out[..4].try_into().unwrap()), 7.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

/// Block-I/O substrate: NVMe model, traces, replay (`lake-block`).
pub use lake_block as block;
/// The LAKE framework itself (`lake-core`).
pub use lake_core as core;
/// AES-GCM and crypto backends (`lake-crypto`).
pub use lake_crypto as crypto;
/// Sharded multi-daemon serving: consistent-hash routing, tenant QoS,
/// cross-shard failover (`lake-fleet`).
pub use lake_fleet as fleet;
/// The eCryptfs-style encrypted volume (`lake-fs`).
pub use lake_fs as fs;
/// The simulated CUDA-like accelerator (`lake-gpu`).
pub use lake_gpu as gpu;
/// From-scratch ML: MLP, LSTM, k-NN (`lake-ml`).
pub use lake_ml as ml;
/// The in-kernel feature registry (`lake-registry`).
pub use lake_registry as registry;
/// LAKE's RPC wire format and call engine (`lake-rpc`).
pub use lake_rpc as rpc;
/// Multi-GPU dispatch (`lake-sched`).
pub use lake_sched as sched;
/// lakeShm shared memory (`lake-shm`).
pub use lake_shm as shm;
/// Shared virtual-clock simulation substrate (`lake-sim`).
pub use lake_sim as sim;
/// Kernel↔user channel mechanisms (`lake-transport`).
pub use lake_transport as transport;
/// The five ML-assisted kernel subsystems (`lake-workloads`).
pub use lake_workloads as workloads;
