//! LAKE's API-remoting layer.
//!
//! The paper (§4, §6): "The implementation of LAKE's API remoting system
//! resembles an RPC system: lakeLib exports symbols (stubs) to the kernel
//! and lakeD is the user space process that handles incoming requests.
//! Commands sent between these two are transmitted through Netlink sockets."
//!
//! Each stub "does three things: serialize an API identifier and all of API
//! parameters into a command, transmit commands through some communication
//! channel for remote execution in user space and, finally, wait for a
//! response."
//!
//! This crate provides exactly those pieces, vendor-agnostic:
//!
//! * [`wire`] — a compact binary encoder/decoder for API arguments.
//! * [`command`] — the framed `Command` / `Response` messages.
//! * [`engine`] — [`CallEngine`], the synchronous call path charging
//!   transport costs to the virtual clock, in-process or across a real
//!   daemon thread; and [`serve`], the daemon-side dispatch loop.
//! * [`queue`] — the linked frame machine (the one retry/fence/patience
//!   protocol) and [`QueuePair`], its submission/completion front end.
//! * [`executor`] — [`serve_executor`], the daemon loop with a worker
//!   pool, staging and per-engine accounting.
//!
//! The CUDA/NVML/TensorFlow API surface built on top lives in `lake-core`.

#![warn(missing_docs)]

pub mod command;
pub mod engine;
pub mod executor;
pub mod perf;
pub mod queue;
pub mod wire;

pub use command::{ApiId, Command, CommandRef, Response, ResponseRef, Status, SEQ_UNMATCHED};
pub use engine::{
    serve, ApiHandler, CallEngine, CallPolicy, CallStats, DaemonLifecycle, RpcError, StagingConfig,
    BURST_API_BIT, DEFAULT_INLINE_THRESHOLD, MAX_BURST_ENTRIES, STAGED_API_BIT,
};
pub use executor::{serve_executor, CommandClass, ExecutorSnapshot, ExecutorStats};
pub use perf::{PerfCounters, PerfSnapshot};
pub use queue::{CmdId, Completion, QueuePair, QueueStats, DEFAULT_QUEUE_DEPTH};
pub use wire::{checked_slice_len, Decoder, Encoder, WireError};
