//! # lake-fleet — sharded multi-daemon serving for LAKE
//!
//! A single lakeD instance (crate `lake-core`) is one failure domain and
//! one staging region. This crate runs **N** of them — each with its own
//! transport link, supervisor, incarnation epoch, and shm region — on
//! one virtual clock behind a routing layer:
//!
//! - [`ring`] — consistent-hash routing of model keys onto shards, so a
//!   topology change remaps only ~1/N of the keys and every router
//!   agrees on each key's backup shard without coordination.
//! - [`qos`] — deficit-round-robin weighted fair queueing of staged
//!   bytes across *tenants*, the one admission wait in the stack.
//! - [`fleet`] — the [`DaemonFleet`] itself: deployment from a
//!   [`lake_core::LakeBuilder`] template (`shards(n)` / `LAKE_SHARDS`),
//!   model replication to ring backups, and proactive diversion plus
//!   reactive failover for idempotent calls. [`FleetMl`] only routes:
//!   each shard's [`lake_core::LakeMl`] serves the call.
//!
//! The fleet keeps no report of its own beyond [`FleetStats`]' routing
//! and QoS counters. Per-shard fault, perf and ring reports are read
//! through [`DaemonFleet::shards`], and every ring places the fixed
//! [`DEFAULT_VNODES`] points per shard.
//!
//! ```
//! use lake_core::Lake;
//! use lake_fleet::DaemonFleet;
//! use lake_ml::{serialize, Activation, Mlp};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), lake_core::LakeError> {
//! let fleet = DaemonFleet::deploy(Lake::builder().shards(3));
//! fleet.governor().set_weight(1, 4); // tenant 1 gets 4x service share
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mlp = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
//! let ml = fleet.ml();
//! let id = ml.load_model(&serialize::encode_mlp(&mlp))?;
//! let classes = ml.infer_mlp(1, id, 1, 4, &[0.1, -0.2, 0.3, -0.4])?;
//! assert_eq!(classes.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod fleet;
pub mod qos;
pub mod ring;

pub use fleet::{DaemonFleet, FleetCmdId, FleetMl, FleetModelId, FleetPolicy, FleetStats};
pub use qos::{QosCounters, QosPolicy, TenantGovernor};
pub use ring::{HashRing, DEFAULT_VNODES};
