//! The LAKE in-kernel feature registry (paper §5, Table 1).
//!
//! A *registry* is a named combination of an ML model, a feature-vector
//! schema, and a kernel subsystem. It solves the paper's challenge C3:
//! feature data lives behind abstraction layers and module boundaries, so
//! capture must be **asynchronous** (instrumentation calls placed "at the
//! code sites where instrumented data are already maintained") and safe
//! from **any kernel thread** without extra locking discipline.
//!
//! Design choices reproduced from §5:
//!
//! * feature vectors live in a ring buffer sized by the `window`
//!   parameter, with format `<numfeatures, kvpair*, ts_begin, ts_end>`;
//! * values are untyped bytes — the schema records `<size, entries>` per
//!   key, and `entries > 1` turns a feature into a history array where
//!   index 0 is the most recent sample;
//! * the capture path is lock-free: because schemas are fixed at
//!   `create_registry` time, the paper's lock-free hash table reduces to a
//!   fixed table of atomic slots, one per schema key (capture is a single
//!   atomic store or fetch-add);
//! * models are committed to the file system but kept in memory for
//!   inference (§5.1);
//! * a registry's classifier is a model loaded through `LakeMl`, so
//!   `score_features` is one `infer_mlp` call and the handle's policy
//!   (§4.2) decides whether a batch runs in the caller's thread or is
//!   offloaded;
//! * batch retrieval (`get_features`) + acknowledgment
//!   (`truncate_features`) expose batch size to the developer, the key
//!   lever for accelerator profitability (§5.4); truncation always
//!   preserves the most recent vector when the schema has history
//!   features.
//!
//! # Example (the §5.5 I/O-latency idiom)
//!
//! ```
//! use lake_registry::{FeatureRegistryService, Schema, RegistryError};
//! use lake_sim::Instant;
//!
//! # fn main() -> Result<(), RegistryError> {
//! let service = FeatureRegistryService::new();
//! let schema = Schema::builder()
//!     .feature("pend_ios", 8, 1)
//!     .feature("io_latency", 8, 4) // last 4 latencies
//!     .build();
//! service.create_registry("sda1", "bio_latency_prediction", schema, 64)?;
//!
//! let t0 = Instant::from_nanos(100);
//! service.begin_fv_capture("sda1", "bio_latency_prediction", t0)?;
//! service.capture_feature_incr("sda1", "bio_latency_prediction", "pend_ios", 1)?;
//! service.capture_feature("sda1", "bio_latency_prediction", "io_latency", &250i64.to_le_bytes())?;
//! service.commit_fv_capture("sda1", "bio_latency_prediction", Instant::from_nanos(200))?;
//!
//! let batch = service.get_features("sda1", "bio_latency_prediction", None)?;
//! assert_eq!(batch.len(), 1);
//! assert_eq!(batch[0].get_i64("pend_ios"), Some(1));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod registry;
pub mod schema;
pub mod service;
pub mod vector;

pub use registry::Registry;
pub use schema::{FeatureSpec, Schema, SchemaBuilder};
pub use service::{FeatureRegistryService, RegistryError};
pub use vector::FeatureVector;
