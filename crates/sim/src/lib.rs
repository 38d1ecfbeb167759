//! Shared virtual-clock simulation substrate for the LAKE reproduction.
//!
//! The LAKE paper ([Fingler et al., ASPLOS '23]) evaluates a real Linux 6.0
//! kernel on a GPU testbed. This crate provides the synthetic equivalent used
//! throughout the reproduction: a virtual nanosecond clock shared by every
//! component, shared resources with utilization accounting, time-series
//! metric recorders, and the random distributions the paper uses to generate
//! storage traces (exponential inter-arrival, lognormal size, uniform offset).
//!
//! Everything that "takes time" in the reproduction — boundary crossings, GPU
//! kernels, NVMe service, AES rounds — charges that time against a
//! [`Clock`], so experiments report latencies and throughputs in the same
//! units the paper does, independent of host speed.
//!
//! # Example
//!
//! ```
//! use lake_sim::{Duration, SharedClock};
//!
//! // Both spaces and the device hold clones of one clock.
//! let clock = SharedClock::new();
//! let device = clock.clone();
//! device.advance(Duration::from_micros(5));
//! assert_eq!(clock.now().as_micros(), 5);
//! ```
//!
//! [Fingler et al., ASPLOS '23]: https://doi.org/10.1145/3575693.3575697

#![warn(missing_docs)]

pub mod clock;
pub mod dist;
pub mod fault;
pub mod metrics;
pub mod park;
pub mod resource;
pub mod rng;

pub use clock::{Clock, Duration, Instant, SharedClock};
pub use fault::{
    BurstSchedule, CrashSchedule, FaultCounters, FaultPlan, FaultSpec, FrameFault, PressurePlan,
};
pub use metrics::{Histogram, MovingAverage, TimeSeries, UtilizationMeter};
pub use park::{ParkMeter, ParkStats, Parked};
pub use resource::{FifoResource, Grant};
pub use rng::SimRng;
