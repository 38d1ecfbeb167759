//! lakeShm: the shared-memory region LAKE uses for zero-copy bulk transfers.
//!
//! In the paper (§4, §6), `lakeShm` reserves a contiguous DMA region at
//! module load time (`dma_alloc_coherent`, sized by the `cma=` boot
//! parameter), maps the same region into the `lakeD` daemon process, and
//! hands out allocations from it with **a best-fit allocator**. Kernel
//! modules place input buffers there; the daemon reads them directly —
//! "zero-copy memory movement between kernel space modules and lakeD" —
//! so only small commands cross the Netlink channel.
//!
//! This crate reproduces that component faithfully: one contiguous byte
//! region, a best-fit free list with coalescing, and handles usable from
//! both simulated spaces (and from real threads — the region is internally
//! synchronized).
//!
//! # Example
//!
//! ```
//! use lake_shm::ShmRegion;
//!
//! # fn main() -> Result<(), lake_shm::ShmError> {
//! let shm = ShmRegion::with_capacity(1 << 20); // cma=1M
//! let buf = shm.alloc(4096)?;
//! shm.write(&buf, 0, b"feature vectors")?;     // kernel side writes...
//! let bytes = shm.read(&buf, 0, 15)?;          // ...daemon side reads
//! assert_eq!(&bytes, b"feature vectors");
//! shm.free(buf)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod allocator;
mod backing;
mod carve;
mod region;

pub use allocator::{AllocStats, BestFitAllocator, OwnerTag};
pub use carve::ShmCarve;
pub use region::{ReclaimReport, ShmBuffer, ShmError, ShmRegion};
