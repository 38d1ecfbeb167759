//! Long-lived carve-outs of the shared region for transport rings.
//!
//! A ring transport needs a fixed span of the shared mapping that lives for
//! the whole deployment and is accessed concurrently by both spaces with the
//! ring's *own* synchronization (head/tail atomics), not the region's
//! allocator lock. [`ShmCarve`] models the paper's mmap'd per-channel pages:
//! the reservation is accounted against the region's best-fit allocator (so
//! capacity/stats reflect it and `cma=` sizing stays honest) while the bytes
//! themselves are a dedicated stable slab handed out as a raw pointer for
//! lock-free access.

use std::fmt;
use std::ptr::NonNull;

use crate::region::{ShmBuffer, ShmError, ShmRegion};

/// A fixed-size, deployment-lifetime span carved out of a [`ShmRegion`].
///
/// The carve holds a kernel-owned allocation in the region (so orphan
/// sweeps never touch it) and releases it on drop. Both sides of a ring
/// share one carve via `Arc`; all access to the bytes goes through
/// [`ShmCarve::as_ptr`] and must be coordinated by the caller's own
/// atomics — that is the whole point of carving out of the allocator's
/// mutex.
pub struct ShmCarve {
    region: ShmRegion,
    handle: ShmBuffer,
    /// The carved bytes: a `Box<[u8]>` leaked in [`ShmCarve::new`] and
    /// reclaimed in `Drop`. Kept as a raw pointer so [`ShmCarve::as_ptr`]
    /// never creates a reference to the slab — both sides of a ring write
    /// through it from different threads at once, and a `&mut [u8]` per
    /// call would be two overlapping unique borrows.
    slab: NonNull<[u8]>,
}

// SAFETY: `region` and `handle` are thread-safe values. `slab` is owned
// (freed exactly once, in `Drop`) and only ever reached through raw
// pointers from `as_ptr`, so moving the carve to another thread moves
// plain ownership of the allocation.
unsafe impl Send for ShmCarve {}
// SAFETY: `&ShmCarve` exposes the slab only as a raw pointer; no method
// reads or writes the bytes or creates a reference to them. Callers that
// dereference the pointer from several threads (the SPSC ring) order
// their accesses with their own acquire/release atomics, as the
// `as_ptr` contract requires.
unsafe impl Sync for ShmCarve {}

impl ShmCarve {
    pub(crate) fn new(region: ShmRegion, handle: ShmBuffer, size: usize) -> Self {
        let slab = NonNull::from(Box::leak(vec![0u8; size].into_boxed_slice()));
        ShmCarve { region, handle, slab }
    }

    /// Size of the carved span in bytes.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True if the carve is zero-sized (never produced by `carve`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offset of the backing reservation inside the region — the "device
    /// address" a real implementation would hand the peer to mmap.
    pub fn offset(&self) -> usize {
        self.handle.offset()
    }

    /// Raw pointer to the carved bytes.
    ///
    /// The pointer is stable for the carve's lifetime. Concurrent readers
    /// and writers must coordinate through their own synchronization;
    /// unsynchronized overlapping access is a data race exactly as it
    /// would be on real shared pages.
    pub fn as_ptr(&self) -> *mut u8 {
        self.slab.cast::<u8>().as_ptr()
    }
}

impl fmt::Debug for ShmCarve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShmCarve")
            .field("offset", &self.handle.offset())
            .field("len", &self.len())
            .finish()
    }
}

impl Drop for ShmCarve {
    fn drop(&mut self) {
        // Stale/foreign handles can only mean the region itself was torn
        // down first; nothing to return then.
        let _ = self.region.free(self.handle.clone());
        // SAFETY: `slab` came from `Box::leak` in `new` and is reclaimed
        // only here, once. Pointers from `as_ptr` are valid only for the
        // carve's lifetime, so none is dereferenced after this.
        drop(unsafe { Box::from_raw(self.slab.as_ptr()) });
    }
}

impl ShmRegion {
    /// Carves a deployment-lifetime span of `size` bytes out of the region
    /// for a transport ring: the reservation is accounted in the best-fit
    /// allocator (kernel-owned, invisible to orphan sweeps) and the bytes
    /// are exposed raw via [`ShmCarve::as_ptr`] for lock-free use.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::OutOfMemory`] if no free block fits.
    pub fn carve(&self, size: usize) -> Result<ShmCarve, ShmError> {
        let handle = self.alloc(size)?;
        Ok(ShmCarve::new(self.clone(), handle, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_accounts_against_the_region_and_frees_on_drop() {
        let shm = ShmRegion::with_capacity(1 << 16);
        let carve = shm.carve(4096).unwrap();
        assert_eq!(carve.len(), 4096);
        assert!(shm.stats().in_use >= 1);
        assert!(!carve.as_ptr().is_null());
        drop(carve);
        assert_eq!(shm.stats().in_use, 0);
        assert_eq!(shm.stats().free_blocks, 1);
    }

    #[test]
    fn carve_survives_orphan_sweeps() {
        let shm = ShmRegion::with_capacity(1 << 16);
        let carve = shm.carve(4096).unwrap();
        shm.set_epoch(3);
        shm.reclaim_orphans();
        shm.reclaim_before(3);
        // Still writable through the raw pointer after the sweeps.
        // SAFETY: the carve is alive and 4096 bytes long, and this thread
        // is its only user.
        unsafe {
            carve.as_ptr().write(0xAB);
            assert_eq!(carve.as_ptr().read(), 0xAB);
        }
        assert!(shm.stats().in_use >= 1, "kernel-owned carve must survive sweeps");
    }

    #[test]
    fn carve_pointer_is_shared_across_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let shm = ShmRegion::with_capacity(1 << 16);
        let carve = Arc::new(shm.carve(64).unwrap());
        let ready = Arc::new(AtomicBool::new(false));
        let (c2, r2) = (carve.clone(), ready.clone());
        let writer = std::thread::spawn(move || {
            // SAFETY: `c2` keeps the 64-byte carve alive; the main thread
            // reads byte 0 only after the release store below.
            unsafe { c2.as_ptr().write(7) };
            r2.store(true, Ordering::Release);
        });
        while !ready.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // SAFETY: the acquire load above saw the writer's release store,
        // so its write to byte 0 happens-before this read.
        assert_eq!(unsafe { carve.as_ptr().read() }, 7);
        writer.join().unwrap();
    }
}
